"""Tracing from outside the solver: wrap entry points, record spans.

``Tracer.install`` replaces each target function, under every name a
``msflow`` module (or scipy's ``sparse.linalg``) binds it to, with a
wrapper that appends one span per call: name, start, end, parent span
and a few counts read from the arguments or the result.  Spans stay in
memory; ``dump`` writes them out once the run is over.  A target that
no longer exists is listed in ``missing`` and simply yields no spans,
so its layer metrics read 0.

``layer_metrics`` turns the spans into the per-layer numbers.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

_clock = time.perf_counter


def _path_arg(index):
    def probe(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs.get("path")
        return {"bytes": os.path.getsize(path)}
    return probe


def _fill(args, kwargs, result):
    # L.nnz + U.nnz, one factor at a time to bound the extra memory.
    fill = result.L.nnz
    return {"fill_nnz": fill + result.U.nnz}


def _points(args, kwargs, result):
    w = args[0]
    return {"points": w.size // w.shape[-1]}


def _flow_iters(args, kwargs, result):
    return {"iters": getattr(result[-1], "picard_iterations", 0)}


def _species_iters(args, kwargs, result):
    return {"iters": getattr(result[-1], "iterations", 0)}


# (span name, module, attribute path, probe on the call's result)
TARGETS = (
    ("load_config", "msflow.config", "load_config", None),
    ("run_simulation", "msflow.driver", "run_simulation", None),
    ("sweep_epsilon", "msflow.driver", "sweep_epsilon", None),
    ("reference_incompressible", "msflow.driver",
     "reference_incompressible", None),
    ("flow_step", "msflow.flow", "flow_step", _flow_iters),
    ("species_step", "msflow.species", "species_step", _species_iters),
    ("advection_matrix", "msflow.grid", "advection_matrix", None),
    ("write_snapshot", "msflow.grid", "write_snapshot", _path_arg(0)),
    ("densities_from_entropy", "msflow.mixture", "densities_from_entropy",
     _points),
    ("mobility_matrix", "msflow.mixture", "mobility_matrix", None),
    ("entropy_hessian", "msflow.mixture", "entropy_hessian", None),
    ("record_step", "msflow.diagnostics", "SimLedger.record_step", None),
    ("check_global_bounds", "msflow.diagnostics",
     "SimLedger.check_global_bounds", None),
    ("write_csv", "msflow.diagnostics", "SimLedger.write_csv", _path_arg(1)),
    ("splu", "scipy.sparse.linalg", "splu", _fill),
    ("cg", "scipy.sparse.linalg", "cg", None),
)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent_index, counts]``; the parent
    is the innermost span open when the call began (-1 at the top).
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, probe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
            if probe is not None:
                record[4] = probe(args, kwargs, result)
            return result

        return traced

    def wrap_cg(self, fn):
        """cg with an iteration-counting callback chained in front."""
        spans = self.spans

        def counting_cg(*args, **kwargs):
            record = spans[-1]          # the span opened by the outer wrap
            user_cb = kwargs.get("callback")
            counts = {"iters": 0}

            def callback(xk):
                counts["iters"] += 1
                if user_cb is not None:
                    user_cb(xk)

            kwargs["callback"] = callback
            result = fn(*args, **kwargs)
            record[4] = counts
            return result

        return self.wrap("cg", counting_cg)

    def install(self):
        """Wrap every target under each name that binds it."""
        for name, module_name, attr, probe in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapped = (self.wrap_cg(original) if name == "cg"
                       else self.wrap(name, original, probe))
            if owner is not module:
                setattr(owner, leaf, wrapped)   # a method on a class
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is module or mod_name.split(".")[0] == "msflow":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def layer_metrics(spans):
    """Per-layer counts and times from a list of spans."""
    n = len(spans)
    child_time = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - child_time[i]

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    def count(i, key):
        extra = spans[i][4]
        return extra.get(key, 0) if extra else 0

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(name, parent=None):
        return [i for i in by_name.get(name, ())
                if parent is None or parent_name(i) == parent]

    def total(indices, fn):
        return float(sum(fn(i) for i in indices))

    def ints(indices, key):
        return int(sum(count(i, key) for i in indices))

    adv = idx("advection_matrix")
    snaps = idx("write_snapshot")
    flow_lu = idx("splu", "flow_step")
    saddle_lu = idx("splu", "reference_incompressible")
    cgs = idx("cg", "species_step")
    inv = idx("densities_from_entropy")
    csvs = idx("write_csv")
    picard = ints(idx("flow_step"), "iters")
    outer = ints(idx("species_step"), "iters")
    cg_iters = ints(cgs, "iters")

    # Factorizations beyond the first of each relaxed run: the first is
    # the cached advection-free Helmholtz LU, the rest are the frozen-
    # advection fallback when the lagged Picard iteration stalls.
    per_run = {}
    for i in flow_lu:
        root = i
        while root >= 0 and spans[root][0] != "run_simulation":
            root = spans[root][3]
        per_run[root] = per_run.get(root, 0) + 1
    refactors = sum(max(0, c - 1) for c in per_run.values())

    return {
        "grid.advection_matrix.calls": len(adv),
        "grid.advection_matrix.self_s": total(adv, self_time),
        "grid.snapshot.s": total(snaps, dur),
        "grid.snapshot.bytes": ints(snaps, "bytes"),
        "flow.step.self_s": total(idx("flow_step"), self_time),
        "flow.factor.calls": len(flow_lu),
        "flow.factor.s": total(flow_lu, dur),
        "flow.factor.fill_nnz": ints(flow_lu, "fill_nnz"),
        "flow.picard_iters": picard,
        "flow.refactor_ratio": refactors / picard if picard else 0.0,
        "species.step.self_s": total(idx("species_step"), self_time),
        "species.outer_iters": outer,
        "species.cg.calls": len(cgs),
        "species.cg.iters": cg_iters,
        "species.cg.iters_per_solve": cg_iters / len(cgs) if cgs else 0.0,
        "species.cg.s": total(cgs, dur),
        "species.evals_per_outer": (
            len(idx("densities_from_entropy", "species_step")) / outer
            if outer else 0.0),
        "mixture.inversion.calls": len(inv),
        "mixture.inversion.points": ints(inv, "points"),
        "mixture.inversion.self_s": total(inv, self_time),
        "mixture.mobility.self_s": total(idx("mobility_matrix"), self_time),
        "mixture.hessian.self_s": total(idx("entropy_hessian"), self_time),
        "driver.saddle_factor.s": total(saddle_lu, dur),
        "driver.saddle_factor.fill_nnz": ints(saddle_lu, "fill_nnz"),
        "driver.reference.self_s": total(idx("reference_incompressible"),
                                         self_time),
        "diagnostics.record.self_s": total(idx("record_step"), self_time),
        "diagnostics.bounds.s": total(idx("check_global_bounds"), dur),
        "diagnostics.csv.s": total(csvs, dur),
        "diagnostics.csv.bytes": ints(csvs, "bytes"),
        "config.load.s": total(idx("load_config"), dur),
    }


# Counts that must repeat exactly between two traced runs of one input.
EXACT_COUNTS = (
    "grid.advection_matrix.calls", "flow.factor.calls",
    "flow.factor.fill_nnz", "flow.picard_iters", "species.outer_iters",
    "species.cg.calls", "species.cg.iters", "mixture.inversion.calls",
    "driver.saddle_factor.fill_nnz", "grid.snapshot.bytes",
    "diagnostics.csv.bytes",
)
