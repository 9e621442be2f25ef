"""msflow benchmark: end-to-end solver runs and traced per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload vortex2d-64 --seed 0 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn
    python3 perfbench/run.py --workload all --smoke --seconds 1

Each repetition runs in a fresh interpreter (``child.py``), so the
solver's process-global caches start empty as they do for a user, with
BLAS/OpenMP pinned to one thread.  The loop is closed: one run at a
time, no request rate.

``--trace 0`` first starts several set-up-only children (import plus
config load), then repeats the solve as often as fits in ``--seconds``
(at least once), and reports medians of

* ``run_s``: wall time of the solve call, every LU factorization included;
* ``setup_s``: child start to the solve call;
* ``peak_rss_mb``: peak resident memory of the child.

The table above the result also shows ``cell_steps_per_s`` (cells x
steps x solver runs / ``run_s``).  It is ``run_s`` as a rate, so it is
not a metric of its own in the result line.

``--trace 1`` runs the solve four times, alternately untraced and
traced, and reports the per-layer metrics of ``spans.layer_metrics``
plus ``trace.overhead_s`` (median traced minus median untraced
``run_s``).

Every run is checked: the ledger gates or sweep gates of ``child.py``,
identical output hashes across the repetitions, and, when traced,
identical counts between the two traced runs.  A repetition that fails
any check counts in ``failed``; the table above the result prints
``error_rate`` = failed / attempted.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Traced runs leave their spans in ``.perfbench_out/spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench_out")
SPANS_DIR = os.path.join(WORK_DIR, "spans")
DEADLINE_S = 170.0          # a run ends well inside 180 s
SETUP_SAMPLES = 3
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name, trace):
    if not trace:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("ratio", "_per_solve", "_per_outer")):
        return "ratio"
    return "count"


def provenance():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": nproc, "threads": THREADS,
            "python": platform.python_version(), **versions,
            "machine": platform.machine()}


class Session:
    """Spawns the child repetitions of one workload and seed."""

    def __init__(self, workload, seed, smoke, deadline):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = deadline
        self.count = 0
        self.dir = os.path.join(WORK_DIR, f"{workload}-seed{seed}")
        self.env = dict(os.environ)
        for var in THREAD_VARS:
            self.env[var] = str(THREADS)

    def spawn(self, trace=0, setup_only=False):
        """One child; its JSON result, or a failed record."""
        self.count += 1
        out_dir = os.path.join(self.dir, f"rep-{self.count}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", out_dir, "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if self.smoke:
            cmd.append("--smoke")
        timeout = max(1.0, self.deadline - time.monotonic())
        started = time.monotonic()
        cmd += ["--spawned-at", repr(started)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, env=self.env, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            result = {"ok": False,
                      "failures": [f"timed out after {timeout:.0f} s"]}
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-3:]
            result = {"ok": False, "failures": [
                f"exit {proc.returncode}: " + " | ".join(tail)]}
        result["wall"] = time.monotonic() - started
        spans = os.path.join(out_dir, "spans.json")
        if os.path.exists(spans):
            os.makedirs(SPANS_DIR, exist_ok=True)
            os.replace(spans, os.path.join(
                SPANS_DIR, f"{self.workload}-seed{self.seed}-{self.count}.json"))
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def room_for(self, seconds):
        return time.monotonic() + seconds < self.deadline


def _check_hashes(reps):
    """Mark repetitions whose output differs from the first good one."""
    good = [r for r in reps if r.get("ok")]
    for r in good[1:]:
        if r["sha256"] != good[0]["sha256"]:
            r["ok"] = False
            r["failures"] = [f"{r['output']} differs between repetitions"]


def measure(session, seconds):
    """End-to-end metrics with tracing off."""
    setups = [session.spawn(setup_only=True) for _ in range(SETUP_SAMPLES)]
    reps = []
    while True:
        reps.append(session.spawn())
        walls = [r["wall"] for r in reps]
        expected = statistics.median(walls)
        # Stop where one more repetition would end farther past the
        # budget than stopping now falls short of it.
        if (sum(walls) + expected / 2 > seconds
                or not session.room_for(expected)):
            break
    _check_hashes(reps)
    good = [r for r in reps if r.get("ok")]
    setup_samples = [r["setup_s"] for r in setups + reps if "setup_s" in r]
    metrics = {}
    if good:
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
    if setup_samples:
        metrics["setup_s"] = statistics.median(setup_samples)
    samples = {"run_s": len(good), "peak_rss_mb": len(good),
               "setup_s": len(setup_samples)}
    return reps, setups, metrics, samples


def measure_traced(session):
    """Per-layer metrics from two traced repetitions, alternated with two
    untraced ones so that drifts in machine speed hit both alike."""
    reps = [session.spawn(trace=t) for t in (0, 1, 0, 1)]
    _check_hashes(reps)
    plain = [r for r in reps[0::2] if r.get("ok")]
    traced = [r for r in reps[1::2] if r.get("ok")]
    if len(traced) == 2:
        a, b = (t["layers"] for t in traced)
        differ = [key for key in EXACT_COUNTS if a.get(key) != b.get(key)]
        if differ:
            traced[1]["ok"] = False
            traced[1]["failures"] = [
                f"counts differ between traced runs: {', '.join(differ)}"]
            traced = traced[:1]
    metrics = {}
    if traced:
        for key in traced[0]["layers"]:
            if unit_of(key, 1) == "s":
                metrics[key] = statistics.median(
                    t["layers"][key] for t in traced)
            else:
                metrics[key] = traced[0]["layers"][key]
        if plain:
            metrics["trace.overhead_s"] = (
                statistics.median(t["run_s"] for t in traced)
                - statistics.median(p["run_s"] for p in plain))
        missing = traced[0].get("missing")
        if missing:
            print(f"# not found, reported as 0: {', '.join(missing)}")
    samples = {key: len(traced) for key in metrics}
    return reps, [], metrics, samples


def run_workload(name, seed, seconds, trace, smoke, deadline):
    session = Session(name, seed, smoke, deadline)
    try:
        if trace:
            reps, setups, metrics, samples = measure_traced(session)
        else:
            reps, setups, metrics, samples = measure(session, seconds)
    finally:
        shutil.rmtree(session.dir, ignore_errors=True)
    failed = [r for r in reps + setups if not r.get("ok")]
    for r in failed:
        for line in r.get("failures", []):
            print(f"# {name}: FAILED {line.strip()}")
    for key, value in metrics.items():
        print(f"{name:14s} {key:32s} {value:>16.6g} "
              f"{unit_of(key, trace):13s} n={samples[key]}")
    good = [r for r in reps if r.get("ok")]
    if good and not trace:
        rate = statistics.median(r["cell_steps"] / r["run_s"] for r in good)
        print(f"{name:14s} {'cell_steps_per_s':32s} {rate:>16.6g} "
              f"{'cell-steps/s':13s} n={len(good)}")
    attempted = len(reps) + len(setups)
    print(f"{name:14s} {'error_rate':32s} {len(failed) / attempted:>16.6g} "
          f"{'failed/runs':13s} n={attempted}")
    runs = " ".join(f"{r['run_s']:.4f}" for r in reps if r.get("ok"))
    print(f"{name:14s} {'run_s per repetition':32s} {runs or '-'}")
    hashes = sorted({r["sha256"] for r in reps if r.get("ok")})
    print(f"{name:14s} {'output sha256':32s} {', '.join(hashes) or '-'}")
    return attempted, len(failed), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="16^2, few-step variant of each workload")
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    missing = [p for p in ["src/msflow/__init__.py"]
               + [WORKLOADS[n].config for n in names]
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full "
              f"msflow checkout", file=sys.stderr)
        return 2

    prov = provenance()
    print("# provenance " + json.dumps(prov))
    attempted = failed = 0
    metrics = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace,
                               args.smoke, deadline)
        attempted += a
        failed += f
        for key, value in m.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": value, "unit": unit_of(key, args.trace)}
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
