"""Simulation driver: time loop, reference solver, sweeps.

``run_simulation`` advances the artificial-compressibility system and
fills a diagnostics ledger.  The run takes its start, the grid, the
mixture, the forcing and the lifted initial state, from
``SimConfig.validate``, which checks the config first.  Each step's
flow and species solves may start from a backward-difference
extrapolation of the last accepted steps.  ``reference_incompressible``
runs the same time loop on its incompressible limit, whose saddle
system keeps the velocity divergence at machine precision each step; it
provides the limit object for the relaxation sweep.  Each run builds
its flow and species operators once, before its first step, among them
the flow step's transform inverse, and drops them all when it returns.
With ``write_outputs`` the output directory is made before step 1 and
the ledger is written even when a solver fails, up to the last
completed step; each completed step is also logged at INFO level with
its iteration counts.  ``sweep_epsilon`` runs the relaxed solver for a
list of eps values against one reference run and checks that both the
divergence defect and the distance to the reference decrease
monotonically as eps decreases.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from . import mixture
from .config import ConfigError, SimConfig
from .diagnostics import SimLedger
from .flow import FlowParams, FlowState, FlowSystem, average_force, flow_step
from .grid import Grid, inner, write_snapshot
from .iteration import SolverError
from .species import SpeciesParams, SpeciesSystem, species_step

log = logging.getLogger(__name__)

# Order of the backward-difference extrapolation that starts each
# step's Picard and species loops; 0 starts them from the previous
# state.  Orders 1-5 each cut the passes on every shipped config, and
# no shipped run rejects a guess at order 5.
EXTRAPOLATION_ORDER = 5


@dataclass
class SimResult:
    config: SimConfig
    grid: Grid
    spec: mixture.MixtureSpec
    flow: FlowState
    w: np.ndarray
    rho: np.ndarray
    ledger: SimLedger
    history: dict | None = None


def _write_step_snapshots(config, grid, k, tau, flow, rho):
    t = k * tau
    base = config.out_dir
    write_snapshot(os.path.join(base, f"u_{k:06d}.txt"), grid, "u", t, flow.u)
    write_snapshot(os.path.join(base, f"p_{k:06d}.txt"), grid, "p", t,
                   flow.p[None])
    write_snapshot(os.path.join(base, f"rho_{k:06d}.txt"), grid, "rho", t,
                   rho)


def run_simulation(config: SimConfig, keep_history: bool = False,
                   write_outputs: bool = False) -> SimResult:
    """Advance the relaxed-incompressibility system for the whole run."""
    return _run(config, keep_history, write_outputs)


def reference_incompressible(config: SimConfig, keep_history: bool = False
                             ) -> SimResult:
    """Run the exactly incompressible reference on the config's grid.

    The run of the config at eps = 0: the relaxed solver's
    time loop, time step, advection form and species stepper on the
    incompressible limit.  In 1D, on an even number of cells, the
    constraint together with the wall condition forces zero velocity (to
    rounding under a force), so species evolve by pure cross-diffusion.
    On an odd number the central divergence does not see the
    checkerboard velocity, and a force can drive it.
    """
    return _run(replace(config, eps=0.0), keep_history)


def extrapolate(history):
    """Backward-difference extrapolation of the next state.

    ``history`` holds the last q + 1 states, oldest first; the result
    is sum_j (-1)^j C(q+1, j+1) x^{n-j}, exact for polynomials of
    degree q in time: 2 x^1 - x^0 at q = 1, 4 x^3 - 6 x^2 + 4 x^1 - x^0
    at q = 3.
    """
    q = len(history) - 1
    out = (q + 1) * history[-1]
    for j in range(1, q + 1):
        out = out + (-1) ** j * comb(q + 1, j + 1) * history[-1 - j]
    return out


def _run(config: SimConfig, keep_history: bool = False,
         write_outputs: bool = False) -> SimResult:
    """The time loop at relaxation ``config.eps``: a flow step, then a
    species step.  eps = 0 is the incompressible limit.

    Each step offers both solves a start: the order-q backward-difference
    extrapolation of the last q + 1 accepted velocities and entropy
    variables, with q the smaller of ``EXTRAPOLATION_ORDER`` and the
    number of steps taken.  Each solve keeps it by the guess rule of
    :mod:`msflow.iteration`.  The ledger's entropy column is the
    species report's ``entropy_after``.  A SolverError leaves with the
    failing step's index as its ``step`` attribute.
    """
    grid, spec, forcing, flow, rho, w = config.validate()
    tau = config.tau
    lam = config.lam_value
    ledger = SimLedger(grid, spec, tau, config.eps, lam, config.flow_tol,
                       config.species_tol)
    ledger.record_initial(flow, rho)
    past_u = deque([flow.u], maxlen=EXTRAPOLATION_ORDER + 1)
    past_w = deque([w], maxlen=EXTRAPOLATION_ORDER + 1)
    history = {"u": [], "rho": []} if keep_history else None
    if write_outputs:
        config.make_out_dir()
    if config.steps:
        system = FlowSystem(grid, FlowParams(
            tau=tau, eps=config.eps, tol=config.flow_tol,
            max_picard=config.max_picard))
        species = SpeciesSystem(grid, spec, SpeciesParams(
            tau=tau, lam=lam, tol=config.species_tol,
            max_outer=config.max_outer))
    try:
        for k in range(1, config.steps + 1):
            f_avg = average_force(forcing, grid, k, tau)
            warm = len(past_u) > 1
            flow, freport = flow_step(
                system, flow, f_avg,
                guess=extrapolate(past_u) if warm else None)
            w, rho, sreport = species_step(
                species, w, rho, flow.u,
                guess=extrapolate(past_w) if warm else None)
            past_u.append(flow.u)
            past_w.append(w)
            ledger.record_step(k, flow, freport, f_avg, rho, sreport)
            log.info("step %d: flow_iters %d flow_refactors %d "
                     "species_iters %d cg_iters %d flow_guess %d "
                     "species_guess %d", k, freport.picard_iterations,
                     freport.refactorizations, sreport.iterations,
                     sreport.cg_iterations, freport.from_guess,
                     sreport.from_guess)
            if keep_history:
                history["u"].append(flow.u.copy())
                history["rho"].append(rho.copy())
            if write_outputs and config.snapshot_every > 0 and (
                    k % config.snapshot_every == 0):
                _write_step_snapshots(config, grid, k, tau, flow, rho)
    except SolverError as exc:
        exc.step = k
        raise
    finally:
        if write_outputs:
            ledger.write_csv(os.path.join(config.out_dir, config.csv_name))
    return SimResult(config, grid, spec, flow, w, rho, ledger, history)


# ---------------------------------------------------------------------
# Relaxation sweep
# ---------------------------------------------------------------------

@dataclass
class SweepRow:
    eps: float
    div_norm: float
    u_diff: float
    rho_diff: float


@dataclass
class SweepResult:
    rows: list
    monotone_div: bool
    monotone_u: bool
    div_ratio: float

    def table(self) -> str:
        lines = ["eps,div_norm,u_diff,rho_diff"]
        for r in self.rows:
            lines.append(f"{r.eps!r},{r.div_norm!r},{r.u_diff!r},"
                         f"{r.rho_diff!r}")
        return "\n".join(lines) + "\n"


def _l2l2(grid: Grid, tau: float, fields_a, fields_b) -> float:
    total = 0.0
    for fa, fb in zip(fields_a, fields_b):
        d = fa - fb
        total += tau * inner(grid, d, d)
    return float(np.sqrt(total))


def sweep_row(res: SimResult, ref: SimResult) -> SweepRow:
    """Space-time distances of one run, kept with history, to a reference.

    ``div_norm`` is the run's own divergence defect in L2(0, T; L2).
    """
    tau = res.config.tau
    div_norm = float(np.sqrt(sum(
        tau * row["div_u_l2"] ** 2 for row in res.ledger.rows[1:])))
    return SweepRow(
        res.config.eps, div_norm,
        _l2l2(res.grid, tau, res.history["u"], ref.history["u"]),
        _l2l2(res.grid, tau, res.history["rho"], ref.history["rho"]))


def sweep_eps_values(eps_values) -> list:
    """The eps of a sweep, largest first; ConfigError unless there are
    two or more, each positive, finite and distinct."""
    eps_sorted = sorted((float(e) for e in eps_values), reverse=True)
    distinct = len(set(eps_sorted)) == len(eps_sorted)
    if len(eps_sorted) < 2 or not distinct or not all(
            0 < e < np.inf for e in eps_sorted):
        raise ConfigError("a sweep needs at least two eps values, each "
                          f"positive, finite and distinct, got {eps_sorted}")
    return eps_sorted


def sweep_epsilon(config: SimConfig, eps_values, strict: bool = True
                  ) -> SweepResult:
    """Run the relaxed solver for each eps against one reference run.

    The eps list is checked by ``sweep_eps_values`` before any run.
    Rows are ordered by decreasing eps.  With ``strict`` a rise of the
    divergence defect or of the velocity distance to the reference
    raises RuntimeError.
    """
    eps_sorted = sweep_eps_values(eps_values)
    ref = reference_incompressible(config, keep_history=True)
    rows = [sweep_row(run_simulation(replace(config, eps=eps),
                                     keep_history=True), ref)
            for eps in eps_sorted]
    div_seq = [r.div_norm for r in rows]
    u_seq = [r.u_diff for r in rows]
    monotone_div = all(b < a for a, b in zip(div_seq, div_seq[1:]))
    monotone_u = all(b < a for a, b in zip(u_seq, u_seq[1:]))
    div_ratio = div_seq[0] / div_seq[-1] if div_seq[-1] > 0 else np.inf
    result = SweepResult(rows, monotone_div, monotone_u, div_ratio)
    if strict and not (monotone_div and monotone_u):
        raise RuntimeError(
            "relaxation sweep lost monotonicity:\n" + result.table())
    return result
