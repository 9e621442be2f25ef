"""Command-line front end.

Subcommands:

* ``run <config>``: advance the relaxed solver, write ledger CSV and
  snapshots, print the ledger's verdict, one FAIL line per broken rule
  and the first step that breaks one.
  ``-v`` also prints one line per step with its iteration counts and
  whether each solve started from the extrapolated guess.
* ``sweep-eps <config> --eps 1e-1,1e-2``: relaxation sweep against the
  incompressible reference.
* ``check <config>``: fast invariant suite (algebra, operator
  adjointness, advection identities, a short run with the ledger's
  verdict, the same short run of the incompressible reference).
* ``compare-ref <config>``: one relaxed run against the reference at
  the configured eps.

All subcommands accept repeated ``--set key=value`` overrides using
config-file keys.  Exit code is zero only if every enabled check holds
(for ``run``, the five rules that the docstring of
:mod:`msflow.diagnostics` states), 1 if a check fails, 2 for a bad
config value or ``--eps`` list and 3 on any SolverError, naming the
step; the last two print one stderr line.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import mixture
from .config import ConfigError, load_config, parse_float_list
from .driver import (
    reference_incompressible,
    run_simulation,
    sweep_eps_values,
    sweep_epsilon,
    sweep_row,
)
from .grid import Grid, advect_form, div, grad, inner
from .iteration import SolverError
from .species import divergence_identity_residual


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="msflow",
        description="artificial-compressibility mixture flow solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("run", "run a simulation and write outputs"),
            ("sweep-eps", "relaxation sweep against the reference"),
            ("check", "fast invariant checks"),
            ("compare-ref", "compare one run against the reference")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", nargs="?", default=None,
                       help="path to a key=value config file "
                            "(defaults apply when omitted)")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        if name == "run":
            p.add_argument("-v", "--verbose", action="store_true",
                           help="print the iteration counts of each step")
        if name == "sweep-eps":
            p.add_argument("--eps", required=True,
                           help="comma-separated relaxation values "
                                "(two or more, distinct, all positive)")
    return parser


class _Checker:
    def __init__(self):
        self.failures = 0

    def check(self, ok: bool, label: str, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {label}{suffix}")
        self.failures += not ok


def _cmd_run(cfg, verbose: bool = False) -> int:
    # The driver logs one INFO line per completed step.
    log = logging.getLogger("msflow")
    level = log.level
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    if verbose:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        result = run_simulation(cfg, write_outputs=True)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    last = result.ledger.rows[-1]
    print(f"steps completed: {last['step']}  t = {last['time']:.6g}")
    print(f"energy {last['energy']:.6e}  entropy {last['entropy']:.6e}  "
          f"min density {last['min_density']:.3e}")
    bounds = result.ledger.check_global_bounds()
    print(f"max energy-identity residual {bounds.worst_energy_residual:.3e}  "
          f"max entropy slack {bounds.worst_entropy_slack:+.3e}")
    print(f"global bounds: energy margin {bounds.energy_margin:.3e}  "
          f"entropy margin {bounds.entropy_margin:.3e}  "
          f"poincare {bounds.poincare_constant:.6g}")
    for label, ok, detail in bounds.rules:
        if not ok:
            _Checker().check(ok, label, detail)
    if bounds.first_violation is not None:
        print(f"first failing step: {bounds.first_violation}")
    print(f"ledger written to "
          f"{os.path.join(cfg.out_dir, cfg.csv_name)}")
    return 0 if bounds.ok else 1


def _cmd_sweep(cfg, eps_text: str) -> int:
    eps_values = sweep_eps_values(parse_float_list(eps_text))
    cfg.make_out_dir()
    result = sweep_epsilon(cfg, eps_values, strict=False)
    print(result.table(), end="")
    print(f"div ratio (largest/smallest eps): {result.div_ratio:.3g}")
    path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(path, "w") as fh:
        fh.write(result.table())
    print(f"sweep table written to {path}")
    ok = result.monotone_div and result.monotone_u
    print("monotone decrease: "
          f"div {result.monotone_div}  u-distance {result.monotone_u}")
    return 0 if ok else 1


def _cmd_check(cfg) -> int:
    ck = _Checker()
    spec = cfg.build_mixture()
    rng = np.random.default_rng(cfg.seed + 1)
    pts = mixture.sample_simplex(rng, spec.n_species, 200)

    err = float(np.abs(mixture.densities_from_entropy(
        mixture.entropy_vars(pts, spec), spec) - pts).max())
    ck.check(err <= 1e-10, "entropy-variable roundtrip", f"max err {err:.2e}")

    def blocks(routine):
        """The routine's matrices at ``pts`` as np.linalg's (P, N, N)."""
        return np.moveaxis(routine(pts, spec), -1, 0)

    hess = blocks(mixture.entropy_hessian)
    for name, m in (("entropy hessian", hess),
                    ("fraction jacobian", blocks(mixture.fraction_jacobian)),
                    ("mobility matrix", blocks(mixture.mobility_matrix))):
        sym = float(np.abs(m - np.swapaxes(m, -1, -2)).max())
        eig = float(np.linalg.eigvalsh(0.5 * (
            m + np.swapaxes(m, -1, -2))).min())
        ck.check(sym <= 1e-8 * np.abs(m).max() and eig > 0.0,
                 f"{name} symmetric positive definite",
                 f"min eig {eig:.3e}")
    defect = float(np.abs(blocks(mixture.density_jacobian) @ hess
                          - np.eye(spec.n_reduced)).max())
    ck.check(defect <= 1e-10, "density jacobian inverts the entropy hessian",
             f"max defect {defect:.2e}")
    conds = np.linalg.cond(blocks(mixture.friction_matrix_reduced))
    ck.check(bool(np.all(np.isfinite(conds))), "reduced friction invertible",
             f"max cond {conds.max():.3e}")

    grid = Grid.box((16, 16), (1.0, 1.0))
    f = rng.standard_normal(grid.shape)
    v = rng.standard_normal((2,) + grid.shape)
    defect = abs(inner(grid, grad(grid, f, "neumann"), v)
                 + inner(grid, f, div(grid, v, "dirichlet")))
    ck.check(defect <= 1e-13 * max(1.0, float(np.abs(f).max())),
             "summation-by-parts adjointness", f"defect {defect:.2e}")

    u = rng.standard_normal((2,) + grid.shape)
    a = rng.standard_normal((2,) + grid.shape)
    b = rng.standard_normal((2,) + grid.shape)
    anti = abs(advect_form(grid, u, a, b, "dirichlet")
               + advect_form(grid, u, b, a, "dirichlet"))
    selfz = abs(advect_form(grid, u, a, a, "dirichlet"))
    ck.check(anti <= 1e-12 and selfz <= 1e-12,
             "advection form skew identities",
             f"antisym {anti:.2e} self {selfz:.2e}")

    res = []
    for n in (16, 32):
        g2 = Grid.box((n, n), (1.0, 1.0))
        xs = g2.cell_centers()
        sx = np.sin(np.pi * xs[0]) ** 2
        sy = np.sin(np.pi * xs[1]) ** 2
        uu = np.stack([sx * sy, -sx * sy])
        # div u is antisymmetric under x <-> y; the second mode keeps w
        # from being symmetric, or every pairing in the identity is zero.
        cy = np.cos(np.pi * xs[1])
        ww = np.stack([0.3 * np.cos(np.pi * xs[0]) * cy
                       + 0.2 * np.cos((k + 2) * np.pi * xs[0]) * cy
                       for k in range(spec.n_reduced)])
        res.append(divergence_identity_residual(g2, uu, ww, spec))
    # A residual at roundoff means the field does not exercise the
    # identity; the order would be a ratio of noise, so that fails too.
    order = np.log2(res[0] / res[1]) if res[1] > 1e-12 else np.nan
    ck.check(order >= 1.8, "divergence identity refinement",
             f"residuals {res[0]:.2e}/{res[1]:.2e}, order {order:.2f}")

    # A few steps of the configured scheme: same tau, shorter horizon.
    n_short = min(cfg.steps, 5)
    small = replace(cfg, steps=n_short, t_final=n_short * cfg.tau)
    bounds = run_simulation(small).ledger.check_global_bounds()
    for label, ok, detail in bounds.rules:
        ck.check(ok, label, detail)
    ref = reference_incompressible(small).ledger
    worst_div = max((r["div_u_l2"] for r in ref.rows[1:]), default=0.0)
    bounds = ref.check_global_bounds()   # rules[0]: per-step energy
    ck.check(worst_div <= 1e-12 and bounds.rules[0][1],
             "incompressible reference divergence-free",
             f"max div {worst_div:.2e}, max energy residual "
             f"{bounds.worst_energy_residual:.2e}")

    print(f"{ck.failures} failure(s)")
    return 0 if ck.failures == 0 else 1


def _cmd_compare(cfg) -> int:
    ref = reference_incompressible(cfg, keep_history=True)
    row = sweep_row(run_simulation(cfg, keep_history=True), ref)
    print(f"eps = {cfg.eps:g}")
    print(f"relaxed   |div u| = {row.div_norm:.6e}")
    print(f"reference |div u| = {sweep_row(ref, ref).div_norm:.6e}")
    print(f"|u - u_ref|   = {row.u_diff:.6e}")
    print(f"|rho - rho_ref| = {row.rho_diff:.6e}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "sweep-eps":
            return _cmd_sweep(cfg, args.eps)
        if args.command == "run":
            return _cmd_run(cfg, args.verbose)
        return {"check": _cmd_check,
                "compare-ref": _cmd_compare}[args.command](cfg)
    except (ConfigError, SolverError) as exc:
        where = f" (step {exc.step})" if hasattr(exc, "step") else ""
        print(f"msflow: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
