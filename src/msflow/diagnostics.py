"""Per-step conservation ledger and the verdict on a finished run.

Every time step records the quadratic energies, the mixing entropy with
both dissipation functionals, species masses, divergence defect and the
residuals of the per-step energy and entropy balances.  Every row,
row 0 included, is built by ``record_step`` from the step's flow and
species reports; row 0 records the initial state as a step that did
nothing (default reports, zero forcing).  The CSV header is the key
order of that row.  The ledger serializes with shortest round-trip
float formatting, so identical runs produce byte-identical files.

A finished run must meet five rules, which ``check_global_bounds``
checks and ``msflow run`` and ``msflow check`` print: (1) per-step
energy identity, energy_residual <= 100 flow_tol; (2) per-step entropy
inequality, entropy_slack <= 100 species_tol (implicit Euler in entropy
variables gives an inequality); (3) species mass conservation, drift
<= ``MASS_DRIFT_LIMIT``; (4) density positivity without clamping, no
clamp event; (5) the telescoped energy and entropy bounds.

Solvers never clamp densities.  The single clamp in the code base lives
here, applies only to displayed values (floor 1e-14) and counts how
often it actually changed a value, which rule 4 requires to be zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture
from .flow import FlowStepReport
from .grid import Grid, div, grad, inner, norm_l2
from .species import SpeciesStepReport

DISPLAY_FLOOR = 1e-14
MASS_DRIFT_LIMIT = 1e-8


@dataclass
class GlobalBoundsReport:
    """The verdict: a (label, ok, detail) tuple per rule; ok if all hold."""
    ok: bool
    energy_margin: float
    entropy_margin: float
    first_violation: int | None      # first step breaking rule 1, 2, 3 or 5
    poincare_constant: float
    worst_energy_residual: float     # over the steps, 0.0 without one
    worst_entropy_slack: float
    rules: list[tuple[str, bool, str]]


def poincare_constant(grid: Grid) -> float:
    """Poincare constant for fields vanishing on the boundary.

    With odd ghosts the Dirichlet Laplacian's eigenvectors are discrete
    sines, so its smallest eigenvalue is the closed form
    mu = sum_a (2/h_a sin(pi / (2 n_a)))^2.  Returns 1/sqrt(mu), the
    constant in |v| <= C |grad v| with the face-based gradient norm.
    """
    mu = sum((2.0 / h * np.sin(np.pi / (2.0 * n))) ** 2
             for n, h in zip(grid.shape, grid.spacing))
    return 1.0 / np.sqrt(mu)


class SimLedger:
    """Accumulates per-step diagnostics for one simulation run."""

    def __init__(self, grid: Grid, spec: mixture.MixtureSpec, tau: float,
                 eps: float, lam: float, flow_tol: float, species_tol: float):
        self.grid = grid
        self.spec = spec
        self.tau = tau
        self.eps = eps
        self.lam = lam
        self.flow_tol, self.species_tol = flow_tol, species_tol
        self.rows: list[dict] = []
        self.clamp_events = 0
        self.cum_visc = 0.0
        self.cum_grad_sqrt_x = 0.0

    # -- helpers -------------------------------------------------------

    def _display_floor(self, value: float) -> float:
        """Floor tiny displayed densities; solvers never see this."""
        if value < DISPLAY_FLOOR:
            self.clamp_events += 1
            return DISPLAY_FLOOR
        return value

    def _mixture_columns(self, rho: np.ndarray):
        """The columns read off the densities (N, *shape)."""
        spec = self.spec
        gsq = 0.0
        for comp in np.sqrt(mixture.molar_fractions(rho, spec)[0]):
            g = grad(self.grid, comp, "neumann")
            gsq += inner(self.grid, g, g)
        rho_full = mixture.full_densities(rho, spec).reshape(
            spec.n_species, -1)
        masses = self.grid.cell_volume * rho_full.sum(axis=1)
        min_density = float(rho_full.min())
        closure = float(np.abs(rho_full.sum(axis=0) - 1.0).max())
        return gsq, masses, min_density, closure

    # -- recording -----------------------------------------------------

    def record_initial(self, flow_state, rho: np.ndarray) -> None:
        """Row 0: the initial state, recorded as a step that did nothing
        (zero forcing, default reports), its mixing entropy computed
        here."""
        entropy = self.grid.cell_volume * float(np.sum(
            mixture.entropy_density(rho, self.spec)))
        divu = norm_l2(self.grid, div(self.grid, flow_state.u))
        self.record_step(0, flow_state, FlowStepReport(div_u_l2=divu),
                         np.zeros_like(flow_state.u), rho,
                         SpeciesStepReport(entropy_after=entropy))

    def record_step(self, k: int, flow_state, flow_report, f_avg,
                    rho: np.ndarray, species_report) -> None:
        """Row k, its columns in CSV order; the entropy column is the
        species step's ``entropy_after``, the mixing entropy of ``rho``."""
        gsq, masses, min_density, closure = self._mixture_columns(rho)
        visc = flow_report.visc_dissipation
        self.cum_visc += 0.5 * visc          # accumulates tau |grad u|^2
        if k:                                # sums over steps 1..k
            self.cum_grad_sqrt_x += self.tau * gsq
        row = dict(
            step=k, time=k * self.tau,
            energy=inner(self.grid, flow_state.u, flow_state.u),
            pressure_energy=self.eps * inner(self.grid, flow_state.p,
                                             flow_state.p),
            visc_dissipation=visc, entropy=species_report.entropy_after,
            w_dissipation=species_report.dissipation,
            grad_sqrt_x_sq=gsq,
            div_u_l2=flow_report.div_u_l2,
        )
        for i, m in enumerate(masses):
            row[f"mass_{i + 1}"] = m
        row.update(
            min_density=self._display_floor(min_density),
            closure_defect=closure,
            energy_residual=flow_report.energy_identity_residual,
            pressure_eq_residual=flow_report.pressure_eq_residual,
            entropy_slack=species_report.entropy_balance_slack,
            control_term=species_report.control_term,
            advective_flux=species_report.advective_entropy_flux,
            lambda_h2_sq=species_report.h2_sq_norm,
            f_l2_sq=inner(self.grid, f_avg, f_avg),
            flow_iters=flow_report.picard_iterations,
            species_iters=species_report.iterations,
            cg_iters=species_report.cg_iterations,
            flow_refactors=flow_report.refactorizations,
            flow_guess=int(flow_report.from_guess),
            species_guess=int(species_report.from_guess),
            flow_residual=flow_report.final_residual,
            species_residual=species_report.final_residual,
            cum_visc_dissipation=self.cum_visc,
            cum_grad_sqrt_x=self.cum_grad_sqrt_x,
        )
        self.rows.append(row)

    # -- output --------------------------------------------------------

    def columns(self) -> list:
        """The CSV header: the keys of a recorded row, in order."""
        if not self.rows:
            raise ValueError("ledger is empty")
        return list(self.rows[0])

    def write_csv(self, path) -> None:
        cols = self.columns()
        lines = [",".join(cols)]
        for row in self.rows:
            cells = []
            for c in cols:
                v = row[c]
                cells.append(str(v) if isinstance(v, int) else repr(float(v)))
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    # -- global bounds -------------------------------------------------

    def check_global_bounds(self) -> GlobalBoundsReport:
        """The verdict by the module docstring's five rules.  Rule 5:
        |u^k|^2 + eps |p^k|^2 + sum_j tau |grad u^j|^2 <= its value at
        k = 0 + C_p^2 sum_j tau |f^j|^2 + sum_j (100 flow_tol +
        energy_residual^j), C_p the ``poincare_constant``, and H(rho^k) +
        dissipation sums <= H(rho^0) + advective sums + sum_j (100
        species_tol + max(entropy_slack^j, 0)).  The sums absorb each
        step's residual, hence rules 1 and 2; the entropy margin is the
        smaller of rule 5's and rule 2's.  ``first_violation`` is None
        only when rules 1, 2, 3 and 5 hold; rule 4 has no step.
        """
        if not self.rows:
            raise ValueError("ledger is empty")
        cp = poincare_constant(self.grid)
        e0 = self.rows[0]["energy"] + self.rows[0]["pressure_energy"]
        h0 = self.rows[0]["entropy"]
        e_tol, h_tol = 100.0 * self.flow_tol, 100.0 * self.species_tol
        force_sum = visc_sum = diss_sum = adv_sum = 0.0
        e_slack = h_slack = 0.0
        energy_margin = entropy_margin = np.inf
        first_violation, drift = None, 0.0
        masses = [c for c in self.rows[0] if c.startswith("mass_")]
        for row in self.rows[1:]:
            force_sum += self.tau * cp * cp * row["f_l2_sq"]
            visc_sum += 0.5 * row["visc_dissipation"]
            diss_sum += self.tau * row["w_dissipation"]
            diss_sum += self.lam * self.tau * row["lambda_h2_sq"]
            adv_sum += self.tau * row["advective_flux"]
            e_slack += e_tol + row["energy_residual"]
            h_slack += h_tol + max(row["entropy_slack"], 0.0)
            e_here = row["energy"] + row["pressure_energy"] + visc_sum
            energy_margin = min(energy_margin,
                                e0 + force_sum + e_slack - e_here)
            h_here = row["entropy"] + diss_sum
            entropy_margin = min(entropy_margin,
                                 h0 + adv_sum + h_slack - h_here,
                                 h_tol - row["entropy_slack"])
            row_drift = max(abs(row[c] - self.rows[0][c]) for c in masses)
            drift = max(drift, row_drift)
            if first_violation is None and not (
                    row["energy_residual"] <= e_tol
                    and row["entropy_slack"] <= h_tol
                    and row_drift <= MASS_DRIFT_LIMIT
                    and min(energy_margin, entropy_margin) >= 0):
                first_violation = row["step"]
        steps = self.rows[1:]
        worst_e = max((r["energy_residual"] for r in steps), default=0.0)
        worst_s = max((r["entropy_slack"] for r in steps), default=0.0)
        rules = [
            ("per-step energy identity", bool(worst_e <= e_tol),
             f"max residual {worst_e:.2e}"),
            ("per-step entropy inequality", bool(worst_s <= h_tol),
             f"worst slack {worst_s:+.2e}"),
            ("species mass conservation", bool(drift <= MASS_DRIFT_LIMIT),
             f"max drift {drift:.2e}"),
            ("density positivity without clamping", self.clamp_events == 0,
             ""),
            ("global energy and entropy bounds",
             bool(energy_margin >= 0 and entropy_margin >= 0),
             f"margins {energy_margin:.2e} {entropy_margin:.2e}"),
        ]
        return GlobalBoundsReport(
            ok=all(ok for _, ok, _ in rules),
            energy_margin=float(energy_margin),
            entropy_margin=float(entropy_margin),
            first_violation=first_violation,
            poincare_constant=cp,
            worst_energy_residual=float(worst_e),
            worst_entropy_slack=float(worst_s),
            rules=rules,
        )
