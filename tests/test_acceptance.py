"""End-to-end acceptance gate.

Each test covers one numbered criterion, appends a single PASS/FAIL
line to the session summary, and then asserts.  Tolerances are pinned
here for visibility and never relaxed elsewhere; the heavy scenario
runs are shared through module fixtures, with wall time recorded where
a criterion carries a runtime budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.special import xlogy

from msflow import cli, mixture
from msflow.config import SimConfig
from msflow.driver import run_simulation, sweep_epsilon
from msflow.grid import Grid, advect_form
from msflow.mixture import MixtureSpec
from msflow.species import (
    SpeciesParams,
    SpeciesSystem,
    divergence_identity_residual,
    species_step,
)

from conftest import random_spec


def _finish(acceptance_lines, number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


# -- shared scenario runs ---------------------------------------------

STANDARD_2D = SimConfig(
    dim=2, nx=64, ny=64, t_final=0.1, steps=100, eps=1e-2,
    preset="vortex-2d", amplitude=0.1, velocity_amplitude=0.3,
    forcing_preset="sin", fx=0.2, fy=-0.1, omega=2.0,
    flow_tol=1e-10, species_tol=1e-10)

ENTROPY_BINARY = SimConfig(
    dim=1, nx=64, t_final=0.2, steps=200, preset="cosine-binary",
    amplitude=0.2, flow_tol=1e-10, species_tol=1e-10)

ENTROPY_TERNARY = SimConfig(
    dim=1, nx=64, t_final=0.2, steps=200, preset="layered-ternary",
    species=3, molar_masses=(2.0, 3.0, 1.5),
    diffusivities=(0.5, 0.7, 0.3), amplitude=0.15,
    flow_tol=1e-10, species_tol=1e-10)

SWEEP_2D = replace(STANDARD_2D, t_final=0.2, steps=200)


def _timed_run(config):
    start = time.perf_counter()
    result = run_simulation(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def forced_run():
    return _timed_run(STANDARD_2D)


@pytest.fixture(scope="module")
def free_run():
    return _timed_run(replace(STANDARD_2D, forcing_preset="zero",
                              fx=0.0, fy=0.0))


@pytest.fixture(scope="module")
def entropy_binary_run():
    return _timed_run(ENTROPY_BINARY)


@pytest.fixture(scope="module")
def entropy_ternary_run():
    return _timed_run(ENTROPY_TERNARY)


@pytest.fixture(scope="module")
def heat_scan():
    """Binary equal-mass runs vs an independent banded heat solver.

    For equal molar masses the mobility times the entropy-variable
    gradient reduces to a Fick flux in the continuum, so the species
    stepper must track scalar implicit-Euler heat evolution up to the
    spatial discretization defect.
    """
    spec = MixtureSpec(np.array([1.0, 1.0]),
                       np.array([[0.0, 2.0], [2.0, 0.0]]))
    d12, tau, steps, amp = 2.0, 5e-5, 20, 0.005
    # The tolerance sits just above the residual's rounding floor
    # 4 eps sqrt(|domain|) / tau = 1.78e-11, which SimConfig.validate
    # enforces on configs.
    params = SpeciesParams(tau=tau, lam=0.0, tol=2e-11)
    start = time.perf_counter()
    out = {}
    min_rho = np.inf
    for n in (32, 64, 128):
        grid = Grid.box((n,), (1.0,))
        h = grid.spacing[0]
        system = SpeciesSystem(grid, spec, params)
        still = np.zeros((1, n))
        x = grid.cell_centers()[0]
        theta = 0.5 + amp * np.cos(np.pi * x)

        r = d12 / (h * h)
        banded = np.empty((2, n))
        banded[0, :] = -r
        banded[0, 0] = 0.0
        banded[1, :] = 1.0 / tau + 2.0 * r
        banded[1, 0] = banded[1, -1] = 1.0 / tau + r

        def heat_step(field):
            return scipy.linalg.solveh_banded(banded, field / tau)

        rho = theta[None].copy()
        w = mixture.entropy_vars(theta[None], spec)
        oracle = theta.copy()
        sqv = np.sqrt(grid.cell_volume)
        per_step = 0.0
        for _ in range(steps):
            local = heat_step(rho[0])
            oracle = heat_step(oracle)
            w, rho, _ = species_step(system, w, rho, still)
            per_step = max(per_step, sqv * np.linalg.norm(rho[0] - local))
            min_rho = min(min_rho, rho.min(), 1.0 - rho.max())
        full = sqv * float(np.linalg.norm(rho[0] - oracle))
        out[n] = (per_step, full)
    return out, min_rho, time.perf_counter() - start


@pytest.fixture(scope="module")
def relaxation_sweep():
    start = time.perf_counter()
    result = sweep_epsilon(SWEEP_2D, [1e-1, 1e-2, 1e-3, 1e-4],
                           strict=False)
    return result, time.perf_counter() - start


# -- criteria ---------------------------------------------------------


def test_criterion_1_mixture_algebra(acceptance_lines):
    start = time.perf_counter()
    rng = np.random.default_rng(1105)
    counts = {2: 334, 3: 333, 4: 333}
    worst_sym = 0.0
    min_eig = np.inf
    worst_round = 0.0
    worst_jac = 0.0
    max_cond = 0.0
    for n1, count in counts.items():
        spec = random_spec(rng, n1)
        pts = mixture.sample_simplex(rng, n1, count)
        for matfn in (mixture.entropy_hessian, mixture.fraction_jacobian,
                      mixture.mobility_matrix):
            m = np.moveaxis(matfn(pts, spec), -1, 0)
            worst_sym = max(worst_sym, float(
                np.abs(m - np.swapaxes(m, -1, -2)).max()))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(
                0.5 * (m + np.swapaxes(m, -1, -2))).min()))
        max_cond = max(max_cond, float(
            np.linalg.cond(np.moveaxis(
                mixture.friction_matrix_reduced(pts, spec), -1, 0)).max()))
        back = mixture.densities_from_entropy(
            mixture.entropy_vars(pts, spec), spec)
        worst_round = max(worst_round, float(np.abs(back - pts).max()))
        hmat = mixture.entropy_hessian(pts, spec)
        fd = np.empty_like(hmat)
        delta = 1e-7
        for j in range(n1 - 1):
            e = np.zeros((n1 - 1, 1))
            e[j] = delta
            fd[:, j] = (mixture.entropy_vars(pts + e, spec)
                        - mixture.entropy_vars(pts - e, spec)) \
                / (2.0 * delta)
        worst_jac = max(worst_jac, float(
            np.abs(fd - hmat).max() / np.abs(hmat).max()))
    elapsed = time.perf_counter() - start
    ok = (worst_sym <= 1e-10 and min_eig > 0.0
          and np.isfinite(max_cond) and worst_round <= 1e-10
          and worst_jac <= 1e-6 and elapsed <= 1.0)
    _finish(acceptance_lines, 1, ok,
            f"algebra on 1000 seeded states: symmetry {worst_sym:.2e}, "
            f"min eigenvalue {min_eig:.2e}, roundtrip {worst_round:.2e}, "
            f"jacobian rel {worst_jac:.2e}, max cond {max_cond:.1e}, "
            f"{elapsed:.2f} s")


def test_criterion_2_advection_form_identities(acceptance_lines):
    start = time.perf_counter()
    rng = np.random.default_rng(1106)
    grid = Grid.box((16, 16), (1.0, 1.0))
    worst_anti = 0.0
    worst_self = 0.0
    for _ in range(100):
        u = rng.standard_normal((2,) + grid.shape)
        v = rng.standard_normal((2,) + grid.shape)
        w = rng.standard_normal((2,) + grid.shape)
        b_vw = advect_form(grid, u, v, w, "dirichlet")
        scale = max(1.0, abs(b_vw))
        worst_anti = max(worst_anti, abs(
            b_vw + advect_form(grid, u, w, v, "dirichlet")) / scale)
        worst_self = max(worst_self, abs(
            advect_form(grid, u, v, v, "dirichlet")) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_anti <= 1e-12 and worst_self <= 1e-12 and elapsed <= 1.0
    _finish(acceptance_lines, 2, ok,
            f"advection form on 100 random triples: antisymmetry "
            f"{worst_anti:.2e}, self-pairing {worst_self:.2e}, "
            f"{elapsed:.2f} s")


def test_criterion_3_divergence_identity_refinement(acceptance_lines):
    start = time.perf_counter()
    spec = MixtureSpec(np.array([2.0, 3.0, 1.5]),
                       np.array([[0.0, 0.5, 0.7],
                                 [0.5, 0.0, 0.3],
                                 [0.7, 0.3, 0.0]]))
    res = []
    for n in (32, 64, 128):
        grid = Grid.box((n, n), (1.0, 1.0))
        xs = grid.cell_centers()
        sx = np.sin(np.pi * xs[0]) ** 2
        sy = np.sin(np.pi * xs[1]) ** 2
        u = np.stack([sx * sy, -sx * sy])
        w = np.stack([
            0.3 * np.cos(np.pi * xs[0]) * np.cos(np.pi * xs[1]),
            0.2 * np.cos(2.0 * np.pi * xs[0]) * np.cos(np.pi * xs[1]),
        ])
        res.append(divergence_identity_residual(grid, u, w, spec))
    orders = [float(np.log2(a / b)) for a, b in zip(res, res[1:])]
    elapsed = time.perf_counter() - start
    ok = all(o >= 1.8 for o in orders) and elapsed <= 10.0
    _finish(acceptance_lines, 3, ok,
            f"divergence identity residuals {res[0]:.2e}/{res[1]:.2e}/"
            f"{res[2]:.2e} at n=32/64/128, orders "
            f"{orders[0]:.2f} and {orders[1]:.2f}, {elapsed:.1f} s")


def test_criterion_4_per_step_energy_identity(acceptance_lines,
                                              forced_run, free_run):
    forced, t_forced = forced_run
    free, t_free = free_run
    worst = max(r["energy_residual"] for r in forced.ledger.rows)
    energies = [r["energy"] + r["pressure_energy"]
                for r in free.ledger.rows]
    rises = [b - a for a, b in zip(energies, energies[1:])]
    max_rise = max(rises)
    elapsed = t_forced + t_free
    ok = (worst <= 1e-8 and max_rise <= 1e-12 * max(1.0, energies[0])
          and elapsed <= 120.0)
    _finish(acceptance_lines, 4, ok,
            f"2D standard scenario, 100 steps at eps 1e-2: max energy "
            f"identity residual {worst:.2e}, max unforced energy rise "
            f"{max_rise:.2e}, {elapsed:.0f} s")


def test_criterion_5_per_step_entropy_decay(acceptance_lines,
                                            entropy_binary_run,
                                            entropy_ternary_run):
    details = []
    ok = True
    elapsed = 0.0
    for label, (res, seconds) in (("binary", entropy_binary_run),
                                  ("ternary", entropy_ternary_run)):
        ent = [r["entropy"] for r in res.ledger.rows]
        max_rise = max(b - a for a, b in zip(ent, ent[1:]))
        ok = ok and max_rise <= 100.0 * res.config.species_tol
        assert all(np.all(u == 0.0) for u in (res.flow.u,))
        details.append(f"{label} max rise {max_rise:.2e}")
        elapsed += seconds
    ok = ok and elapsed <= 120.0
    _finish(acceptance_lines, 5, ok,
            f"entropy nonincreasing over 200 zero-flow steps: "
            f"{', '.join(details)}, {elapsed:.0f} s")


def test_criterion_6_heat_reduction(acceptance_lines, heat_scan):
    scan, _, elapsed = heat_scan
    per_step = max(v[0] for v in scan.values())
    full = max(v[1] for v in scan.values())
    fulls = [scan[n][1] for n in (32, 64, 128)]
    orders = [float(np.log2(a / b)) for a, b in zip(fulls, fulls[1:])]
    ok = (per_step <= 1e-8 and full <= 1e-6
          and all(1.8 <= o <= 2.2 for o in orders) and elapsed <= 60.0)
    _finish(acceptance_lines, 6, ok,
            f"binary equal-mass vs banded heat solver: per-step "
            f"{per_step:.2e}, full-run {full:.2e}, orders "
            f"{orders[0]:.2f} and {orders[1]:.2f}, {elapsed:.0f} s")


def test_criterion_7_mass_conservation(acceptance_lines, forced_run,
                                       free_run, entropy_binary_run,
                                       entropy_ternary_run):
    worst_drift = 0.0
    worst_closure = 0.0
    runs = [forced_run, free_run, entropy_binary_run, entropy_ternary_run]
    for res, _ in runs:
        rows = res.ledger.rows
        for i in range(res.spec.n_species):
            key = f"mass_{i + 1}"
            base = rows[0][key]
            worst_drift = max(worst_drift, max(
                abs(r[key] - base) for r in rows))
        worst_closure = max(worst_closure, max(
            r["closure_defect"] for r in rows))
    ok = worst_drift <= 1e-8 and worst_closure <= 1e-14
    _finish(acceptance_lines, 7, ok,
            f"4 scenario runs: max per-species mass drift "
            f"{worst_drift:.2e}, max cellwise closure defect "
            f"{worst_closure:.2e}")


def test_criterion_8_positivity_without_clamping(acceptance_lines,
                                                 forced_run, free_run,
                                                 entropy_binary_run,
                                                 entropy_ternary_run,
                                                 heat_scan):
    runs = [forced_run, free_run, entropy_binary_run, entropy_ternary_run]
    min_density = min(min(r["min_density"] for r in res.ledger.rows)
                      for res, _ in runs)
    clamps = sum(res.ledger.clamp_events for res, _ in runs)
    _, heat_min, _ = heat_scan
    min_density = min(min_density, heat_min)
    ok = min_density > 0.0 and clamps == 0
    _finish(acceptance_lines, 8, ok,
            f"min cell density over all runs {min_density:.3e}, "
            f"clamp events {clamps}")


def test_criterion_9_relaxation_convergence(acceptance_lines,
                                            relaxation_sweep):
    result, elapsed = relaxation_sweep
    divs = [r.div_norm for r in result.rows]
    ok = (result.monotone_div and result.monotone_u
          and result.div_ratio >= 10.0 and elapsed <= 900.0)
    _finish(acceptance_lines, 9, ok,
            f"eps sweep 1e-1..1e-4 on 200-step 2D scenario: divergence "
            f"{divs[0]:.2e} -> {divs[-1]:.2e} (ratio "
            f"{result.div_ratio:.1f}), velocity distance monotone "
            f"{result.monotone_u}, {elapsed:.0f} s")


def test_criterion_10_initial_lift_study(acceptance_lines):
    start = time.perf_counter()
    spec = MixtureSpec(np.array([2.0, 3.0, 1.5]),
                       np.array([[0.0, 0.5, 0.7],
                                 [0.5, 0.0, 0.3],
                                 [0.7, 0.3, 0.0]]))
    grid = Grid.box((64,), (1.0,))
    x = grid.cell_centers()[0]
    third = 0.2 * np.maximum(0.0, np.cos(2.0 * np.pi * x))
    raw = np.stack([0.25 * (1.0 - third), 0.75 * (1.0 - third), third],
                   axis=-1)
    assert np.any(raw[:, 2] == 0.0)
    vol = grid.cell_volume
    # The raw data touch the simplex boundary, where the entropy follows
    # the convention x log x -> 0: c sum_i xlogy(x_i, x_i).
    per_mole = raw / spec.molar_masses
    c = per_mole.sum(axis=-1)
    x_raw = per_mole / c[:, None]
    h_raw = vol * float(np.sum(c * xlogy(x_raw, x_raw).sum(axis=-1)))
    gaps = []
    for alpha in (1e-2, 1e-4, 1e-6):
        lifted = mixture.lift_initial(raw.T, alpha)
        h_lift = vol * float(np.sum(mixture.entropy_density(
            lifted[:-1], spec)))
        gaps.append(abs(h_lift - h_raw))
    elapsed = time.perf_counter() - start
    ok = gaps[0] > gaps[1] > gaps[2] and elapsed <= 1.0
    _finish(acceptance_lines, 10, ok,
            f"entropy gap of the interior lift at 1e-2/1e-4/1e-6: "
            f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}, "
            f"{elapsed:.2f} s")


def test_criterion_11_deterministic_output(acceptance_lines, tmp_path):
    common = [
        "--set", "grid.dim=2", "--set", "grid.nx=16", "--set", "grid.ny=16",
        "--set", "scheme.t_final=5e-3", "--set", "scheme.steps=5",
        "--set", "init.preset=vortex-2d",
        "--set", "init.velocity_amplitude=0.3",
        "--set", "forcing.preset=sin", "--set", "forcing.fx=0.2",
        "--set", "forcing.fy=-0.1", "--set", "forcing.omega=2.0",
    ]
    paths = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main(["run"] + common
                      + ["--set", f"output.dir={out}"])
        assert rc == 0
        paths.append(out / "ledger.csv")
    first, second = (p.read_bytes() for p in paths)
    ok = first == second and len(first) > 0
    _finish(acceptance_lines, 11, ok,
            f"repeated run CSV byte-identical ({len(first)} bytes)")
