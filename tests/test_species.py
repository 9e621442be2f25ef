"""Cross-diffusion stepper: fixed points, conservation, heat reduction.

The heat-reduction oracle is built here from scratch (a symmetric
banded implicit-Euler solve with reflecting ends) so agreement with the
species stepper is evidence, not circularity: for a binary equal-mass
mixture the flux of the first species reduces to plain Fick diffusion
with the binary diffusivity.  In 2D the same reduction, carried by a
fixed velocity, is checked against a scalar advection-diffusion step
assembled from the sparse oracle of ``conftest``.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from msflow import config, driver
from msflow.config import load_config
from msflow.driver import run_simulation
from msflow.grid import Grid, GridError
from msflow.mixture import (
    MixtureSpec,
    entropy_hessian,
    entropy_vars,
    mobility_matrix,
)
from msflow.species import (
    SpeciesParams,
    SpeciesSolverError,
    SpeciesSystem,
    pcg,
    species_step,
)

from conftest import deriv_matrix, laplacian_matrix


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STANDARD_2D = CONFIGS / "standard-2d.cfg"


def cosine_binary_state(grid, spec, amplitude):
    """Strictly interior binary profile and its entropy variables."""
    x = grid.cell_centers()[0]
    rho = (0.5 + amplitude * np.cos(np.pi * x / grid.lengths[0]))[None]
    w = entropy_vars(rho, spec)
    return w, rho


def entry_first(blocks, grid):
    """Points-last blocks (cells, N, N) as the solver's (N, N, *shape)."""
    return np.moveaxis(blocks, 0, -1).reshape(blocks.shape[1:] + grid.shape)


def still(grid):
    """Zero velocity: the species step without advection."""
    return np.zeros((grid.dim,) + grid.shape)


def heat_step_banded(theta, h, tau, diffusivity):
    """Independent implicit-Euler step of theta_t = d theta_xx.

    Zero-flux ends via even reflection; symmetric banded solve.
    """
    n = theta.size
    r = diffusivity / (h * h)
    upper = np.empty((2, n))
    upper[0, :] = -r
    upper[0, 0] = 0.0
    upper[1, :] = 1.0 / tau + 2.0 * r
    upper[1, 0] = upper[1, -1] = 1.0 / tau + r
    return scipy.linalg.solveh_banded(upper, theta / tau)


# ---------------------------------------------------------------------
# Parameters and trivial states
# ---------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError, match="tau"):
        SpeciesParams(tau=0.0)
    with pytest.raises(ValueError, match="lambda"):
        SpeciesParams(tau=1e-3, lam=-1.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        SpeciesParams(tau=1e-3, tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        SpeciesParams(tau=1e-3, tol=-1e-10)
    with pytest.raises(ValueError, match="max_outer must be at least 1"):
        SpeciesParams(tau=1e-3, max_outer=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be"):
            SpeciesParams(tau=bad)
        with pytest.raises(ValueError, match="lambda must be"):
            SpeciesParams(tau=1e-3, lam=bad)
        with pytest.raises(ValueError, match="tol must be positive"):
            SpeciesParams(tau=1e-3, tol=bad)


def test_uniform_state_is_fixed_point(binary_spec):
    g = Grid.box((16,), (1.0,))
    rho = np.full((1,) + g.shape, 0.4)
    w = entropy_vars(rho, binary_spec)
    params = SpeciesParams(tau=1e-3)
    system = SpeciesSystem(g, binary_spec, params)
    w2, rho2, report = species_step(system, w, rho, still(g))
    assert report.iterations == 0
    np.testing.assert_array_equal(rho2, rho)
    assert report.dissipation == 0.0
    assert abs(report.entropy_balance_slack) <= 1e-15


def test_field_shape_mismatch(binary_spec):
    g = Grid.box((16,), (1.0,))
    params = SpeciesParams(tau=1e-3)
    system = SpeciesSystem(g, binary_spec, params)
    bad = np.zeros((1, 8))
    with pytest.raises(GridError, match="species field shape"):
        species_step(system, bad, bad, still(g))
    # Points-last (*shape, N) in place of (N, *shape), one argument at a
    # time: w_prev, rho_prev, guess.
    w, rho = cosine_binary_state(g, binary_spec, 0.2)
    for args, guess in (((w.T, rho), None), ((w, rho.T), None),
                        ((w, rho), w.T)):
        with pytest.raises(GridError, match="species field shape"):
            species_step(system, *args, still(g), guess=guess)


# ---------------------------------------------------------------------
# Structure of the linearized system
# ---------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(8,), (4, 5)], ids=["1d", "2d"])
def test_frozen_operator_is_spd(ternary_spec, shape):
    g = Grid.box(shape, (1.0,) * len(shape))
    rng = np.random.default_rng(23)
    pts = 0.25 + 0.05 * rng.standard_normal((g.n_cells, 2))
    params = SpeciesParams(tau=1e-3, lam=1e-4)
    # The frozen-coefficient operator exactly as CG gets it.
    minv = np.linalg.inv(np.moveaxis(entropy_hessian(pts.T, ternary_spec),
                                     -1, 0))
    b = np.moveaxis(mobility_matrix(pts.T, ternary_spec), -1, 0)
    op, _ = SpeciesSystem(g, ternary_spec, params).frozen_operator(
        entry_first(minv, g), entry_first(b, g))
    size = 2 * g.n_cells
    columns = [op(e) for e in np.eye(size)]
    assert {col.shape for col in columns} == {(size,)}
    dense = np.column_stack(columns)
    # CG's vectors hold one component after the other; the reference
    # below holds the components of one cell after the other.
    cell_major = np.arange(size).reshape(2, -1).T.reshape(-1)
    dense = dense[np.ix_(cell_major, cell_major)]
    assert np.abs(dense - dense.T).max() <= 1e-10 * np.abs(dense).max()
    np.linalg.cholesky(dense)
    # Reference: the same operator assembled densely, component-lifted.
    ref = scipy.linalg.block_diag(*(minv / params.tau))
    for a in range(g.dim):
        dd, dn = (np.kron(deriv_matrix(g, a, bc).toarray(), np.eye(2))
                  for bc in ("dirichlet", "neumann"))
        ref -= dd @ scipy.linalg.block_diag(*b) @ dn
    lap = laplacian_matrix(g, "neumann").toarray()
    ref += params.lam * np.kron(lap.T @ lap + np.eye(g.n_cells), np.eye(2))
    assert np.abs(dense - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("lam", [0.0, 1e-4], ids=["lam0", "lam"])
@pytest.mark.parametrize("spec_name", ["binary_spec", "ternary_spec"])
@pytest.mark.parametrize("shape", [(8,), (4, 5)], ids=["1d", "2d"])
def test_preconditioner_inverts_constant_coefficient_operator(
        request, shape, spec_name, lam):
    # With H^{-1} and B the same in every cell, the DCT-space
    # preconditioner is the exact inverse of the frozen operator.
    spec = request.getfixturevalue(spec_name)
    g = Grid.box(shape, (1.0, 1.5)[:len(shape)])
    n = spec.n_reduced
    pt = np.full((1, n), 0.6 / (n + 1)) + 0.1 * np.arange(n) / n
    minv = np.repeat(np.linalg.inv(np.moveaxis(entropy_hessian(pt.T, spec),
                                               -1, 0)), g.n_cells, 0)
    b = np.repeat(np.moveaxis(mobility_matrix(pt.T, spec), -1, 0),
                  g.n_cells, 0)
    params = SpeciesParams(tau=1e-3, lam=lam)
    op, precond = SpeciesSystem(g, spec, params).frozen_operator(
        entry_first(minv, g), entry_first(b, g))
    eye = np.eye(n * g.n_cells)
    dense = np.column_stack([op(e) for e in eye])
    inverse = np.column_stack([precond(e) for e in eye])
    assert np.abs(inverse @ dense - eye).max() <= 1e-10


@pytest.mark.parametrize("spec_name", ["binary_spec", "ternary_spec"])
def test_preconditioner_inverts_the_operator_across_the_crossover(
        request, spec_name):
    # 160 cells along x transform by scipy.fft, 24 along y by dense
    # products; at constant coefficients the preconditioner is still the
    # exact inverse.  Checked on random vectors: the dense operator would
    # take 3840 columns per component.
    spec = request.getfixturevalue(spec_name)
    g = Grid.box((160, 24), (1.0, 0.3))
    n = spec.n_reduced
    pt = np.full((1, n), 0.6 / (n + 1)) + 0.1 * np.arange(n) / n
    minv = np.repeat(np.linalg.inv(np.moveaxis(entropy_hessian(pt.T, spec),
                                               -1, 0)), g.n_cells, 0)
    b = np.repeat(np.moveaxis(mobility_matrix(pt.T, spec), -1, 0),
                  g.n_cells, 0)
    op, precond = SpeciesSystem(g, spec, SpeciesParams(
        tau=1e-3, lam=1e-4)).frozen_operator(entry_first(minv, g),
                                             entry_first(b, g))
    rng = np.random.default_rng(41)
    for _ in range(3):
        x = rng.standard_normal(n * g.n_cells)
        assert np.abs(precond(op(x)) - x).max() <= 1e-10
        assert np.abs(op(precond(x)) - x).max() <= 1e-10


@pytest.mark.parametrize("shape", [(64,), (12, 10)], ids=["1d", "2d"])
def test_pcg_is_scipys_cg(ternary_spec, shape):
    # The same recurrences and stopping rule as scipy.sparse.linalg.cg
    # on a species frozen operator: the same iterations, the same
    # solution, and info = maxiter when one iteration is all it has.
    g = Grid.box(shape, (1.0,) * len(shape))
    rng = np.random.default_rng(43)
    pts = 0.25 + 0.05 * rng.standard_normal((g.n_cells, 2))
    minv = np.linalg.inv(np.moveaxis(entropy_hessian(pts.T, ternary_spec),
                                     -1, 0))
    b = np.moveaxis(mobility_matrix(pts.T, ternary_spec), -1, 0)
    op, precond = SpeciesSystem(g, ternary_spec, SpeciesParams(
        tau=1e-3)).frozen_operator(entry_first(minv, g), entry_first(b, g))
    size = 2 * g.n_cells
    rhs = rng.standard_normal(size)
    ref_op = spla.LinearOperator((size, size), op, dtype=float)
    ref_m = spla.LinearOperator((size, size), precond, dtype=float)
    for maxiter, info in ((4000, 0), (1, 1)):
        ours, theirs = [], []
        x, got = pcg(op, precond, rhs, rtol=1e-12, atol=1e-14,
                     maxiter=maxiter, callback=ours.append)
        ref, ref_info = spla.cg(ref_op, rhs, rtol=1e-12, atol=1e-14,
                                maxiter=maxiter, M=ref_m,
                                callback=theirs.append)
        assert (got, ref_info) == (info, info)
        assert len(ours) == len(theirs) >= 1
        assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n", [16, 32, 64])
def test_cg_iterations_per_solve_do_not_grow_with_the_grid(n):
    # One step of the standard 2D run; a Jacobi preconditioner takes
    # 5, 10 and 19 CG iterations per solve at 16^2, 32^2 and 64^2.
    cfg = load_config(STANDARD_2D, [
        f"grid.nx={n}", f"grid.ny={n}", "scheme.steps=1",
        "scheme.t_final=1e-3"])
    row = run_simulation(cfg).ledger.rows[-1]
    assert row["species_iters"] >= 1
    assert row["cg_iters"] / row["species_iters"] <= 4.5


def prescaled(frozen_operator):
    """``frozen_operator`` with H^{-1}/tau formed before the matvec: the
    same operator as the shipped H^{-1} x / tau, rounded differently."""
    def operator(system, minv_blocks, b_blocks):
        _, precond = frozen_operator(system, minv_blocks, b_blocks)
        scaled = minv_blocks / system.params.tau

        def matvec(x):
            x = x.reshape(scaled.shape[1:])
            return (np.einsum("ij...,j...->i...", scaled, x)
                    + system.diffusion(b_blocks, x)).reshape(-1)

        return matvec, precond
    return operator


@pytest.mark.parametrize("name", ["entropy-binary-1d", "entropy-ternary-1d"])
def test_steps_stop_at_tolerance_whatever_the_rounding(monkeypatch, name):
    # Every step of the shipped run ends at species_tol, and so does the
    # same step solved again from the same inputs with an equal CG
    # operator that rounds differently; the two take the same outer
    # passes.  A stop on a noise floor above the tolerance fails both:
    # it accepts residuals over species_tol, and where it fires depends
    # on rounding order.  The two operators' updates differ within the
    # CG tolerance, 1% of species_tol, so a step whose last residual
    # lands that close to species_tol may take one pass more in the
    # other variant; the check allows that within 10%.  Each step is
    # replayed on its own: a whole second run would also carry its own
    # rounding into the extrapolated guesses of later steps.
    steps = []

    def recorded(*args, **kwargs):
        out = species_step(*args, **kwargs)
        steps.append((args, kwargs, out[2]))
        return out

    monkeypatch.setattr(driver, "species_step", recorded)
    cfg = load_config(CONFIGS / f"{name}.cfg")
    run_simulation(cfg)
    assert len(steps) == cfg.steps
    monkeypatch.setattr(SpeciesSystem, "frozen_operator",
                        prescaled(SpeciesSystem.frozen_operator))
    for args, kwargs, shipped in steps:
        _, _, replayed = species_step(*args, **kwargs)
        for report in (shipped, replayed):
            assert report.final_residual <= cfg.species_tol
        if shipped.iterations != replayed.iterations:
            short = min(shipped, replayed, key=lambda r: r.iterations)
            assert abs(shipped.iterations - replayed.iterations) == 1
            assert short.final_residual > 0.9 * cfg.species_tol


# ---------------------------------------------------------------------
# Conservation and entropy decrease
# ---------------------------------------------------------------------

def test_mass_conserved_without_flow(binary_spec):
    g = Grid.box((32,), (1.0,))
    w, rho = cosine_binary_state(g, binary_spec, 0.2)
    params = SpeciesParams(tau=1e-3, tol=1e-11)
    system = SpeciesSystem(g, binary_spec, params)
    mass0 = g.cell_volume * rho.sum()
    for _ in range(10):
        w, rho, _ = species_step(system, w, rho, still(g))
        assert abs(g.cell_volume * rho.sum() - mass0) <= 1e-13
    assert rho.min() > 0.0 and (1.0 - rho.sum(axis=0)).min() > 0.0


def test_mass_conserved_with_divfree_flow(binary_spec):
    g = Grid.box((16, 16), (1.0, 1.0))
    xs = g.cell_centers()
    psi = 0.5 * np.sin(np.pi * xs[0]) ** 2 * np.sin(np.pi * xs[1]) ** 2
    u = np.empty((2,) + g.shape)
    dx = deriv_matrix(g, 0, "dirichlet")
    dy = deriv_matrix(g, 1, "dirichlet")
    u[0] = (dy @ psi.reshape(-1)).reshape(g.shape)
    u[1] = -(dx @ psi.reshape(-1)).reshape(g.shape)
    prof = np.cos(np.pi * xs[0]) * np.cos(np.pi * xs[1])
    rho = (0.5 + 0.2 * prof)[None]
    w = entropy_vars(rho, binary_spec)
    params = SpeciesParams(tau=1e-3, tol=1e-11)
    system = SpeciesSystem(g, binary_spec, params)
    mass0 = g.cell_volume * rho.sum()
    for _ in range(5):
        w, rho, _ = species_step(system, w, rho, u)
        assert abs(g.cell_volume * rho.sum() - mass0) <= 1e-12


def test_entropy_decreases_without_flow(ternary_spec):
    g = Grid.box((32,), (1.0,))
    x = g.cell_centers()[0]
    prof = np.cos(np.pi * x)
    xfr = np.stack([0.25 + 0.15 * prof, np.full(g.shape, 0.5)])
    m = ternary_spec.molar_masses
    weight = m[0] * xfr[0] + m[1] * xfr[1] + m[2] * (1 - xfr.sum(0))
    rho = np.stack([m[i] * xfr[i] / weight for i in range(2)])
    w = entropy_vars(rho, ternary_spec)
    params = SpeciesParams(tau=1e-3, tol=1e-11)
    system = SpeciesSystem(g, ternary_spec, params)
    entropies = []
    for _ in range(8):
        w, rho, report = species_step(system, w, rho, still(g))
        entropies.append(report.entropy_after)
        assert report.dissipation >= 0.0
        assert report.entropy_balance_slack <= 100.0 * params.tol
    assert (np.diff(entropies) <= 100.0 * params.tol).all()


def test_regularization_contributes(binary_spec):
    g = Grid.box((16,), (1.0,))
    w, rho = cosine_binary_state(g, binary_spec, 0.1)
    params = SpeciesParams(tau=1e-3, lam=1e-3, tol=1e-11)
    system = SpeciesSystem(g, binary_spec, params)
    _, _, report = species_step(system, w, rho, still(g))
    assert report.h2_sq_norm > 0.0
    assert report.entropy_balance_slack <= 100.0 * params.tol


# ---------------------------------------------------------------------
# Heat reduction (1D at one resolution; the scan lives in acceptance),
# and advection-diffusion in 2D
# ---------------------------------------------------------------------

def test_binary_equal_mass_reduces_to_heat_equation():
    d12 = 2.0
    spec = MixtureSpec(np.ones(2), d12 * (np.ones((2, 2)) - np.eye(2)))
    n, tau, amp = 32, 5e-5, 0.005
    g = Grid.box((n,), (1.0,))
    h = g.spacing[0]
    w, rho = cosine_binary_state(g, spec, amp)
    # Just above the rounding floor 4 eps sqrt(|domain|) / tau = 1.78e-11
    # that SimConfig.validate enforces on configs.
    params = SpeciesParams(tau=tau, tol=2e-11)
    system = SpeciesSystem(g, spec, params)
    for _ in range(5):
        prev = rho[0].copy()
        w, rho, _ = species_step(system, w, rho, still(g))
        oracle = heat_step_banded(prev, h, tau, d12)
        step_diff = np.sqrt(h * np.sum((rho[0] - oracle) ** 2))
        assert step_diff <= 1e-8


def advection_diffusion_matrix(grid, u, diffusivity, tau):
    """Implicit-Euler matrix of theta_t + u.grad theta = d lap theta,
    assembled from the sparse oracle: the skew advection
    0.5 sum_a [u_a dn_a + dd_a u_a] of an even-ghost field and the
    compact even-ghost Laplacian."""
    n = grid.n_cells
    mat = sp.identity(n) / tau - diffusivity * laplacian_matrix(grid,
                                                                "neumann")
    for a in range(grid.dim):
        ua = sp.diags(u[a].reshape(-1))
        mat = mat + 0.5 * (ua @ deriv_matrix(grid, a, "neumann")
                           + deriv_matrix(grid, a, "dirichlet") @ ua)
    return mat.tocsc()


def test_advected_binary_matches_scalar_advection_diffusion():
    # A binary equal-mass mixture carried by a fixed discretely
    # divergence-free vortex: the density obeys advection-diffusion in
    # the continuum, so the species step and the oracle's scalar step
    # share the advection and differ only in the diffusion stencil, a
    # defect of second order in h.  Measured after 10 steps: 4.0e-5,
    # 1.0e-5 and 2.6e-6 at 16^2/32^2/64^2, orders 1.96 and 2.00.  With
    # the species advection's sign flipped the differences are 2.9e-3
    # to 3.0e-3 and do not converge.
    d12, tau, steps, amp = 1.0, 1e-3, 10, 0.05
    spec = MixtureSpec(np.ones(2), d12 * (np.ones((2, 2)) - np.eye(2)))
    params = SpeciesParams(tau=tau, tol=1e-11)
    errors = []
    for n in (16, 32, 64):
        g = Grid.box((n, n), (1.0, 1.0))
        xs = g.cell_centers()
        psi = np.sin(np.pi * xs[0]) ** 2 * np.sin(np.pi * xs[1]) ** 2
        u = config._discrete_stream_velocity(g, psi)
        solve = spla.factorized(advection_diffusion_matrix(g, u, d12, tau))
        theta = 0.5 + amp * np.cos(np.pi * xs[0])
        rho = theta[None].copy()
        w = entropy_vars(rho, spec)
        system = SpeciesSystem(g, spec, params)
        oracle = theta.reshape(-1)
        for _ in range(steps):
            oracle = solve(oracle / tau)
            w, rho, _ = species_step(system, w, rho, u)
        errors.append(np.sqrt(g.cell_volume)
                      * np.linalg.norm(rho[0].reshape(-1) - oracle))
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert max(errors) <= 1e-4
    assert orders.min() >= 1.9, (errors, orders)


# ---------------------------------------------------------------------
# Failure paths and determinism
# ---------------------------------------------------------------------

def test_iteration_budget_error(binary_spec):
    g = Grid.box((16,), (1.0,))
    w, rho = cosine_binary_state(g, binary_spec, 0.2)
    params = SpeciesParams(tau=1e-3, max_outer=1)
    system = SpeciesSystem(g, binary_spec, params)
    with pytest.raises(SpeciesSolverError, match="after 1 iterations") as err:
        species_step(system, w, rho, still(g))
    assert len(err.value.residuals) == 2


def test_nan_residual_raises(binary_spec):
    # A NaN fails every comparison, so a loop that tests res > tol
    # would return it as converged.
    g = Grid.box((16,), (1.0,))
    w, rho = cosine_binary_state(g, binary_spec, 0.2)
    u = still(g)
    u[0, 5] = np.nan
    system = SpeciesSystem(g, binary_spec, SpeciesParams(tau=1e-3))
    with pytest.raises(SpeciesSolverError, match="residual is nan") as err:
        species_step(system, w, rho, u)
    assert len(err.value.residuals) == 1
    assert np.isnan(err.value.residuals[0])


@pytest.mark.parametrize("kind", ["large-residual", "not-invertible"])
def test_rejected_guess_leaves_the_step_bitwise_unchanged(binary_spec, kind):
    # A guess whose densities do not invert (x_2 = e^-40 is below the
    # interior margin) or whose residual exceeds the previous state's is
    # dropped: the step is the one taken without a guess.
    g = Grid.box((16,), (1.0,))
    w, rho = cosine_binary_state(g, binary_spec, 0.2)
    system = SpeciesSystem(g, binary_spec, SpeciesParams(tau=1e-3))
    if kind == "large-residual":
        guess = w + 2.0
    else:
        guess = np.where(np.arange(16) % 2 == 0, 40.0, -40.0)[None]
    w0, r0, cold = species_step(system, w, rho, still(g))
    w1, r1, warm = species_step(system, w, rho, still(g), guess=guess)
    assert not cold.from_guess
    assert warm == cold
    np.testing.assert_array_equal(w1, w0)
    np.testing.assert_array_equal(r1, r0)


def test_guess_near_the_solution_is_taken(binary_spec):
    g = Grid.box((16,), (1.0,))
    w, rho = cosine_binary_state(g, binary_spec, 0.2)
    system = SpeciesSystem(g, binary_spec, SpeciesParams(tau=1e-3))
    w0, _, cold = species_step(system, w, rho, still(g))
    _, _, warm = species_step(system, w, rho, still(g),
                              guess=w0 + 1e-6 * (w0 - w))
    assert warm.from_guess
    assert warm.iterations < cold.iterations
    assert warm.final_residual <= system.params.tol


def test_step_is_deterministic(binary_spec):
    g = Grid.box((16,), (1.0,))
    w, rho = cosine_binary_state(g, binary_spec, 0.2)
    params = SpeciesParams(tau=1e-3)
    system = SpeciesSystem(g, binary_spec, params)
    w1, r1, _ = species_step(system, w, rho, still(g))
    w2, r2, _ = species_step(system, w, rho, still(g))
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(r1, r2)
