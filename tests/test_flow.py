"""Velocity/pressure stepper: forcing oracles, energy identity, decay.

The per-step energy identity is recomputed from the returned fields
with the grid operators rather than trusted from the report, so these
tests double as a check that the report numbers mean what they say.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import msflow.flow as flow_mod
from msflow.flow import (
    FlowParams,
    FlowSolverError,
    FlowState,
    FlowSystem,
    Forcing,
    SpectralInverse,
    average_force,
    flow_step,
)
from msflow.grid import (
    TRANSFORM_CROSSOVER,
    Grid,
    GridError,
    div,
    grad,
    grad_sq_norm,
    inner,
    norm_l2,
)

from conftest import assembled_advection, deriv_matrix, laplacian_matrix


# The relaxed system and the incompressible reference, eps = 0, whose
# step matrix is the saddle matrix.
BOTH_SYSTEMS = pytest.mark.parametrize("eps", [1e-2, 0.0],
                                       ids=["FlowSystem", "SaddleSystem"])


def operators(grid):
    """The oracle's velocity Laplacian, pressure gradient and velocity
    divergence, on flattened fields."""
    grad_mat = sp.vstack([deriv_matrix(grid, a, "neumann")
                          for a in range(grid.dim)], format="csr")
    return (laplacian_matrix(grid, "dirichlet"), grad_mat,
            (-grad_mat.T).tocsr())


def step_matrix(system, u=None):
    """The step matrix of ``system`` in storage order, with the advection
    frozen at ``u`` when given: with the pressure eliminated at eps > 0,
    and at eps = 0 the saddle matrix, which pins the pressure of cell 0,
    so the oracles compare pressures up to their means."""
    g, tau = system.grid, system.params.tau
    lap, grad_mat, div_mat = operators(g)
    mom = sp.identity(g.n_cells) / tau - lap
    if u is not None:
        mom = mom + assembled_advection(g, u, "dirichlet")
    vel = sp.block_diag([mom] * g.dim)
    if system.params.eps == 0:
        pin = sp.csr_matrix(([1.0], ([0], [0])), shape=(g.n_cells,) * 2)
        return sp.bmat([[vel, grad_mat], [div_mat, pin]], format="csc")
    return (vel - tau / system.params.eps * (grad_mat @ div_mat)).tocsc()


def stream_velocity(grid, amplitude):
    """Discretely divergence-free velocity from a sine-bump stream."""
    xs = grid.cell_centers()
    psi = amplitude * np.ones(grid.shape)
    for a in range(2):
        psi = psi * np.sin(np.pi * xs[a] / grid.lengths[a]) ** 2
    u = np.empty((2,) + grid.shape)
    dx = deriv_matrix(grid, 0, "dirichlet")
    dy = deriv_matrix(grid, 1, "dirichlet")
    u[0] = (dy @ psi.reshape(-1)).reshape(grid.shape)
    u[1] = -(dx @ psi.reshape(-1)).reshape(grid.shape)
    return u


# ---------------------------------------------------------------------
# Parameters and state
# ---------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError, match="positive"):
        FlowParams(tau=-1.0, eps=1e-2)
    FlowParams(tau=1e-2, eps=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        FlowParams(tau=1e-2, eps=-1e-2)
    with pytest.raises(ValueError, match="tol"):
        FlowParams(tau=1e-2, eps=1e-2, tol=0.0)
    with pytest.raises(ValueError, match="max_picard must be at least 1"):
        FlowParams(tau=1e-2, eps=1e-2, max_picard=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be"):
            FlowParams(tau=bad, eps=1e-2)
        with pytest.raises(ValueError, match="eps must be"):
            FlowParams(tau=1e-2, eps=bad)
        with pytest.raises(ValueError, match="tol must be"):
            FlowParams(tau=1e-2, eps=1e-2, tol=bad)


def test_state_zero_and_copy():
    g = Grid.box((8, 8), (1.0, 1.0))
    s = FlowState.zero(g)
    assert s.u.shape == (2, 8, 8)
    assert s.p.shape == (8, 8)
    c = s.copy()
    c.u[0, 0, 0] = 1.0
    assert s.u[0, 0, 0] == 0.0


# ---------------------------------------------------------------------
# Forcing oracles
# ---------------------------------------------------------------------

def test_zero_forcing():
    g = Grid.box((8,), (1.0,))
    f = average_force(Forcing(), g, 3, 0.1)
    assert not f.any()
    with pytest.raises(ValueError, match="starts at 1"):
        average_force(Forcing(), g, 0, 0.1)


def test_constant_forcing_uniform():
    g = Grid.box((8, 8), (1.0, 1.0))
    f = average_force(Forcing("constant", (0.3, -0.2)), g, 5, 0.1)
    assert np.all(f[0] == 0.3)
    assert np.all(f[1] == -0.2)


def test_linear_profile_exact_average():
    # g(t) = t averaged over ((k-1) tau, k tau) is (k - 1/2) tau.
    g = Grid.box((8,), (1.0,))
    tau = 0.2
    forcing = Forcing("linear", (2.0,))
    for k in (1, 3):
        f = average_force(forcing, g, k, tau)
        assert f[0, 0] == pytest.approx(2.0 * (k - 0.5) * tau, rel=1e-14)


def test_sin_profile_exact_average():
    g = Grid.box((8,), (1.0,))
    tau, omega, k = 0.05, 3.0, 4
    forcing = Forcing("sin", (1.0,), omega=omega)
    f = average_force(forcing, g, k, tau)
    t0, t1 = (k - 1) * tau, k * tau
    expect = (np.cos(omega * t0) - np.cos(omega * t1)) / (omega * tau)
    assert f[0, 0] == pytest.approx(expect, rel=1e-14)


def test_bump_spatial_profile():
    g = Grid.box((8, 6), (2.0, 1.0))
    forcing = Forcing("constant", (1.5, 0.0), spatial="bump")
    f = forcing.spatial_field(g)
    xs = g.cell_centers()
    expect = 1.5 * np.sin(np.pi * xs[0] / 2.0) * np.sin(np.pi * xs[1])
    np.testing.assert_allclose(f[0], expect, atol=1e-15)
    assert not f[1].any()


def test_forcing_validation():
    g = Grid.box((8, 8), (1.0, 1.0))
    with pytest.raises(GridError, match="components"):
        average_force(Forcing("constant", (1.0,)), g, 1, 0.1)
    with pytest.raises(ValueError, match="unknown forcing preset 'windy'"):
        Forcing("windy", (1.0, 1.0))
    with pytest.raises(ValueError, match="unknown spatial profile 'blob'"):
        Forcing("zero", (1.0, 1.0), spatial="blob")
    with pytest.raises(ValueError, match="sin forcing needs a nonzero omega"):
        Forcing("sin", (1.0, 1.0), omega=0.0)
    Forcing("zero", (1.0, 1.0), omega=0.0)


# ---------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------

def test_zero_data_exact_fixed_point():
    g = Grid.box((8, 8), (1.0, 1.0))
    state = FlowState.zero(g)
    params = FlowParams(tau=1e-2, eps=1e-2)
    new, report = flow_step(FlowSystem(g, params), state,
                            np.zeros((2, 8, 8)))
    assert report.picard_iterations == 0
    assert not new.u.any()
    assert not new.p.any()
    assert report.energy_identity_residual == 0.0


def test_energy_identity_recomputed():
    rng = np.random.default_rng(9)
    g = Grid.box((16, 16), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 0.4),
                      0.1 * rng.standard_normal(g.shape))
    tau, eps = 1e-3, 1e-2
    params = FlowParams(tau=tau, eps=eps, tol=1e-12)
    f = average_force(Forcing("constant", (0.2, -0.1)), g, 1, tau)
    new, report = flow_step(FlowSystem(g, params), state, f)
    lhs = (inner(g, new.u, new.u) + eps * inner(g, new.p, new.p)
           + 2.0 * tau * grad_sq_norm(g, new.u)
           + inner(g, new.u - state.u, new.u - state.u)
           + eps * inner(g, new.p - state.p, new.p - state.p))
    rhs = (inner(g, state.u, state.u) + eps * inner(g, state.p, state.p)
           + 2.0 * tau * inner(g, f, new.u))
    assert abs(lhs - rhs) == pytest.approx(report.energy_identity_residual,
                                           abs=1e-15)
    assert report.energy_identity_residual <= 1e-10


def test_energy_identity_fails_when_gradient_is_not_adjoint(monkeypatch):
    # Scaling the gradient breaks <grad p, u> = -<p, div u>, which the
    # energy identity rests on; the reported residual must show it.
    rng = np.random.default_rng(9)
    g = Grid.box((16, 16), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 0.4),
                      0.1 * rng.standard_normal(g.shape))
    params = FlowParams(tau=1e-3, eps=1e-2, tol=1e-12)
    monkeypatch.setattr(flow_mod, "grad",
                        lambda grid, f, bc: 1.01 * grad(grid, f, bc))
    _, report = flow_step(FlowSystem(g, params), state,
                          np.zeros((2,) + g.shape))
    assert report.energy_identity_residual > 100 * params.tol


def test_pressure_update_is_exact_elimination():
    g = Grid.box((12, 12), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 0.3), np.zeros(g.shape))
    tau, eps = 1e-3, 1e-1
    params = FlowParams(tau=tau, eps=eps)
    new, report = flow_step(FlowSystem(g, params), state,
                            np.zeros((2,) + g.shape))
    # The pressure is an unknown of the stacked solve, so it meets the
    # elimination p = p_prev - (tau/eps) div u to rounding: measured
    # 1.3e-17 absolute, 6.8e-15 of max |p|.
    divu = div(g, new.u, "dirichlet")
    gap = np.abs(new.p - (state.p - (tau / eps) * divu)).max()
    assert gap <= 1e-13 * np.abs(new.p).max()
    assert report.div_u_l2 == pytest.approx(norm_l2(g, divu))
    # Relaxed constraint: eps (p - p_prev)/tau + div u = 0 to rounding.
    assert report.pressure_eq_residual <= 1e-13


def test_unforced_energy_decay():
    g = Grid.box((16, 16), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 0.5), np.zeros(g.shape))
    f = np.zeros((2,) + g.shape)
    for tau, eps in ((1e-3, 1e-1), (1e-2, 1e-3)):
        s = state.copy()
        system = FlowSystem(g, FlowParams(tau=tau, eps=eps))
        energies = [inner(g, s.u, s.u) + eps * inner(g, s.p, s.p)]
        for _ in range(5):
            s, _ = flow_step(system, s, f)
            energies.append(inner(g, s.u, s.u) + eps * inner(g, s.p, s.p))
        diffs = np.diff(energies)
        assert (diffs <= 0.0).all()
        assert energies[-1] < energies[0]


@BOTH_SYSTEMS
def test_forcing_shape_mismatch(eps):
    g = Grid.box((8, 8), (1.0, 1.0))
    state = FlowState.zero(g)
    system = FlowSystem(g, FlowParams(tau=1e-2, eps=eps))
    for bad in (np.zeros((2, 4, 4)), np.zeros(g.shape + (2,))):
        with pytest.raises(GridError, match="forcing shape"):
            flow_step(system, state, bad)


def test_iteration_budget_error():
    g = Grid.box((8, 8), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 0.5), np.zeros(g.shape))
    params = FlowParams(tau=1e-2, eps=1e-2, max_picard=1)
    with pytest.raises(FlowSolverError, match="after 1 iterations") as err:
        flow_step(FlowSystem(g, params), state, np.zeros((2,) + g.shape))
    assert len(err.value.residuals) == 2


@pytest.mark.parametrize("n, amplitude, eps, passes", [
    pytest.param(16, 5.0, 1e-2, 12, id="FlowSystem"),
    pytest.param(16, 5.0, 0.0, 11, id="SaddleSystem"),
    # max |u| about 31: a residual that carries (tau/eps) G D u, as with
    # the pressure eliminated, stalls at 1.14e-10 for 60 passes here.
    pytest.param(256, 10.0, 1e-2, 17, id="FlowSystem-256"),
])
def test_stall_fallback_refactorizes_and_converges(monkeypatch, n, amplitude,
                                                   eps, passes):
    # Advection strong enough that the lagged right-hand-side fixed
    # point stops contracting: the step must fall back to a pass with
    # the advection frozen, solved by GMRES on the transform inverse
    # with no factorization, and still converge, for the relaxed and
    # the constrained system alike.  At 16^2 the pass counts are those
    # of a sparse direct solve of the frozen matrix.
    g = Grid.box((n, n), (1.0, 1.0))
    factored, solved = [], []
    orig_splu, orig_gmres = spla.splu, spla.gmres

    def recording_splu(*args, **kwargs):
        factored.append(args)
        return orig_splu(*args, **kwargs)

    def recording_gmres(*args, **kwargs):
        x, info = orig_gmres(*args, **kwargs)
        solved.append(info)
        return x, info

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(spla, "gmres", recording_gmres)
    state = FlowState(stream_velocity(g, amplitude), np.zeros(g.shape))
    params = FlowParams(tau=0.1, eps=eps, tol=1e-10, max_picard=60)
    system = FlowSystem(g, params)
    new, report = flow_step(system, state, np.zeros((2,) + g.shape))
    assert report.final_residual <= 1e-10
    assert (report.picard_iterations, report.refactorizations) == (passes, 1)
    assert solved == [0]
    assert factored == []
    # The pressure equation (div u = 0 for the constrained system).
    assert report.pressure_eq_residual <= 1e-10


@BOTH_SYSTEMS
def test_frozen_solve_failure_raises(monkeypatch, eps):
    # One GMRES iteration cannot reach the tolerance: the stalled step
    # fails in the frozen-advection solve, with its residual history.
    monkeypatch.setattr(flow_mod, "GMRES_RESTART", 1)
    monkeypatch.setattr(flow_mod, "GMRES_MAXITER", 1)
    g = Grid.box((16, 16), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 5.0), np.zeros(g.shape))
    system = FlowSystem(g, FlowParams(tau=0.1, eps=eps, max_picard=60))
    with pytest.raises(FlowSolverError,
                       match="frozen-advection solve failed") as err:
        flow_step(system, state, np.zeros((2,) + g.shape))
    assert len(err.value.residuals) == 1
    assert err.value.residuals[0] > flow_mod.GMRES_RTOL


@BOTH_SYSTEMS
def test_nan_residual_raises(eps):
    # A NaN fails every comparison, so a loop that tests res > tol
    # would return it as converged.
    g = Grid.box((8, 8), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 0.5), np.zeros(g.shape))
    f = np.zeros((2,) + g.shape)
    f[0, 3, 4] = np.nan
    system = FlowSystem(g, FlowParams(tau=1e-2, eps=eps))
    with pytest.raises(FlowSolverError, match="residual is nan") as err:
        flow_step(system, state, f)
    assert len(err.value.residuals) == 1
    assert np.isnan(err.value.residuals[0])


@BOTH_SYSTEMS
def test_guess_is_taken_only_below_the_previous_residual(eps):
    # A guess with a residual not below the previous state's is dropped
    # and the step is bitwise the one taken without a guess; the
    # converged velocity as a guess is taken and saves passes.
    g = Grid.box((12, 12), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 0.4), np.zeros(g.shape))
    params = FlowParams(tau=1e-3, eps=eps)
    f = average_force(Forcing("constant", (0.1, 0.2)), g, 1, params.tau)
    system = FlowSystem(g, params)
    cold, cold_report = flow_step(system, state, f)
    assert not cold_report.from_guess
    # The previous velocity as a guess ties with the previous state:
    # only a strictly lower residual takes a guess.
    for guess in (1e3 * state.u, state.u):
        warm, warm_report = flow_step(system, state, f, guess=guess)
        assert warm_report == cold_report
        np.testing.assert_array_equal(warm.u, cold.u)
        np.testing.assert_array_equal(warm.p, cold.p)
    new, report = flow_step(system, state, f, guess=cold.u)
    assert report.from_guess
    assert report.picard_iterations < cold_report.picard_iterations
    assert report.final_residual <= params.tol
    for bad in (cold.u[:, :4], np.moveaxis(cold.u, 0, -1)):
        with pytest.raises(GridError, match="guess shape"):
            flow_step(system, state, f, guess=bad)


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-10])
def test_small_eps_step_converges(eps):
    # No rounding floor that grows like tau/eps: a residual that carries
    # (tau/eps) G D u, as with the pressure eliminated, stalls here at
    # 7.9e-10, 7.8e-9 and 7.9e-7.  Measured: 5 passes, the pressure
    # equation's residual at 1.3e-15.
    g = Grid.box((64, 64), (1.0, 1.0))
    params = FlowParams(tau=1e-3, eps=eps)
    state = FlowState(stream_velocity(g, 0.3), np.zeros(g.shape))
    f = average_force(Forcing("constant", (0.2, -0.1)), g, 1, params.tau)
    _, report = flow_step(FlowSystem(g, params), state, f)
    assert report.final_residual <= params.tol
    assert report.picard_iterations <= 5
    assert report.pressure_eq_residual <= 1e-13


def test_step_is_deterministic():
    g = Grid.box((12, 12), (1.0, 1.0))
    state = FlowState(stream_velocity(g, 0.4), np.zeros(g.shape))
    params = FlowParams(tau=1e-3, eps=1e-2)
    f = average_force(Forcing("constant", (0.1, 0.2)), g, 1, params.tau)
    # Both steps use the one inverse the system holds.
    system = FlowSystem(g, params)
    a, _ = flow_step(system, state.copy(), f)
    b, _ = flow_step(system, state.copy(), f)
    np.testing.assert_array_equal(a.u, b.u)
    np.testing.assert_array_equal(a.p, b.p)


# ---------------------------------------------------------------------
# Incompressible saddle system
# ---------------------------------------------------------------------

@pytest.mark.parametrize("frozen", [False, True])
def test_saddle_solve_matches_dense_mean_bordered_system(frozen):
    # Oracle: the saddle system with the pressure mean fixed by a dense
    # border of ones, solved densely.  The lagged passes take the
    # transform inverse, the frozen-advection passes GMRES on it.
    rng = np.random.default_rng(4)
    g = Grid.box((8, 6), (1.0, 1.5))
    n = g.n_cells
    system = FlowSystem(g, FlowParams(tau=1e-2, eps=0.0))
    w = rng.standard_normal((2,) + g.shape)
    lap, grad_mat, div_mat = operators(g)
    mom = sp.identity(n) / system.params.tau - lap
    if frozen:
        mom = mom + assembled_advection(g, w, "dirichlet")
    ones = np.ones((n, 1))
    dense = np.block([
        [sp.block_diag([mom, mom]).toarray(), grad_mat.toarray(),
         np.zeros((2 * n, 1))],
        [div_mat.toarray(), np.zeros((n, n)), ones],
        [np.zeros((1, 2 * n)), ones.T, np.zeros((1, 1))]])
    rhs = rng.standard_normal((2,) + g.shape)
    ref = np.linalg.solve(dense, np.concatenate([rhs.reshape(-1),
                                                 np.zeros(n + 1)]))
    zero = np.zeros(g.shape)
    solve = system.frozen_solve(w) if frozen else system.inverse.solve
    u, p = system.correct(solve, np.zeros_like(rhs), zero, -rhs, zero)
    got = np.concatenate([u.reshape(-1), p.reshape(-1)])
    assert np.abs(got - ref[:3 * n]).max() <= 1e-12 * np.abs(ref).max()
    assert abs(p.mean()) <= 1e-14
    assert np.abs(div(g, u, "dirichlet")).max() <= 1e-12


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("eps", [1e-3, 0.0],
                         ids=["FlowSystem", "SaddleSystem"])
def test_ordered_solve_matches_spsolve(eps, frozen):
    # A pass's solve against a sparse direct solve of the step matrix:
    # the transform inverse, or GMRES on it with the advection frozen
    # at a random velocity.
    rng = np.random.default_rng(5)
    g = Grid.box((10, 12), (1.0, 1.5))
    system = FlowSystem(g, FlowParams(tau=1e-2, eps=eps))
    w = rng.standard_normal((2,) + g.shape) if frozen else None
    rhs = rng.standard_normal((2,) + g.shape)
    zero = np.zeros(g.shape)
    solve = system.frozen_solve(w) if frozen else system.inverse.solve
    u, p = system.correct(solve, np.zeros_like(rhs), zero, -rhs, zero)
    mat = step_matrix(system, w)
    b = np.zeros(mat.shape[0])
    b[:rhs.size] = rhs.reshape(-1)
    ref = spla.spsolve(mat, b)
    got = u.reshape(-1)
    if eps == 0:
        ref[rhs.size:] -= ref[rhs.size:].mean()
        got = np.concatenate([got, p.reshape(-1)])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------
# Transform inverse of the relaxed matrix
# ---------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("shape, lengths", [((10, 12), (1.0, 1.5)),
                                            ((16,), (1.0,))],
                         ids=["2d", "1d"])
def test_spectral_inverse_matches_spsolve(shape, lengths, eps):
    # At tau = 1e-3 the matrix's condition number grows from 1.6 to
    # 1.6e4 as eps falls to 1e-8 on the 2D grid; the measured errors
    # grow with it, from 5e-16 to 5.3e-13.
    rng = np.random.default_rng(6)
    g = Grid.box(shape, lengths)
    tau = 1e-3
    system = FlowSystem(g, FlowParams(tau=tau, eps=eps))
    inv = SpectralInverse(g, tau, eps)
    assert inv.k == (2 * sum(shape) if g.dim == 2 else 0)
    rhs = rng.standard_normal(g.dim * g.n_cells)
    ref = spla.spsolve(step_matrix(system), rhs)
    got = inv.solve(np.concatenate([rhs, np.zeros(g.n_cells)]))[:rhs.size]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_spectral_inverse_solves_the_stacked_relaxed_matrix():
    # With the pressure equation's residual stacked under the momentum
    # residual, the solve is that of [[A0, G], [D, (eps/tau) I]], A0 the
    # velocity block: the step matrix that every Picard pass inverts.
    rng = np.random.default_rng(10)
    g = Grid.box((10, 12), (1.0, 1.5))
    tau, eps = 1e-3, 1e-2
    system = FlowSystem(g, FlowParams(tau=tau, eps=eps))
    lap, grad_mat, div_mat = operators(g)
    mom = sp.identity(g.n_cells) / tau - lap
    stacked = sp.bmat([[sp.block_diag([mom] * 2), grad_mat],
                       [div_mat, eps / tau * sp.identity(g.n_cells)]],
                      format="csc")
    rhs = rng.standard_normal(3 * g.n_cells)
    ref = spla.spsolve(stacked, rhs)
    got = SpectralInverse(g, tau, eps).solve(rhs)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_spectral_inverse_across_the_transform_crossover(eps):
    # 160 cells along x take scipy.fft, 24 along y the dense products:
    # one system holds both transform paths, and its solve is still that
    # of the step matrix; measured 3.5e-15 and 4.7e-15.  The oracle's
    # own error grows on this grid, to 4.2e-13 at eps = 1e-6 and
    # 3.8e-12 for the pinned saddle matrix, so those are left to the
    # smaller grids.
    assert 24 < TRANSFORM_CROSSOVER <= 160
    rng = np.random.default_rng(13)
    g = Grid.box((160, 24), (1.0, 0.3))
    tau = 1e-3
    system = FlowSystem(g, FlowParams(tau=tau, eps=eps))
    rhs = rng.standard_normal(2 * g.n_cells)
    ref = spla.spsolve(step_matrix(system), rhs)
    got = SpectralInverse(g, tau, eps).solve(
        np.concatenate([rhs, np.zeros(g.n_cells)]))[:rhs.size]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("shape, lengths", [((10, 12), (1.0, 1.5)),
                                            ((160, 24), (1.0, 0.3)),
                                            ((16,), (1.0,))],
                         ids=["2d", "crossover", "1d"])
def test_velocity_apply_is_the_solves_velocity(shape, lengths):
    # A frozen pass's GMRES applies only the velocity of the inverse;
    # it is exactly the velocity part of the stacked solve.
    rng = np.random.default_rng(14)
    g = Grid.box(shape, lengths)
    inv = SpectralInverse(g, 1e-2, 1e-3)
    b = rng.standard_normal((g.dim + 1) * g.n_cells)
    assert np.array_equal(inv.velocity(b), inv.solve(b)[:g.dim * g.n_cells])


def test_capacitance_matches_unit_solves():
    # K = U^T M^-1 U with M the free-slip model: the step matrix less
    # 2/h^2 on each wall cell, h the spacing across that wall.  Each
    # column is a sparse solve with M for one wall cell.
    g = Grid.box((8, 6), (1.0, 1.5))
    tau, eps = 1e-2, 1e-3
    inv = SpectralInverse(g, tau, eps)
    assert inv.k == 28
    across = np.where(inv.walls < g.n_cells, g.spacing[1], g.spacing[0])
    n = g.dim * g.n_cells
    pick = sp.csc_matrix((np.ones(inv.k), (inv.walls, np.arange(inv.k))),
                         shape=(n, inv.k))
    model = (step_matrix(FlowSystem(g, FlowParams(tau=tau, eps=eps)))
             - pick @ sp.diags(2.0 / across ** 2) @ pick.T)
    ref = pick.T @ spla.spsolve(model.tocsc(), pick.toarray())
    cap = inv.capacitance()
    assert np.abs(cap - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(cap - cap.T).max() <= 1e-15 * np.abs(cap).max()


@pytest.mark.parametrize("tau", [1e-3, 1e-1])
@pytest.mark.parametrize("shape, lengths", [((10, 12), (1.0, 1.5)),
                                            ((16,), (1.0,))],
                         ids=["2d", "1d"])
def test_saddle_spectral_inverse_matches_spsolve(shape, lengths, tau):
    # At eps = 0 the transform inverse solves the saddle system for the
    # stacked residual [r; D u]; the pinned matrix's solution differs
    # from it only in the pressure's constant, which the mean removes.
    rng = np.random.default_rng(9)
    g = Grid.box(shape, lengths)
    system = FlowSystem(g, FlowParams(tau=tau, eps=0.0))
    inv = system.lagged_inverse()
    assert isinstance(inv, SpectralInverse)
    u = rng.standard_normal((g.dim,) + g.shape)
    p = rng.standard_normal(g.shape)
    p -= p.mean()
    r = rng.standard_normal(u.shape)
    u_new, p_new = system.correct(inv.solve, u, p, r, np.zeros(g.shape))
    ref = spla.spsolve(step_matrix(system), np.concatenate(
        [r.reshape(-1), operators(g)[2] @ u.reshape(-1)]))
    ref[u.size:] -= ref[u.size:].mean()
    got = np.concatenate([(u - u_new).reshape(-1), (p - p_new).reshape(-1)])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(div(g, u_new, "dirichlet")).max() <= 1e-12


def test_relaxed_steps_without_stall_factor_nothing(monkeypatch):
    g = Grid.box((16, 16), (1.0, 1.0))
    calls = []
    orig = spla.splu

    def recording_splu(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    params = FlowParams(tau=1e-3, eps=1e-2)
    system = FlowSystem(g, params)
    state = FlowState(stream_velocity(g, 0.4), np.zeros(g.shape))
    f = average_force(Forcing("constant", (0.1, 0.2)), g, 1, params.tau)
    for _ in range(3):
        state, report = flow_step(system, state, f)
        assert report.picard_iterations > 0
        assert report.refactorizations == 0
        assert report.final_residual <= params.tol
    assert calls == []


# ---------------------------------------------------------------------
# Manufactured solution: an oracle independent of the scheme
# ---------------------------------------------------------------------

def _manufactured(grid):
    """U = curl(sin^2 pi x sin^2 pi y) at the cell centers, with its
    Laplacian and (U.grad) U, and p* = cos pi x cos pi y with its
    gradient.  U is divergence-free and zero on the walls; u* = cos t U.
    """
    x, y = grid.cell_centers()
    pi = np.pi

    def s0(z):
        return np.sin(pi * z) ** 2

    def s1(z):
        return pi * np.sin(2 * pi * z)

    def s2(z):
        return 2 * pi ** 2 * np.cos(2 * pi * z)

    def s3(z):
        return -4 * pi ** 3 * np.sin(2 * pi * z)

    u = np.stack([s0(x) * s1(y), -s1(x) * s0(y)])
    lap = np.stack([s2(x) * s1(y) + s0(x) * s3(y),
                    -s3(x) * s0(y) - s1(x) * s2(y)])
    conv = np.stack([u[0] * s1(x) * s1(y) + u[1] * s0(x) * s2(y),
                     -u[0] * s2(x) * s0(y) - u[1] * s1(x) * s1(y)])
    p = np.cos(pi * x) * np.cos(pi * y)
    gradp = np.stack([-pi * np.sin(pi * x) * np.cos(pi * y),
                      -pi * np.cos(pi * x) * np.sin(pi * y)])
    return u, lap, conv, p, gradp


def _manufactured_errors(eps, n, t_final=0.1):
    # tau ~ h^2, so the step's first order in tau reads as second
    # order in h.  The force of u_t + (u.grad) u - lap u + grad p is
    # averaged over each step by 4-point Gauss-Legendre; with p* fixed
    # in time and div u* = 0 the relaxed pressure equation holds too.
    g = Grid.box((n, n), (1.0, 1.0))
    steps = 25 * (n // 16) ** 2
    tau = t_final / steps
    u, lap, conv, p, gradp = _manufactured(g)
    nodes, weights = np.polynomial.legendre.leggauss(4)
    system = FlowSystem(g, FlowParams(tau=tau, eps=eps, tol=1e-9))
    state = FlowState(u.copy(), p.copy())
    for k in range(1, steps + 1):
        times = (k - 0.5 + 0.5 * nodes) * tau
        f = sum(0.5 * w * (-np.sin(t) * u + np.cos(t) ** 2 * conv
                           - np.cos(t) * lap + gradp)
                for t, w in zip(times, weights))
        state, report = flow_step(system, state, f)
        assert report.final_residual <= 1e-9
    return (norm_l2(g, state.u - np.cos(t_final) * u),
            norm_l2(g, state.p - p))


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 0.0],
                         ids=["relaxed-1e-2", "relaxed-1e-4", "saddle"])
def test_manufactured_solution_converges_at_second_order(eps):
    # Measured at 16^2 -> 32^2: |u - u*| 2.53e-2 -> 6.33e-3 (order 2.00)
    # and |p - p*| 1.13e-1..1.17e-1 -> 2.71e-2..2.75e-2 (2.06..2.10) at
    # all three eps.  With the flow advection's sign flipped the u order
    # falls to 0.81..0.98 and |p - p*| stays near 5.8.
    (u16, p16), (u32, p32) = (_manufactured_errors(eps, n)
                              for n in (16, 32))
    assert np.log2(u16 / u32) >= 1.8
    assert np.log2(p16 / p32) >= 1.8
    assert u32 <= 8e-3
    assert p32 <= 3.5e-2
