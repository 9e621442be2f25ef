"""Shared fixtures, the sparse stencil oracle and the acceptance hook.

Acceptance tests append one formatted line per criterion to a
session-wide registry; ``pytest_terminal_summary`` prints the registry
after the run so every criterion shows exactly one PASS/FAIL line even
under captured output.

The stencil oracle writes each derivative as a ``scipy.sparse`` matrix
on flattened fields, entry by entry from the ghost rules, and lifts the
1D stencils to 2D by Kronecker products.  It is built afresh on each
call and shares no code with the solver's slicing stencils, which the
tests compare against it.

The mixture oracle keeps the points-last form of the inversion, the
mobility and the density Jacobian: every array is (..., N), and each sum
over the species is a product with a ones vector or an einsum over the
last axis.  The solver computes the same formulas on component rows; the
tests compare the two.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from msflow.grid import skew_advect
from msflow.mixture import (INVERSION_RTOL, InversionError, MixtureDomainError,
                            MixtureSpec)

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_lines():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def binary_spec():
    return MixtureSpec(np.array([1.0, 1.0]),
                       np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture(scope="session")
def stiff_binary_spec():
    return MixtureSpec(np.array([2.0, 1.0]),
                       np.array([[0.0, 0.5], [0.5, 0.0]]))


@pytest.fixture(scope="session")
def ternary_spec():
    d = np.array([[0.0, 0.5, 0.7],
                  [0.5, 0.0, 0.3],
                  [0.7, 0.3, 0.0]])
    return MixtureSpec(np.array([2.0, 3.0, 1.5]), d)


def random_spec(rng, n_species):
    """Random mixture description with well-separated coefficients."""
    masses = rng.uniform(0.5, 3.0, size=n_species)
    d = np.zeros((n_species, n_species))
    iu = np.triu_indices(n_species, k=1)
    vals = rng.uniform(0.2, 2.0, size=len(iu[0]))
    d[iu] = vals
    d = d + d.T
    return MixtureSpec(masses, d)


def central_1d(n, h, bc):
    """Central first difference on n cells; the ghost beyond each end is
    the end value ("neumann") or its negative ("dirichlet")."""
    ghost = {"neumann": 1.0, "dirichlet": -1.0}[bc]
    m = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [-1, 1], format="lil")
    m[0, 0] = -ghost
    m[n - 1, n - 1] = ghost
    return (m / (2.0 * h)).tocsr()


def second_1d(n, h, bc):
    """Second difference on n cells, the ghost folded into the end cells:
    -1/h^2 there for even ghosts, -3/h^2 for odd ones."""
    end = {"neumann": -1.0, "dirichlet": -3.0}[bc]
    m = sp.diags([np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)],
                 [-1, 0, 1], format="lil")
    m[0, 0] = m[n - 1, n - 1] = end
    return (m / (h * h)).tocsr()


def lift(grid, mat_1d, axis):
    """A 1D stencil acting along ``axis`` of the grid's flattened fields."""
    if grid.dim == 1:
        return mat_1d
    eyes = [sp.identity(n, format="csr") for n in grid.shape]
    eyes[axis] = mat_1d
    return sp.kron(eyes[0], eyes[1], format="csr")


def deriv_matrix(grid, axis, bc):
    """Central first-derivative matrix along ``axis``."""
    return lift(grid, central_1d(grid.shape[axis], grid.spacing[axis], bc),
                axis)


def laplacian_matrix(grid, bc):
    """Compact Laplacian matrix: the lifted second differences summed."""
    return sum(lift(grid, second_1d(n, h, bc), a) for a, (n, h)
               in enumerate(zip(grid.shape, grid.spacing))).tocsr()


def stencil_matrix(grid, apply):
    """Dense matrix of a linear map on scalar fields, one column per unit
    field."""
    n = grid.n_cells
    return np.column_stack([apply(e.reshape(grid.shape)).reshape(-1)
                            for e in np.eye(n)])


def assembled_advection(grid, u, bc):
    """Matrix of v -> skew_advect(grid, u, v, bc) on flattened scalar
    fields, one column per unit field."""
    n = grid.n_cells
    cols = skew_advect(grid, u, np.eye(n).reshape((n,) + grid.shape), bc)
    return sp.csr_matrix(cols.reshape(n, n).T)


def oracle_full_densities(rho, spec):
    rho = np.asarray(rho, dtype=float)
    n = spec.n_reduced
    if rho.shape[-1] != n:
        raise MixtureDomainError(
            f"expected {n} reduced densities, got {rho.shape[-1]}")
    last = 1.0 - rho @ np.ones(n)
    if np.any(rho <= 0.0) or np.any(last <= 0.0):
        raise MixtureDomainError("density vector outside the open unit simplex")
    return np.concatenate([rho, last[..., None]], axis=-1)


def _oracle_fractions(rho_full, spec):
    per_mole = rho_full / spec.molar_masses
    c = per_mole @ np.ones(spec.n_species)
    return per_mole / c[..., None], c


def _oracle_reduced_friction(rho_full, c, spec):
    n = spec.n_reduced
    m = spec.molar_masses
    rho = rho_full[..., :n]
    denom = spec.diffusivities * np.outer(m, m)
    np.fill_diagonal(denom, np.inf)
    d = (1.0 / (c * c))[..., None, None] / denom
    dn = d[..., :n, n]
    drel = d[..., :n, :n] - dn[..., :, None]
    idx = np.arange(n)
    drel[..., idx, idx] = 0.0
    a0 = -drel * rho[..., :, None]
    a0[..., idx, idx] = np.einsum("...ik,...k->...i", drel, rho) + dn
    return a0


def _oracle_spd_inverse(a):
    """LDL^T inverse of (..., N, N) blocks, read through a[..., i, j]."""
    n = a.shape[-1]
    if n == 1:
        return 1.0 / a
    low = [[a[..., i, j] for j in range(i + 1)] for i in range(n)]
    diag = []
    for j in range(n):
        diag.append(low[j][j] - sum(low[j][k] ** 2 * diag[k]
                                    for k in range(j)))
        for i in range(j + 1, n):
            low[i][j] = (low[i][j] - sum(low[i][k] * low[j][k] * diag[k]
                                         for k in range(j))) / diag[j]
    inv_l = [[1.0] * (i + 1) for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv_l[i][j] = -low[i][j] - sum(low[i][k] * inv_l[k][j]
                                           for k in range(j + 1, i))
    out = np.empty(a.shape)
    for i in range(n):
        for j in range(i + 1):
            out[..., i, j] = out[..., j, i] = sum(
                inv_l[k][i] * inv_l[k][j] / diag[k] for k in range(i, n))
    return out


def oracle_mobility_matrix(rho, spec):
    """B = (G A0)^{-1}, G A0 symmetrized after a 1e-8 symmetry check."""
    n = spec.n_reduced
    rho_full = oracle_full_densities(rho, spec)
    _, c = _oracle_fractions(rho_full, spec)
    a0 = _oracle_reduced_friction(rho_full, c, spec)
    col = sum(a0[..., k, :] for k in range(n)) / rho_full[..., -1:]
    g_a0 = c[..., None, None] * (a0 / rho_full[..., :n, None]
                                 + col[..., None, :])
    g_a0_t = np.swapaxes(g_a0, -1, -2)
    scale = np.abs(g_a0).max()
    asym = np.abs(g_a0 - g_a0_t).max()
    if asym > 1e-8 * scale:
        raise FloatingPointError(
            f"mobility matrix lost symmetry: rel asymmetry {asym / scale:.3e}")
    return _oracle_spd_inverse(0.5 * (g_a0 + g_a0_t))


def oracle_density_jacobian(rho, spec):
    """drho/dw = H^{-1} in closed form."""
    n = spec.n_reduced
    m = spec.molar_masses
    rho_full = oracle_full_densities(rho, spec)
    rho = rho_full[..., :n]
    others = 1.0 - np.eye(n + 1)[:, :n]
    rest = rho_full @ others
    mass_rest = (m * rho_full) @ others
    mbar = mass_rest[..., :1] + m[0] * rho[..., :1]
    jac = rho[..., :, None] * rho[..., None, :] * (
        mbar[..., None] - (m[:n, None] + m[None, :n]))
    idx = np.arange(n)
    jac[..., idx, idx] = rho * (m[:n] * rest * rest + rho * mass_rest)
    return jac


def oracle_densities_from_entropy(w, spec):
    """rho(w) by Newton on the closure, with the solver's acceptance
    rule: the 1e-14 interior margin and the residual bound with its
    quantization floor."""
    w = np.asarray(w, dtype=float)
    n = spec.n_reduced
    if w.shape[-1] != n:
        raise MixtureDomainError(
            f"expected {n} entropy variables, got {w.shape[-1]}")
    flat_w = w.reshape(-1, n)
    m = spec.molar_masses
    mw = np.concatenate([m[:n] * flat_w, np.zeros((len(flat_w), 1))], axis=-1)
    ratio = m / m[-1]
    sum_and_slope = np.stack([np.ones_like(ratio), ratio], axis=-1)
    t = np.minimum(0.0, (-m[-1] * flat_w).min(axis=-1))
    for iters in range(100):
        x = np.exp(mw + t[:, None] * ratio)
        total, slope = (x @ sum_and_slope).T
        new = np.where(total > 1.0, t - (total - 1.0) / slope, t)
        if np.array_equal(new, t):
            break
        t = new
    mx = m * np.exp(mw + t[:, None] * ratio)
    rho = mx[:, :-1] / (mx @ sum_and_slope[:, :1])
    rho_full = np.concatenate([rho, 1.0 - rho @ np.ones((n, 1))], axis=-1)
    rmin = rho_full.min(axis=-1)
    if not np.all(rmin >= 1e-14):
        p, k = np.unravel_index(np.argmin(rho_full), rho_full.shape)
        raise InversionError(
            f"entropy inversion needs full density {k + 1} of {n + 1} at "
            f"{rho_full[p, k]:.3e}, below the interior margin 1e-14")
    logx = np.log(_oracle_fractions(rho_full, spec)[0])
    res = np.abs(logx[..., :-1] / m[:-1] - logx[..., -1:] / m[-1] - flat_w)
    mass_floor = min(float(np.min(m)), 1.0)
    rep_limit = 8.0 * np.finfo(float).eps / (rmin * mass_floor)
    bound = np.maximum(INVERSION_RTOL * (1.0 + np.abs(flat_w)),
                       rep_limit[:, None])
    if not np.all(res <= bound):
        raise InversionError(
            f"entropy inversion did not converge: residual "
            f"{float(res.max()):.3e} after {iters + 1} iterations")
    return rho.reshape(w.shape)
