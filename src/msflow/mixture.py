"""Pointwise algebra for an isothermal multicomponent mixture.

An incompressible mixture of N+1 species is described by the reduced vector
of partial mass densities rho = (rho_1, ..., rho_N).  The last component is
eliminated through the closure

    rho_{N+1} = 1 - sum_i rho_i,

so admissible states live in the open unit simplex.  All quantities below
are algebraic functions of rho at a single point, taken in the field
layout of :mod:`msflow.grid`: densities or entropy variables (N, ...),
vectors (N+1, ...) and matrices entry-first (N, N, ...), for any point
axes.  Each formula is one numpy call over the component rows (N, P);
sums over the species run in index order.

Notation used throughout this module:

    M_i     molar mass of species i (positive, arbitrary units)
    D_ij    symmetric binary diffusivities, i != j
    c       total molar concentration, c = sum_k rho_k / M_k
    x_i     molar fraction, x_i = rho_i / (c M_i), sums to one
    h       mixing entropy density, h = c * sum_i x_i log x_i
    w_i     entropy variable, w_i = log(x_i)/M_i - log(x_{N+1})/M_{N+1}

The map rho -> w is a bijection from the open simplex onto R^N: given w,
the closure sum_k x_k = 1 is one increasing, convex equation in
log x_{N+1}, solved by a scalar Newton iteration per point.  The
inverse is what guarantees positivity of densities in the time
steppers: any w yields an interior state, so no clamping is ever
applied inside solvers.

Matrix-valued coefficients:

    A   full (N+1)x(N+1) friction matrix of the diffusive coupling;
        singular, with A rho_full = 0.
    A0  reduced NxN matrix after eliminating species N+1; invertible.
    G   Jacobian dw/dx' of entropy variables with respect to reduced
        molar fractions; symmetric positive definite.
    H   Jacobian dw/drho (Hessian of the entropy density h); symmetric
        positive definite.  Its inverse drho/dw has a closed form.
    B   A0^{-1} G^{-1}, the mobility matrix multiplying grad w in the
        species flux; symmetric positive definite, computed as the
        inverse of G A0.

No routine calls LAPACK per point: the N x N inverses are closed forms
or ``spd_inverse``, unrolled over N and vectorized over the points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MixtureDomainError(ValueError):
    """Raised when a density vector leaves the open unit simplex."""


class InversionError(RuntimeError):
    """Raised when the entropy-variable inversion fails to converge."""


@dataclass(frozen=True)
class MixtureSpec:
    """Static description of the mixture: molar masses and diffusivities.

    Parameters
    ----------
    molar_masses : array_like, shape (N+1,)
        Positive molar masses, last entry is the eliminated species.
    diffusivities : array_like, shape (N+1, N+1)
        Symmetric matrix of binary diffusivities with positive
        off-diagonal entries.  Diagonal entries are ignored.
    """

    molar_masses: np.ndarray
    diffusivities: np.ndarray
    n_reduced: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.molar_masses, dtype=float)
        d = np.asarray(self.diffusivities, dtype=float)
        if m.ndim != 1 or m.size < 2:
            raise ValueError("molar_masses must be a vector of length >= 2")
        if not np.all((0.0 < m) & (m < np.inf)):
            raise ValueError("molar masses must be positive and finite")
        n1 = m.size
        if d.shape != (n1, n1):
            raise ValueError(
                f"diffusivities must have shape ({n1}, {n1}), got {d.shape}"
            )
        if not np.allclose(d, d.T, rtol=1e-13, atol=0.0):
            raise ValueError("diffusivity matrix must be symmetric")
        off = d[~np.eye(n1, dtype=bool)]
        if np.any(off <= 0.0):
            raise ValueError("off-diagonal diffusivities must be positive")
        d = d.copy()
        np.fill_diagonal(d, 0.0)
        object.__setattr__(self, "molar_masses", m)
        object.__setattr__(self, "diffusivities", d)
        object.__setattr__(self, "n_reduced", n1 - 1)

    @property
    def n_species(self) -> int:
        """Total number of species, N+1."""
        return self.molar_masses.size


def _rows(a, n: int, what: str) -> np.ndarray:
    """Values of shape (n, ...) as rows (n, P), a view when contiguous."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if len(a) != n:
        raise MixtureDomainError(f"expected {n} {what}, got {len(a)}")
    return a.reshape(n, -1)


def _full_rows(rho, spec: MixtureSpec):
    """Full-density rows (N+1, P) of reduced densities (N, ...) in the
    open unit simplex, and the shape of the points."""
    rows = _rows(rho, spec.n_reduced, "reduced densities")
    last = 1.0 - rows.sum(axis=0)
    if np.any(rows <= 0.0) or np.any(last <= 0.0):
        raise MixtureDomainError("density vector outside the open unit simplex")
    return np.concatenate([rows, last[None]]), np.shape(rho)[1:]


def _shaped(rows: np.ndarray, points: tuple) -> np.ndarray:
    """Rows (..., P) back to fields (..., *points)."""
    return rows.reshape(rows.shape[:-1] + points)


def full_densities(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Append the eliminated species: rho_{N+1} = 1 - sum rho_i, shape
    (N+1, ...).

    Raises ``MixtureDomainError`` unless rho lies in the open unit
    simplex.
    """
    return _shaped(*_full_rows(rho, spec))


def _fractions(rho_full: np.ndarray, spec: MixtureSpec):
    """Molar fractions x, rows (N+1, P), and the total concentration c,
    shape (P,), from rows of full densities."""
    per_mole = rho_full / spec.molar_masses[:, None]
    c = per_mole.sum(axis=0)
    return per_mole / c, c


def molar_fractions(rho: np.ndarray, spec: MixtureSpec):
    """Molar fractions and total concentration from reduced densities.

    Returns
    -------
    x : ndarray, shape (N+1, ...)
        Molar fractions, positive and summing to one.
    c : ndarray, shape (...)
        Total concentration c = sum_k rho_k / M_k.
    """
    rho_full, points = _full_rows(rho, spec)
    x, c = _fractions(rho_full, spec)
    return _shaped(x, points), c.reshape(points)


def entropy_density(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Mixing entropy density h(rho) = c * sum_i x_i log x_i, shape (...)."""
    rho_full, points = _full_rows(rho, spec)
    x, c = _fractions(rho_full, spec)
    return (c * (x * np.log(x)).sum(axis=0)).reshape(points)


def _entropy_vars(x: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    m = spec.molar_masses
    logx = np.log(x)
    return logx[:-1] / m[:-1, None] - logx[-1] / m[-1]


def entropy_vars(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Entropy variables w_i = log(x_i)/M_i - log(x_{N+1})/M_{N+1},
    shape (N, ...)."""
    rho_full, points = _full_rows(rho, spec)
    x = _fractions(rho_full, spec)[0]
    return _shaped(_entropy_vars(x, spec), points)


def _friction_coefficients(c: np.ndarray, spec: MixtureSpec):
    """Pairwise coefficients d_ij = 1 / (c^2 M_i M_j D_ij), zero diagonal,
    shape (N+1, N+1, P)."""
    m = spec.molar_masses
    denom = spec.diffusivities * np.outer(m, m)
    np.fill_diagonal(denom, np.inf)             # d_ii = 0
    return (1.0 / (c * c)) / denom[..., None]


def friction_matrix_full(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Full singular friction matrix A, shape (N+1, N+1, ...).

    Off-diagonal A_ij = -d_ij rho_i, diagonal A_ii = sum_{k != i} d_ik rho_k.
    The full density vector spans its null space: A rho_full = 0.
    """
    rho_full, points = _full_rows(rho, spec)
    d = _friction_coefficients(_fractions(rho_full, spec)[1], spec)
    a = -d * rho_full[:, None]
    idx = np.arange(spec.n_species)
    a[idx, idx] = (d * rho_full).sum(axis=1)
    return _shaped(a, points)


def _reduced_friction(rho_full: np.ndarray, c: np.ndarray,
                      spec: MixtureSpec) -> np.ndarray:
    n = spec.n_reduced
    rho = rho_full[:n]
    d = _friction_coefficients(c, spec)
    dn = d[:n, n]
    drel = d[:n, :n] - dn[:, None]
    idx = np.arange(n)
    drel[idx, idx] = 0.0                        # the sums run over k != i
    a0 = -drel * rho[:, None]
    a0[idx, idx] = (drel * rho).sum(axis=1) + dn
    return a0


def friction_matrix_reduced(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Reduced friction matrix A0 after eliminating species N+1, shape
    (N, N, ...).

    A0_ij = -(d_ij - d_{i,N+1}) rho_i for i != j, and
    A0_ii = sum_{k != i, k <= N} (d_ik - d_{i,N+1}) rho_k + d_{i,N+1}.
    Invertible on the open simplex.
    """
    rho_full, points = _full_rows(rho, spec)
    return _shaped(_reduced_friction(
        rho_full, _fractions(rho_full, spec)[1], spec), points)


def fraction_jacobian(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Jacobian dw/dx' of entropy variables in reduced molar fractions.

    G_ij = c (1/rho_{N+1} + delta_ij / rho_i); symmetric positive definite.
    """
    n = spec.n_reduced
    rho_full, points = _full_rows(rho, spec)
    c = _fractions(rho_full, spec)[1]
    g = np.broadcast_to(c / rho_full[-1], (n, n) + c.shape).copy()
    idx = np.arange(n)
    g[idx, idx] += c / rho_full[:n]
    return _shaped(g, points)


def entropy_hessian(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Hessian of the entropy density, H = dw/drho; symmetric PD.

    H_ij = delta_ij / (M_i rho_i) + 1 / (M_{N+1} rho_{N+1})
           - (1/c) (1/M_i - 1/M_{N+1}) (1/M_j - 1/M_{N+1}).
    """
    n = spec.n_reduced
    rho_full, points = _full_rows(rho, spec)
    c = _fractions(rho_full, spec)[1]
    m = spec.molar_masses
    dm = 1.0 / m[:n] - 1.0 / m[-1]
    h = 1.0 / (m[-1] * rho_full[-1]) - np.outer(dm, dm)[..., None] / c
    idx = np.arange(n)
    h[idx, idx] += 1.0 / (m[:n, None] * rho_full[:n])
    return _shaped(h, points)


def density_jacobian(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Jacobian drho/dw = H^{-1} in closed form; symmetric PD.

    With a_i = M_i rho_i and Mbar = sum_{k <= N+1} M_k rho_k,

        H^{-1} = diag(a) - a rho^T - rho a^T + Mbar rho rho^T,

    so the off-diagonal entries are rho_i rho_j (Mbar - M_i - M_j).  The
    diagonal is formed as rho_i sum_{k != i} rho_k (M_i (1 - rho_i)
    + rho_i M_k), with k over all N+1 species, a sum of positive terms,
    so nothing cancels near a vertex of the simplex.
    """
    n = spec.n_reduced
    m = spec.molar_masses
    rho_full, points = _full_rows(rho, spec)
    rho = rho_full[:n]
    others = 1.0 - np.eye(n, n + 1)                # row i: k != i
    rest = others @ rho_full                        # 1 - rho_i
    mass_rest = others @ (m[:, None] * rho_full)    # sum_{k != i} M_k rho_k
    mbar = mass_rest[0] + m[0] * rho[0]
    jac = rho[:, None] * rho * (
        mbar - (m[:n, None] + m[None, :n])[..., None])
    idx = np.arange(n)
    jac[idx, idx] = rho * (m[:n, None] * rest * rest + rho * mass_rest)
    return _shaped(jac, points)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of symmetric positive definite blocks stored entry-first,
    shape (N, N, ...).

    An LDL^T factorization without pivoting, unrolled over N in Python
    and vectorized over the trailing axes: each step is one numpy call on
    entry (i, j) of every block.  The inverse is L^{-T} D^{-1} L^{-1}.
    Only the lower triangle of ``a`` is read and the result is exactly
    symmetric.  For N = 1 it is a reciprocal.
    """
    inv = np.empty(np.shape(a))
    n = len(a)
    low = [[a[i, j] for j in range(i + 1)] for i in range(n)]
    diag = []
    for j in range(n):
        diag.append(low[j][j] - sum(low[j][k] ** 2 * diag[k]
                                    for k in range(j)))
        for i in range(j + 1, n):
            low[i][j] = (low[i][j] - sum(low[i][k] * low[j][k] * diag[k]
                                         for k in range(j))) / diag[j]
    # L^{-1}, unit lower triangular, by forward substitution.
    inv_l = [[1.0] * (i + 1) for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv_l[i][j] = -low[i][j] - sum(low[i][k] * inv_l[k][j]
                                           for k in range(j + 1, i))
    for i in range(n):
        for j in range(i + 1):
            inv[i, j] = inv[j, i] = sum(
                inv_l[k][i] * inv_l[k][j] / diag[k] for k in range(i, n))
    return inv


def mobility_matrix(rho: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Mobility matrix B = A0^{-1} G^{-1} of the entropy-variable flux,
    shape (N, N, ...).

    B is symmetric positive definite, and so is its inverse
    B^{-1} = G A0.  G is c times a diagonal plus a rank-one term, so
    (G A0)_ij = c (A0_ij / rho_i + sum_k A0_kj / rho_{N+1}), formed from
    one evaluation of the full densities and of c.  The symmetry check
    sits on G A0, which is symmetric up to roundoff: it must hold to a
    relative 1e-8, and G A0 is then symmetrized and inverted with
    ``spd_inverse``.
    """
    n = spec.n_reduced
    rho_full, points = _full_rows(rho, spec)
    c = _fractions(rho_full, spec)[1]
    a0 = _reduced_friction(rho_full, c, spec)
    col = a0.sum(axis=0) / rho_full[-1]
    g_a0 = c * (a0 / rho_full[:n, None] + col)
    g_a0_t = g_a0.swapaxes(0, 1)
    scale = np.abs(g_a0).max()
    asym = np.abs(g_a0 - g_a0_t).max()
    if asym > 1e-8 * scale:
        raise FloatingPointError(
            f"mobility matrix lost symmetry: rel asymmetry {asym / scale:.3e}"
        )
    return _shaped(spd_inverse(0.5 * (g_a0 + g_a0_t)), points)


INVERSION_RTOL = 1e-14          # see densities_from_entropy


def densities_from_entropy(w: np.ndarray, spec: MixtureSpec) -> np.ndarray:
    """Invert the entropy-variable map: find rho with w(rho) = w.

    With s = x_{N+1} the definition of w gives
    x_i = exp(M_i w_i) s^{M_i / M_{N+1}}, so the closure sum_k x_k = 1 is
    one increasing, convex equation in t = log s per point:

        g(t) = e^t + sum_i exp(M_i w_i + t M_i / M_{N+1}) - 1 = 0.

    Newton starts at t0 = min(0, min_i -M_{N+1} w_i), where the largest
    term is exactly 1, so g(t0) >= 0 and the iterates fall monotonically
    to the root.  Only points with g > 0 move; the loop ends at a bitwise
    fixed point or after 100 passes.  The densities are
    rho_i = M_i x_i / sum_k M_k x_k.

    The result is accepted when every full component, 1 - sum_i rho_i
    included, is at least 1e-14, so the state is strictly interior (which
    is how the time steppers obtain positivity without any clamping), and
    every component satisfies |w(rho) - w| <= INVERSION_RTOL (1 + |w|),
    just above the roundoff of evaluating w(rho).  A component near the
    resolution of double precision can only be matched to the quantization
    floor eps / min_component of w across one ulp of it; such a residual
    is accepted too.  Anything else raises ``InversionError``, e.g. a
    target that would need a component below 1e-14.

    Parameters
    ----------
    w : array_like, shape (N, ...)
        Target entropy variables, any real values.
    """
    n = spec.n_reduced
    w_rows = _rows(w, n, "entropy variables")
    m = spec.molar_masses
    # Exponents M_i w_i + t M_i / M_{N+1} of all N+1 terms, the last one t.
    mw = np.concatenate([m[:n, None] * w_rows, np.zeros((1, w_rows.shape[1]))])
    ratio = (m / m[-1])[:, None]
    sum_and_slope = np.vstack([np.ones(n + 1), ratio[:, 0]])
    t = np.minimum(0.0, (-m[-1] * w_rows).min(axis=0))
    for iters in range(100):
        x = np.exp(mw + t * ratio)
        total, slope = sum_and_slope @ x           # g + 1 and g'
        new = np.where(total > 1.0, t - (total - 1.0) / slope, t)
        if np.array_equal(new, t):
            break
        t = new
    mx = m[:, None] * np.exp(mw + t * ratio)
    rho = mx[:-1] / mx.sum(axis=0)
    rho_full = np.concatenate([rho, 1.0 - rho.sum(axis=0, keepdims=True)])
    rmin = rho_full.min(axis=0)
    if not np.all(rmin >= 1e-14):
        p = np.argmin(rmin)
        k = np.argmin(rho_full[:, p])
        raise InversionError(
            f"entropy inversion needs full density {k + 1} of {n + 1} at "
            f"{rho_full[k, p]:.3e}, below the interior margin 1e-14")
    res = np.abs(_entropy_vars(_fractions(rho_full, spec)[0], spec)
                 - w_rows)
    mass_floor = min(float(np.min(m)), 1.0)
    rep_limit = 8.0 * np.finfo(float).eps / (rmin * mass_floor)
    bound = np.maximum(INVERSION_RTOL * (1.0 + np.abs(w_rows)), rep_limit)
    if not np.all(res <= bound):
        raise InversionError(
            f"entropy inversion did not converge: residual "
            f"{float(res.max()):.3e} after {iters + 1} iterations")
    return _shaped(rho, np.shape(w)[1:])


def lift_initial(rho_full: np.ndarray, alpha0: float) -> np.ndarray:
    """Push initial data, full densities (N+1, ...), from the closed
    simplex strictly inside it.

    Each component of the full density vector is mapped to
    (rho_i + 2 alpha0) / (1 + 2 alpha0 (N+1)); the result sums to one
    and every component is at least alpha0.  Requires
    0 < alpha0 < 1 / (2 (N+1)).
    """
    rho_full = np.asarray(rho_full, dtype=float)
    n1 = rho_full.shape[0]
    if not 0.0 < alpha0 < 1.0 / (2.0 * n1):
        raise ValueError(
            f"alpha0 must lie in (0, {1.0 / (2.0 * n1):.4g}), got {alpha0}"
        )
    if np.any(rho_full < 0.0):
        raise MixtureDomainError("initial densities must be nonnegative")
    sums = rho_full.sum(axis=0)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-12):
        raise MixtureDomainError("initial densities must sum to one")
    return (rho_full + 2.0 * alpha0) / (1.0 + 2.0 * alpha0 * n1)


def sample_simplex(rng: np.random.Generator, n_species: int, n_points: int,
                   margin: float = 1e-3) -> np.ndarray:
    """Seeded uniform sampling of reduced densities on the open simplex.

    Uses exponential spacings (a flat Dirichlet draw) and rejects points
    closer than ``margin`` to the boundary.  Returns shape (N, n_points),
    each accepted point, drawn as one row, copied into its column.
    """
    out = np.empty((n_species - 1, n_points))
    got = 0
    while got < n_points:
        e = rng.exponential(size=(2 * (n_points - got) + 8, n_species))
        q = e / e.sum(axis=-1, keepdims=True)
        keep = q.min(axis=-1) > margin
        q = q[keep][: n_points - got]
        out[:, got:got + q.shape[0]] = q[:, :-1].T
        got += q.shape[0]
    return out
