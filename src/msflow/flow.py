"""Implicit velocity/pressure step, relaxed or exactly incompressible.

One time step advances (u, p) by the coupled system

    (u - u_prev)/tau + advect_form-advection + (-lap) u + grad p = f_avg
    eps (p - p_prev)/tau + div u = 0

on the cell-centered grid, for every eps >= 0.  ``FlowSystem`` keeps
the pressure as an unknown: the step matrix stacks the pressure
equation, with the block (eps/tau) I, under the momentum equation.
eps = 0 is the incompressible limit.  There the second equation
imposes div u = 0 and fixes the pressure up to a constant, which is
shifted to zero mean after each pass.  The pressure is not eliminated
as p = p_prev - (tau/eps) div u: that puts a grad-div term of strength
tau/eps into the momentum residual, whose rounding, about
eps_mach |u| tau/(eps h^2), stalls the loop above its tolerance at
small eps or large velocities.  One Picard loop, ``flow_step``, runs
in correction form x <- x - A^-1 r, r the stacked residual of the
iterate (Moler, J. ACM 14, 1967).  Every pass applies the inverse of
the advection-free matrix A, which the system builds when it is made
and keeps for the run, and so lags the advection; if that stops
contracting, the advection is frozen at the current velocity and the
pass solves that matrix by GMRES, preconditioned by A^-1.  Only that
pass imports scipy.sparse.linalg.

The advection-free matrix has constant coefficients, and
``SpectralInverse`` inverts it exactly with sine/cosine transforms and
a capacitance matrix on the wall cells, with no factorization: at
eps = 0 its per-mode inverse becomes a projection onto divergence-free
velocities.  Each per-axis transform is a product with the dense
orthonormal matrix below ``grid.TRANSFORM_CROSSOVER`` cells and a
scipy.fft call from there on (:class:`msflow.grid.AxisTransform`).

Because the advection operator is exactly skew-adjoint and the discrete
gradient and divergence are exact negative adjoints, the converged step
satisfies the energy balance

    |u|^2 + eps |p|^2 + 2 tau |grad u|^2 + |u - u_prev|^2
        + eps |p - p_prev|^2  =  |u_prev|^2 + eps |p_prev|^2
        + 2 tau <f_avg, u> - 2 tau <p, eps (p - p_prev)/tau + div u>

up to a defect proportional to the solver tolerance; the last term is
the pressure equation's residual paired with p.  The defect is
computed and reported every step.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .grid import (
    AxisTransform,
    CosineTransform,
    Grid,
    GridError,
    check_field,
    div,
    grad,
    grad_sq_norm,
    inner,
    laplacian,
    norm_l2,
    skew_advect,
)
from .iteration import SolverError, iterate

log = logging.getLogger(__name__)


class FlowSolverError(SolverError):
    """Raised when the Picard loop or a linear solve fails to converge."""


@dataclass
class FlowParams:
    tau: float
    eps: float
    tol: float = 1e-10         # nonlinear residual, quadrature L2 norm
    max_picard: int = 50

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")
        if not 0 <= self.eps < np.inf:
            raise ValueError("eps must be nonnegative and finite")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_picard < 1:
            raise ValueError("max_picard must be at least 1")


@dataclass
class FlowState:
    """Velocity (dim, *shape) and pressure (*shape) at one time level."""

    u: np.ndarray
    p: np.ndarray

    def copy(self) -> "FlowState":
        return FlowState(self.u.copy(), self.p.copy())

    @classmethod
    def zero(cls, grid: Grid) -> "FlowState":
        return cls(np.zeros((grid.dim,) + grid.shape), np.zeros(grid.shape))


@dataclass
class FlowStepReport:
    """What one flow step did and the terms of its energy identity.

    Every field defaults to zero, so a default report describes a step
    that did nothing; the ledger records the initial state that way.
    """

    picard_iterations: int = 0
    refactorizations: int = 0   # passes with the advection frozen, by GMRES
    from_guess: bool = False    # the loop started from the caller's guess
    final_residual: float = 0.0
    energy_identity_residual: float = 0.0
    div_u_l2: float = 0.0
    pressure_eq_residual: float = 0.0
    visc_dissipation: float = 0.0   # 2 tau |grad u|^2 at the new velocity


_FORCING_PRESETS = ("zero", "constant", "linear", "sin")
_SPATIAL_PROFILES = ("uniform", "bump")


@dataclass(frozen=True)
class Forcing:
    """Body force g(t) F(x), named by the config's presets.

    ``preset`` picks g: "zero" (no force), "constant" (g = 1), "linear"
    (g = t) or "sin" (g = sin(omega t)).  ``spatial`` picks F: a
    uniform vector ("uniform") or a per-axis sine bump ("bump"), scaled
    per axis by ``amplitude``.  The "sin" preset needs omega != 0.
    """

    preset: str = "zero"
    amplitude: tuple = ()
    spatial: str = "uniform"
    omega: float = 1.0

    def __post_init__(self):
        if self.preset not in _FORCING_PRESETS:
            raise ValueError(f"unknown forcing preset {self.preset!r}")
        if self.spatial not in _SPATIAL_PROFILES:
            raise ValueError(f"unknown spatial profile {self.spatial!r}")
        if self.preset == "sin" and self.omega == 0:
            raise ValueError("the sin forcing needs a nonzero omega")

    def spatial_field(self, grid: Grid) -> np.ndarray:
        amp = np.asarray(self.amplitude, dtype=float)
        if amp.size != grid.dim:
            raise GridError(
                f"forcing amplitude needs {grid.dim} components, got {amp.size}"
            )
        profile = np.ones(grid.shape)
        if self.spatial == "bump":
            xs = grid.cell_centers()
            for a in range(grid.dim):
                profile = profile * np.sin(np.pi * xs[a] / grid.lengths[a])
        return amp.reshape((-1,) + (1,) * grid.dim) * profile


def average_force(forcing: Forcing, grid: Grid, k: int,
                  tau: float) -> np.ndarray:
    """Exact time average of the force over step k, ((k-1) tau, k tau].

    Step index k starts at 1.
    """
    if k < 1:
        raise ValueError("step index starts at 1")
    if forcing.preset == "zero":
        return np.zeros((grid.dim,) + grid.shape)
    t0, t1 = (k - 1) * tau, k * tau
    if forcing.preset == "constant":
        factor = 1.0
    elif forcing.preset == "linear":
        factor = 0.5 * (t0 + t1)        # (k - 1/2) tau
    else:
        w = forcing.omega
        factor = (np.cos(w * t0) - np.cos(w * t1)) / (w * tau)
    return factor * forcing.spatial_field(grid)


class SpectralInverse:
    """Exact inverse of the advection-free step matrix
    A = [[A0, G], [D, (eps/tau) I]], A0 = I/tau - lap on each velocity
    component, by fast sine/cosine transforms and a boundary capacitance
    matrix, for every eps >= 0; at eps = 0, A is the saddle matrix.

    The free-slip model M differs from A only in the tangential second
    differences of A0, which take even ghosts instead of odd ones.  Then
    u_a is diagonal under DST-II along axis a and DCT-II along the
    others, and D maps DST mode k to DCT mode k with the factor
    s = sin(k pi/n)/h.  In the frame of modes k = 0..n on every axis
    (component a's DST modes sit at k >= 1, its DCT modes and the
    pressure's at k < n), M is [[p I, -s], [s^T, 1/c]] per mode, with
    p = 1/tau + 4 sin^2(k pi/2n)/h^2 summed over the axes and
    c = tau/eps.  With coef = c / (p + c |s|^2), which has no
    cancellation at small eps, the coupling g = coef (s^T r - p q) of
    the stacked residual [r; q] gives the velocity (r_a - s_a g) / p
    and the pressure -g.  At eps = 0, coef = 1/|s|^2 and the velocity
    block becomes the projection (I - s s^T/|s|^2) / p onto
    divergence-free fields.  At the constant mode, where s = 0, coef is
    0: the pressure comes out with zero mean, and the mean of q, which
    no D u has, is dropped.

    A = M + U W U^T, where U picks the k = 2 nx + 2 ny velocity cells
    next to the walls tangential to their component (u_x's on the y
    walls, u_y's on the x walls) and W = 2/h^2 with h the spacing
    across the wall; in 1D, k = 0 and M = A.  Woodbury gives
    A^-1 b = M^-1 (b - U z) with z = K^-1 U^T M^-1 b, where the
    capacitance matrix K = W^-1 + U^T M^-1 U is symmetric positive
    definite (Buzbee, Dorr, George and Golub, SIAM J. Numer. Anal. 8,
    1971); U^T M^-1 U takes M^-1's velocity block (I - coef s s^T) / p,
    positive semidefinite at eps = 0 too.  K is built from the 1D
    transform matrices, one separable block per pair of components, and
    inverted once.  A solve takes one forward and one inverse transform
    per field; the wall terms cost O(n^2).  :meth:`velocity` leaves out
    the pressure's inverse transform.  ``walls`` lists U's cells in
    storage order.
    """

    def __init__(self, grid: Grid, tau: float, eps: float):
        d = grid.dim
        self.fields = (d,) + grid.shape
        self.s, p = [], 1.0 / tau
        for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
            k = np.arange(n + 1).reshape((-1,) + (1,) * (d - 1 - a))
            s = np.sin(np.pi * k / n) / h
            s[-1] = 0.0                 # sin(pi) is not 0 in floating point
            self.s.append(s)
            p = p + (2.0 / h * np.sin(0.5 * np.pi * k / n)) ** 2
        self.p, self.inv_p = p, 1.0 / p
        s_sq = sum(s * s for s in self.s)
        if eps > 0:
            c = tau / eps
            self.coef = c / (p + c * s_sq)
        else:                           # the limit 1/|s|^2, 0 where s = 0
            self.coef = np.divide(1.0, s_sq, out=np.zeros_like(s_sq),
                                  where=s_sq > 0)
        self.slots = [tuple(slice(1, None) if b == a else slice(0, -1)
                            for b in range(d)) for a in range(d)]
        self.cosine = (slice(0, -1),) * d   # the pressure's DCT modes
        self._dst = [AxisTransform("dst", n) for n in grid.shape]
        self._pressure_dct = CosineTransform(grid.shape)
        self._dct = self._pressure_dct.axes
        self.walls = np.zeros(0, dtype=int)
        if d == 2:
            (nx, ny), (hx, hy) = grid.shape, grid.spacing
            # Per axis: the orthonormal DST-II matrix, and the DCT-II
            # columns of the two end cells.
            eye = [np.eye(n) for n in grid.shape]
            self._dst_mat = [t.forward(e, 0) for t, e in zip(self._dst, eye)]
            self._end_cols = [t.forward(e[:, [0, -1]], 0)
                              for t, e in zip(self._dct, eye)]
            cells = np.arange(2 * grid.n_cells).reshape(self.fields)
            self.walls = np.concatenate([cells[0][:, [0, -1]].reshape(-1),
                                         cells[1][[0, -1]].reshape(-1)])
            cap = self.capacitance()
            cap[np.diag_indices_from(cap)] += np.repeat(
                [0.5 * hy * hy, 0.5 * hx * hx], [2 * nx, 2 * ny])
            self._cap_inv = np.linalg.inv(cap)
        self.k = self.walls.size

    def _spectral(self, f, q):
        """M^-1 in the transform frame: the velocity and the coupling g,
        with ``q`` the pressure equation's residual."""
        sf = sum(s * fa for s, fa in zip(self.s, f))
        g = self.coef * (sf - self.p * q)
        y = np.stack([fa - s * g for s, fa in zip(self.s, f)]) * self.inv_p
        return y, g

    def _forward(self, r):
        out = np.zeros((len(r),) + self.inv_p.shape)
        for a, slot in enumerate(self.slots):
            x = self._dst[a].forward(r[a], a)
            for b in range(x.ndim):
                if b != a:
                    x = self._dct[b].forward(x, b)
            out[a][slot] = x
        return out

    def _backward(self, f):
        out = np.empty(self.fields)
        for a, slot in enumerate(self.slots):
            x = self._dst[a].inverse(f[a][slot], a)
            for b in range(x.ndim):
                if b != a:
                    x = self._dct[b].inverse(x, b)
            out[a] = x
        return out

    def capacitance(self):
        """U^T M^-1 U, one separable block per pair of components."""
        (sx, sy), (ex, ey) = self._dst_mat, self._end_cols
        # Per component, the transform of a unit wall cell along each
        # axis of the frame: u_x varies along x and ends on the y walls.
        dst_rows, dct_rows = ((1, 0), (0, 0)), ((0, 1), (0, 0))
        factors = [(np.pad(sx, dst_rows), np.pad(ey, dct_rows)),
                   (np.pad(ex, dct_rows), np.pad(sy, dst_rows))]
        blocks = [[None, None], [None, None]]
        for a in range(2):
            for b in range(a, 2):
                lam = self.inv_p * ((a == b) - self.s[a] * self.s[b]
                                    * self.coef)
                (fa0, fa1), (fb0, fb1) = factors[a], factors[b]
                blk = np.einsum("ki,lj,kl,km,ln->ijmn", fa0, fa1, lam,
                                fb0, fb1, optimize=True)
                blocks[a][b] = blk.reshape(fa0.shape[1] * fa1.shape[1], -1)
                blocks[b][a] = blocks[a][b].T
        return np.block(blocks)

    def _modes(self, b):
        """The velocity and the coupling g of A^-1 b in the transform
        frame, for ``b`` flat as :meth:`solve` takes it."""
        n = int(np.prod(self.fields))
        f = self._forward(b[:n].reshape(self.fields))
        q = np.zeros(self.inv_p.shape)
        q[self.cosine] = self._pressure_dct.forward(
            b[n:].reshape(self.fields[1:]))
        y, g = self._spectral(f, q)
        if self.k:
            (sx, sy), (ex, ey) = self._dst_mat, self._end_cols
            nx = sx.shape[0]
            # z = K^-1 U^T M^-1 r, then the transform of r - U z.
            z = self._cap_inv @ np.concatenate([
                (sx.T @ (y[0][self.slots[0]] @ ey)).reshape(-1),
                (ex.T @ y[1][self.slots[1]] @ sy).reshape(-1)])
            f[0][self.slots[0]] -= sx @ z[:2 * nx].reshape(nx, 2) @ ey.T
            f[1][self.slots[1]] -= ex @ z[2 * nx:].reshape(2, -1) @ sy.T
            y, g = self._spectral(f, q)
        return y, g

    def solve(self, b):
        """A^-1 b for ``b`` flat in storage order: the momentum residual,
        then the pressure equation's; the result stacks the velocity
        and the pressure the same way."""
        y, g = self._modes(b)
        p = self._pressure_dct.inverse(-g[self.cosine])
        return np.concatenate([self._backward(y).reshape(-1), p.reshape(-1)])

    def velocity(self, b):
        """The velocity of :meth:`solve`, ``solve(b)[:n]``, without the
        pressure's inverse transform."""
        return self._backward(self._modes(b)[0]).reshape(-1)


# GMRES on a frozen-advection pass: the relative tolerance, at which
# the solve matches a sparse direct one to about 1e-13 (1e-12 lets it
# drift to 1.7e-12), and a budget far above the 9-25 iterations that a
# stalled pass takes from 16^2 to 256^2.
GMRES_RTOL = 1e-13
GMRES_RESTART = 40
GMRES_MAXITER = 5           # restart cycles


class FlowSystem:
    """The step operators of one run, for every eps >= 0.

    The pressure stays an unknown: each pass stacks the pressure
    equation's residual under the momentum residual and subtracts the
    stacked solve.  The residuals apply the grid's slicing stencils
    (``grad``, ``div``, ``laplacian``, ``skew_advect``), so the one
    operator the system holds is the advection-free inverse, a
    :class:`SpectralInverse`, built with the system.  It lives as
    long as the object, so a run that returns drops it.  A pass with
    frozen advection solves by GMRES on it.
    """

    def __init__(self, grid: Grid, params: FlowParams):
        self.grid = grid
        self.params = params
        self.inverse = self.lagged_inverse()

    def lagged_inverse(self):
        """The inverse of the advection-free step matrix."""
        start = time.perf_counter()
        inv = SpectralInverse(self.grid, self.params.tau, self.params.eps)
        log.info("flow inverse: sine/cosine transforms with a %d-cell "
                 "capacitance matrix, setup %.3f s", inv.k,
                 time.perf_counter() - start)
        return inv

    def frozen_solve(self, u):
        """The solve of the step matrix with the advection frozen at
        ``u``, by GMRES right-preconditioned with ``inverse`` (Saad and
        Schultz, SIAM J. Sci. Stat. Comput. 7, 1986).

        With P the advection-free matrix and N the frozen advection of
        each velocity component, GMRES solves (I + [N (P^-1 y)_u; 0]) y
        = b and the solve returns P^-1 y.  That is (P + [N; 0])^-1 b
        because P^-1 is exact; at eps = 0, up to the mean of the
        constraint residual, which P^-1 drops.  A solve that misses its
        tolerance raises FlowSolverError with GMRES's relative residuals.
        """
        import scipy.sparse.linalg as spla

        grid, inv, n = self.grid, self.inverse, u.size

        def apply(y):
            out = y.copy()
            v = inv.velocity(y).reshape(u.shape)
            out[:n] += skew_advect(grid, u, v, "dirichlet").reshape(-1)
            return out

        def solve(b):
            history = []
            op = spla.LinearOperator((b.size, b.size), matvec=apply,
                                     dtype=float)
            y, info = spla.gmres(op, b, rtol=GMRES_RTOL, atol=0.0,
                                 restart=GMRES_RESTART,
                                 maxiter=GMRES_MAXITER,
                                 callback=history.append,
                                 callback_type="pr_norm")
            if info != 0:
                raise FlowSolverError(
                    f"frozen-advection solve failed (gmres info={info})",
                    history)
            return inv.solve(y)

        return solve

    def correct(self, solve, u, p, r, p_prev):
        """(u, p) less the stacked solve of the momentum residual ``r``
        and the pressure equation's residual D u + (eps/tau)(p - p_prev)
        at (u, p); ``solve`` applies A^-1 to a flat vector.  At eps = 0
        the pressure, fixed up to a constant, is shifted to zero mean."""
        eps, tau = self.params.eps, self.params.tau
        c = (div(self.grid, u) + (eps / tau) * (p - p_prev)).reshape(-1)
        du, dp = np.split(solve(np.concatenate([r.reshape(-1), c])),
                          [u.size])
        u, p = u - du.reshape(u.shape), p - dp.reshape(p.shape)
        return u, (p if eps else p - p.mean())


def flow_step(system: FlowSystem, state: FlowState, f_avg: np.ndarray,
              guess=None):
    """Advance velocity and pressure by one implicit step of ``system``.

    Picard iteration in correction form, run by
    :func:`msflow.iteration.iterate` from the previous state or the
    velocity ``guess``: ``system.correct`` subtracts the solve of the
    residual that the loop forms for its stopping test, so the solve's
    rounding touches only the correction.  The advection-free inverse
    lags the advection; a pass after one that failed to halve the
    residual freezes the advection at the current velocity and solves
    by GMRES (:meth:`FlowSystem.frozen_solve`).  Returns (new_state,
    FlowStepReport); raises FlowSolverError.
    """
    grid, params = system.grid, system.params
    tau, eps = params.tau, params.eps
    u_prev, p_prev = state.u, state.p
    f_avg = check_field(grid, f_avg, (grid.dim,), "forcing")

    def evaluate(u, p=None):
        """The iterate (u, p, r, |r|), r the momentum residual at (u, p);
        ``p`` defaults to the pressure that starts the loop with ``u``:
        the relaxed pressure equation solved for it, p_prev at eps = 0."""
        if p is None:
            p = p_prev - (tau / eps) * div(grid, u) if eps else p_prev.copy()
        r = (u - u_prev) / tau + skew_advect(grid, u, u, "dirichlet") - f_avg
        r += grad(grid, p, "neumann")
        r -= laplacian(grid, u, "dirichlet")
        return u, p, r, norm_l2(grid, r)

    refactorizations = 0

    def improve(x, residuals):
        nonlocal refactorizations
        u, p, r, _ = x
        if len(residuals) >= 2 and residuals[-1] > 0.5 * residuals[-2]:
            # Advection too strong for the lagged pass: freeze it.
            solve = system.frozen_solve(u)
            refactorizations += 1
        else:
            solve = system.inverse.solve
        return evaluate(*system.correct(solve, u, p, r, p_prev))

    if guess is not None:
        guess = evaluate(check_field(grid, guess, (grid.dim,), "guess"))
    (u, p, _, res), residuals, from_guess = iterate(
        evaluate(u_prev.copy()), guess, improve, params.tol,
        params.max_picard, FlowSolverError, "Picard")

    # The pressure equation's residual; with it the energy balance
    # below is an identity at every eps.
    divu = div(grid, u, "dirichlet")
    defect = eps * (p - p_prev) / tau + divu
    e_prev = inner(grid, u_prev, u_prev) + eps * inner(grid, p_prev, p_prev)
    e_new = inner(grid, u, u) + eps * inner(grid, p, p)
    visc = 2.0 * tau * grad_sq_norm(grid, u)
    lhs = (e_new + visc
           + inner(grid, u - u_prev, u - u_prev)
           + eps * inner(grid, p - p_prev, p - p_prev))
    rhs_val = (e_prev + 2.0 * tau * inner(grid, f_avg, u)
               - 2.0 * tau * inner(grid, p, defect))
    report = FlowStepReport(
        picard_iterations=len(residuals) - 1,
        refactorizations=refactorizations,
        from_guess=from_guess,
        final_residual=res,
        energy_identity_residual=abs(lhs - rhs_val),
        div_u_l2=norm_l2(grid, divu),
        pressure_eq_residual=norm_l2(grid, defect),
        visc_dissipation=visc,
    )
    return FlowState(u, p), report
