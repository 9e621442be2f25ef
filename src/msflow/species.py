"""Implicit cross-diffusion step for the species subsystem.

The unknown is the entropy-variable field w (N components per cell);
densities are recovered through the pointwise inversion
rho = rho(w), which keeps every iterate strictly inside the simplex.
One step solves

    (rho(w) - rho_prev)/tau  +  skew-advection of rho(w) by u
        + 0.5 (div u) rho(w)  -  div( B(w) grad w )
        + lambda (lap^2 w + w)  =  0

tested against grid functions with even (reflecting) ghosts.  B is the
symmetric positive definite mobility matrix from the mixture algebra.

A run holds its step parameters and the preconditioner's symbols in a
``SpeciesSystem``; the derivatives are the grid's slicing stencils, and
no operator is assembled.  The nonlinear problem is solved by a
frozen-coefficient outer loop: B, the advected densities and the
inversion Jacobian are frozen at the current iterate, the
time-difference term is linearized through the closed-form Jacobian
drho/dw = H^{-1}, and preconditioned CG (:func:`pcg`, scipy's cg
recurrences and stopping rule in numpy) solves
H^{-1} delta / tau + D delta = -residual for the update.
D w = -sum_a dd_a (B dn_a w) + lambda (lap^T lap + I) w is the one
diffusion apply that the residual also uses.  It is symmetric because
odd ghosts are adjoint to even ones: dd_a is the odd-ghost central
derivative, which equals -dn_a^T.  So the system is symmetric positive
definite.
A step is halved whenever the residual increases.  The outer loop's
stopping rule, stated in :mod:`msflow.iteration`, is reachable only
while ``tol`` lies above the rounding floor of evaluating the
residual: the time difference divides densities, known to their
rounding and to the inversion's relative 1e-14, by tau, and the
diffusion apply rounds at about eps |B| |w| / h^2.  On the
shipped 1D configs at tau = 1e-3 the floor lies between 1 and
4 eps / tau; the diffusion part, measured at 0.05-0.09 eps / h^2,
stays below 1e-10 up to about 2,000 cells per axis.
``SimConfig.validate`` rejects a species_tol below
4 eps sqrt(|domain|) / tau.

The preconditioner is the exact inverse of the same operator at
spatially constant coefficients (Concus & Golub, SIAM J. Numer. Anal.
10, 1973): Cbar, the cell mean of H^{-1}/tau, and Bbar, the cell mean
of B, stand in for the cellwise blocks.  Even ghosts make the DCT-II
modes cos(pi k_a (i + 1/2) / n_a) eigenvectors of every stencil
involved: the wide stencil -sum_a dd_a dn_a has the symbol
sigma_k = sum_a (sin(pi k_a/n_a)/h_a)^2, and the compact Neumann
Laplacian has -nu_k with nu_k = sum_a (2 sin(pi k_a/(2 n_a))/h_a)^2.
The constant-coefficient operator is therefore the N x N matrix
Cbar + sigma_k Bbar + lambda (nu_k^2 + 1) I per mode.  It is
symmetric positive definite, so each outer pass inverts all modes at
once with ``mixture.spd_inverse`` (a reciprocal at N = 1, no LAPACK
call), and the inverse is applied between an orthonormal DCT-II and
its inverse: per axis a product with the dense matrix below
``grid.TRANSFORM_CROSSOVER`` cells, a scipy.fft call from there on.
CG iterations then stay flat under grid refinement, where a Jacobi
diagonal doubles them with each halving of h.

Testing the converged equation against w itself and using convexity of
the entropy density gives the per-step entropy balance

    H(rho_new) + tau * dissipation + lambda tau |w|_{H2}^2
        <= H(rho_prev) + tau * advective_flux + slack,

with slack proportional to the solver tolerance.  All terms are
computed exactly with the module operators and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture
from .grid import (CosineTransform, Grid, advect_form, check_field,
                   derivative, div, inner, laplacian, skew_advect)
from .iteration import SolverError, iterate


class SpeciesSolverError(SolverError):
    """Raised when the outer iteration or a linear solve fails."""


@dataclass
class SpeciesParams:
    tau: float
    lam: float = 0.0           # H2 regularization weight, 0 disables it
    tol: float = 1e-10         # nonlinear residual, quadrature L2 norm
    max_outer: int = 80

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lambda must be nonnegative and finite")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class SpeciesStepReport:
    """What one species step did and the terms of its entropy balance.

    Every field defaults to zero, so a default report describes a step
    that did nothing; the ledger records the initial state that way,
    with only ``entropy_after`` set.
    """

    iterations: int = 0
    cg_iterations: int = 0     # summed over the outer passes
    from_guess: bool = False   # the loop started from the caller's guess
    final_residual: float = 0.0
    entropy_after: float = 0.0
    dissipation: float = 0.0
    control_term: float = 0.0
    advective_entropy_flux: float = 0.0
    h2_sq_norm: float = 0.0
    entropy_balance_slack: float = 0.0


class SpeciesSystem:
    """The species step's operators, owned by one run.

    :meth:`diffusion` applies the operator that the residual and the CG
    solve share, with the grid's slicing stencils on fields (N, *shape)
    and blocks (N, N, *shape): dn_a is the even-ghost central derivative
    and dd_a the odd-ghost one.  The H2 block lap^T lap + I, lap the
    even-ghost Laplacian, which is symmetric, enters only when
    lambda > 0.  ``sigma`` and ``reg_symbol`` are the DCT-II symbols of
    the diffusion stencil and of lambda (lap^T lap + I), per mode on the
    grid's shape.
    """

    def __init__(self, grid: Grid, spec: mixture.MixtureSpec,
                 params: SpeciesParams):
        self.grid, self.spec, self.params = grid, spec, params
        modes = np.meshgrid(*(np.pi * np.arange(n) / n for n in grid.shape),
                            indexing="ij")
        self.sigma = sum((np.sin(t) / h) ** 2
                         for t, h in zip(modes, grid.spacing))
        self.reg_symbol = 0.0
        if params.lam > 0.0:
            nu = sum((2.0 * np.sin(0.5 * t) / h) ** 2
                     for t, h in zip(modes, grid.spacing))
            self.reg_symbol = params.lam * (nu * nu + 1.0)
        self.dct = CosineTransform(grid.shape)

    def diffusion(self, b_blocks, w) -> np.ndarray:
        """-div(B grad w) + lambda (lap^2 w + w)."""
        grid = self.grid
        out = np.zeros_like(w)
        for a in range(grid.dim):
            flux = np.einsum("ij...,j...->i...", b_blocks,
                             derivative(grid, w, a, "neumann"))
            out -= derivative(grid, flux, a, "dirichlet")
        if self.params.lam > 0.0:
            lap_w = laplacian(grid, w, "neumann")
            out += self.params.lam * (laplacian(grid, lap_w, "neumann") + w)
        return out

    def frozen_operator(self, minv_blocks, b_blocks):
        """x -> H^{-1} x / tau + diffusion(B, x) on flattened fields, and
        its preconditioner: the exact inverse at the cell-mean
        coefficients, applied mode by mode in DCT-II space."""
        grid, tau, n = self.grid, self.params.tau, len(minv_blocks)
        shape = (n,) + grid.shape

        def matvec(x):
            x = x.reshape(shape)
            return (np.einsum("ij...,j...->i...", minv_blocks, x) / tau
                    + self.diffusion(b_blocks, x)).reshape(-1)

        cells = tuple(range(2, grid.dim + 2))
        cbar, bbar = (blocks.mean(axis=cells, keepdims=True)
                      for blocks in (minv_blocks, b_blocks))
        symbols = (cbar / tau + self.sigma * bbar
                   + np.eye(n).reshape(cbar.shape) * self.reg_symbol)
        inverse = mixture.spd_inverse(symbols)

        def precondition(r):
            r_hat = self.dct.forward(r.reshape(shape))
            z_hat = np.einsum("ij...,j...->i...", inverse, r_hat)
            return self.dct.inverse(z_hat).reshape(-1)

        return matvec, precondition


def pcg(matvec, precondition, b, rtol, atol, maxiter, callback):
    """Preconditioned conjugate gradients for matvec(x) = b from x = 0,
    with the recurrences and the stopping rule of scipy.sparse.linalg.cg:
    stop when |r| < max(atol, rtol |b|), ``atol`` > 0.  ``callback``
    gets the iterate after each iteration.  Returns (x, info), info 0 on
    convergence and ``maxiter`` when the budget runs out."""
    x, r, p = np.zeros_like(b), b.copy(), np.zeros_like(b)
    atol = max(atol, rtol * np.linalg.norm(b))
    rho_prev = 1.0              # with p = 0, the first direction is z
    for _ in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = precondition(r)
        rho = np.dot(r, z)
        p *= rho / rho_prev
        p += z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        callback(x)
    return x, maxiter


def species_step(system: SpeciesSystem, w_prev: np.ndarray,
                 rho_prev: np.ndarray, u: np.ndarray, guess=None):
    """Advance the species by one implicit step with velocity ``u``.

    ``rho_prev`` must be the densities matching ``w_prev`` (the driver
    carries both so the time-difference term uses exactly the stored
    state).  The outer loop, run by :func:`msflow.iteration.iterate`,
    starts from them or from the entropy variables ``guess``.  Each
    outer pass halves its update until the residual does not increase;
    a candidate whose densities do not invert, like such a guess, is
    not admissible.  Returns (w_new, rho_new, SpeciesStepReport).
    """
    grid, spec, params = system.grid, system.spec, system.params
    n = spec.n_reduced
    tau, lam = params.tau, params.lam
    divu = div(grid, u, "dirichlet")

    def advect(rho):
        """Skew advection of the densities by u, plus 0.5 (div u) rho."""
        return skew_advect(grid, u, rho, "neumann") + 0.5 * divu * rho

    rho_prev = check_field(grid, rho_prev, (n,), "species field")

    # Residuals are measured in the discrete L2 (quadrature) norm; the
    # linear solver works in the plain vector norm, one unit of which is
    # sqrt(cell volume) quadrature units.
    sqrt_cell = np.sqrt(grid.cell_volume)

    def evaluate(w, rho=None):
        """The iterate (w, rho, B, r, |r|) at ``w``, with its densities
        ``rho`` when known; None when they do not invert."""
        if rho is None:
            try:
                rho = mixture.densities_from_entropy(w, spec)
            except mixture.InversionError:
                return None
        b = mixture.mobility_matrix(rho, spec)
        r = (rho - rho_prev) / tau + advect(rho) + system.diffusion(b, w)
        return w, rho, b, r, sqrt_cell * float(np.linalg.norm(r))

    cg_iterations = 0

    def count_cg(_):
        nonlocal cg_iterations
        cg_iterations += 1

    def improve(x, residuals):
        w, rho, b, r, res = x
        op, precond = system.frozen_operator(
            mixture.density_jacobian(rho, spec), b)
        delta, info = pcg(op, precond, -r.reshape(-1), rtol=1e-2 * params.tol,
                          atol=1e-2 * params.tol / sqrt_cell, maxiter=4000,
                          callback=count_cg)
        if info != 0:
            raise SpeciesSolverError(
                f"species linear solve failed (cg info={info})", residuals)
        for halvings in range(40):
            cand = evaluate(w + 0.5 ** halvings * delta.reshape(w.shape))
            if cand is not None and cand[-1] <= res:
                return cand
        raise SpeciesSolverError(
            f"damping failed to reduce the residual below {res:.3e}",
            residuals)

    if guess is not None:
        guess = evaluate(check_field(grid, guess, (n,), "species field"))
    (w, rho, b_blocks, _, res), residuals, from_guess = iterate(
        evaluate(check_field(grid, w_prev, (n,), "species field"),
                 rho_prev.copy()), guess, improve,
        params.tol, params.max_outer, SpeciesSolverError, "outer")

    vol = grid.cell_volume
    entropy_before = vol * float(
        np.sum(mixture.entropy_density(rho_prev, spec)))
    entropy_after = vol * float(np.sum(mixture.entropy_density(rho, spec)))

    dissipation = 0.0
    for a in range(grid.dim):
        gw = derivative(grid, w, a, "neumann").reshape(n, -1)
        dissipation += vol * float(np.einsum(
            "ic,ijc,jc->", gw, b_blocks.reshape(n, n, -1), gw))

    h2_sq = 0.0
    if lam > 0.0:
        lw = laplacian(grid, w, "neumann")
        h2_sq = vol * (float(np.sum(lw * lw)) + float(np.sum(w * w)))

    x, _ = mixture.molar_fractions(rho, spec)
    control = vol * float(
        np.vdot(divu, np.log(x[-1]))) / spec.molar_masses[-1]
    advective = -vol * float(np.sum(advect(rho) * w))

    slack = (entropy_after + tau * dissipation + lam * tau * h2_sq) - (
        entropy_before + tau * advective)
    report = SpeciesStepReport(
        iterations=len(residuals) - 1,
        cg_iterations=cg_iterations,
        from_guess=from_guess,
        final_residual=res,
        entropy_after=entropy_after,
        dissipation=dissipation,
        control_term=control,
        advective_entropy_flux=advective,
        h2_sq_norm=h2_sq,
        entropy_balance_slack=slack,
    )
    return w, rho, report


def divergence_identity_residual(grid: Grid, u: np.ndarray, w: np.ndarray,
                                 spec: mixture.MixtureSpec) -> float:
    """Defect of the advective entropy-flux identity at given (u, w).

    For densities rho recovered from entropy variables w, the continuum
    identity

        advect_form(u, rho, w) + 0.5 <div u, rho . w>
            = -<div u, log(x_{N+1})> / M_{N+1}

    holds exactly; discretely the defect is second order in h.  Returns
    its absolute value.
    """
    rho = mixture.densities_from_entropy(w, spec)
    x, _ = mixture.molar_fractions(rho, spec)
    divu = div(grid, u, "dirichlet")
    lhs = advect_form(grid, u, rho, w, "neumann")
    lhs += 0.5 * inner(grid, divu, np.sum(rho * w, axis=0))
    rhs = -inner(grid, divu, np.log(x[-1])) / spec.molar_masses[-1]
    return abs(lhs - rhs)
