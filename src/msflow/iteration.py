"""The one nonlinear loop of the flow and species steps.

``iterate`` keeps the termination test apart from the pass (Kelley,
Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
ch. 4).  An iterate is a tuple ending in its residual, in the
quadrature L2 norm.  The guess rule: the loop starts from the guess
only when its residual is strictly below the previous state's, so a
rejected guess, a tie included, leaves the step bitwise as it is
without one.  The stopping rule: the loop ends when the residual is at
most ``tol``, and raises after ``budget`` passes or on a residual that
is not finite, which fails every comparison; there is no silent
capping.
"""

from __future__ import annotations

import numpy as np


class SolverError(RuntimeError):
    """A failed loop or linear solve, with the loop's ``residuals``; the
    driver adds ``step``, the index of the failing time step."""

    def __init__(self, message: str, residuals=None):
        self.residuals = list(residuals or [])
        super().__init__(message)


def iterate(start, guess, improve, tol, budget, error, name):
    """Apply ``improve(x, residuals)`` from ``start``, the previous
    state's iterate, or ``guess``, None when absent or not admissible,
    until the stopping rule holds; ``error`` is raised with the loop's
    ``name``.  Returns (x, residuals, from_guess)."""
    from_guess = guess is not None and guess[-1] < start[-1]
    x = guess if from_guess else start
    del start, guess        # keep only the iterate alive in the loop
    residuals = [x[-1]]
    while not x[-1] <= tol:
        res, passes = x[-1], len(residuals) - 1
        if not np.isfinite(res):
            raise error(f"{name} residual is {res} after {passes} "
                        f"iterations", residuals)
        if passes >= budget:
            raise error(f"{name} iteration stalled at residual {res:.3e} "
                        f"after {passes} iterations", residuals)
        x = improve(x, residuals)
        residuals.append(x[-1])
    return x, residuals, from_guess
