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
"""

import numpy as np
import pytest
import scipy.sparse as sp

from msflow.grid import skew_advect
from msflow.mixture import MixtureSpec

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
