"""Shared fixtures and the acceptance summary hook.

Acceptance tests append one formatted line per criterion to a
session-wide registry; ``pytest_terminal_summary`` prints the registry
after the run so every criterion shows exactly one PASS/FAIL line even
under captured output.
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


def assembled_advection(grid, u, bc):
    """Matrix of v -> skew_advect(grid, u, v, bc) on flattened scalar
    fields, one column per unit field."""
    n = grid.n_cells
    cols = skew_advect(grid, u, np.eye(n).reshape((n,) + grid.shape), bc)
    return sp.csr_matrix(cols.reshape(n, n).T)
