"""Cell-centered finite differences on uniform 1D/2D boxes.

Fields live at cell centers x_i = (i + 1/2) h, stored component-first
as (C, *shape): velocity (dim, *shape), species densities and entropy
variables (N, *shape), a scalar (*shape).  This is the package's one
field layout, and :func:`check_field` is its one check, for every
module: the stencils below take the grid axes last, leading component
axes riding along, and the mixture algebra reads a field as rows
(C, P), P = prod(shape), by a reshape.

Two ghost-cell conventions define how stencils see the boundary:

* ``"neumann"``: even reflection (ghost equals the first interior
  value), used for densities, entropy variables and pressure;
* ``"dirichlet"``: odd reflection (ghost equals minus the first
  interior value), used for velocity components, which vanish on the
  boundary.

Every derivative in the package is applied here, by array slicing
under these rules: :func:`derivative` (central first difference along
one axis) and :func:`laplacian` (compact second differences); no
operator is assembled or cached.  With the two conventions the central
first-derivative operators satisfy an exact summation-by-parts
identity,

    <grad f, v> = -<f, div v>,

for any scalar f (even ghosts) and vector v (odd ghosts), where <.,.>
is the midpoint quadrature inner product: the odd-ghost derivative is
exactly minus the transpose of the even-ghost one.  The identity is
what makes the discrete energy and entropy balances close to roundoff;
the test suite asserts it, and compares the stencils with an
independently assembled sparse oracle, rather than assuming it.

The advective trilinear form pairs the skew advection operator the
solvers use with a test field,

    advect_form(u, v, w) = < 0.5 [(u.grad) v + div(u v)], w >,

where div(u v) takes the ghost rule adjoint to that of v.  By the
summation-by-parts identity this equals

    0.5 (<(u.grad) v, w> - <(u.grad) w, v>),

so advect_form(u, v, v) = 0 holds to roundoff for any discrete fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ADJOINT_BC = {"dirichlet": "neumann", "neumann": "dirichlet"}


class GridError(ValueError):
    """Raised for malformed grids or mismatched field shapes."""


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a box [0, L1] x ... with 1 or 2 axes.

    Parameters
    ----------
    shape : tuple of int
        Cells per axis, at least 4 each.
    spacing : tuple of float
        Cell width per axis.
    """

    shape: tuple
    spacing: tuple

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        spacing = tuple(float(h) for h in self.spacing)
        if len(shape) not in (1, 2):
            raise GridError("grid must be one- or two-dimensional")
        if len(spacing) != len(shape):
            raise GridError("spacing must match the number of axes")
        if any(n < 4 for n in shape):
            raise GridError("need at least 4 cells per axis")
        if not all(0 < h < np.inf for h in spacing):
            raise GridError("spacing must be positive and finite")
        if not all(h * h > 0 and 1.0 / (h * h) < np.inf for h in spacing):
            raise GridError("spacing too small: 1/h^2 is not finite")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)

    @classmethod
    def box(cls, shape, lengths) -> "Grid":
        """Grid covering a box of the given side lengths."""
        shape = tuple(int(n) for n in np.atleast_1d(shape))
        lengths = tuple(float(v) for v in np.atleast_1d(lengths))
        return cls(shape, tuple(l / n for l, n in zip(lengths, shape)))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        """Volume of one cell (the midpoint quadrature weight)."""
        return float(np.prod(self.spacing))

    @property
    def lengths(self) -> tuple:
        return tuple(n * h for n, h in zip(self.shape, self.spacing))

    def axis_centers(self, axis: int) -> np.ndarray:
        n, h = self.shape[axis], self.spacing[axis]
        return (np.arange(n) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """Coordinates of cell centers, shape (dim, *shape)."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"))


def check_field(grid: Grid, f, lead=None, what: str = "field") -> np.ndarray:
    """The field layout's one check: ``f`` as floats, the grid's axes last.

    Leading (component) axes ride along.  When ``lead`` is given they
    must have that shape, where -1 takes any length, and with ``lead``
    (-1,) a field of the grid's shape alone is one component.  ``what``
    names the field in the error.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[f.ndim - grid.dim:] != grid.shape:
        raise GridError(f"{what} shape {f.shape} does not end with "
                        f"{grid.shape}")
    if lead is None:
        return f
    if lead == (-1,) and f.ndim == grid.dim:
        f = f[None]
    if f.ndim != len(lead) + grid.dim or any(
            n not in (m, -1) for m, n in zip(f.shape, lead)):
        raise GridError(f"{what} shape {f.shape} != {lead + grid.shape}")
    return f


def _check_bc(bc: str) -> None:
    if bc not in _ADJOINT_BC:
        raise GridError(f"unknown boundary tag {bc!r}")


def _along(grid: Grid, axis: int, start, stop) -> tuple:
    """Index start:stop along grid axis ``axis``, the grid axes last."""
    return (..., slice(start, stop)) + (slice(None),) * (grid.dim - 1 - axis)


def derivative(grid: Grid, f: np.ndarray, axis: int, bc: str) -> np.ndarray:
    """Central first derivative along ``axis`` with ghost rule ``bc``.

    ``f`` has the grid's axes last; any leading (component) axes ride
    along.  Each cell takes (f[i+1] - f[i-1]) / 2h, the ghost beyond an
    end being f at that end ("neumann") or its negative ("dirichlet").
    The interior is one contiguous subtraction on the flattened arrays,
    where neighbours along ``axis`` lie prod(shape[axis+1:]) apart; the
    differences that wrap around a row land on end cells, which the end
    writes replace.  These take the ghost without forming it: f[1] - f[0]
    and f[-1] - f[-2] for even ghosts, f[1] + f[0] and -f[-1] - f[-2] for
    odd ones, the IEEE arithmetic of f[1] - ghost and ghost - f[-2].
    """
    _check_bc(bc)
    f = check_field(grid, f)
    cf = np.multiply(f, 1.0 / (2.0 * grid.spacing[axis]), order="C")
    out = np.empty_like(cf)
    s = math.prod(grid.shape[axis + 1:])
    np.subtract(cf.ravel()[2 * s:], cf.ravel()[:-2 * s],
                out=out.ravel()[s:-s])
    lo, nxt = _along(grid, axis, 0, 1), _along(grid, axis, 1, 2)
    hi, prv = _along(grid, axis, -1, None), _along(grid, axis, -2, -1)
    if bc == "neumann":
        np.subtract(cf[nxt], cf[lo], out=out[lo])
        np.subtract(cf[hi], cf[prv], out=out[hi])
    else:
        np.add(cf[nxt], cf[lo], out=out[lo])
        # -cf[hi] out of place: numpy 2.4.6's np.negative(x, out=y) is
        # wrong on 8-element views with a 64-byte stride.
        np.subtract(-cf[hi], cf[prv], out=out[hi])
    return out


def laplacian(grid: Grid, f: np.ndarray, bc: str) -> np.ndarray:
    """Compact (3- or 5-point) Laplacian with ghost rule ``bc``.

    ``f`` has the grid's axes last, as for :func:`derivative`.  Along
    each axis the second difference (f[i-1] - 2 f[i] + f[i+1]) / h^2
    folds the ghost into the end cell's weight: -1/h^2 for even ghosts,
    -3/h^2 for odd ones.  Each cell takes its diagonal term first, then
    both neighbours along each axis in turn.
    """
    _check_bc(bc)
    f = check_field(grid, f)
    diag = 0.0
    for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        d = np.full(n, -2.0)
        d[0] = d[-1] = -1.0 if bc == "neumann" else -3.0
        diag = diag + (d / (h * h)).reshape((n,) + (1,) * (grid.dim - a - 1))
    out = diag * f
    for a, h in enumerate(grid.spacing):
        cf = f * (1.0 / (h * h))
        out[_along(grid, a, 1, None)] += cf[_along(grid, a, None, -1)]
        out[_along(grid, a, None, -1)] += cf[_along(grid, a, 1, None)]
    return out


def grad(grid: Grid, f: np.ndarray, bc: str) -> np.ndarray:
    """Central-difference gradient of a scalar field, shape (dim, *shape)."""
    f = check_field(grid, f, (), "scalar field")
    return np.stack([derivative(grid, f, a, bc) for a in range(grid.dim)])


def div(grid: Grid, v: np.ndarray, bc: str = "dirichlet") -> np.ndarray:
    """Divergence of a vector field (default: velocity ghost rule)."""
    v = check_field(grid, v, (grid.dim,), "vector field")
    out = derivative(grid, v[0], 0, bc)
    for a in range(1, grid.dim):
        out += derivative(grid, v[a], a, bc)
    return out


def inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Quadrature inner product; sums over all matching components."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise GridError(f"inner product shape mismatch {a.shape} vs {b.shape}")
    return grid.cell_volume * float(np.vdot(a, b))


def norm_l2(grid: Grid, a: np.ndarray) -> float:
    return float(np.sqrt(max(inner(grid, a, a), 0.0)))


def advect_form(grid: Grid, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                bc: str) -> float:
    """Advection form <skew_advect(u, v), w> of the solvers' operator.

    v and w must have the same component count and share the ghost rule
    ``bc`` ("dirichlet" for velocity arguments, "neumann" for species).
    Antisymmetric in (v, w), and advect_form(u, v, v) = 0, to roundoff
    only if the operator is skew-adjoint, so both identities test it.
    """
    v = check_field(grid, v, (-1,), "component field")
    w = check_field(grid, w, (-1,), "component field")
    if v.shape != w.shape:
        raise GridError("advect_form arguments must have matching shapes")
    return inner(grid, skew_advect(grid, u, v, bc), w)


def skew_advect(grid: Grid, u: np.ndarray, v: np.ndarray,
                bc: str) -> np.ndarray:
    """Skew advection 0.5 [ (u.grad) v + div(u v) ] of each component of v.

    ``bc`` is the ghost rule of the advected field v; the conservative
    part takes its adjoint rule, so the operator is exactly
    skew-adjoint in the quadrature inner product.
    """
    u = check_field(grid, u, (grid.dim,), "vector field")
    v = check_field(grid, v, (-1,), "component field")
    out = np.zeros_like(v)
    for a in range(grid.dim):
        out += u[a] * derivative(grid, v, a, bc)
        out += derivative(grid, u[a] * v, a, _ADJOINT_BC[bc])
    return 0.5 * out


def grad_sq_norm(grid: Grid, u: np.ndarray) -> float:
    """Face-based squared gradient norm of a Dirichlet field.

    Defined so that <-laplacian u, u> equals this sum exactly, which is
    the form entering the discrete energy balance.  Sum of squares, so
    never negative.
    """
    u = check_field(grid, u, (-1,), "component field")
    total = 0.0
    for a, h in enumerate(grid.spacing):
        diffs = np.diff(u, axis=a - grid.dim)
        lo, hi = u[_along(grid, a, 0, 1)], u[_along(grid, a, -1, None)]
        s = np.vdot(diffs, diffs)
        s += 2.0 * np.vdot(lo, lo)
        s += 2.0 * np.vdot(hi, hi)
        total += s * grid.cell_volume / (h * h)
    return float(total)


def write_snapshot(path, grid: Grid, name: str, time: float,
                   data: np.ndarray) -> None:
    """Write a field to a plain-text snapshot, bit-exact on reread.

    Values are printed with shortest round-trip decimal representation,
    one cell per line (components space-separated, row-major cells).
    """
    data = check_field(grid, data, (-1,), "component field")
    ncomp = data.shape[0]
    flat = data.reshape(ncomp, -1).T
    lines = [
        "# msflow snapshot",
        f"# field {name}",
        f"# time {float(time)!r}",
        f"# dim {grid.dim}",
        "# shape " + " ".join(str(n) for n in grid.shape),
        "# spacing " + " ".join(repr(float(h)) for h in grid.spacing),
        f"# components {ncomp}",
    ]
    lines.extend(" ".join(map(repr, row)) for row in flat.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path):
    """Read a snapshot written by :func:`write_snapshot`.

    Returns (grid, name, time, data) with data shaped (components, *shape).
    """
    header = {}
    values = []
    with open(path) as fh:
        first = fh.readline().strip()
        if first != "# msflow snapshot":
            raise GridError(f"{path}: not a snapshot file")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition(" ")
                header[key] = val
            else:
                values.append([float(tok) for tok in line.split()])
    shape = tuple(int(t) for t in header["shape"].split())
    spacing = tuple(float(t) for t in header["spacing"].split())
    grid = Grid(shape, spacing)
    ncomp = int(header["components"])
    data = np.array(values, dtype=float).T.reshape((ncomp,) + shape)
    return grid, header["field"], float(header["time"]), data
