"""Grid operators: stencil oracles, adjointness, advection identities.

The slicing stencils are applied column by column and checked against
hand-written entries for tiny grids and against the sparse oracle of
``conftest``; the structural identities (summation by parts, skew
advection, the face-based gradient norm) are asserted to roundoff on
seeded random fields because the solvers rely on them holding exactly.
"""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from msflow.grid import (
    TRANSFORM_CROSSOVER,
    AxisTransform,
    CosineTransform,
    Grid,
    GridError,
    advect_form,
    derivative,
    div,
    grad,
    grad_sq_norm,
    inner,
    laplacian,
    norm_l2,
    read_snapshot,
    skew_advect,
    transform_matrix,
    write_snapshot,
)
from msflow.mixture import mobility_matrix
from msflow.species import (
    SpeciesParams,
    SpeciesSystem,
    divergence_identity_residual,
)

from conftest import (
    assembled_advection,
    deriv_matrix,
    laplacian_matrix,
    stencil_matrix,
)


# ---------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------

def test_grid_construction():
    g = Grid.box((8, 4), (2.0, 1.0))
    assert g.dim == 2
    assert g.n_cells == 32
    assert g.spacing == (0.25, 0.25)
    assert g.lengths == (2.0, 1.0)
    assert g.cell_volume == pytest.approx(0.0625)
    centers = g.cell_centers()
    assert centers.shape == (2, 8, 4)
    assert centers[0, 0, 0] == pytest.approx(0.125)
    assert centers[1, 0, -1] == pytest.approx(1.0 - 0.125)


def test_grid_validation():
    with pytest.raises(GridError, match="one- or two-dimensional"):
        Grid((4, 4, 4), (0.1, 0.1, 0.1))
    with pytest.raises(GridError, match="at least 4"):
        Grid((3,), (0.1,))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(GridError, match="spacing must be positive"):
            Grid((8,), (bad,))
    with pytest.raises(GridError, match="1/h\\^2 is not finite"):
        Grid((8,), (1e-162,))
    with pytest.raises(GridError, match="spacing must match"):
        Grid((8, 8), (0.1,))


# ---------------------------------------------------------------------
# Stencil oracles on a 4-cell line
# ---------------------------------------------------------------------

def test_first_derivative_stencils():
    g = Grid((4,), (0.5,))
    scale = 1.0 / (2.0 * 0.5)
    dn = stencil_matrix(g, lambda f: derivative(g, f, 0, "neumann"))
    expect_n = scale * np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    np.testing.assert_allclose(dn, expect_n, atol=1e-15)
    dd = stencil_matrix(g, lambda f: derivative(g, f, 0, "dirichlet"))
    expect_d = scale * np.array([
        [1.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, -1.0],
    ])
    np.testing.assert_allclose(dd, expect_d, atol=1e-15)


def test_second_derivative_stencils():
    g = Grid((4,), (0.5,))
    scale = 1.0 / 0.25
    sn = stencil_matrix(g, lambda f: laplacian(g, f, "neumann"))
    assert sn[0, 0] == pytest.approx(-1.0 * scale)
    assert sn[1, 1] == pytest.approx(-2.0 * scale)
    sd = stencil_matrix(g, lambda f: laplacian(g, f, "dirichlet"))
    assert sd[0, 0] == pytest.approx(-3.0 * scale)
    assert sd[0, 1] == pytest.approx(1.0 * scale)
    with pytest.raises(GridError, match="unknown boundary"):
        derivative(g, np.zeros(4), 0, "robin")
    with pytest.raises(GridError, match="unknown boundary"):
        laplacian(g, np.zeros(4), "robin")


def test_exact_derivative_matrix_adjointness():
    # The odd-ghost derivative is exactly minus the transpose of the
    # even-ghost derivative, per axis: this is the matrix form of the
    # summation-by-parts identity.
    for g in (Grid.box((8,), (1.0,)), Grid.box((8, 6), (1.0, 0.7))):
        for axis in range(g.dim):
            dd, dn = (stencil_matrix(g, lambda f: derivative(g, f, axis, bc))
                      for bc in ("dirichlet", "neumann"))
            assert np.abs(dd.T + dn).max() == 0.0


def _species_diffusion_oracle(grid, b_blocks, w_pts):
    """-sum_a dd_a (B dn_a w) with dd_a = -dn_a^T from the oracle."""
    out = np.zeros_like(w_pts)
    for a in range(grid.dim):
        dn = deriv_matrix(grid, a, "neumann")
        dd = (-dn.T).tocsr()
        out -= dd @ np.einsum("cij,cj->ci", b_blocks, dn @ w_pts)
    return out


@pytest.mark.parametrize("shape, lengths", [
    ((37,), (1.0,)), ((48, 48), (1.5, 1.0)), ((100, 100), (1.0, 1.0)),
    ((8, 8), (1.0, 0.8))],
    ids=["1d", "48sq", "100sq", "8sq"])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_slicing_stencils_match_sparse_oracle(shape, lengths, bc,
                                              ternary_spec):
    # The stencils sum each cell's terms in the order of the oracle's
    # rows, so the first derivatives, with 0, 1 or 2 leading component
    # axes, the skew advection and the species diffusion agree bitwise;
    # the Laplacian within 4 ulp.  On 8 x 8 each end column is a view of
    # 8 values 64 bytes apart, on which numpy 2.4.6's
    # np.negative(x, out=y) goes wrong.
    rng = np.random.default_rng(81)
    g = Grid.box(shape, lengths)
    grid_axes, last_axes = list(range(g.dim)), list(range(-g.dim, 0))
    for trailing in ((2,), (2, 3), ()):
        f_pts = rng.standard_normal(shape + trailing)
        f = np.moveaxis(f_pts, grid_axes, last_axes)
        for a in range(g.dim):
            ref = deriv_matrix(g, a, bc) @ f_pts.reshape(g.n_cells, -1)
            got = np.moveaxis(derivative(g, f, a, bc), last_axes, grid_axes)
            np.testing.assert_array_equal(got.reshape(g.n_cells, -1), ref)
    ref = laplacian_matrix(g, bc) @ f.reshape(-1)
    got = laplacian(g, f, bc).reshape(-1)
    assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * np.abs(
        ref).max()

    u = rng.standard_normal((g.dim,) + shape)
    v = rng.standard_normal((2,) + shape)
    cols = v.reshape(2, -1).T
    ref = np.zeros_like(cols)
    adjoint = "neumann" if bc == "dirichlet" else "dirichlet"
    for a in range(g.dim):
        ua = u[a].reshape(-1, 1)
        ref += ua * (deriv_matrix(g, a, bc) @ cols)
        ref += deriv_matrix(g, a, adjoint) @ (ua * cols)
    np.testing.assert_array_equal(
        skew_advect(g, u, v, bc).reshape(2, -1), 0.5 * ref.T)

    pts = 0.25 + 0.05 * rng.standard_normal((g.n_cells, 2))
    b = mobility_matrix(pts.T.reshape((2,) + shape), ternary_spec)
    w = rng.standard_normal((g.n_cells, 2))
    system = SpeciesSystem(g, ternary_spec, SpeciesParams(tau=1e-3))
    got = system.diffusion(b, w.T.reshape((2,) + shape))
    b_pts = np.moveaxis(b, (0, 1), (-2, -1)).reshape(-1, 2, 2)
    np.testing.assert_array_equal(got.reshape(2, -1).T,
                                  _species_diffusion_oracle(g, b_pts, w))


def test_summation_by_parts_inner_products():
    rng = np.random.default_rng(21)
    g = Grid.box((12, 9), (1.0, 2.0))
    f = rng.standard_normal(g.shape)
    v = rng.standard_normal((2,) + g.shape)
    lhs = inner(g, grad(g, f, "neumann"), v)
    rhs = -inner(g, f, div(g, v, "dirichlet"))
    assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs))


@st.composite
def random_grid_fields(draw):
    """A 1D or 2D grid with 4-24 cells and spacings 0.05-2 per axis, and
    a seeded generator for the fields on it."""
    dim = draw(st.integers(1, 2))
    shape = draw(st.lists(st.integers(4, 24), min_size=dim, max_size=dim))
    spacing = draw(st.lists(st.floats(0.05, 2.0), min_size=dim,
                            max_size=dim))
    seed = draw(st.integers(0, 2**32 - 1))
    return Grid(tuple(shape), tuple(spacing)), np.random.default_rng(seed)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(random_grid_fields())
def test_summation_by_parts_on_random_grids(case):
    g, rng = case
    f = rng.standard_normal(g.shape)
    v = rng.standard_normal((g.dim,) + g.shape)
    gf, dv = grad(g, f, "neumann"), div(g, v, "dirichlet")
    lhs, rhs = inner(g, gf, v), -inner(g, f, dv)
    scale = norm_l2(g, gf) * norm_l2(g, v) + norm_l2(g, f) * norm_l2(g, dv)
    assert abs(lhs - rhs) <= 1e-13 * scale


@settings(max_examples=50, derandomize=True, deadline=None)
@given(random_grid_fields())
def test_advect_form_identities_on_random_grids(case):
    g, rng = case
    u = rng.standard_normal((g.dim,) + g.shape)
    v = rng.standard_normal((2,) + g.shape)
    w = rng.standard_normal((2,) + g.shape)
    for bc in ("dirichlet", "neumann"):
        scale = (norm_l2(g, skew_advect(g, u, v, bc)) * norm_l2(g, w)
                 + norm_l2(g, skew_advect(g, u, w, bc)) * norm_l2(g, v))
        b_vw = advect_form(g, u, v, w, bc)
        assert abs(b_vw + advect_form(g, u, w, v, bc)) <= 1e-13 * scale
        assert abs(advect_form(g, u, v, v, bc)) <= 1e-13 * scale


def test_laplacian_matrices_symmetric():
    g = Grid.box((10, 7), (1.0, 1.0))
    for bc in ("neumann", "dirichlet"):
        lap = stencil_matrix(g, lambda f: laplacian(g, f, bc))
        assert np.abs(lap - lap.T).max() == 0.0
    neg = -stencil_matrix(g, lambda f: laplacian(g, f, "dirichlet"))
    eigs = np.linalg.eigvalsh(neg)
    assert eigs.min() > 0.0


@pytest.mark.parametrize("bc,func,second", [
    ("neumann", lambda x: np.cos(np.pi * x),
     lambda x: -np.pi ** 2 * np.cos(np.pi * x)),
    ("dirichlet", lambda x: np.sin(np.pi * x),
     lambda x: -np.pi ** 2 * np.sin(np.pi * x)),
])
def test_laplacian_second_order(bc, func, second):
    errs = []
    for n in (16, 32):
        g = Grid.box((n,), (1.0,))
        x = g.axis_centers(0)
        got = laplacian(g, func(x), bc)
        errs.append(np.abs(got - second(x)).max())
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_gradient_shapes_and_errors(tmp_path):
    g = Grid.box((8, 8), (1.0, 1.0))
    with pytest.raises(GridError, match="scalar field shape"):
        grad(g, np.zeros((8, 7)), "neumann")
    with pytest.raises(GridError, match="vector field shape"):
        div(g, np.zeros((3, 8, 8)))
    # A points-last field (*shape, C) at every entry point.
    last, u = np.zeros(g.shape + (2,)), np.zeros((2,) + g.shape)
    for call, match in (
            (lambda: grad(g, last, "neumann"), "scalar field shape"),
            (lambda: div(g, last), "vector field shape"),
            (lambda: skew_advect(g, last, u, "neumann"), "vector field shape"),
            (lambda: derivative(g, last, 0, "neumann"), "does not end with"),
            (lambda: laplacian(g, last, "neumann"), "does not end with"),
            (lambda: skew_advect(g, u, last, "neumann"), "does not end with"),
            (lambda: advect_form(g, u, last, last, "neumann"),
             "does not end with"),
            (lambda: grad_sq_norm(g, last), "does not end with"),
            (lambda: write_snapshot(tmp_path / "s.txt", g, "u", 0.0, last),
             "does not end with")):
        with pytest.raises(GridError, match=match):
            call()
    assert not (tmp_path / "s.txt").exists()
    out = grad(g, np.zeros(g.shape), "neumann")
    assert out.shape == (2, 8, 8)


# ---------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------

def test_integrate_and_inner():
    g = Grid.box((16, 8), (2.0, 1.0))
    f = np.full(g.shape, 3.0)
    assert inner(g, f, f) == pytest.approx(9.0 * 2.0)
    assert norm_l2(g, f) == pytest.approx(3.0 * np.sqrt(2.0))
    with pytest.raises(GridError, match="mismatch"):
        inner(g, np.zeros((2, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------
# Advection
# ---------------------------------------------------------------------

@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_advection_matrix_skew_adjoint(bc):
    rng = np.random.default_rng(41)
    g = Grid.box((8, 10), (1.0, 1.5))
    u = rng.standard_normal((2,) + g.shape)
    m = assembled_advection(g, u, bc).toarray()
    assert np.abs(m).max() > 0.0
    assert np.abs(m + m.T).max() <= 1e-13 * np.abs(m).max()


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_advect_form_skew_identities(bc):
    rng = np.random.default_rng(51)
    g = Grid.box((10, 10), (1.0, 1.0))
    for _ in range(20):
        u = rng.standard_normal((2,) + g.shape)
        v = rng.standard_normal((2,) + g.shape)
        w = rng.standard_normal((2,) + g.shape)
        b_vw = advect_form(g, u, v, w, bc)
        b_wv = advect_form(g, u, w, v, bc)
        scale = max(1.0, abs(b_vw))
        assert abs(b_vw + b_wv) <= 1e-12 * scale
        assert abs(advect_form(g, u, v, v, bc)) <= 1e-12 * scale
    with pytest.raises(GridError, match="matching shapes"):
        advect_form(g, u, v, np.zeros((1,) + g.shape), bc)


def test_grad_sq_norm_matches_laplacian_pairing():
    rng = np.random.default_rng(61)
    for g in (Grid.box((16,), (1.0,)), Grid.box((8, 12), (1.0, 0.5))):
        u = rng.standard_normal((g.dim,) + g.shape)
        pairing = 0.0
        for comp in u:
            pairing -= inner(g, laplacian(g, comp, "dirichlet"), comp)
        gsq = grad_sq_norm(g, u)
        assert gsq >= 0.0
        assert abs(gsq - pairing) <= 1e-12 * max(1.0, gsq)


def test_divergence_identity_second_order(ternary_spec):
    res = []
    for n in (16, 32):
        g = Grid.box((n, n), (1.0, 1.0))
        xs = g.cell_centers()
        sx = np.sin(np.pi * xs[0]) ** 2
        sy = np.sin(np.pi * xs[1]) ** 2
        u = np.stack([sx * sy, -sx * sy])
        w = np.stack([
            0.3 * np.cos(np.pi * xs[0]) * np.cos(np.pi * xs[1]),
            0.2 * np.cos(2.0 * np.pi * xs[0]) * np.cos(np.pi * xs[1]),
        ])
        res.append(divergence_identity_residual(g, u, w, ternary_spec))
    order = np.log2(res[0] / res[1])
    assert order >= 1.8


# ---------------------------------------------------------------------
# Sine/cosine transforms
# ---------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["dct", "dst"])
@pytest.mark.parametrize(
    "n", [*range(1, 10), 63, 64, 96, TRANSFORM_CROSSOVER - 1])
def test_transform_matrix_is_scipys_orthonormal_transform(kind, n):
    # Measured: at most 5.6e-16 from scipy.fft and 1.8e-15 from
    # orthogonality over these orders.
    mat = transform_matrix(kind, n)
    ref = getattr(scipy.fft, kind)(np.eye(n), type=2, axis=0, norm="ortho")
    assert np.abs(mat - ref).max() <= 1e-14
    assert np.abs(mat @ mat.T - np.eye(n)).max() <= 1e-14


@pytest.mark.parametrize("kind", ["dct", "dst"])
@pytest.mark.parametrize("n", [24, TRANSFORM_CROSSOVER - 1,
                               TRANSFORM_CROSSOVER, 160])
def test_axis_transform_matches_scipy_on_either_side_of_the_crossover(
        kind, n):
    # Below the crossover a product with the dense matrix, from there on
    # scipy.fft itself; along the last axis and along an inner one.
    rng = np.random.default_rng(31)
    t = AxisTransform(kind, n)
    fwd = getattr(scipy.fft, kind)
    inv = getattr(scipy.fft, "i" + kind)
    for x, axis in ((rng.standard_normal((2, 5, n)), 2),
                    (rng.standard_normal((2, n, 5)), 1),
                    (rng.standard_normal(n), 0)):
        scale = np.abs(x).max()
        ref = fwd(x, type=2, axis=axis, norm="ortho")
        assert np.abs(t.forward(x, axis) - ref).max() <= 1e-14 * scale
        ref = inv(x, type=2, axis=axis, norm="ortho")
        assert np.abs(t.inverse(x, axis) - ref).max() <= 1e-14 * scale
        assert np.abs(t.inverse(t.forward(x, axis), axis) - x).max() \
            <= 1e-14 * scale


@pytest.mark.parametrize("shape", [(64,), (160,), (24, 40), (160, 24),
                                   (24, 160), (160, 130)])
def test_cosine_transform_is_scipys_dctn_over_the_grid_axes(shape):
    # Dense products on the short axes, one dctn call over the long ones,
    # with a leading component axis riding along.
    rng = np.random.default_rng(37)
    t = CosineTransform(shape)
    axes = tuple(range(1, len(shape) + 1))
    x = rng.standard_normal((2,) + shape)
    ref = scipy.fft.dctn(x, type=2, axes=axes, norm="ortho")
    assert np.abs(t.forward(x) - ref).max() <= 1e-14 * np.abs(x).max()
    ref = scipy.fft.idctn(x, type=2, axes=axes, norm="ortho")
    assert np.abs(t.inverse(x) - ref).max() <= 1e-14 * np.abs(x).max()
    if all(n >= TRANSFORM_CROSSOVER for n in shape):
        # Long axes only: today's one scipy.fft call, bit for bit.
        assert np.array_equal(t.forward(x), scipy.fft.dctn(
            x, type=2, axes=axes, norm="ortho"))


# ---------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------

def test_snapshot_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(71)
    g = Grid.box((6, 5), (1.0, np.pi / 3.0))
    data = rng.standard_normal((2,) + g.shape)
    p1 = tmp_path / "snap_a.txt"
    p2 = tmp_path / "snap_b.txt"
    write_snapshot(p1, g, "u", 0.1 + 0.2, data)
    g2, name, t, back = read_snapshot(p1)
    assert g2 == g
    assert name == "u"
    assert t == 0.1 + 0.2
    np.testing.assert_array_equal(back, data)
    write_snapshot(p2, g2, name, t, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_scalar_field(tmp_path):
    g = Grid.box((5,), (1.0,))
    data = np.linspace(0.0, 1.0, 5)
    path = tmp_path / "scalar.txt"
    write_snapshot(path, g, "p", 0.0, data)
    _, _, _, back = read_snapshot(path)
    np.testing.assert_array_equal(back[0], data)


def test_snapshot_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("not a snapshot\n1 2 3\n")
    with pytest.raises(GridError, match="not a snapshot"):
        read_snapshot(path)
