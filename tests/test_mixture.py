"""Pointwise mixture algebra: frozen oracles and seeded properties.

Oracle values were computed by hand from the defining formulas (total
concentration, molar fractions, entropy density, friction matrices)
for tiny mixtures where everything reduces to closed form; property
tests draw random interior states and random mixture descriptions with
fixed seeds.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msflow import mixture
from msflow.mixture import (
    InversionError,
    MixtureDomainError,
    MixtureSpec,
    densities_from_entropy,
    entropy_density,
    entropy_vars,
    full_densities,
    lift_initial,
    friction_matrix_full,
    friction_matrix_reduced,
    mobility_matrix,
    fraction_jacobian,
    entropy_hessian,
    density_jacobian,
    molar_fractions,
    sample_simplex,
    spd_inverse,
)

from conftest import (
    oracle_densities_from_entropy,
    oracle_density_jacobian,
    oracle_mobility_matrix,
    random_spec,
)


# ---------------------------------------------------------------------
# Spec construction and validation
# ---------------------------------------------------------------------

def test_spec_normalizes_inputs(stiff_binary_spec):
    assert stiff_binary_spec.n_species == 2
    assert stiff_binary_spec.n_reduced == 1
    # Diagonal of the diffusivity matrix is irrelevant and zeroed.
    assert stiff_binary_spec.diffusivities[0, 0] == 0.0


def test_spec_rejects_bad_masses():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            MixtureSpec(np.array([1.0, bad]), d)
    with pytest.raises(ValueError, match="length >= 2"):
        MixtureSpec(np.array([1.0]), np.zeros((1, 1)))


def test_spec_rejects_bad_diffusivities():
    m = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        MixtureSpec(m, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        MixtureSpec(m, np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="positive"):
        MixtureSpec(m, np.array([[0.0, -1.0], [-1.0, 0.0]]))


# ---------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------

def test_molar_fraction_oracle(stiff_binary_spec):
    # rho' = [0.5], masses (2, 1): c = 0.5/2 + 0.5/1 = 0.75,
    # x = (0.25, 0.5)/0.75 = (1/3, 2/3).
    x, c = molar_fractions(np.array([0.5]), stiff_binary_spec)
    assert c == pytest.approx(0.75, abs=1e-15)
    np.testing.assert_allclose(x, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_entropy_variable_oracle(stiff_binary_spec):
    # w = log(1/3)/2 - log(2/3)/1, computed independently.
    w = entropy_vars(np.array([0.5]), stiff_binary_spec)
    assert w[0] == pytest.approx(-0.14384103622589045, abs=1e-15)


def test_entropy_density_oracles(binary_spec):
    h = entropy_density(np.array([0.25]), binary_spec)
    assert h == pytest.approx(-0.5623351446188083, abs=1e-15)
    h = entropy_density(np.array([0.5]), binary_spec)
    assert h == pytest.approx(-np.log(2.0), abs=1e-15)
    tern = MixtureSpec(np.ones(3), np.ones((3, 3)) - np.eye(3))
    h = entropy_density(np.array([1.0, 1.0]) / 3.0, tern)
    assert h == pytest.approx(-np.log(3.0), abs=1e-14)


def test_full_friction_matrix_oracle(binary_spec):
    # Equal masses, D12 = 1, rho' = [0.5]: c = 1, d12 = 1, so
    # A = [[0.5, -0.5], [-0.5, 0.5]].
    a = friction_matrix_full(np.array([0.5]), binary_spec)
    np.testing.assert_allclose(a, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_reduced_friction_matrix_oracle(binary_spec):
    # Equal-mass binary: c = 1 for every state, so A0 = 1/D12 = 1
    # independently of rho.
    for r in (0.25, 0.5, 0.9):
        a0 = friction_matrix_reduced(np.array([r]), binary_spec)
        assert a0[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_fraction_jacobian_oracle(binary_spec):
    # G = c (1/rho_2 + 1/rho_1) = 4 at rho' = [0.5].
    g = fraction_jacobian(np.array([0.5]), binary_spec)
    assert g[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_entropy_hessian_oracle(binary_spec):
    # H = 1/rho_1 + 1/rho_2 = 4 + 4/3 at rho' = [0.25] (mass terms
    # cancel for equal masses).
    h = entropy_hessian(np.array([0.25]), binary_spec)
    assert h[0, 0] == pytest.approx(16.0 / 3.0, rel=1e-14)


def test_mobility_matrix_binary_closed_form():
    # Equal-mass binary with diffusivity D: B = D rho_1 rho_2.
    dval = 1.7
    spec = MixtureSpec(np.ones(2), dval * (np.ones((2, 2)) - np.eye(2)))
    for r in (0.2, 0.5, 0.75):
        b = mobility_matrix(np.array([r]), spec)
        assert b[0, 0] == pytest.approx(dval * r * (1.0 - r), rel=1e-12)


def test_lift_oracle():
    out = lift_initial(np.array([0.0, 1.0]), 0.1)
    np.testing.assert_allclose(out, [1.0 / 7.0, 6.0 / 7.0], atol=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_lift_validation():
    with pytest.raises(ValueError, match="alpha0"):
        lift_initial(np.array([0.5, 0.5]), 0.3)
    with pytest.raises(ValueError, match="alpha0"):
        lift_initial(np.array([0.5, 0.5]), 0.0)
    with pytest.raises(MixtureDomainError, match="nonnegative"):
        lift_initial(np.array([-0.1, 1.1]), 1e-3)
    with pytest.raises(MixtureDomainError, match="sum to one"):
        lift_initial(np.array([0.5, 0.4]), 1e-3)


def test_lift_floor_and_sum():
    rng = np.random.default_rng(7)
    raw = rng.dirichlet(np.ones(4), size=50)
    raw[0, 2] = 0.0
    raw[0] /= raw[0].sum()
    alpha = 1e-3
    lifted = lift_initial(raw.T, alpha).T
    assert np.allclose(lifted.sum(axis=-1), 1.0, atol=1e-14)
    assert lifted.min() >= alpha


# ---------------------------------------------------------------------
# Domain checking
# ---------------------------------------------------------------------

def test_domain_errors(binary_spec):
    with pytest.raises(MixtureDomainError):
        molar_fractions(np.array([0.0]), binary_spec)
    with pytest.raises(MixtureDomainError):
        molar_fractions(np.array([1.0]), binary_spec)
    with pytest.raises(MixtureDomainError):
        molar_fractions(np.array([0.3, 0.3]), binary_spec)
    with pytest.raises(MixtureDomainError):
        densities_from_entropy(np.array([0.0, 0.0]), binary_spec)


def test_closure_sums_to_one(ternary_spec):
    rng = np.random.default_rng(11)
    pts = sample_simplex(rng, 3, 64)
    rho_full = full_densities(pts, ternary_spec)
    np.testing.assert_allclose(rho_full.sum(axis=0), 1.0, atol=1e-15)
    assert rho_full.shape == (3, 64)


# ---------------------------------------------------------------------
# Seeded property tests
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n_species", [2, 3, 4])
def test_full_matrix_null_space(n_species):
    rng = np.random.default_rng(100 + n_species)
    spec = random_spec(rng, n_species)
    pts = sample_simplex(rng, n_species, 50)
    a = friction_matrix_full(pts, spec)
    rho_full = full_densities(pts, spec)
    resid = np.einsum("ijc,jc->ic", a, rho_full)
    assert np.abs(resid).max() <= 1e-13 * np.abs(a).max()


@pytest.mark.parametrize("n_species", [2, 3, 4])
def test_coefficient_matrices_spd(n_species):
    rng = np.random.default_rng(200 + n_species)
    spec = random_spec(rng, n_species)
    pts = sample_simplex(rng, n_species, 50)
    for builder in (entropy_hessian, fraction_jacobian, mobility_matrix):
        m = np.moveaxis(builder(pts, spec), -1, 0)
        asym = np.abs(m - np.swapaxes(m, -1, -2)).max()
        assert asym <= 1e-10 * np.abs(m).max()
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() > 0.0
    a0 = np.moveaxis(friction_matrix_reduced(pts, spec), -1, 0)
    assert np.isfinite(np.linalg.cond(a0)).all()


@pytest.mark.parametrize("n_species", [2, 3, 4, 5])
def test_mobility_matches_explicit_inverses(n_species):
    # The closed-form G^{-1} against the textbook A0^{-1} G^{-1}, also
    # close to the simplex boundary.
    rng = np.random.default_rng(500 + n_species)
    spec = random_spec(rng, n_species)
    pts = sample_simplex(rng, n_species, 200, margin=1e-6)
    a0, g, b = (np.moveaxis(f(pts, spec), -1, 0) for f in (
        friction_matrix_reduced, fraction_jacobian, mobility_matrix))
    ref = np.linalg.inv(a0) @ np.linalg.inv(g)
    err = np.abs(b - ref).max(axis=(-2, -1))
    assert (err <= 1e-8 * np.abs(ref).max(axis=(-2, -1))).all()


@pytest.mark.parametrize("n_species", [2, 3, 4])
def test_jacobian_consistency(n_species):
    # H must be the Jacobian of w with respect to the reduced
    # densities; central finite differences, relative 1e-6.
    rng = np.random.default_rng(300 + n_species)
    spec = random_spec(rng, n_species)
    pts = sample_simplex(rng, n_species, 20, margin=5e-2)
    h = entropy_hessian(pts, spec)
    n = n_species - 1
    fd = np.empty_like(h)
    delta = 1e-7
    for j in range(n):
        e = np.zeros((n, 1))
        e[j] = delta
        fd[:, j] = (entropy_vars(pts + e, spec)
                    - entropy_vars(pts - e, spec)) / (2.0 * delta)
    # dw_i/drho_j lands in column j; H is symmetric so the
    # orientation does not matter for the comparison.
    assert np.abs(fd - h).max() <= 1e-6 * np.abs(h).max()


@pytest.mark.parametrize("n_species", [2, 3, 4])
def test_entropy_roundtrip(n_species):
    rng = np.random.default_rng(400 + n_species)
    spec = random_spec(rng, n_species)
    pts = sample_simplex(rng, n_species, 200)
    back = densities_from_entropy(entropy_vars(pts, spec), spec)
    assert np.abs(back - pts).max() <= 1e-10


def test_roundtrip_near_boundary(binary_spec):
    # States down to 1e-9 from the simplex boundary invert to machine
    # precision.
    r = np.array([[1e-9, 1.0 - 1e-9, 0.5]])
    w = entropy_vars(r, binary_spec)
    back = densities_from_entropy(w, binary_spec)
    assert np.abs((back - r) / r).max() <= 1e-8


def test_inversion_binary_closed_form(binary_spec):
    # Equal-mass binary: w = log(rho_1 / rho_2), so the inverse is the
    # logistic function.
    for wval, expect in ((0.3, 0.574442516811659),
                        (-2.0, 0.11920292202211755)):
        rho = densities_from_entropy(np.array([wval]), binary_spec)
        assert rho[0] == pytest.approx(expect, rel=1e-13)


def test_inversion_raises_outside_representable_range(binary_spec):
    # A target this extreme would need a component below the interior
    # margin of the iteration; failing loudly is the contract.
    with pytest.raises(InversionError):
        densities_from_entropy(np.array([40.0]), binary_spec)
    with pytest.raises(InversionError):
        densities_from_entropy(np.array([-40.0]), binary_spec)


def test_inversion_extreme_but_feasible(binary_spec):
    # |w| = 30 puts a component near 1e-13; the iteration must still
    # land on the nearest representable state.
    for wval in (30.0, -30.0):
        rho = densities_from_entropy(np.array([wval]), binary_spec)
        w_back = entropy_vars(rho, binary_spec)
        # Residual bounded by the quantization of w across one ulp of
        # the small component.
        small = min(rho[0], 1.0 - rho[0])
        assert abs(w_back[0] - wval) <= 8.0 * np.finfo(float).eps / small


def test_inversion_shape_check(binary_spec):
    with pytest.raises(MixtureDomainError):
        densities_from_entropy(np.zeros((4, 2)), binary_spec)


@st.composite
def mixed_scale_targets(draw):
    """A random 2-5 species mixture and the entropy variables of a state
    whose full densities are log-uniform between 1e-10 and 1."""
    n_species = draw(st.integers(2, 5))
    spec = random_spec(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       n_species)
    exponents = draw(st.lists(st.floats(-10.0, 0.0), min_size=n_species,
                              max_size=n_species))
    rho_full = 10.0 ** np.array(exponents)
    rho_full /= rho_full.sum()
    return spec, entropy_vars(rho_full[:-1, None], spec)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(mixed_scale_targets())
def test_inversion_meets_relative_tolerance(case):
    # Every component matches its target to INVERSION_RTOL (1 + |w|), or
    # to the quantization floor of the smallest density, from a strictly
    # interior state.
    spec, w = case
    rho = densities_from_entropy(w, spec)
    last = 1.0 - rho.sum(axis=0)
    assert (rho > 0.0).all() and (last > 0.0).all()
    res = np.abs(entropy_vars(rho, spec) - w)
    floor = 8.0 * np.finfo(float).eps / (
        np.minimum(rho.min(axis=0), last) * min(spec.molar_masses.min(), 1.0))
    assert (res <= np.maximum(mixture.INVERSION_RTOL * (1.0 + np.abs(w)),
                              floor[None, :])).all()


def _exact_density_jacobian(rho_full, m):
    """H^{-1} from the defining formula of H, in rational arithmetic on
    the given float densities and masses, rounded once at the end."""
    r = [Fraction(v) for v in rho_full]
    m = [Fraction(v) for v in m]
    n = len(r) - 1
    c = sum(rk / mk for rk, mk in zip(r, m))
    dm = [1 / m[i] - 1 / m[n] for i in range(n)]
    a = [[(1 / (m[i] * r[i]) if i == j else 0) + 1 / (m[n] * r[n])
          - dm[i] * dm[j] / c for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):                # Gauss-Jordan; H is SPD
        a[col] = [v / a[col][col] for v in a[col]]
        for row in range(n):
            if row != col:
                f = a[row][col]
                a[row] = [v - f * p for v, p in zip(a[row], a[col])]
    return np.array([[float(v) for v in row[n:]] for row in a])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(mixed_scale_targets())
def test_density_jacobian_inverts_the_entropy_hessian(case):
    # Against LAPACK the agreement is limited by cond(H) eps, which
    # reaches 1e-6 on these states; against the exact inverse the
    # closed form keeps every entry to roundoff of its own scale.
    spec, w = case
    rho = densities_from_entropy(w, spec)
    h = entropy_hessian(rho, spec)[..., 0]
    jac = density_jacobian(rho, spec)[..., 0]
    assert np.array_equal(jac, jac.T)
    bound = 1e-10 + 8.0 * np.finfo(float).eps * np.linalg.cond(h)
    assert np.abs(jac @ h - np.eye(len(h))).max() <= bound
    ref = np.linalg.inv(h)
    assert np.abs(jac - ref).max() <= bound * np.abs(ref).max()
    exact = _exact_density_jacobian(full_densities(rho, spec)[:, 0],
                                    spec.molar_masses)
    scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
    assert (np.abs(jac - exact) <= 1e-13 * scale).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lead", [(50,), (6, 7)])
def test_spd_inverse_matches_lapack(n, lead):
    rng = np.random.default_rng(10 * n + len(lead))
    x = rng.standard_normal(lead + (n, n))
    a = x @ np.swapaxes(x, -1, -2) + 0.1 * np.eye(n)
    inv = np.moveaxis(spd_inverse(np.moveaxis(a, (-2, -1), (0, 1))), (0, 1),
                      (-2, -1))
    ref = np.linalg.inv(a)
    assert inv.shape == a.shape
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
    err = np.abs(inv - ref).max(axis=(-2, -1))
    assert (err <= 1e-10 * np.abs(ref).max(axis=(-2, -1))).all()


# ---------------------------------------------------------------------
# Component rows against the points-last oracle
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n_species", [2, 3, 4])
def test_mixture_routines_match_the_points_last_oracle(n_species):
    # At N = 1 every sum has at most two terms, so the component-row
    # arithmetic is bitwise the oracle's.  At N = 2 and 3 a sum may run
    # in another order, so the results agree within 4 ulp: of each
    # density, and of each matrix block's largest entry.  At N = 3 the
    # concentration is a 4-term sum, which BLAS adds as
    # (x0 + x2) + (x1 + x3), and the mobility inverts G A0, so its
    # bound carries the block's condition number too.
    rng = np.random.default_rng(230 + n_species)
    spec = random_spec(rng, n_species)
    rho = sample_simplex(rng, n_species, 4096)
    w = entropy_vars(rho, spec) + 0.1 * rng.standard_normal(rho.shape[::-1]).T
    got = densities_from_entropy(w, spec)
    ref = oracle_densities_from_entropy(w.T, spec).T
    assert got.shape == ref.shape and got.flags.c_contiguous
    if n_species == 2:
        np.testing.assert_array_equal(got, ref)
    assert (np.abs(got - ref) <= 4 * np.spacing(ref)).all()
    for routine, oracle in ((density_jacobian, oracle_density_jacobian),
                            (mobility_matrix, oracle_mobility_matrix)):
        got, ref = routine(rho, spec), oracle(rho.T, spec)
        assert got.flags.c_contiguous
        got = np.moveaxis(got, -1, 0)
        assert got.shape == ref.shape
        if n_species == 2:
            np.testing.assert_array_equal(got, ref)
        ulp = np.spacing(np.abs(ref).max(axis=(-2, -1)))
        if n_species == 4 and routine is mobility_matrix:
            ulp = ulp * np.linalg.cond(ref)
        err = np.abs(got - ref).max(axis=(-2, -1))
        assert (err <= 4 * ulp).all(), routine.__name__


@pytest.mark.parametrize("routine, oracle, spec_name, x", [
    # w = 40 needs a density of about e^-40, below the 1e-14 margin.
    (densities_from_entropy, oracle_densities_from_entropy, "binary_spec",
     [[40.0], [-40.0]]),
    (densities_from_entropy, oracle_densities_from_entropy, "binary_spec",
     [[0.0, 0.0]]),
    (mobility_matrix, oracle_mobility_matrix, "binary_spec", [[0.5], [1.2]]),
    (mobility_matrix, oracle_mobility_matrix, "ternary_spec", [[0.2] * 3]),
    (density_jacobian, oracle_density_jacobian, "ternary_spec",
     [[0.6, 0.5]]),
], ids=["margin", "w-shape", "simplex", "rho-shape", "closure"])
def test_mixture_errors_match_the_oracle(routine, oracle, spec_name, x,
                                         request):
    spec = request.getfixturevalue(spec_name)
    with pytest.raises((InversionError, MixtureDomainError)) as got:
        routine(np.array(x).T, spec)
    with pytest.raises(type(got.value)) as ref:
        oracle(np.array(x), spec)
    assert str(got.value) == str(ref.value)


def test_sample_simplex_properties():
    rng = np.random.default_rng(5)
    pts = sample_simplex(rng, 4, 500, margin=1e-2)
    assert pts.shape == (3, 500)
    full = np.concatenate([pts, 1.0 - pts.sum(0, keepdims=True)])
    assert full.min() > 1e-2
    rng2 = np.random.default_rng(5)
    again = sample_simplex(rng2, 4, 500, margin=1e-2)
    np.testing.assert_array_equal(pts, again)
