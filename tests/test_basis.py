import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import binom

from combination_oracle import loop_combinations
from fracspline import basis
from fracspline.basis import build_spatial, build_temporal
from fracspline.bspline import FractionalBSpline


# ---------------------------------------------------------------- spatial


def dropped_profiles(basis):
    """Translate coefficients of the two endpoint profiles the Dirichlet
    family leaves out: all cut translates at an end minus that end's
    combinations.  The kept family plus these two sums to one on [0, 1]."""
    n, c = basis.degree, basis.combinations
    d = np.zeros((2, c.shape[1]))
    d[0, :n] = 1.0
    d[1, -n:] = 1.0
    d[0] -= c[: n - 1].sum(axis=0)
    d[1] -= c[-(n - 1) :].sum(axis=0)
    return d


@pytest.mark.parametrize("j,expected", [(3, 9), (4, 17), (5, 33), (6, 65)])
def test_spatial_size_cubic(j, expected):
    assert build_spatial(j, 3).size == expected  # 2^j + 1


@pytest.mark.parametrize("j,n,expected", [(3, 2, 8), (4, 4, 18), (3, 1, 7)])
def test_spatial_size_other_degrees(j, n, expected):
    assert build_spatial(j, n).size == expected


def test_translate_range():
    basis = build_spatial(4, 3)
    # columns run over translates k = -3 .. 15: B(16 x + 3) first, B(16 x - 15) last
    ends = basis.translate_values(np.array([0.0, 1.0]))
    b = FractionalBSpline(3.0)
    assert ends[0, 0] == pytest.approx(b(3.0))
    assert ends[1, -1] == pytest.approx(b(1.0))
    assert basis.combinations.shape == (17, 19)
    assert dropped_profiles(basis).shape == (2, 19)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dirichlet_ends(n):
    basis = build_spatial(4, n)
    ends = basis.eval_many(np.array([0.0, 1.0]))
    # at x = 1 the last interior translate sits at the end of its support,
    # where it is exactly 0; only the n - 1 right endpoint combinations
    # cancel, to rounding, and their truncated-power terms grow about 2x per
    # degree
    np.testing.assert_array_equal(ends[1, : basis.size - (n - 1)], 0.0)
    assert np.max(np.abs(ends)) < 1e-14 * 2.0 ** (n - 3)
    # left combination i vanishes to order i at x = 0: its derivatives of
    # order < i are zero there (order nu carries the factor 2**(4 nu))
    for i in range(1, n):
        for nu in range(i):
            d = basis.eval_many(np.zeros(1), nu)[0, i - 1]
            assert abs(d) < 1e-14 * 2.0 ** (4 * nu), (i, nu, d)


def test_dropped_profiles_carry_the_endpoint_values():
    basis = build_spatial(4, 3)
    d = basis.translate_values(np.array([0.0, 1.0])) @ dropped_profiles(basis).T
    np.testing.assert_allclose(d, np.eye(2), atol=1e-13)


def test_partition_of_unity_with_dropped():
    basis = build_spatial(4, 3)
    x = np.linspace(0.0, 1.0, 257)
    dropped = basis.translate_values(x) @ dropped_profiles(basis).T
    total = basis.eval_many(x).sum(axis=1) + dropped.sum(axis=1)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_centro_symmetry():
    basis = build_spatial(5, 3)
    x = np.linspace(0.0, 1.0, 101)
    left = basis.eval_many(x)
    right = basis.eval_many(1.0 - x)
    np.testing.assert_allclose(left, right[:, ::-1], atol=1e-12)


def test_first_derivative_by_finite_difference():
    basis = build_spatial(3, 3)
    x = np.linspace(0.05, 0.95, 41)
    h = 1e-6
    fd = (basis.eval_many(x + h) - basis.eval_many(x - h)) / (2.0 * h)
    np.testing.assert_allclose(basis.eval_many(x, deriv=1), fd, atol=5e-4)
    # d/dx of a degree-n translate is the difference of two degree-(n-1)
    # translates: 2**j (B(2**j x - k) - B(2**j x - k - 1))
    x = np.linspace(0.0, 1.0, 97)
    for n in (2, 3, 4):
        lower = FractionalBSpline(n - 1.0)
        for j in (3, 5):
            basis = build_spatial(j, n)
            u = 2.0**j * x[:, None] - np.arange(-n, 2**j)
            diff = 2.0**j * (lower(u) - lower(u - 1.0))
            np.testing.assert_allclose(
                basis.eval_many(x, 1), diff @ basis.combinations.T, rtol=1e-12, atol=1e-12
            )


def test_build_spatial_validation():
    with pytest.raises(ValueError):
        build_spatial(2, 3)  # 2^j must cover both boundary constructions
    with pytest.raises(ValueError):
        build_spatial(0, 1)
    with pytest.raises(ValueError):
        build_spatial(3.0, 3)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        build_spatial(3, 0)


def test_interior_member_is_a_pure_translate():
    basis = build_spatial(4, 3)
    # member degree..degree+? the middle of the family must be untouched
    mid = basis.size // 2
    row = basis.combinations[mid]
    assert np.sum(row != 0.0) == 1
    assert row.max() == pytest.approx(1.0)


# each degree at its smallest level (2**j = 2n or just above) and at j = 8
@pytest.mark.parametrize("j, n", [(1, 1), (2, 2), (3, 3), (3, 4), (4, 5)] + [(8, n) for n in range(1, 6)])
def test_combinations_match_the_loop_oracle_and_their_mirror(j, n):
    c = build_spatial(j, n).combinations
    ref = loop_combinations(j, n)
    assert np.array_equal(c, ref) and np.array_equal(np.signbit(c), np.signbit(ref))
    assert np.array_equal(c, c[::-1, ::-1])


def _bits(a):
    return a.view(np.int64)


def test_null_space_is_scipys_bit_for_bit():
    # every endpoint-condition matrix of degrees 1..31, formed as
    # _left_boundary_combos forms it: the NumPy SVD must give SciPy's null
    # space to the last bit, signs included
    checked = 0
    for n in range(1, 32):
        spline = FractionalBSpline(float(n))
        for i in range(1, n):
            pts = np.arange(i + 1, 0, -1, dtype=float)
            cond = np.array([spline.frac_derivative(nu, pts) if nu else spline(pts) for nu in range(i)])
            ours, ref = basis._null_space(cond), scipy.linalg.null_space(cond)
            assert ours.shape == ref.shape, (n, i)
            assert np.array_equal(_bits(ours), _bits(ref)), (n, i)
            checked += 1
    assert checked == 465


def _combos_or_failure(n):
    try:
        return [_bits(c).tolist() for c in basis._left_boundary_combos(FractionalBSpline(float(n)))]
    except RuntimeError as exc:
        return str(exc)


def test_combinations_and_degeneracy_checks_match_scipys_null_space(monkeypatch):
    ours = [_combos_or_failure(n) for n in range(1, 32)]
    monkeypatch.setattr(basis, "_null_space", scipy.linalg.null_space)
    assert ours == [_combos_or_failure(n) for n in range(1, 32)]
    # degrees 20 and up lose the deepest translate of a combination either way
    assert [isinstance(c, str) for c in ours] == [n >= 20 for n in range(1, 32)]


# ---------------------------------------------------------------- temporal


@pytest.mark.parametrize(
    "s,beta,expected",
    [(5, 3.5, 41), (6, 3.5, 73), (7, 3.5, 137), (5, 3.0, 35), (6, 3.0, 67), (7, 3.0, 131)],
)
def test_temporal_size(s, beta, expected):
    assert build_temporal(s, beta).size == expected


def test_temporal_range_and_horizon():
    tb = build_temporal(5, 3.5)
    assert (tb.r_min, tb.r_max) == (-9, 31)
    tb2 = build_temporal(4, 3.0, T=2)
    assert tb2.size == 2**4 * 2 + 3
    assert tb2.r_max == 31


def test_temporal_level_zero_allowed():
    tb = build_temporal(0, 3.0)
    assert tb.size == 4
    assert (tb.r_min, tb.r_max) == (-3, 0)


def test_initial_values_pattern():
    tb = build_temporal(4, 3.5)
    g0 = tb.initial_values()
    assert g0.shape == (tb.size,)
    # causal: translates starting at or after t=0 vanish there
    for r in range(0, tb.r_max + 1):
        assert g0[r - tb.r_min] == 0.0
    assert np.any(g0[: -tb.r_min] != 0.0)


def test_temporal_matches_direct_spline_eval():
    tb = build_temporal(4, 3.5)
    b = FractionalBSpline(3.5)
    t = np.linspace(0.0, 1.0, 33)
    for r in (-5, -1, 0, 7):
        np.testing.assert_allclose(
            tb.eval_many(t)[:, r - tb.r_min], b(2.0**4 * t - r), atol=1e-14
        )


def _derivative_sum(beta, order, u):
    """Order-``order`` derivative of the degree-``beta`` spline at ``u``: the
    truncated-power sum written out in full, with no cutoff."""
    k = np.arange(math.floor(u.max()) + 1)
    w = (-1.0) ** k * binom(beta + 1.0, k) / math.gamma(beta - order + 1.0)
    return (w * np.clip(u[:, None] - k, 0.0, None) ** (beta - order)).sum(axis=1)


# ids of the beta = 3.5 cases are the bare order; beta = 3 has an integer
# degree, whose fractional derivative still has an infinite tail
@pytest.mark.parametrize(
    "order, beta",
    [(0.5, 3.5), (1.0, 3.5), (0.5, 3.0), (1.0, 3.0)],
    ids=["0.5", "1.0", "0.5-beta3", "1.0-beta3"],
)
def test_temporal_derivative_scaling(order, beta):
    s = 3
    tb = build_temporal(s, beta)
    t = np.linspace(0.05, 1.0, 17)
    for r in (-3, 0, 3):
        u = 2.0**s * t - r  # reaches 11, far beyond the support of beta = 3
        direct = 2.0 ** (s * order) * _derivative_sum(beta, order, u)
        got = tb.eval_many(t, order)[:, r - tb.r_min]
        np.testing.assert_allclose(got, direct, rtol=1e-10, atol=1e-10)


def test_build_temporal_validation():
    with pytest.raises(ValueError):
        build_temporal(-1, 3.0)
    with pytest.raises(ValueError):
        build_temporal(3, 3.0, T=0)
    with pytest.raises(ValueError):
        build_temporal(2.0, 3.0)  # type: ignore[arg-type]
