import numpy as np
import pytest

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


def test_dirichlet_ends():
    basis = build_spatial(4, 3)
    ends = basis.eval_many(np.array([0.0, 1.0]))
    assert np.max(np.abs(ends)) < 1e-14


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


@pytest.mark.parametrize("order", [0.5, 1.0])
def test_temporal_derivative_scaling(order):
    s = 3
    tb = build_temporal(s, 3.5)
    b = FractionalBSpline(3.5)
    t = np.linspace(0.05, 1.0, 17)
    for r in (-4, 0, 3):
        direct = 2.0 ** (s * order) * b.frac_derivative(order, 2.0**s * t - r)
        got = tb.eval_many(t, order)[:, r - tb.r_min]
        np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-12)


def test_build_temporal_validation():
    with pytest.raises(ValueError):
        build_temporal(-1, 3.0)
    with pytest.raises(ValueError):
        build_temporal(3, 3.0, T=0)
    with pytest.raises(ValueError):
        build_temporal(2.0, 3.0)  # type: ignore[arg-type]
