import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.interpolate import BSpline

from caputo_oracle import caputo_oracle
from fracspline.bspline import DEFAULT_TAIL_TOL, FractionalBSpline
from kernel_oracle import column_loop_truncated_power_sum
from refinement_mask import mask


def truncated_power(alpha, t):
    """One-sided power ``t_+**alpha`` through the column-loop oracle."""
    return float(column_loop_truncated_power_sum(np.array([t]), np.ones(1), alpha, math.inf)[0])


def test_truncated_power_basics():
    assert truncated_power(2.5, -1.0) == 0.0
    assert truncated_power(2.5, 4.0) == pytest.approx(32.0)
    # degree 0 is the right-continuous step
    assert truncated_power(0.0, 0.0) == 1.0
    assert truncated_power(0.0, -1e-15) == 0.0


def test_finite_diff_weights_alternate():
    # the degree-2.5 value weights are the fractional forward-difference
    # weights (-1)**k C(3.5, k), normalised by gamma(3.5)
    w = FractionalBSpline(2.5).value_weights * math.gamma(3.5)
    for k in range(5):
        assert w[k] == pytest.approx((-1.0) ** k * float(mpmath.binomial(3.5, k)), rel=1e-14)


@pytest.mark.parametrize(
    "degree,support",
    [(3.5, 10), (3.0, 4), (2.5, 14), (2.0, 3), (4.0, 5), (1.0, 2)],
)
def test_effective_support(degree, support):
    # These counts fix the basis sizes and therefore every DOF in the tables.
    assert FractionalBSpline(degree).effective_support == support


@pytest.mark.parametrize("degree", [2.0, 2.5, 3.0, 3.5, 4.0])
def test_values_and_derivatives_equal_the_column_loop(degree):
    # the spline evaluates itself through the table kernel; values and
    # derivatives stay bit-identical to the plain truncated-power sum, whose
    # cutoff is the support for the value and for integer degree and order
    b = FractionalBSpline(degree)
    end = b.effective_support + 2.0
    t = np.concatenate([np.linspace(-1.0, end, 1001), np.arange(0.0, end, 0.5)])
    want = column_loop_truncated_power_sum(t, b.value_weights, degree, b.effective_support)
    assert np.array_equal(b(t), want)
    assert [b(float(u)) for u in t[::50]] == list(want[::50])
    for order in (0.5, 1.0, 2.0):
        cutoff = b.effective_support if degree.is_integer() and order.is_integer() else math.inf
        weights = b.derivative_weights(order, math.floor(end))
        want = column_loop_truncated_power_sum(t, weights, degree - order, cutoff)
        assert np.array_equal(b.frac_derivative(order, t), want)


# An integer-degree spline is summed from the nearer end of its support, so
# its values and first derivatives are within C_NEAR eps of the exact
# B-spline times the sum of the magnitudes of the nearer end's terms; the
# worst over these points is 1.54 eps (degree 9).  Summed from the left end,
# the far end's terms cancel and the bound fails from degree 2 on.
C_NEAR = 4


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9])
def test_integer_degree_within_eps_of_exact_bspline(n, order):
    b = FractionalBSpline(float(n))
    support, expo = n + 1, n - order
    # the exact weights (-1)**k C(n+1, k) / (n - order)!, not the float ones
    weights = [Fraction((-1) ** k * math.comb(support, k), math.factorial(expo)) for k in range(support + 1)]
    rng = np.random.default_rng(2018 + n)
    t = np.concatenate([rng.uniform(0.0, support, 401), np.arange(2 * support + 1) / 2])
    got = b(t) if order == 0 else b.frac_derivative(1.0, t)
    eps = Fraction(2) ** -52
    for value, u in zip(got.tolist(), map(Fraction, t.tolist())):
        exact = sum(w * (u - k) ** expo for k, w in enumerate(weights) if u > k)
        near = min(u, support - u)
        magnitude = sum(abs(w) * (near - k) ** expo for k, w in enumerate(weights) if near > k)
        assert abs(Fraction(value) - exact) <= C_NEAR * eps * magnitude, (float(u), value, float(exact))


def test_integer_specialization_matches_scipy():
    for n in (1, 2, 3, 4):
        b = FractionalBSpline(float(n))
        ref = BSpline.basis_element(np.arange(n + 2, dtype=np.float64), extrapolate=False)
        t = np.linspace(0.01, n + 0.99, 317)
        np.testing.assert_allclose(b(t), np.nan_to_num(ref(t)), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("degree", [1.0, 2.0, 3.0])
def test_cardinal_values_at_knots(degree):
    b = FractionalBSpline(degree)
    if degree == 1.0:
        assert b(1.0) == pytest.approx(1.0)
    elif degree == 2.0:
        assert b(1.0) == pytest.approx(0.5)
        assert b(2.0) == pytest.approx(0.5)
    else:
        assert b(1.0) == pytest.approx(1.0 / 6.0)
        assert b(2.0) == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("degree,tol", [(3.0, 1e-13), (3.5, 3e-6), (2.5, 2e-5)])
def test_refinement_equation(degree, tol):
    b = FractionalBSpline(degree)
    k_max = 2 * b.effective_support
    a = mask(b.degree, k_max)
    t = np.linspace(0.0, b.effective_support, 401)
    fine = sum(a[k] * b(2.0 * t - k) for k in range(k_max + 1))
    assert np.max(np.abs(fine - b(t))) < tol


@pytest.mark.parametrize("degree,tol", [(3.0, 1e-13), (3.5, 3e-6), (2.5, 2e-5)])
def test_partition_of_unity(degree, tol):
    b = FractionalBSpline(degree)
    t = np.linspace(b.effective_support + 0.1, b.effective_support + 1.9, 57)
    total = sum(b(t - k) for k in range(int(np.ceil(t.max())) + 1))
    assert np.max(np.abs(total - 1.0)) < tol


@pytest.mark.parametrize("degree", [2.0, 3.0, 3.5, 2.5])
def test_mask_sum_is_two(degree):
    a = mask(degree, 60)
    assert abs(a.sum() - 2.0) < 1e-6


def test_composition_identity():
    # D^g B_a equals the g-th finite difference of B_{a-g}
    b = FractionalBSpline(3.5)
    lower = FractionalBSpline(3.0)
    g = 0.5
    t = np.linspace(0.05, 6.0, 191)
    lhs = b.frac_derivative(g, t)
    rhs = np.zeros_like(t)
    for m in range(int(t.max()) + 1):
        rhs += (-1.0) ** m * float(mpmath.binomial(g, m)) * lower(t - m)
    np.testing.assert_allclose(lhs, rhs, atol=5e-7)


def test_first_derivative_is_difference_of_lower_degree():
    b = FractionalBSpline(3.5)
    lower = FractionalBSpline(2.5)
    t = np.linspace(0.05, 5.0, 111)
    np.testing.assert_allclose(
        b.frac_derivative(1.0, t), lower(t) - lower(t - 1.0), atol=5e-7
    )


def test_causality():
    b = FractionalBSpline(3.5)
    t = np.array([-2.0, -0.5, 0.0])
    np.testing.assert_array_equal(b(t), 0.0)
    np.testing.assert_array_equal(b.frac_derivative(0.5, t), 0.0)


@pytest.mark.parametrize("t", [0.45, 1.37, 2.6])
def test_frac_derivative_against_caputo_quadrature(t):
    b = FractionalBSpline(3.5)
    got = b.frac_derivative(0.5, t)
    ref = caputo_oracle(lambda u: float(b(u)), 0.5, t)
    assert got == pytest.approx(ref, abs=1e-6)


def test_scalar_and_array_evaluation_agree():
    b = FractionalBSpline(2.5)
    t = np.array([0.3, 1.7, 4.2])
    vals = b(t)
    for i, ti in enumerate(t):
        assert b(float(ti)) == vals[i]


@pytest.mark.parametrize("degree, row", [(3.0, 5), (3.5, 101)], ids=["beta3", "beta3.5"])
def test_value_weights_length_tracks_support(degree, row):
    b = FractionalBSpline(degree)
    assert b.value_weights.shape == (b.effective_support + 1,)
    # a fractional order keeps an infinite tail, but an integer degree's
    # weights C(degree + 1, k) vanish beyond k = degree + 1
    weights, _, _ = b._terms(0.5, 100.0)
    assert weights.shape == (row,)


def test_degree_validation():
    with pytest.raises(ValueError):
        FractionalBSpline(-0.5)
    with pytest.raises(ValueError):
        FractionalBSpline(-2.0)
    with pytest.raises(ValueError):
        FractionalBSpline(math.inf)
    with pytest.raises(ValueError):
        FractionalBSpline(3.5, tail_tol=0.0)
    with pytest.raises(ValueError):
        FractionalBSpline(3.5, tail_tol=2.0)


def test_derivative_order_validation():
    b = FractionalBSpline(1.0)
    with pytest.raises(ValueError):
        b.frac_derivative(1.5, 0.5)  # needs order < degree + 1/2
    with pytest.raises(ValueError):
        b.frac_derivative(0.0, 0.5)
    with pytest.raises(ValueError):
        b.frac_derivative(-0.5, 0.5)


def test_immutable():
    b = FractionalBSpline(3.0)
    with pytest.raises(AttributeError):
        b.degree = 2.0


def test_default_tail_tol_value():
    # calibrated so that the beta=3.5 family has effective support 10,
    # which the published DOF counts depend on
    assert DEFAULT_TAIL_TOL == 1.5e-7
    assert FractionalBSpline(3.5, tail_tol=DEFAULT_TAIL_TOL).effective_support == 10
