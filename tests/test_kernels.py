"""Kernel fills against the column-by-column oracle: equal bit for bit."""

import math

import numpy as np
import pytest

from fracspline import kernels
from fracspline.bspline import FractionalBSpline
from kernel_oracle import column_loop_basis_matrix, column_loop_truncated_power_sum

# (spline degree, derivative order or None): expo is the degree for values
# and degree - order for derivatives, so this covers expo 0, 3, 2.5 and 3.2.
CASES = [(0.0, None), (3.0, None), (2.5, None), (3.5, 0.3)]


def _table_args(degree, order, cutoff_kind, s=4):
    """Kernel arguments of a temporal-style table at level s."""
    sp = FractionalBSpline(degree)
    n_cols = 2**s + sp.effective_support - 1
    shift0 = float(-(sp.effective_support - 1))
    if order is None:
        weights, expo = sp.value_weights, degree
    else:
        weights, expo = sp.derivative_weights(order, n_cols + 1), degree - order
    cutoff = float(sp.effective_support) if cutoff_kind == "finite" else math.inf
    return float(2**s), shift0, n_cols, weights, expo, cutoff


def _points(kind, q=6, seed=7):
    if kind == "grid":
        return np.arange(2**q + 1, dtype=np.float64) / 2**q
    return np.random.default_rng(seed).uniform(0.0, 1.0, 300)


@pytest.mark.parametrize("points", ["grid", "random"])
@pytest.mark.parametrize("cutoff_kind", ["finite", "inf"])
@pytest.mark.parametrize("degree,order", CASES)
def test_basis_matrix_equals_column_loop(degree, order, cutoff_kind, points):
    t = _points(points)
    args = _table_args(degree, order, cutoff_kind)
    got = kernels.basis_matrix(t, *args)
    want = column_loop_basis_matrix(t, *args)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_basis_matrix_random_weights_and_shifts():
    rng = np.random.default_rng(11)
    t = np.concatenate([np.arange(65) / 64.0, rng.uniform(-0.2, 1.2, 200)])
    for expo, cutoff in ((0.0, 3.0), (1.0, 6.5), (3.5, 10.0), (2.7, math.inf)):
        w = rng.standard_normal(9)
        for scale, shift0, n_cols in ((8.0, -3.0, 13), (32.0, -9.0, 41), (16.0, 2.0, 5)):
            args = (scale, shift0, n_cols, w, expo, cutoff)
            assert np.array_equal(
                kernels.basis_matrix(t, *args), column_loop_basis_matrix(t, *args)
            )


def test_truncated_power_sum_equals_oracle():
    rng = np.random.default_rng(42)
    u = rng.uniform(-3.0, 15.0, 257)
    w = rng.standard_normal(11)
    for expo in (0.0, 1.0, 2.5, 3.0, 3.5):
        for cutoff in (math.inf, 10.0, 4.0):
            assert np.array_equal(
                kernels.truncated_power_sum(u, w, expo, cutoff),
                column_loop_truncated_power_sum(u, w, expo, cutoff),
            )


def _scatter(values, cols, n_cols):
    """Dense table from the supported translates; out-of-range slots carry
    value 0 in column 0, and adding 0.0 leaves every entry unchanged."""
    out = np.zeros((values.shape[0], n_cols))
    rows = np.broadcast_to(np.arange(values.shape[0])[:, None], cols.shape)
    np.add.at(out, (rows, cols), values)
    return out


@pytest.mark.parametrize("points", ["grid", "random"])
@pytest.mark.parametrize(
    "degree,scale,shift0,n_cols,cutoff",
    [
        (3.0, 8.0, -3.0, 11, 4.0),  # spatial cubic at j = 3
        (3.5, 16.0, -9.0, 25, None),  # temporal beta 3.5 at s = 4
        (2.5, 16.0, -13.0, 29, None),
        (0.0, 16.0, 0.0, 16, 1.0),
        (3.5, 16.0, -9.0, 25, 7.5),  # non-integer cutoff
    ],
)
def test_supported_translates_equal_dense_table(degree, scale, shift0, n_cols, cutoff, points):
    sp = FractionalBSpline(degree)
    cutoff = float(sp.effective_support) if cutoff is None else cutoff
    t = np.concatenate([_points(points), [0.0, 1.0]])
    args = (scale, shift0, n_cols, sp.value_weights, degree, cutoff)
    values, cols = kernels.supported_translates(t, *args)
    dense = column_loop_basis_matrix(t, *args)
    width = math.floor(cutoff) + 1
    assert values.shape == cols.shape == (t.size, width)
    assert cols.min() >= 0 and cols.max() < n_cols
    # slot i holds translate floor(scale t) - i when that is a column ...
    want_cols = np.floor(scale * t)[:, None] - np.arange(width) - shift0
    valid = (want_cols >= 0) & (want_cols < n_cols)
    assert np.array_equal(cols[valid], want_cols[valid].astype(int))
    assert not values[~valid].any()
    # ... its value is the dense entry, bit for bit ...
    assert np.array_equal(values[valid], dense[np.arange(t.size)[:, None], cols][valid])
    # ... and the slots hold every nonzero of the row
    assert np.array_equal(_scatter(values, cols, n_cols), dense)
