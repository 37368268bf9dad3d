"""Kernel fills against the column-by-column oracle: equal bit for bit."""

import math

import numpy as np
import pytest

from fracspline import kernels
from fracspline.bspline import FractionalBSpline
from kernel_oracle import column_loop_basis_matrix

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
    # the one-column table on wide arguments is the sum the spline evaluates
    # itself through; the pairs after the fourth add the zeroth power and a
    # negative exponent without a cutoff and integer powers cut at a finite one
    wide = np.random.default_rng(42).uniform(-3.0, 15.0, 257)
    pairs = ((0.0, 3.0), (1.0, 6.5), (3.5, 10.0), (2.7, math.inf), (0.0, math.inf),
             (-0.3, math.inf), (-0.3, 4.0), (3.0, 4.0), (3.0, 10.0), (2.5, 4.0))
    for expo, cutoff in pairs:
        w = rng.standard_normal(9)
        for pts, scale, shift0, n_cols in (
            (t, 8.0, -3.0, 13), (t, 32.0, -9.0, 41), (t, 16.0, 2.0, 5), (wide, 1.0, 0.0, 1)
        ):
            args = (scale, shift0, n_cols, w, expo, cutoff)
            assert np.array_equal(
                kernels.basis_matrix(pts, *args), column_loop_basis_matrix(pts, *args)
            )


def _scatter(values, first, n_cols):
    """Dense table from the slot-major supported translates; slot i of a
    point sits in column ``first - i``, and slots off the table are
    dropped."""
    cols = first - np.arange(values.shape[0])[:, None]
    rows = np.broadcast_to(np.arange(values.shape[1]), cols.shape)
    on = (cols >= 0) & (cols < n_cols)
    out = np.zeros((values.shape[1], n_cols))
    np.add.at(out, (rows[on], cols[on]), values[on])
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
    values, first = kernels.supported_translates(t, *args)
    dense = column_loop_basis_matrix(t, *args)
    width = math.floor(cutoff) + 1
    assert values.shape == (width, t.size) and first.shape == (t.size,)
    # slot i holds translate floor(scale t) - i, in column first - i ...
    assert np.array_equal(first, np.floor(scale * t) - shift0)
    cols = first - np.arange(width)[:, None]
    valid = (cols >= 0) & (cols < n_cols)
    assert not values[~valid].any()
    # ... its value is the dense entry, bit for bit ...
    rows = np.broadcast_to(np.arange(t.size), cols.shape)
    assert np.array_equal(values[valid], dense[rows[valid], cols[valid]])
    # ... and the slots hold every nonzero of the row
    assert np.array_equal(_scatter(values, first, n_cols), dense)


def test_supported_translates_random_weights_and_shifts():
    rng = np.random.default_rng(13)
    # -1e-20: the fraction of scale * t rounds up to 1, so the zeroth power
    # counts one term more than the slot index
    t = np.concatenate([np.arange(65) / 64.0, rng.uniform(-0.2, 1.2, 200), [-1e-20]])
    rows = np.arange(t.size)
    for expo, cutoff in ((0.0, 3.0), (1.0, 6.5), (3.5, 10.0)):
        width = math.floor(cutoff) + 1
        # weight vectors shorter and longer than the window of a point
        for n_weights in (max(width - 2, 1), width + 4):
            w = rng.standard_normal(n_weights)
            for scale in (8.0, 16.0, 32.0):
                shift0 = float(rng.integers(-12, 4))
                n_cols = int(rng.integers(3, 45))
                args = (scale, shift0, n_cols, w, expo, cutoff)
                values, first = kernels.supported_translates(t, *args)
                dense = column_loop_basis_matrix(t, *args)
                r = np.floor(scale * t) - np.arange(width)[:, None]
                valid = (r >= shift0) & (r < shift0 + n_cols)
                assert not values[~valid].any()
                cols = (first - np.arange(width)[:, None])[valid]
                assert np.array_equal(values[valid], dense[np.broadcast_to(rows, r.shape)[valid], cols])
                assert np.array_equal(_scatter(values, first, n_cols), dense)
