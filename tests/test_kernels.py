"""Kernel fills against the column-by-column oracle, bit for bit only at the
points whose slot arguments are floats, where both evaluate the same
arguments, and tables and slots against the sums at their exact arguments,
within a bound stated here."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fracspline import kernels
from fracspline.assembly import gauss_rule
from fracspline.bspline import FractionalBSpline
from kernel_oracle import column_loop_basis_matrix, exact_translate_sums

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
    # bit for bit where the table's arguments are the kernel's, at every
    # dyadic point; test_slots_within_eps_of_exact_sums bounds the others
    same = _float_args(t, args[0], args[4], _table_width(t, *args))
    assert same.all() or points == "random"
    assert np.array_equal(got[same], want[same])


def test_basis_matrix_random_weights_and_shifts():
    rng = np.random.default_rng(11)
    t = np.concatenate([np.arange(65) / 64.0, rng.uniform(-0.2, 1.2, 200)])
    # the one-column table on wide arguments is the sum the spline evaluates
    # itself through; the pairs after the third add the zeroth power and a
    # negative exponent without a cutoff and integer powers cut at a finite one
    wide = np.random.default_rng(42).uniform(-3.0, 15.0, 257)
    pairs = ((0.0, 3.0), (3.5, 10.0), (2.7, math.inf), (0.0, math.inf),
             (-0.3, math.inf), (-0.3, 4.0), (3.0, 4.0), (3.0, 10.0), (2.5, 4.0))
    for expo, cutoff in pairs:
        w = rng.standard_normal(9)
        for pts, scale, shift0, n_cols in (
            (t, 8.0, -3.0, 13), (t, 32.0, -9.0, 41), (t, 16.0, 2.0, 5), (wide, 1.0, 0.0, 1)
        ):
            args = (scale, shift0, n_cols, w, expo, cutoff)
            got, want = kernels.basis_matrix(pts, *args), column_loop_basis_matrix(pts, *args)
            same = _float_args(pts, scale, expo, _table_width(pts, *args))
            assert same[:65].all() or pts is wide
            assert np.array_equal(got[same], want[same])
    # a cutoff is a number of slots: an integer or inf
    with pytest.raises(ValueError, match="cutoff"):
        kernels.basis_matrix(t, 8.0, -3.0, 13, rng.standard_normal(9), 1.0, 6.5)
    # a point at nan or +-inf has no translate in the table, and raises no
    # invalid-value warning (which the test configuration makes an error)
    odd = np.array([0.5, np.nan, np.inf, -np.inf])
    for expo, cutoff in ((3.0, 4.0), (3.5, 10.0), (2.5, math.inf), (0.0, math.inf)):
        table = kernels.basis_matrix(odd, 16.0, -9.0, 25, np.ones(12), expo, cutoff)
        assert table[0].any() and not table[1:].any()


def _widened(t, first, width, scale, shift0, weights, expo):
    """The dense table, cut at ``width``, over every column the slots reach,
    on the table or off it, and the column of each slot in it: slot i of a
    point sits in column ``first - i`` of the table that starts at
    ``shift0``."""
    cols = first - np.arange(width)[:, None]
    lo = int(cols.min())
    dense = column_loop_basis_matrix(t, scale, shift0 + lo, int(cols.max()) - lo + 1, weights, expo, float(width))
    return dense, cols - lo


def _assert_slots_are_the_dense_rows(t, values, cols, dense):
    """Every slot bit for bit, sign of zero included, and every nonzero of a
    row in its slots."""
    rows = np.broadcast_to(np.arange(t.size), cols.shape)
    assert np.array_equal(values.view(np.uint64), dense[rows, cols].view(np.uint64))
    scattered = np.zeros_like(dense)
    np.add.at(scattered, (rows, cols), values)
    assert np.array_equal(scattered, dense)


def _slot_first(t, scale, shift0, expo):
    """The column of slot 0: ``floor(scale t) - shift0``, one less at a knot
    when ``expo`` is not an integer, so that the cutoff's own argument falls
    in the last slot."""
    st = scale * t
    first = np.floor(st) - shift0
    if not float(expo).is_integer():
        first -= st == np.floor(st)
    return first


def _float_args(t, scale, expo, width):
    """Mask of the points whose slot arguments ``u0 + i``, i < ``width``, are
    all floats, so that the dense table's twice-rounded arguments are the
    kernel's: the last slot's, the largest, is the most coarsely rounded.
    Every knot is one, and so is every dyadic point whose denominator is a
    few powers of two beyond ``scale``."""
    st = scale * t
    u0 = st - np.floor(st)
    if not float(expo).is_integer():
        u0[u0 == 0.0] = 1.0  # a knot is the right end of the unit to its left
    return (u0 + (width - 1)) - (width - 1) == u0


def _table_width(t, scale, shift0, n_cols, weights, expo, cutoff):
    """The table's slot count: the slots up to its last column, at most the
    cutoff."""
    return int(min(cutoff, _slot_first(t, scale, shift0, expo).max() + 1))


def _supported(t, width, *args):
    """The kernel's slots of ``t`` for a sum cut at ``width``, in fresh scratch."""
    return kernels.supported_translates(t, *args, np.empty((3, width, t.size)))


@pytest.mark.parametrize("points", ["grid", "random"])
@pytest.mark.parametrize(
    "degree,scale,shift0,n_cols,cutoff",
    [
        (3.0, 8.0, -3.0, 11, 4.0),  # spatial cubic at j = 3
        (4.0, 16.0, -4.0, 20, 5.0),  # an odd support, whose middle slot takes either end
        (3.5, 16.0, -9.0, 25, None),  # temporal beta 3.5 at s = 4
        (2.5, 16.0, -13.0, 29, None),
        (0.0, 16.0, 0.0, 16, 1.0),
        (-0.3, 16.0, -3.0, 21, None),  # negative degree
    ],
)
def test_supported_translates_equal_dense_table(degree, scale, shift0, n_cols, cutoff, points):
    # the cutoff is the spline's effective support (None: the scanned one)
    sp = FractionalBSpline(degree)
    width = sp.effective_support
    assert cutoff in (None, width)
    # every knot of a basis of n_cols translates, where a cutoff's own
    # argument can be live; the slots of its end points reach past it
    knots = np.arange(shift0, shift0 + n_cols + 1) / scale
    t = np.concatenate([_points(points), [0.0, 1.0], knots[knots >= 0.0]])
    args = (scale, shift0, sp.value_weights, degree)
    values, first = _supported(t, width, *args)
    assert values.shape == (width, t.size) and first.shape == (t.size,)
    # slot i holds translate floor(scale t) - i (one less at a knot), in
    # column first - i, and its value is the dense entry, with no table edge
    assert np.array_equal(first, _slot_first(t, scale, shift0, degree))
    dense, cols = _widened(t, first, width, *args)
    # bit for bit where the table's arguments are the kernel's, at every
    # dyadic point; test_slots_within_eps_of_exact_sums bounds the others
    same = _float_args(t, scale, degree, width)
    assert same.all() or points == "random"
    _assert_slots_are_the_dense_rows(t[same], values[:, same], cols[:, same], dense[same])


def test_supported_translates_random_weights_and_shifts():
    rng = np.random.default_rng(13)
    # the multiples of 1/64 are knots at every scale
    t = np.concatenate([np.arange(65) / 64.0, rng.uniform(0.0, 1.2, 200)])
    # (3.5, 10) and the last three: exponents that are not integers, where a
    # knot moves to the unit on its left
    for expo, width in ((0.0, 3), (3.5, 10), (2.5, 4), (-0.3, 4), (0.7, 1)):
        # weight vectors shorter and longer than the window of a point
        for n_weights in (max(width - 2, 1), width + 4):
            w = rng.standard_normal(n_weights)
            for scale in (8.0, 16.0, 32.0):
                args = (scale, float(rng.integers(-12, 4)), w, expo)
                values, first = _supported(t, width, *args)
                assert values.shape == (width, t.size)
                assert np.array_equal(first, _slot_first(t, *args[:2], expo))
                dense, cols = _widened(t, first, width, *args)
                same = _float_args(t, args[0], expo, width)
                assert same[:65].all()
                _assert_slots_are_the_dense_rows(t[same], values[:, same], cols[:, same], dense[same])


@pytest.mark.parametrize(
    "degree,scale,shift0,cutoff",
    [
        (3.0, 8.0, -3.0, 4.0),  # spatial cubic at j = 3
        (3.5, 64.0, -9.0, None),  # temporal beta 3.5 at s = 6
    ],
)
def test_scratch_beyond_values_is_free_after_the_call(degree, scale, shift0, cutoff):
    # evaluate works in scratch[1:] once the kernel returns: overwriting it
    # must leave the returned values and columns as a fresh call gives them
    sp = FractionalBSpline(degree)
    width = sp.effective_support
    assert cutoff in (None, width)
    # knots, random points and times whose slot arguments are not all floats
    t = np.concatenate([np.arange(65) / 64.0, _points("random"), [5e-324, 1e-300, 2.0**-60], np.arange(1, 97) / 96])
    args = (scale, shift0, sp.value_weights, degree)
    want_values, want_first = _supported(t, width, *args)
    # scratch wider than the call, as a block's scratch serves a shorter last block
    scratch = np.empty((3, width, t.size + 5))
    values, first = kernels.supported_translates(t, *args, scratch)
    assert np.shares_memory(values, scratch[0])
    for garbage in (np.nan, -0.0, np.inf):
        scratch[1:] = garbage
        assert np.array_equal(values.view(np.uint64), want_values.view(np.uint64))
        assert np.array_equal(first, want_first)


# Every slot and every table entry is the sum at its exact argument to
# within C_EXACT * eps times the sum of its terms' magnitudes, plus C_EXACT
# times the smallest subnormal per term for the terms below the float range.
# The budget covers one rounding of each argument (|expo| eps / 2 after the
# power), of the power, of the product and of each addition; the worst over
# these points is 1.93 eps, at expo 3.5.
C_EXACT = 4


def _exact_points(scale):
    """Points in [0, 1] whose slot arguments are floats and points whose
    slot arguments are not: knots, random points, a non-dyadic grid, points
    an ulp either side of a knot, and tiny and subnormal times."""
    near = np.arange(1.0, 5.0) / scale
    return np.concatenate([
        np.arange(9) / scale, np.arange(9) / 8, np.random.default_rng(3).uniform(0.0, 1.0, 16),
        np.arange(1, 25) / 24, np.linspace(0.0, 1.0, 1024)[1:9],
        near * (1.0 + 2.0**-52), near * (1.0 - 2.0**-53), [5e-324, 1e-300, 2.0**-60],
    ])


def _assert_within_eps_of_exact(t, got, exact, magnitude, terms):
    """Each entry of ``got``, a sum of at most ``terms`` terms at ``t`` (all
    broadcast to its shape), within the C_EXACT bound of ``exact``; exactly
    0 where it has no live term."""
    t, terms = np.broadcast_to(t, got.shape), np.broadcast_to(terms, got.shape)
    dead = (magnitude == 0.0) & (exact == 0)
    assert np.all(got[dead] == 0.0)
    eps, tiny = Fraction(2) ** -52, Fraction(2) ** -1074
    for idx in zip(*np.nonzero(~dead)):
        error = abs(Fraction(got[idx]) - exact[idx])
        assert error <= C_EXACT * (eps * Fraction(magnitude[idx]) + int(terms[idx]) * tiny), (
            f"t = {t[idx]!r}, entry {idx}: error {float(error):.3e}, magnitude {magnitude[idx]:.3e}"
        )


@pytest.mark.parametrize("s", [4, 6, 8])
@pytest.mark.parametrize("degree", [-0.3, 0.0, 0.5, 2.5, 3.0, 3.5, 4.0])
def test_slots_within_eps_of_exact_sums(degree, s):
    sp = FractionalBSpline(degree)
    width, scale, weights = sp.effective_support, float(2**s), sp.value_weights
    shift0, n_cols = float(1 - width), 2**s + width - 1
    t = _exact_points(scale)
    values, first = _supported(t, width, scale, shift0, weights, degree)
    # the points whose last slot argument is not a float (a sum cut at 1 has
    # one slot, whose argument u0 always is)
    assert (~_float_args(t, scale, degree, width)).sum() >= 10 or width == 1
    # slot i holds translate first - i; the translates either side of the
    # slots, i = -1 and i = width, must be 0 at their exact arguments
    r = shift0 + first - np.arange(-1, width + 1)[:, None]
    exact, magnitude = exact_translate_sums(t, scale, r, weights, degree, float(width))
    assert np.all(magnitude[[0, -1]] == 0.0)
    sums = exact[1:-1], magnitude[1:-1], np.broadcast_to(np.arange(1, width + 1)[:, None], values.shape)
    _assert_within_eps_of_exact(t, values, *sums)
    # the value table of a temporal basis (n_cols translates): its entries
    # at the slots' translates are held to the same exact sums, and its rows
    # are the slots bit for bit, 0 at every other translate
    table = kernels.basis_matrix(t, scale, shift0, n_cols, weights, degree, float(width))
    cols = first - np.arange(width)[:, None]
    on = (cols >= 0) & (cols < n_cols)
    rows = np.broadcast_to(np.arange(t.size), cols.shape)
    _assert_within_eps_of_exact(t[rows[on]], table[rows[on], cols[on]], *(a[on] for a in sums))
    scattered = np.zeros_like(table)
    scattered[rows[on], cols[on]] = values[on]
    assert np.array_equal(scattered.view(np.uint64), table.view(np.uint64))


def test_fractional_derivative_table_within_eps_of_exact_sums():
    # the D^gamma table of beta 3.5 at s = 4, gamma 0.5, on the Gauss rule of
    # an error norm: an infinite tail, so every translate left of a point is
    # live there
    sp = FractionalBSpline(3.5)
    t, _ = gauss_rule(4, 5)
    u_max = 16.0 * t.max() + sp.effective_support - 1
    weights, expo, cutoff = sp._terms(0.5, u_max)
    assert cutoff == math.inf
    shift0, n_cols = float(1 - sp.effective_support), 16 + sp.effective_support - 1
    assert not _float_args(t, 16.0, expo, int(u_max) + 1).all()
    table = kernels.basis_matrix(t, 16.0, shift0, n_cols, weights, expo, cutoff)
    r = np.repeat(shift0 + np.arange(n_cols)[:, None], t.size, axis=1)
    exact, magnitude = exact_translate_sums(t, 16.0, r, weights, expo, cutoff)
    # an entry at slot i = first - column has at most i + 1 live terms
    terms = _slot_first(t, 16.0, shift0, expo) - np.arange(n_cols)[:, None] + 1
    _assert_within_eps_of_exact(t, table.T, exact, magnitude, terms)


def test_translate_one_past_the_cutoff_is_no_slot():
    # at t = (1 + 2**-52) / 16 the exact argument of translate -9 at s = 4 is
    # 10 + 2**-52, past the cutoff S = 10 of beta 3.5, so no slot holds it,
    # and the table, whose entries are the slots, holds 0 there
    sp = FractionalBSpline(3.5)
    width, weights = sp.effective_support, sp.value_weights
    t = np.array([(1.0 + 2.0**-52) / 16])
    _, first = _supported(t, width, 16.0, 0.0, weights, 3.5)
    slots = first[0] - np.arange(width)
    assert width == 10 and slots.min() == -8
    exact, magnitude = exact_translate_sums(t, 16.0, np.array([[-9]]), weights, 3.5, float(width))
    assert exact[0, 0] == 0 and magnitude[0, 0] == 0.0
    table = kernels.basis_matrix(t, 16.0, -9.0, 1, weights, 3.5, float(width))
    assert table[0, 0] == 0.0
