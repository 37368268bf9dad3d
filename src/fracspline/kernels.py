"""Evaluation kernels: truncated-power sums and their translate tables.

Every basis table is a set of dilated integer translates of one
truncated-power sum, ``f(scale * t - r)``.  An entry depends on its
argument alone, and it is exactly 0 outside ``(0, cutoff]`` (``[0,
cutoff]`` for the zeroth power; an integer power also at a finite cutoff).
The table fills use both facts: they evaluate the sum only on the arguments
that can be nonzero, each distinct argument once, and scatter the values
back.  On dyadic grids the arguments repeat along the diagonals, so a table
costs about one column.
"""

import numpy as np

__all__ = ["truncated_power_sum", "basis_matrix", "supported_translates"]


def _power_sum(u, w, expo):
    """``sum_k w[k] * (u - k)_+**expo`` on a contiguous float64 vector."""
    out = np.zeros_like(u)
    if expo == 0.0:
        for k in range(w.shape[0]):
            out[u - k >= 0.0] += w[k]
    else:
        for k in range(w.shape[0]):
            v = u - k
            m = v > 0.0
            out[m] += w[k] * v[m] ** expo
    return out


def truncated_power_sum(u, weights, expo, cutoff):
    """Evaluate ``sum_k weights[k] * (u - k)_+**expo`` pointwise.

    Parameters
    ----------
    u : ndarray, shape (n,)
        Evaluation arguments.
    weights : ndarray, shape (K,)
        Term weights; the sum runs over all k with ``u - k > 0`` (``>= 0``
        when ``expo == 0``, so the zeroth power is right-continuous at the
        knot).
    expo : float
        Common exponent of the truncated powers.  May be negative but must
        stay above -1/2.
    cutoff : float
        Arguments ``u > cutoff`` (``u >= cutoff`` for an integer ``expo``)
        evaluate to exactly 0.  Pass ``np.inf`` to disable truncation.

    Returns
    -------
    ndarray, shape (n,)
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    out = _power_sum(u, np.ascontiguousarray(weights, dtype=np.float64), expo)
    out[~_live(u, expo, cutoff)] = 0.0
    return out


def _live(u, expo, cutoff):
    """Mask of the arguments at which the truncated-power sum can be nonzero
    (an integer power with a finite cutoff is also 0 at the cutoff itself)."""
    past = u >= cutoff if float(expo).is_integer() and np.isfinite(cutoff) else u > cutoff
    return (u >= 0.0 if expo == 0.0 else u > 0.0) & ~past


def basis_matrix(t, scale, shift0, n_cols, weights, expo, cutoff):
    """Tabulate dilated translates of one truncated-power sum.

    ``out[i, c] = truncated_power_sum(scale * t[i] - (shift0 + c))`` for
    ``c = 0 .. n_cols-1``.  This is the shape shared by every collocation /
    evaluation matrix fill.  The sum is evaluated once per distinct live
    argument; the float operations per entry are those of
    ``truncated_power_sum``, so the table is bit-identical to filling it
    column by column.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    u = scale * t[:, None] - (shift0 + np.arange(n_cols))
    live = _live(u, expo, cutoff)
    args, inverse = np.unique(u[live], return_inverse=True)
    out = np.zeros_like(u)
    out[live] = _power_sum(args, np.ascontiguousarray(weights, dtype=np.float64), expo)[inverse]
    return out


def _unit_step_sum(u, w, expo):
    """``_power_sum`` of every entry of ``u``, shape (slots, points), for
    points whose arguments step by exactly 1 from slot to slot.

    Where ``u[i] == u[0] + i`` holds exactly and ``0 <= u[0] < 1``, term k of
    slot i has argument ``u[i] - k == u[i - k]`` for k <= i and a negative
    one for k > i, so one truncated power per entry serves every term; the
    terms are added in the order of ``_power_sum``.  Entries that are not
    positive (negative, for the zeroth power) carry power 0 and so add
    nothing, which keeps ``0**expo`` out of every sum.
    """
    power = np.zeros_like(u)
    if expo == 0.0:
        power[u >= 0.0] = 1.0
    else:
        np.power(u, expo, out=power, where=u > 0.0)
    out = np.zeros_like(u)
    n = u.shape[0]
    for k in range(min(w.shape[0], n)):
        out[k:] += w[k] * power[: n - k]
    return out


def supported_translates(t, scale, shift0, n_cols, weights, expo, cutoff):
    """The translates of ``basis_matrix`` that can be nonzero at each point.

    Translate ``r = shift0 + c`` is live at ``t`` only if ``0 <= scale * t -
    r <= cutoff``, so the ``floor(cutoff) + 1`` translates ``r =
    floor(scale * t) - i`` cover every nonzero entry of a row.  Returns
    ``(values, cols)`` slot-major, both of shape ``(floor(cutoff) + 1,
    len(t))``, the layout they are computed in: ``values[i, p]`` is
    bit-identical to ``basis_matrix(...)[p, cols[i, p]]``.  Translates
    outside ``0 .. n_cols-1`` get value 0 and column 0.  ``cutoff`` must be
    finite.

    The arguments of a point are ``u[i] = scale * t - r``, a fraction plus
    i.  Where that sum is exact, the point needs one truncated power per
    slot instead of one per slot and term (``_unit_step_sum``); the other
    points, whose fraction has bits below the unit in the last place of
    ``u[i]`` (small or negative ``scale * t``), are summed term by term.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    st = scale * t
    steps = np.arange(int(cutoff) + 1)[:, None]
    # slot-major (slot, point) layout: each slot is one contiguous row
    r = np.floor(st) - steps
    cols = (r - shift0).astype(np.intp)
    valid = (cols >= 0) & (cols < n_cols)
    u = st - r
    live = valid & _live(u, expo, cutoff)
    # u[0] >= 0 always; u[0] == 1 can come from rounding when scale * t < 0
    exact = (u[0] < 1.0) & (u - steps == u[0]).all(axis=0)
    values = _unit_step_sum(u, w, expo)
    rest = live & ~exact
    if rest.any():
        values[rest] = _power_sum(u[rest], w, expo)
    values[~live] = 0.0
    cols[~valid] = 0
    return values, cols
