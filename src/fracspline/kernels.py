"""Evaluation kernels: translate tables of one truncated-power sum.

Every table holds dilated integer translates of one truncated-power sum,
``f(scale * t - r)``; the spline's own values are a one-column table.  An
entry depends on its argument alone and is exactly 0 outside ``(0,
cutoff]`` (``[0, cutoff]`` for the zeroth power; an integer power also at a
finite cutoff).  ``basis_matrix`` evaluates the sum once per distinct
argument that can be nonzero (on dyadic grids they repeat along the
diagonals, so a table costs about one column); ``supported_translates``
returns only the translates that can be nonzero at each point, as slot
values and one integer column per point, for a caller that evaluates a
block of points at a time in scratch it reuses.
"""

import math

import numpy as np

__all__ = ["basis_matrix", "supported_translates"]


def _power_sum(u, w, expo):
    """``sum_k w[k] * (u - k)_+**expo`` on a contiguous float64 vector, with
    no cutoff.  ``(u - k)_+`` counts where ``u - k > 0`` (``>= 0`` when
    ``expo == 0``, so the zeroth power is right-continuous at the knot);
    ``expo`` may be negative but must stay above -1/2."""
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


def _past(u, expo, cutoff):
    """Mask of the arguments beyond the cutoff (an integer power with a
    finite cutoff is also 0 at the cutoff itself)."""
    return u >= cutoff if float(expo).is_integer() and math.isfinite(cutoff) else u > cutoff


def _live(u, expo, cutoff):
    """Mask of the arguments at which the truncated-power sum can be nonzero."""
    return (u >= 0.0 if expo == 0.0 else u > 0.0) & ~_past(u, expo, cutoff)


def basis_matrix(t, scale, shift0, n_cols, weights, expo, cutoff):
    """Tabulate dilated translates of one truncated-power sum.

    ``out[i, c] = _power_sum(scale * t[i] - (shift0 + c))`` for ``c = 0 ..
    n_cols-1``, zeroed outside ``_live`` (``cutoff = np.inf``: no cutoff).
    The sum is evaluated once per distinct live argument with the float
    operations of ``_power_sum``, so the table is bit-identical to filling
    it column by column.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    u = scale * t[:, None] - (shift0 + np.arange(n_cols))
    live = _live(u, expo, cutoff)
    args, inverse = np.unique(u[live], return_inverse=True)
    out = np.zeros_like(u)
    out[live] = _power_sum(args, np.ascontiguousarray(weights, dtype=np.float64), expo)[inverse]
    return out


def _unit_step_sum(u0, w, expo, out, power, term):
    """``_power_sum`` of the arguments ``u0 + i`` of every point into ``out``,
    slot-major, shape (slots, points), for ``0 <= u0 < 1``; ``power`` and
    ``term`` are scratch of the same shape.

    Term k of slot i has argument ``u0 + i - k`` for k <= i and a negative
    one for k > i, so one truncated power per slot serves every term; the
    terms are added in the order of ``_power_sum``.  Only slot 0 can hold a
    zero argument, where ``0**expo`` is 0 (1 for the zeroth power, which
    counts ``u == 0``) and a negative ``expo`` is kept out.
    """
    width = out.shape[0]
    np.add(u0, np.arange(width, dtype=np.float64)[:, None], out=power)
    if expo < 0.0:
        np.power(power, expo, out=power, where=power > 0.0)
    else:
        np.power(power, expo, out=power)
    out.fill(0.0)
    for k, wk in enumerate(w[:width].tolist()):
        np.multiply(power[: width - k], wk, out=term[k:])
        np.add(out[k:], term[k:], out=out[k:])
    return out


def supported_translates(t, scale, shift0, n_cols, weights, expo, cutoff, scratch=None):
    """The translates of ``basis_matrix`` that can be nonzero at each point.

    Translate ``r = shift0 + c`` is live at ``t`` only if ``0 <= scale * t -
    r <= cutoff``, so the ``floor(cutoff) + 1`` translates ``r =
    floor(scale * t) - i`` cover every nonzero entry of a row.  Returns
    ``(values, first)``: ``values`` slot-major, shape ``(floor(cutoff) + 1,
    len(t))``, and ``first``, the column ``floor(scale * t) - shift0`` of
    slot 0 as one integer per point; slot i sits in column ``first - i``.
    ``values[i, p]`` is bit-identical to ``basis_matrix(...)[p, first[p] -
    i]`` where that column lies in ``0 .. n_cols-1``, and 0 where it does
    not.  ``cutoff`` must be finite.  A caller that goes block by block
    passes ``scratch``, a float64 array of shape ``(3, floor(cutoff) + 1,
    m)`` with ``m >= len(t)``, for the call to work in instead of
    allocating; ``values`` is then a view of ``scratch[0]``.

    The arguments of a point are ``u[i] = scale * t - r``, its fraction
    ``u0`` plus i.  Where that sum is exact, the point needs one truncated
    power per slot instead of one per slot and term (``_unit_step_sum``),
    and only the last slot can pass the cutoff.  The sum is exact in every
    slot exactly when it is in the last one, whose argument is the largest
    and so the most coarsely rounded; then ``u0 + i`` equals ``u[i]`` bit
    for bit.  The other points, whose fraction has bits below the unit in
    the last place of ``u[i]`` (small or negative ``scale * t``), are
    summed term by term.  Either way each sum adds its terms one at a time
    in the order of ``_power_sum``, so a value does not depend on the other
    points of the call.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    width = int(cutoff) + 1
    top = width - 1
    n = t.shape[0]
    if scratch is None:
        scratch = np.empty((3, width, n))
    values, power, term = scratch[:, :, :n]
    st = scale * t
    fl = np.floor(st)
    first = (fl - shift0).astype(np.intp)
    u0 = st - fl
    u_top = st - (fl - top)
    _unit_step_sum(u0, w, expo, values, power, term)
    np.copyto(values[top], 0.0, where=_past(u_top, expo, cutoff))
    # u0 == 1 can come from rounding when scale * t < 0
    rest = ((u_top - top != u0) | (u0 >= 1.0)).nonzero()[0]
    steps = np.arange(width)[:, None]
    if rest.size:
        u = st[rest] - (fl[rest] - steps)
        vals = _power_sum(u.ravel(), w, expo).reshape(u.shape)
        vals[~_live(u, expo, cutoff)] = 0.0
        values[:, rest] = vals
    # points with a slot off either end of the table
    edge = ((first < top) | (first >= n_cols)).nonzero()[0]
    if edge.size:
        cols = first[edge] - steps
        vals = values[:, edge]
        vals[(cols < 0) | (cols >= n_cols)] = 0.0
        values[:, edge] = vals
    return values, first
