"""Evaluation kernels: translate tables of one truncated-power sum.

Every table holds dilated integer translates of one truncated-power sum
``f(u) = sum_k w[k] (u - k)_+**expo`` at ``u = scale * t - r``; the spline's
own values are a one-column table.  ``(u - k)_+`` counts where ``u - k >
0`` (``>= 0`` for the zeroth power), and an entry is exactly 0 outside
``(0, cutoff]`` (``[0, cutoff]`` for the zeroth power; an integer power
also at a finite cutoff).  Both entries sum one set of slots: slot i of a
point is the translate ``r = floor(scale * t) - i``, whose argument is
exactly ``u0 + i`` (``u0`` the fraction of ``scale * t``, ``_unit_args``),
and is summed at that exact argument (``_unit_step_sum``), to within 4 eps
times ``sum_k |w[k] (u - k)_+**expo|``.  An integer ``expo >= 1`` cut at a
finite ``S > expo`` is taken to vanish past ``S``, as an integer-degree
spline and its integer-order derivatives do, and is summed from the nearer
end of its support: from ``S/2`` on as ``(-1)**(S-1-expo) f(S - u)``, whose
terms do not cancel.  ``supported_translates`` returns
the slots of each point, for a caller that evaluates a block of points at
a time in scratch it reuses; ``basis_matrix`` scatters them into a dense
table, so table and slots are the same numbers at every point.
"""

import math

import numpy as np

__all__ = ["basis_matrix", "supported_translates"]


def _unit_args(t, scale, expo):
    """``(floor, u0)`` of ``scale * t``, slot i holding translate ``floor -
    i`` at the exact argument ``u0 + i``.  For a sum cut at ``S`` the slots
    i = 0 .. S-1 hold every live argument but the cutoff itself, which is
    live only for an ``expo`` that is not an integer, and only at a knot
    (``u0 == 0``), whose zero argument is not.  So for such an ``expo`` a
    knot is taken as the right end of the unit to its left: ``floor`` one
    less and ``u0 = 1``."""
    st = scale * t
    fl = np.floor(st)
    u0 = st - fl
    if not float(expo).is_integer():
        knot = u0 == 0.0
        fl -= knot
        u0 += knot
    return fl, u0


def basis_matrix(t, scale, shift0, n_cols, weights, expo, cutoff):
    """Tabulate dilated translates of one truncated-power sum.

    ``out[p, c]`` is the sum at the exact argument ``scale * t[p] - (shift0
    + c)``, ``c = 0 .. n_cols-1``, cut at ``cutoff``, an integer or
    ``np.inf`` (a non-integer raises ``ValueError``); a row of a non-finite
    ``t`` is 0.  The slots are summed once per distinct fraction ``u0`` (a
    handful on a dyadic grid) and slot i of a point is written to column
    ``first - i``, for the ``min(cutoff, max(first) + 1)`` slots that reach
    the table.
    """
    if math.isfinite(cutoff) and not float(cutoff).is_integer():
        raise ValueError(f"cutoff must be an integer or inf, got {cutoff!r}")
    t = np.ascontiguousarray(t, dtype=np.float64)
    finite = np.isfinite(t)
    fl, u0 = _unit_args(np.where(finite, t, 0.0), scale, expo)
    first = np.where(finite, fl - shift0, -1).astype(np.intp)  # no slot at nan or +-inf
    out = np.zeros((t.shape[0], n_cols))
    width = int(min(cutoff, first.max(initial=-1) + 1))
    if width <= 0:
        return out
    fractions, inverse = np.unique(u0, return_inverse=True)
    # every slot of a finite cutoff: a compactly supported sum takes the
    # slots past S/2 from the mirror of those before it
    n_slots = int(cutoff) if math.isfinite(cutoff) else width
    slots = _unit_step_sum(fractions, weights, expo, cutoff, *np.empty((3, n_slots, fractions.shape[0])))
    # at most min(width, n_cols) slots of a point land in the table, from slot first - n_cols + 1
    i = np.maximum(first - n_cols + 1, 0) + np.arange(min(width, n_cols))[:, None]
    k, p = np.nonzero((i < width) & (i <= first))
    i = i[k, p]
    out[p, first[p] - i] = slots[i, inverse[p]]
    return out


def _unit_step_sum(u0, w, expo, cutoff, out, power, term):
    """The sums at the arguments ``u0 + i`` of every point into ``out``,
    slot-major, shape (slots, points), for ``0 <= u0 < 1`` (``u0 == 1`` only
    for an ``expo`` that is not an integer); ``power`` and ``term`` are
    scratch of the same shape.

    Term k of slot i has argument ``u0 + i - k``, power row ``i - k`` (each
    argument rounded once, from its exact value).  For k > i it is below 0,
    or 0 at ``u0 == 1``, which counts for the zeroth power alone, so one
    truncated power per slot serves every term; the terms are added in the
    order of k, so a slot does not depend on the other points.  Only slot 0
    can hold a zero argument, where ``0**expo`` is 0 (1 for the zeroth
    power, which counts ``u == 0``) and a negative ``expo`` is kept out.

    A compactly supported sum, an integer ``expo >= 1`` cut at a finite
    ``S > expo`` (an integer degree at an integer order below it), takes
    every slot from the nearer end of its support, as the sum cancels
    towards the far end: ``out`` then holds all ``S`` slots, and slot i with
    ``u0 + i >= S/2`` is ``(-1)**(S-1-expo)`` times slot ``S-1-i`` at the
    fraction ``1 - u0``, whose arguments ``S - i - k - u0`` are again
    rounded once.  Only the middle slot of an odd ``S`` depends on ``u0``.
    """
    width = out.shape[0]
    w = np.asarray(w, dtype=np.float64)
    rows = np.arange(width + 1, dtype=np.float64)[:, None]
    if not (1.0 <= expo < cutoff < math.inf and float(expo).is_integer()):
        return _sum_rows(np.add(u0, rows[:width], out=power), w, expo, out, term)
    n = (width + 1) // 2  # slots from each end, the middle one of an odd S from both
    odd = width % 2
    _sum_rows(np.add(u0, rows[:n], out=power[:n]), w, expo, out[:n], term[:n])
    if odd:  # the middle slot from the left, in the row of term the right end leaves free
        np.copyto(term[-1], out[n - 1])
    # slot S - 1 - j at the fraction 1 - u0, argument j + 1 - u0, j < n
    sign = -1.0 if (width - 1 - expo) % 2 else 1.0
    right = np.subtract(rows[1 : n + 1], u0, out=power[:n])
    _sum_rows(right, sign * w, expo, out[::-1][:n], term[:n])
    if odd:
        np.putmask(out[n - 1], u0 < 0.5, term[-1])  # a third of copyto's where= time
    return out


def _sum_rows(power, w, expo, out, term):
    """Row i of ``out``: ``sum_k w[k] * power[i - k]**expo``, k <= i, added
    in the order of k, for arguments ``power``, which it raises in place;
    ``term`` is scratch of their shape."""
    width = out.shape[0]
    if expo < 0.0:
        np.power(power, expo, out=power, where=power > 0.0)
    else:
        np.power(power, expo, out=power)
    out.fill(0.0)
    for k, wk in enumerate(w[:width].tolist()):
        np.multiply(power[: width - k], wk, out=term[k:])
        np.add(out[k:], term[k:], out=out[k:])
    return out


def supported_translates(t, scale, shift0, weights, expo, scratch):
    """The slots of each point ``t >= 0`` for a sum cut at an integer ``S``
    (a spline's value cutoff, its effective support): every translate that
    can be nonzero there.

    The call works in ``scratch``, a C-contiguous float64 array of shape
    ``(3, S, m)`` with ``m >= len(t)``, and reads ``S`` off it.  Returns
    ``(values, first)``: ``values``, a view of ``scratch[0]``, slot-major,
    shape ``(S, len(t))``, and ``first``, the column ``floor - shift0`` of
    slot 0 as one integer per point; slot i sits in column ``first - i``
    and is the ``basis_matrix`` entry there.  There is no table edge: a
    caller whose table ends reads the slots past it against 0
    coefficients.  ``scratch[1:]`` is free once the call returns (nothing
    returned views it), for the caller to overwrite.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    values, power, term = scratch[:, :, : t.shape[0]]
    fl, u0 = _unit_args(t, scale, expo)
    _unit_step_sum(u0, weights, expo, float(values.shape[0]), values, power, term)
    return values, (fl - shift0).astype(np.intp)
