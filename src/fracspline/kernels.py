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
times ``sum_k |w[k] (u - k)_+**expo|``.  ``supported_translates`` returns
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
    ``first - i``; there are ``min(cutoff, max(first) + 1)`` slots.
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
    slots = _unit_step_sum(fractions, weights, expo, *np.empty((3, width, fractions.shape[0])))
    # at most min(width, n_cols) slots of a point land in the table, from slot first - n_cols + 1
    i = np.maximum(first - n_cols + 1, 0) + np.arange(min(width, n_cols))[:, None]
    k, p = np.nonzero((i < width) & (i <= first))
    i = i[k, p]
    out[p, first[p] - i] = slots[i, inverse[p]]
    return out


def _unit_step_sum(u0, w, expo, out, power, term):
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
    """
    width = out.shape[0]
    np.add(u0, np.arange(width, dtype=np.float64)[:, None], out=power)
    if expo < 0.0:
        np.power(power, expo, out=power, where=power > 0.0)
    else:
        np.power(power, expo, out=power)
    out.fill(0.0)
    for k, wk in enumerate(np.asarray(w, dtype=np.float64)[:width].tolist()):
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
    _unit_step_sum(u0, weights, expo, values, power, term)
    return values, (fl - shift0).astype(np.intp)
