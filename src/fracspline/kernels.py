"""Evaluation kernels: translate tables of one truncated-power sum.

Every table holds dilated integer translates of one truncated-power sum,
``f(scale * t - r)``; the spline's own values are a one-column table.  An
entry depends on its argument alone and is exactly 0 outside ``(0,
cutoff]`` (``[0, cutoff]`` for the zeroth power; an integer power also at a
finite cutoff).  ``basis_matrix`` evaluates the sum once per distinct
argument that can be nonzero (on dyadic grids they repeat along the
diagonals, so a table costs about one column); ``supported_translates``
returns only the translates that can be nonzero at each point, summed at
their exact arguments (bit-identical to the table wherever its arguments
are floats too), as slot values and one integer column per point, for a
caller that evaluates a block of points at a time in scratch it reuses.
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


def _live(u, expo, cutoff):
    """Mask of the arguments at which the truncated-power sum can be nonzero
    (an integer power with a finite cutoff is also 0 at the cutoff itself)."""
    past = u >= cutoff if float(expo).is_integer() and math.isfinite(cutoff) else u > cutoff
    return (u >= 0.0 if expo == 0.0 else u > 0.0) & ~past


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
    slot-major, shape (slots, points), for ``0 <= u0 < 1`` (``u0 == 1`` only
    for an ``expo`` that is not an integer); ``power`` and ``term`` are
    scratch of the same shape.

    Term k of slot i has argument ``u0 + i - k``, power row ``i - k`` (each
    argument rounded once, from its exact value).  For k > i it is below 0,
    or 0 at ``u0 == 1``, which ``_power_sum`` counts for the zeroth power
    alone, so one truncated power per slot serves every term; the terms are
    added in the order of ``_power_sum``.  Only slot 0 can hold a zero
    argument, where ``0**expo`` is 0 (1 for the zeroth power, which counts
    ``u == 0``) and a negative ``expo`` is kept out.
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


def supported_translates(t, scale, shift0, weights, expo, scratch):
    """The translates of ``basis_matrix`` that can be nonzero at each point
    ``t >= 0``, for a sum cut at an integer ``S`` (a spline's value cutoff,
    its effective support).

    The call works in ``scratch``, a C-contiguous float64 array of shape
    ``(3, S, m)`` with ``m >= len(t)``, and reads ``S`` off it.  A
    translate ``r`` is live at ``t`` only where its argument ``scale * t -
    r`` lies in ``[0, S]`` (``_live``).  The ``S`` translates ``r = floor(scale * t) - i``, i
    = 0 .. S-1, have the arguments ``u0 + i``, ``u0`` the fraction of
    ``scale * t``: every live one but the cutoff itself, which is live only
    for an ``expo`` that is not an integer, and only at a knot (``u0 ==
    0``), whose zero argument is not.  So for such an ``expo`` a knot is
    taken as the right end of the unit to its left: every ``r`` one less
    and ``u0 = 1``.  Returns ``(values, first)``: ``values``, a view of
    ``scratch[0]``, slot-major, shape ``(S, len(t))``, and ``first``, the
    column ``r - shift0`` of slot 0 as one integer per point; slot i sits
    in column ``first - i``.  There is no table edge: a caller whose table
    ends reads the slots past it against 0 coefficients.  ``scratch[1:]``
    is free once the call returns (nothing returned views it), for the
    caller to overwrite.

    ``values[i, p]`` is the sum at the exact argument ``u0 + i`` (``u0 =
    scale * t - floor(scale * t)`` is exact), one truncated power per slot
    (``_unit_step_sum``), its terms added in the order of ``_power_sum``,
    so a value does not depend on the other points of the call.  Where
    ``u0 + i`` is a float, as at every dyadic point and knot, it is
    bit-identical to the ``basis_matrix`` entry of translate ``shift0 +
    first[p] - i`` at ``t[p]``.  Elsewhere (a fraction with bits below the
    unit in the last place of ``u0 + i``, at small ``scale * t``) that
    table rounds the argument twice, and the slot is within a few ``eps``
    times ``sum_k |w[k] (u - k)_+**expo|`` of the exact sum.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    values, power, term = scratch[:, :, : t.shape[0]]
    st = scale * t
    fl = np.floor(st)
    u0 = st - fl
    if not float(expo).is_integer():
        knot = u0 == 0.0
        fl -= knot
        u0 += knot
    _unit_step_sum(u0, np.ascontiguousarray(weights, dtype=np.float64), expo, values, power, term)
    return values, (fl - shift0).astype(np.intp)
