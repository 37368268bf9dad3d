"""Evaluation kernels: truncated-power sums and their translate tables.

Every basis table is a set of dilated integer translates of one
truncated-power sum, ``f(scale * t - r)``.  An entry depends on its
argument alone, and it is exactly 0 outside ``(0, cutoff]`` (``[0,
cutoff]`` for the zeroth power).  The table fills use both facts: they
evaluate the sum only on the arguments that can be nonzero, each distinct
argument once, and scatter the values back.  On dyadic grids the arguments
repeat along the diagonals, so a table costs about one column.
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
        Arguments ``u > cutoff`` evaluate to exactly 0.  Pass ``np.inf`` to
        disable truncation.

    Returns
    -------
    ndarray, shape (n,)
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    out = _power_sum(u, np.ascontiguousarray(weights, dtype=np.float64), expo)
    out[u > cutoff] = 0.0
    return out


def _live(u, expo, cutoff):
    """Mask of the arguments at which the truncated-power sum can be nonzero."""
    return (u >= 0.0 if expo == 0.0 else u > 0.0) & (u <= cutoff)


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


def supported_translates(t, scale, shift0, n_cols, weights, expo, cutoff):
    """The translates of ``basis_matrix`` that can be nonzero at each point.

    Translate ``r = shift0 + c`` is live at ``t`` only if ``0 <= scale * t -
    r <= cutoff``, so the ``floor(cutoff) + 1`` translates ``r =
    floor(scale * t) - i`` cover every nonzero entry of a row.  Returns
    ``(values, cols)``, both of shape ``(len(t), floor(cutoff) + 1)``:
    ``values[p, i]`` is bit-identical to ``basis_matrix(...)[p, cols[p,
    i]]``.  Translates outside ``0 .. n_cols-1`` get value 0 and column 0.
    ``cutoff`` must be finite.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    st = scale * t
    r = np.floor(st)[:, None] - np.arange(int(cutoff) + 1)
    cols = (r - shift0).astype(np.intp)
    valid = (cols >= 0) & (cols < n_cols)
    u = st[:, None] - r
    live = valid & _live(u, expo, cutoff)
    values = np.zeros_like(u)
    values[live] = _power_sum(u[live], np.ascontiguousarray(weights, dtype=np.float64), expo)
    cols[~valid] = 0
    return values, cols
