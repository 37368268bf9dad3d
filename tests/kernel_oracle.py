"""Column-by-column translate tables: the reference the kernel fills are checked against.

``column_loop_basis_matrix`` fills a table the direct way, one
``truncated_power_sum`` call per column over every point, with no support
restriction and no reuse of repeated arguments.  ``fracspline.kernels``
must reproduce it bit for bit.  Slow on large tables; use it in tests only.
"""

from __future__ import annotations

import math

import numpy as np


def column_loop_truncated_power_sum(u, weights, expo, cutoff):
    """``sum_k weights[k] * (u - k)_+**expo``, zeroed above ``cutoff`` (at
    and above it for an integer ``expo``)."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    out = np.zeros_like(u)
    if expo == 0.0:
        for k in range(w.shape[0]):
            out[u - k >= 0.0] += w[k]
    else:
        for k in range(w.shape[0]):
            v = u - k
            m = v > 0.0
            out[m] += w[k] * v[m] ** expo
    if float(expo).is_integer() and math.isfinite(cutoff):
        # a compactly supported integer-power sum vanishes at its cutoff too
        out[u >= cutoff] = 0.0
    else:
        out[u > cutoff] = 0.0
    return out


def column_loop_basis_matrix(t, scale, shift0, n_cols, weights, expo, cutoff):
    """``out[i, c] = sum(scale * t[i] - (shift0 + c))``, one column at a time."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty((t.shape[0], n_cols), dtype=np.float64)
    for c in range(n_cols):
        out[:, c] = column_loop_truncated_power_sum(
            scale * t - (shift0 + c), weights, expo, cutoff
        )
    return out
