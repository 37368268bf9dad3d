"""The references the kernel fills are checked against.

``column_loop_basis_matrix`` fills a table the direct way, one
``column_loop_truncated_power_sum`` call per column over every point, with
no support restriction and no reuse of repeated arguments.  It rounds each
argument ``scale * t - r`` before it subtracts a term's integer, so
``kernels.basis_matrix`` and ``kernels.supported_translates``, which sum
at the exact argument, reproduce it bit for bit only at the points whose
slot arguments are floats (every dyadic point and knot, and the spline's
own values at scale 1).  ``exact_translate_sums`` is the sum at the exact
argument of a translate, which both kernel entries are held to at every
point.  Slow on large tables; use them in tests only.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np


def column_loop_truncated_power_sum(u, weights, expo, cutoff):
    """``sum_k weights[k] * (u - k)_+**expo``, zeroed above ``cutoff`` (at
    and above it for an integer ``expo``).

    A compactly supported sum, an integer ``expo >= 1`` cut at a finite ``S
    > expo``, is summed from the nearer end of its support: from ``S/2`` on
    it is ``(-1)**(S-1-expo) sum_k weights[k] * (S - u - k)_+**expo``, each
    argument ``(S - k) - u`` rounded once."""
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
    if 1.0 <= expo < cutoff < math.inf and float(expo).is_integer():
        sign = -1.0 if (cutoff - 1 - expo) % 2 else 1.0
        right = np.zeros_like(u)
        for k in range(w.shape[0]):
            v = (cutoff - k) - u
            m = v > 0.0
            right[m] += sign * w[k] * v[m] ** expo
        out = np.where(u >= cutoff / 2, right, out)
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


def exact_translate_sums(t, scale, r, weights, expo, cutoff):
    """``sum_k weights[k] * (u - k)_+**expo`` at the exact argument ``u =
    scale * t[p] - r[i, p]`` of each translate ``r[i, p]`` of each point,
    zeroed where ``column_loop_truncated_power_sum`` zeroes it, for a
    power-of-two ``scale``.  Returns it as an object array of ``r``'s shape
    holding ``Fraction``s, and the sum of its terms' magnitudes as a float64
    array.  Each term's argument is exact (a point's precision spans every
    bit of ``scale * t``, subnormal ``t`` included, up to the integer part),
    its power is rounded to at least 128 bits, and the terms are summed
    exactly, as integers scaled to a common power of two."""
    w = [wk.as_integer_ratio() for wk in map(float, weights)]  # denominators are powers of two
    integer = float(expo).is_integer() and math.isfinite(cutoff)
    value = np.empty(r.shape, dtype=object)
    magnitude = np.empty(r.shape)
    for p, tp in enumerate(np.asarray(t, dtype=np.float64).tolist()):
        st = tp * scale  # exact: a float times a power of two
        low = mpmath.mpf(st).man_exp[1]  # the weight of the last bit of st
        powers = {}  # (st - n)**expo by integer n = r + k, as (mantissa, exponent)
        for i, rp in enumerate(r[:, p].tolist()):
            rp, terms = int(rp), []
            # st - rp compared with the cutoff exactly, as st with rp + cutoff
            if not (st >= rp + cutoff if integer else st > rp + cutoff):
                # the terms whose argument st - n, n = rp + k, is live: a prefix
                for (num, den), n in zip(w, range(rp, rp + len(w))):
                    if not (n < st or (expo == 0.0 and n == st)):
                        break
                    if n not in powers:
                        with mpmath.workprec(max(128, 64 - low)):
                            powers[n] = ((mpmath.mpf(st) - n) ** expo).man_exp
                    man, exp = powers[n]
                    terms.append((num * man, exp - (den.bit_length() - 1)))
            low_exp = min((exp for _, exp in terms), default=0)
            total = sum(man << (exp - low_exp) for man, exp in terms)
            size = sum(abs(man) << (exp - low_exp) for man, exp in terms)
            unit = Fraction(2) ** low_exp
            value[i, p], magnitude[i, p] = total * unit, float(size * unit)
    return value, magnitude
