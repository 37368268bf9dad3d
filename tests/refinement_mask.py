"""Two-scale mask of the fractional B-spline: the reference the refinement
equation is checked against.

``B(t) = sum_k mask(alpha, K)[k] * B(2 t - k)`` for the degree-``alpha``
spline, up to the tail cut at ``K``.
"""

from __future__ import annotations

import numpy as np

from fracspline.specfun import binomial_row


def mask(alpha: float, k_max: int) -> np.ndarray:
    """Two-scale mask ``2**-alpha C(alpha+1, k)``; its full sum is 2."""
    return 2.0 ** (-alpha) * binomial_row(alpha + 1.0, k_max)
