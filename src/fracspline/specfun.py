"""Special functions used by the spline machinery.

The generalised binomial row.  The gamma function that normalises every
truncated power is the standard library's ``math.gamma``; every argument
the package passes it is above 1/2, away from its poles.  Example 2's
``D_t^gamma sin(pi t)`` is its own real power series, summed in
``problems.example2``.
"""

import numpy as np

__all__ = ["binomial_row"]


def binomial_row(alpha: float, k_max: int) -> np.ndarray:
    """Generalised binomial coefficients ``alpha choose k``, k = 0..k_max.

    Computed by the multiplicative recurrence
    ``C(alpha, k) = C(alpha, k-1) * (alpha - k + 1) / k`` so that no gamma
    evaluation near a pole is involved; for integer ``alpha`` the product
    hits an exact zero factor once ``k > alpha`` instead of a 0/0.
    """
    if k_max < 0:
        raise ValueError(f"binomial order must be non-negative, got {k_max}")
    k = np.arange(1, k_max + 1, dtype=np.float64)
    out = np.empty(k_max + 1, dtype=np.float64)
    out[0] = 1.0
    if k_max:
        out[1:] = np.cumprod((alpha - k + 1.0) / k)
    return out
