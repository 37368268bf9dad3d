"""Special functions used by the spline machinery.

The generalised binomial row and Kummer's 1F1.  The gamma function that
normalises every truncated power is the standard library's ``math.gamma``;
every argument the package passes it is above 1/2, away from its poles.
"""

import math

import numpy as np

__all__ = [
    "PoleError",
    "ConvergenceError",
    "binomial_row",
    "kummer_1f1",
]


class PoleError(ValueError):
    """Evaluation requested at a pole of the function."""


class ConvergenceError(RuntimeError):
    """A series did not reach the requested tolerance within the term cap."""


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


# The 1F1 series: a term ratio below KUMMER_REL_TOL ends an element's sum,
# KUMMER_MAX_TERMS terms without that is a ConvergenceError, and
# |z| > KUMMER_MAX_ABS_Z is refused before any term.
KUMMER_REL_TOL = 1e-14
KUMMER_MAX_TERMS = 500
KUMMER_MAX_ABS_Z = 50.0


def kummer_1f1(a: float, b: float, z):
    """Confluent hypergeometric function 1F1(a; b; z) by its power series,
    elementwise over a scalar (giving a ``complex``) or array ``z``.

    Each element stops taking terms at its own convergence, so its value
    does not depend on the rest of the array.  The series is fine for the
    moderate arguments this package needs (|z| <= pi * T in practice);
    ``KUMMER_MAX_ABS_Z`` guards against silent cancellation blow-up outside
    that regime.

    Raises
    ------
    PoleError
        If ``b`` is zero or a negative integer.
    ConvergenceError
        If some term ratio has not dropped below ``KUMMER_REL_TOL`` after
        ``KUMMER_MAX_TERMS`` terms, or some sum is not finite.
    ValueError
        If some ``|z| > KUMMER_MAX_ABS_Z``.
    """
    if b <= 0.0 and float(b) == math.floor(b):
        raise PoleError(f"1F1 undefined for non-positive integer b = {b!r}")
    z = np.asarray(z, dtype=np.complex128)
    size = float(np.abs(z).max(initial=0.0))
    if size > KUMMER_MAX_ABS_Z:
        raise ValueError(f"|z| = {size:g} exceeds the series guard {KUMMER_MAX_ABS_Z:g}")
    total = np.ones_like(z)
    term = np.ones_like(z)
    live = np.ones(z.shape, dtype=bool)
    for k in range(KUMMER_MAX_TERMS):
        term *= (a + k) / (b + k) * z / (k + 1)
        np.add(total, term, out=total, where=live)
        # written so that a NaN term never counts as converged
        live &= ~(np.abs(term) <= KUMMER_REL_TOL * np.abs(total))
        if not live.any():
            break
    if live.any() or not np.isfinite(total).all():
        raise ConvergenceError(f"1F1 series did not reach a finite sum in {KUMMER_MAX_TERMS} terms for a={a}, b={b}")
    return complex(total) if z.ndim == 0 else total
