"""Special functions used by the spline machinery.

The gamma function normalises every truncated power and is implemented here
once (Lanczos, relative error below 1e-13).  CPython's ``math.gamma`` is its
own, more accurate Lanczos code, not libm's; it is not used because the
Dirichlet bounds of the basis tests rest on the rounding of this one.
"""

import math

import numpy as np

__all__ = [
    "PoleError",
    "ConvergenceError",
    "binomial_row",
    "gamma",
    "kummer_1f1",
]


class PoleError(ValueError):
    """Evaluation requested at a pole of the function."""


class ConvergenceError(RuntimeError):
    """A series did not reach the requested tolerance within the term cap."""


# Lanczos approximation, g = 7, 9 coefficients.  Relative error below
# 1e-13 on the reflection-reduced domain, which is ample for the
# double-precision pipeline built on top.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Euler gamma function of a real argument.

    Raises
    ------
    PoleError
        If ``x`` is zero or a negative integer.
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"gamma argument must be finite, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at non-positive integer {x!r}")
    if x < 0.5:
        # reflection: gamma(x) gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


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
