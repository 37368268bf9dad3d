"""Caputo derivative by adaptive quadrature: the reference the closed-form rules are checked against.

``caputo_oracle`` integrates the Caputo definition of one scalar function
directly.  The library never calls it: fractional-spline derivatives have a
closed form through the generalized finite-difference operator, and this
slow quadrature only checks that form.  Living here, it keeps
``scipy.integrate`` and the SciPy subpackages that it pulls in out of
``import fracspline``.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional

from scipy import integrate


class ConvergenceError(RuntimeError):
    """The quadrature did not reach its tolerance."""


def caputo_oracle(
    f: Callable[[float], float],
    order: float,
    t: float,
    fprime: Optional[Callable[[float], float]] = None,
    breakpoints=(),
) -> float:
    """Caputo derivative of a scalar function by adaptive quadrature.

    Slow and accurate on purpose: this is the reference the closed-form
    derivative rules are tested against, not a production path.  The kernel
    singularity is removed by the substitution ``sigma = (t - tau)**(1-g)``,
    after which the integrand is as smooth as ``f'``; known kink locations
    of ``f`` can be passed via ``breakpoints`` (in the original variable).

    Raises
    ------
    ConvergenceError
        If the quadrature does not reach its tolerance.
    """
    if not 0.0 < order < 1.0:
        raise ValueError(f"Caputo order must lie in (0, 1), got {order!r}")
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t!r}")
    if t == 0.0:
        return 0.0
    if fprime is None:
        h = 1e-5 * max(1.0, abs(t))

        def fprime(tau, _f=f, _h=h):
            return (
                -_f(tau + 2 * _h)
                + 8.0 * _f(tau + _h)
                - 8.0 * _f(tau - _h)
                + _f(tau - 2 * _h)
            ) / (12.0 * _h)

    p = 1.0 - order
    upper = t**p

    def integrand(sigma):
        return fprime(t - sigma ** (1.0 / p))

    pts = sorted({(t - b) ** p for b in breakpoints if 0.0 < b < t})
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            # request an order tighter than the acceptance gate below, or
            # quad stops at its own default right on top of the gate
            val, abserr = integrate.quad(
                integrand,
                0.0,
                upper,
                points=pts or None,
                limit=200,
                epsabs=1e-10,
                epsrel=1e-10,
            )
        except integrate.IntegrationWarning as exc:
            raise ConvergenceError(f"Caputo quadrature did not converge: {exc}") from exc
    if abserr > 1e-8 * max(1.0, abs(val)):
        raise ConvergenceError(
            f"Caputo quadrature error estimate {abserr:.2e} too large at t={t}"
        )
    return val / math.gamma(2.0 - order)
