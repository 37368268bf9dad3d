"""Manufactured benchmark problems.

Both ship the exact solution together with the forcing that makes it solve
``D_t^gamma u - u_xx = f`` with homogeneous initial and boundary data, so
every solve can be checked against a known field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["ProblemSpec", "example1", "example2"]


@dataclass(frozen=True)
class ProblemSpec:
    """A forced initial-boundary value problem on [0, T] x [0, 1].

    ``forcing(t, x)`` and ``exact`` (when given) must broadcast over both
    arguments; the load calls ``forcing`` once, on the whole (t, x) grid.
    ``exact_dxx`` is the analytic second space derivative of ``exact``,
    carried along so residual checks do not have to differentiate
    numerically.
    """

    name: str
    order: float
    forcing: Callable
    exact: Optional[Callable] = None
    exact_dxx: Optional[Callable] = None
    horizon: int = 1


def example1(order: float) -> ProblemSpec:
    """Quadratic-in-time manufactured solution ``t**2 sin(2 pi x)``.

    Valid for derivative orders in (0, 1]; the order-1 case is the classical
    heat equation with the same data.
    """
    if not 0.0 < order <= 1.0:
        raise ValueError(f"derivative order must lie in (0, 1], got {order!r}")
    c = 2.0 / math.gamma(3.0 - order)
    w = 2.0 * math.pi

    def forcing(t, x):
        tt = np.asarray(t, dtype=np.float64)
        xx = np.asarray(x, dtype=np.float64)
        return (c * tt ** (2.0 - order) + 4.0 * math.pi**2 * tt**2) * np.sin(w * xx)

    def exact(t, x):
        tt = np.asarray(t, dtype=np.float64)
        xx = np.asarray(x, dtype=np.float64)
        return tt**2 * np.sin(w * xx)

    def exact_dxx(t, x):
        tt = np.asarray(t, dtype=np.float64)
        xx = np.asarray(x, dtype=np.float64)
        return -(w**2) * tt**2 * np.sin(w * xx)

    return ProblemSpec(
        name="example1",
        order=float(order),
        forcing=forcing,
        exact=exact,
        exact_dxx=exact_dxx,
    )


def example2(order: float) -> ProblemSpec:
    """Sinusoidal-in-time manufactured solution ``sin(pi t) sin(pi x)``.

    Valid for derivative orders in (0, 1).  The fractional derivative of
    ``sin(pi t)`` is its real power series,
    ``D^g sin(pi t) = sum_k (-1)**k pi**(2k+1) t**(2k+1-g) / gamma(2k+2-g)``,
    summed from ``pi t**(1-g) / gamma(2-g)`` by the term ratio
    ``-(pi t)**2 / ((2k-g)(2k+1-g))`` until the largest term over the times
    drops below 2**-53 of the largest partial sum, at most 27 terms.  The
    sum alternates, and past t = 3 its cancellation costs more than 1e-12
    relative, so a time outside [0, 3] is refused.
    """
    if not 0.0 < order < 1.0:
        raise ValueError(f"derivative order must lie in (0, 1), got {order!r}")
    w = math.pi
    norm = w / math.gamma(2.0 - order)

    def time_part(tt):
        # written so that a NaN time is refused too
        if not ((0.0 <= tt) & (tt <= 3.0)).all():
            raise ValueError("example 2's forcing series holds for t in [0, 3] only")
        square = (w * tt) ** 2
        term = norm * tt ** (1.0 - order)
        total = term
        k = 1
        while np.max(np.abs(term), initial=0.0) > 2.0**-53 * np.max(np.abs(total), initial=0.0):
            term = term * (-square / ((2 * k - order) * (2 * k + 1 - order)))
            total = total + term
            k += 1
        return total

    def forcing(t, x):
        tt = np.asarray(t, dtype=np.float64)
        xx = np.asarray(x, dtype=np.float64)
        return time_part(tt) * np.sin(w * xx) + w**2 * np.sin(w * tt) * np.sin(w * xx)

    def exact(t, x):
        tt = np.asarray(t, dtype=np.float64)
        xx = np.asarray(x, dtype=np.float64)
        return np.sin(w * tt) * np.sin(w * xx)

    def exact_dxx(t, x):
        tt = np.asarray(t, dtype=np.float64)
        xx = np.asarray(x, dtype=np.float64)
        return -(w**2) * np.sin(w * tt) * np.sin(w * xx)

    return ProblemSpec(
        name="example2",
        order=float(order),
        forcing=forcing,
        exact=exact,
        exact_dxx=exact_dxx,
    )
