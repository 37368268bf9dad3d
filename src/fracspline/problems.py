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

from .specfun import kummer_1f1

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
    ``sin(pi t)`` is expressed through the confluent hypergeometric
    function: ``D^g sin(wt) = w t**(1-g) Re 1F1(1; 2-g; iwt) / gamma(2-g)``.
    """
    if not 0.0 < order < 1.0:
        raise ValueError(f"derivative order must lie in (0, 1), got {order!r}")
    w = math.pi
    norm = w / math.gamma(2.0 - order)

    def forcing(t, x):
        tt = np.asarray(t, dtype=np.float64)
        xx = np.asarray(x, dtype=np.float64)
        # t**(1 - order) makes the part 0 at t = 0, where 1F1 is 1
        dt_part = norm * tt ** (1.0 - order) * kummer_1f1(1.0, 2.0 - order, 1j * w * tt).real
        return dt_part * np.sin(w * xx) + w**2 * np.sin(w * tt) * np.sin(w * xx)

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
