"""Fractional-degree B-splines on the integer knots.

The basic object is the causal spline of degree ``alpha > -1/2`` built from
truncated powers: an alternating binomial sum normalised by ``gamma(alpha+1)``.
For integer degree it reduces to the classical compactly supported B-spline;
for fractional degree the support is the whole half line and evaluation is
truncated at an effective support determined by a tail tolerance.

Derivatives of every order ``nu >= 0`` (Riemann-Liouville / Caputo, which
coincide for these causal functions; ``nu`` = 1, 2, ... the ordinary ones)
share one closed form, the generalized finite difference of a truncated
power: weights ``(-1)**k C(alpha+1, k) / gamma(alpha - nu + 1)`` on ``(u -
k)_+**(alpha - nu)``.  Order 0 is the value.  The sum vanishes beyond the
support ``alpha + 1`` only when both the degree and the order are integers;
otherwise it has an infinite tail.  ``FractionalBSpline._terms`` is the one
place that turns an order into weights, exponent and cutoff, for the
spline's own evaluation (one column of ``kernels.basis_matrix``) and for
every basis table.  The rule holds up to ``nu < alpha + 1/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .specfun import binomial_row

__all__ = ["DEFAULT_TAIL_TOL", "FractionalBSpline"]

# Calibrated so that degree 3.5 gets effective support 10 (the tail maxima
# per unit window sit at 2.1e-7 on (9, 10] and 1.0e-7 on (10, 11]); that is
# the truncation the reported basis sizes are built on.
DEFAULT_TAIL_TOL = 1.5e-7

_SUPPORT_CAP = 64
_SCAN_STEP = 1.0 / 32.0


def _weight_row(degree: float, k_max: int, order: float = 0.0) -> np.ndarray:
    """Truncated-power weights ``(-1)**k C(degree+1, k) / gamma(degree -
    order + 1)``, k = 0..k_max, of the order-``order`` derivative (order 0:
    the value)."""
    signs = np.where(np.arange(k_max + 1) % 2 == 0, 1.0, -1.0)
    return signs * binomial_row(degree + 1.0, k_max) / math.gamma(degree - order + 1.0)


@dataclass(frozen=True)
class FractionalBSpline:
    """Causal B-spline of (possibly fractional) degree on integer knots.

    Parameters
    ----------
    degree : float
        Spline degree ``alpha > -1/2``, finite.
    tail_tol : float
        Threshold below which the decaying tail is treated as zero when the
        effective support is measured.  Integer degrees ignore it (their
        support is exactly ``degree + 1``).

    Attributes
    ----------
    effective_support : int
        Evaluation is truncated to ``[0, effective_support]``; at least
        ``ceil(degree) + 1`` and capped at 64.
    """

    degree: float
    tail_tol: float = DEFAULT_TAIL_TOL

    effective_support: int = field(init=False)
    _vweights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = float(self.degree)
        if not (d > -0.5 and math.isfinite(d)):
            raise ValueError(f"degree must be finite and exceed -1/2, got {d!r}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol!r}")
        object.__setattr__(self, "degree", d)
        if d.is_integer():
            s = int(d) + 1
        else:
            s = self._scan_support(d)
        object.__setattr__(self, "effective_support", s)
        object.__setattr__(self, "_vweights", _weight_row(d, s))

    def _scan_support(self, d: float) -> int:
        lo = math.ceil(d) + 1
        t = np.arange(lo, _SUPPORT_CAP + _SCAN_STEP / 2, _SCAN_STEP)
        w = _weight_row(d, _SUPPORT_CAP)
        vals = kernels.basis_matrix(t, 1.0, 0.0, 1, w, d, math.inf)[:, 0]
        above = t[np.abs(vals) >= self.tail_tol]
        if above.size == 0:
            return lo
        return min(_SUPPORT_CAP, max(lo, math.ceil(above.max())))

    def _terms(self, order: float, u_max: float) -> tuple[np.ndarray, float, float]:
        """``(weights, exponent, cutoff)`` of the order-``order`` derivative
        as a truncated-power sum, for arguments up to ``u_max``.

        Order 0 is the value, cut at the effective support.  A positive
        order is cut at the support only when degree and order are both
        integers (the generalized difference of an integer power then
        vanishes beyond it); otherwise its tail is infinite.  The weight row
        stops at ``u_max``, as later terms cannot reach a point, and for an
        integer degree at ``degree + 1``, beyond which ``C(degree + 1, k)``
        is 0.
        """
        order = float(order)
        if order == 0.0:
            return self._vweights, self.degree, float(self.effective_support)
        if self.degree.is_integer():
            k_max = math.floor(min(u_max, self.effective_support))
            cutoff = float(self.effective_support) if order.is_integer() else math.inf
        else:
            k_max = math.floor(u_max)
            cutoff = math.inf
        k_max = max(0, k_max)
        return self.derivative_weights(order, k_max), self.degree - order, cutoff

    def _sum(self, order: float, t):
        """Order-``order`` derivative (order 0: value) at scalar or array ``t``."""
        t_arr = np.asarray(t, dtype=np.float64)
        flat = np.atleast_1d(t_arr).ravel()
        terms = self._terms(order, float(flat.max(initial=0.0)))
        out = kernels.basis_matrix(flat, 1.0, 0.0, 1, *terms)[:, 0]
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    def __call__(self, t):
        """Value at ``t`` (scalar or array); exactly 0 outside
        ``[0, effective_support]``."""
        return self._sum(0.0, t)

    def frac_derivative(self, order: float, t):
        """Fractional derivative of the given order at ``t``.

        Valid for ``0 < order < degree + 1/2``; integer orders are the
        ordinary derivatives.  No tail tolerance is applied: where the
        derivative has an infinite tail it decays more slowly than the
        value, and the collocation matrices need the full sum.
        """
        if float(order) == 0.0:
            raise ValueError("derivative order must be positive; order 0 is the value")
        return self._sum(order, t)

    def derivative_weights(self, order: float, k_max: int) -> np.ndarray:
        """Signed, normalised truncated-power weights ``k = 0 .. k_max`` of
        the order-``order`` derivative sum (exponent and cutoff: ``_terms``).
        """
        order = float(order)
        if not 0.0 < order < self.degree + 0.5:
            raise ValueError(
                f"derivative order must lie in (0, degree + 1/2), got {order!r} "
                f"for degree {self.degree!r}"
            )
        return _weight_row(self.degree, k_max, order)

    @property
    def value_weights(self) -> np.ndarray:
        """Truncated-power weights of the value sum (length support + 1)."""
        return self._vweights
