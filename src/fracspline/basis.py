"""Discretisation bases: boundary-adapted splines in space, causal
fractional-spline translates in time.

Every basis function is stored as a small integer-translate combination, so
matrix fills reduce to one translate-value table (a single kernel call) times
a sparse-ish combination matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space

from . import kernels
from .bspline import DEFAULT_TAIL_TOL, FractionalBSpline

__all__ = [
    "SpatialBasis",
    "TemporalBasis",
    "build_spatial",
    "build_temporal",
    "eval_spatial",
    "eval_temporal",
]


def _deriv_values_at_integers(n: int, nu: int, points: np.ndarray) -> np.ndarray:
    """nu-th derivative of the degree-n spline at the given points.

    Uses the difference ladder: each derivative order lowers the degree by
    one and takes a forward difference, so order nu needs degree n - nu >= 0.
    """
    low = FractionalBSpline(float(n - nu))
    signs = np.where(np.arange(nu + 1) % 2 == 0, 1.0, -1.0)
    coeff = signs * np.array([math.comb(nu, i) for i in range(nu + 1)], dtype=float)
    out = np.zeros_like(points, dtype=float)
    for i, c in enumerate(coeff):
        out += c * low(points - i)
    return out


def _left_boundary_combos(n: int) -> list[np.ndarray]:
    """Coefficients of the n-1 endpoint combinations that restore the
    homogeneous Dirichlet subspace at x = 0.

    Combination i (1-based) mixes the i+1 deepest cut translates
    k = -(i+1) .. -1 and vanishes to order i at the endpoint; together with
    the untouched interior translates this spans every spline that is zero
    at the boundary.
    """
    combos = []
    for i in range(1, n):
        ks = np.arange(-(i + 1), 0)  # translate indexes, deepest first
        cond = np.empty((i, i + 1))
        for nu in range(i):
            cond[nu] = _deriv_values_at_integers(n, nu, -ks.astype(float))
        ns = null_space(cond)
        if ns.shape[1] != 1:
            raise RuntimeError(
                f"endpoint conditions degenerate for degree {n}, combo {i}"
            )
        c = ns[:, 0]
        if abs(c[0]) < 1e-12:
            raise RuntimeError(
                f"endpoint combo {i} lost its deepest translate for degree {n}"
            )
        combos.append(c / c[0])
    return combos


@dataclass(frozen=True, eq=False)
class SpatialBasis:
    """Galerkin basis of dilated integer-translate splines on [0, 1] with
    homogeneous Dirichlet ends.

    The member functions are, in order: the left endpoint combinations
    (graded vanishing order), the interior translates, then the mirrored
    right endpoint combinations, so index reflection ``i -> size-1-i`` maps
    the basis onto itself and Gram matrices come out centro-symmetric.

    Attributes
    ----------
    level : int
        Dyadic refinement level j; the mesh width is ``2**-j``.
    degree : int
        Spline degree (3 for the cubic Galerkin space).
    size : int
        ``2**level + degree - 2`` member functions.
    combinations : ndarray, shape (size, 2**level + degree)
        Row c gives the translate coefficients of member c over the
        translate range ``k = -degree .. 2**level - 1``.
    dropped : ndarray, shape (2, 2**level + degree)
        Translate coefficients of the two discarded endpoint profiles; the
        kept family plus these two sums to one on [0, 1].
    """

    level: int
    degree: int
    size: int
    combinations: np.ndarray
    dropped: np.ndarray
    _spline: FractionalBSpline = field(repr=False)
    _dspline: FractionalBSpline = field(repr=False)

    @property
    def translate_range(self) -> tuple[int, int]:
        """Inclusive translate index range covered by the columns."""
        return (-self.degree, 2**self.level - 1)

    def _value_args(self) -> tuple:
        """Kernel arguments after the points of the translate value table."""
        n = self.degree
        return (
            float(2**self.level),
            float(-n),
            2**self.level + n,
            self._spline.value_weights,
            float(n),
            float(n + 1),
        )

    def translate_values(self, x, deriv: int = 0) -> np.ndarray:
        """Raw translate table ``B(2**j x - k)`` (or its first derivative),
        one column per translate in ``translate_range``."""
        x = np.ascontiguousarray(np.atleast_1d(x), dtype=np.float64)
        n = self.degree
        ncols = 2**self.level + n
        if deriv == 0:
            return kernels.basis_matrix(x, *self._value_args())
        if deriv == 1:
            # first derivative = difference of two degree-(n-1) translates
            w = kernels.basis_matrix(
                x,
                float(2**self.level),
                float(-n),
                ncols + 1,
                self._dspline.value_weights,
                float(n - 1),
                float(n),
            )
            return (w[:, :-1] - w[:, 1:]) * float(2**self.level)
        raise ValueError(f"deriv must be 0 or 1, got {deriv!r}")

    def supported_translates(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Values and ``translate_values`` columns of the ``degree + 2``
        translates that can be nonzero at each x (see
        ``kernels.supported_translates``)."""
        return kernels.supported_translates(np.atleast_1d(x), *self._value_args())

    def eval_many(self, x, deriv: int = 0) -> np.ndarray:
        """Member-function table of shape (len(x), size)."""
        return self.translate_values(x, deriv) @ self.combinations.T

    def eval_dropped(self, x, deriv: int = 0) -> np.ndarray:
        """Values of the two discarded endpoint profiles, shape (len(x), 2)."""
        return self.translate_values(x, deriv) @ self.dropped.T


def build_spatial(j: int, n: int = 3) -> SpatialBasis:
    """Build the Dirichlet spline basis at dyadic level ``j``.

    Requires ``n >= 1`` and ``2**j >= 2 n`` so the two endpoint zones do not
    overlap.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"spatial degree must be a positive integer, got {n!r}")
    if not (isinstance(j, int) and j >= 1):
        raise ValueError(f"spatial level must be a positive integer, got {j!r}")
    if 2**j < 2 * n:
        raise ValueError(f"level {j} too coarse for degree {n}: need 2**j >= {2 * n}")

    n_translates = 2**j + n
    size = 2**j + n - 2

    def col(k: int) -> int:
        return k + n

    combos = _left_boundary_combos(n)
    c_mat = np.zeros((size, n_translates))
    # left endpoint combinations
    for m, c in enumerate(combos, start=1):
        ks = np.arange(-(m + 1), 0)
        for coeff, k in zip(c, ks):
            c_mat[m - 1, col(k)] = coeff
    # interior translates
    for i, k in enumerate(range(0, 2**j - n)):
        c_mat[(n - 1) + i, col(k)] = 1.0
    # right endpoint combinations: reflect k -> 2**j - n - 1 - k
    for m, c in enumerate(combos, start=1):
        ks = np.arange(-(m + 1), 0)
        for coeff, k in zip(c, ks):
            c_mat[size - m, col(2**j - n - 1 - k)] = coeff

    dropped = np.zeros((2, n_translates))
    for k in range(-n, 0):
        dropped[0, col(k)] = 1.0
        dropped[1, col(2**j - n - 1 - k)] = 1.0
    dropped[0] -= c_mat[: n - 1].sum(axis=0)
    dropped[1] -= c_mat[size - (n - 1) :].sum(axis=0)

    return SpatialBasis(
        level=j,
        degree=n,
        size=size,
        combinations=c_mat,
        dropped=dropped,
        _spline=FractionalBSpline(float(n)),
        _dspline=FractionalBSpline(float(n - 1)),
    )


def eval_spatial(basis: SpatialBasis, k: int, x, deriv: int = 0):
    """Value (or first derivative) of member function ``k`` at ``x``."""
    if not 0 <= k < basis.size:
        raise IndexError(f"member index {k} outside 0..{basis.size - 1}")
    x_arr = np.asarray(x, dtype=np.float64)
    out = basis.eval_many(np.atleast_1d(x_arr).ravel(), deriv)[:, k]
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


@dataclass(frozen=True, eq=False)
class TemporalBasis:
    """Causal fractional-spline collocation basis on [0, T].

    Members are the dilated translates ``B(2**s t - r)`` for
    ``r = -(S-1) .. 2**s T - 1`` with S the effective support of the
    degree-``beta`` spline, i.e. every translate that is not identically
    negligible on the horizon.  Fractional derivatives pick up the dilation
    factor ``2**(s*order)``.
    """

    level: int
    degree: float
    horizon: int
    size: int
    r_min: int
    r_max: int
    spline: FractionalBSpline = field(repr=False)

    def _value_args(self) -> tuple:
        """Kernel arguments after the points of the member value table."""
        return (
            float(2**self.level),
            float(self.r_min),
            self.size,
            self.spline.value_weights,
            self.degree,
            float(self.spline.effective_support),
        )

    def supported_translates(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Values and member indices of the ``S + 1`` translates that can be
        nonzero at each t (see ``kernels.supported_translates``)."""
        return kernels.supported_translates(np.atleast_1d(t), *self._value_args())

    def eval_many(self, t, order: float = 0.0) -> np.ndarray:
        """Table of member values (order 0) or fractional derivatives."""
        t = np.ascontiguousarray(np.atleast_1d(t), dtype=np.float64)
        scale = float(2**self.level)
        if order == 0.0:
            return kernels.basis_matrix(t, *self._value_args())
        u_hi = scale * float(t.max(initial=0.0)) - self.r_min
        k_max = max(0, math.floor(u_hi))
        w = self.spline.derivative_weights(order, k_max)
        tab = kernels.basis_matrix(
            t,
            scale,
            float(self.r_min),
            self.size,
            w,
            self.degree - order,
            math.inf,
        )
        return tab * scale**order

    def initial_values(self) -> np.ndarray:
        """Member values at t = 0 (nonzero only for negative translates)."""
        return self.eval_many(np.zeros(1))[0]


def build_temporal(
    s: int,
    beta: float,
    T: int = 1,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TemporalBasis:
    """Build the collocation basis at time level ``s`` on horizon ``[0, T]``."""
    if not (isinstance(s, int) and s >= 0):
        raise ValueError(f"time level must be a non-negative integer, got {s!r}")
    if not (isinstance(T, int) and T >= 1):
        raise ValueError(f"horizon must be a positive integer, got {T!r}")
    spline = FractionalBSpline(float(beta), tail_tol)
    S = spline.effective_support
    r_min = -(S - 1)
    r_max = 2**s * T - 1
    return TemporalBasis(
        level=s,
        degree=float(beta),
        horizon=T,
        size=r_max - r_min + 1,
        r_min=r_min,
        r_max=r_max,
        spline=spline,
    )


def eval_temporal(basis: TemporalBasis, r: int, t, order: float = 0.0):
    """Value (order 0) or fractional derivative of translate ``r`` at ``t``."""
    if not basis.r_min <= r <= basis.r_max:
        raise IndexError(f"translate {r} outside {basis.r_min}..{basis.r_max}")
    t_arr = np.asarray(t, dtype=np.float64)
    out = basis.eval_many(np.atleast_1d(t_arr).ravel(), order)[:, r - basis.r_min]
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)
