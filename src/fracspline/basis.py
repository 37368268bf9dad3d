"""Discretisation bases: boundary-adapted splines in space, causal
fractional-spline translates in time.

Both bases combine the dilated integer translates ``B(2**level t - r)``,
``r = first .. first + count - 1``, of one spline ``B``.  Every table goes
through one routine, ``_Translates.translate_values``: it asks the spline's
derivative rule (``FractionalBSpline._terms``) for the weights, exponent and
cutoff of the requested order (values, d/dx and D_t^gamma alike), fills the
translate table with a single kernel call and applies the dilation factor
``2**(level * order)``.  A spatial table is that table times the combination
matrix; a temporal table is that table itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .bspline import DEFAULT_TAIL_TOL, FractionalBSpline

__all__ = [
    "SpatialBasis",
    "TemporalBasis",
    "build_spatial",
    "build_temporal",
]


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``, one column per direction.

    ``scipy.linalg.null_space`` from NumPy alone: the right singular vectors
    of the full SVD whose singular values are at most
    ``max(a.shape) * eps * s.max()``.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = max(a.shape) * np.finfo(s.dtype).eps * s.max(initial=0.0)
    return vh[np.count_nonzero(s > tol) :].T


def _left_boundary_combos(spline: FractionalBSpline) -> list[np.ndarray]:
    """Coefficients of the n-1 endpoint combinations that restore the
    homogeneous Dirichlet subspace at x = 0 for the degree-n ``spline``.

    Combination i (1-based) mixes the i+1 deepest cut translates
    k = -(i+1) .. -1 and vanishes to order i at the endpoint; together with
    the untouched interior translates this spans every spline that is zero
    at the boundary.
    """
    n = int(spline.degree)
    combos = []
    for i in range(1, n):
        # translate k = -m, deepest first, sits at x = 0 with argument m
        pts = np.arange(i + 1, 0, -1, dtype=float)
        cond = np.array(
            [spline.frac_derivative(nu, pts) if nu else spline(pts) for nu in range(i)]
        )
        ns = _null_space(cond)
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


class _Translates:
    """The translate table shared by both bases.

    A subclass supplies ``spline``, ``level`` and ``_span()``, the first
    translate and the number of translates.
    """

    def translate_values(self, t, order: float = 0.0) -> np.ndarray:
        """Raw translate table ``2**(level*order) B^(order)(2**level t - r)``,
        one column per translate ``r = first .. first + count - 1``."""
        t = np.ascontiguousarray(np.atleast_1d(t), dtype=np.float64)
        first, count = self._span()
        scale = float(2**self.level)
        terms = self.spline._terms(order, scale * float(t.max(initial=0.0)) - first)
        return kernels.basis_matrix(t, scale, float(first), count, *terms) * scale ** float(order)

    def supported_translates(self, t, scratch=None) -> tuple[np.ndarray, np.ndarray]:
        """Values of the translates that can be nonzero at each t, slot-major,
        and the ``translate_values`` column of each point's slot 0 (see
        ``kernels.supported_translates``, which works in ``scratch``)."""
        first, count = self._span()
        terms = self.spline._terms(0.0, math.inf)
        return kernels.supported_translates(
            np.atleast_1d(t), float(2**self.level), float(first), count, *terms, scratch
        )


@dataclass(frozen=True, eq=False)
class SpatialBasis(_Translates):
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
    """

    level: int
    degree: int
    size: int
    combinations: np.ndarray
    spline: FractionalBSpline = field(repr=False)

    def _span(self) -> tuple[int, int]:
        return -self.degree, 2**self.level + self.degree

    def eval_many(self, x, deriv: int = 0) -> np.ndarray:
        """Member-function table (order-``deriv`` derivative) of shape
        (len(x), size)."""
        return self.translate_values(x, deriv) @ self.combinations.T


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

    size = 2**j + n - 2
    spline = FractionalBSpline(float(n))
    c_mat = np.zeros((size, 2**j + n))
    # left combination m mixes the translates k = -(m+1) .. -1, column k + n
    for m, c in enumerate(_left_boundary_combos(spline), start=1):
        c_mat[m - 1, n - m - 1 : n] = c
    # interior translates k = 0 .. 2**j - n - 1
    c_mat[n - 1 : size - n + 1, n : 2**j] = np.eye(2**j - n)
    # right combinations: the left ones under the reflection that makes
    # the matrix centro-symmetric
    c_mat[size - n + 1 :] = c_mat[: n - 1, ::-1][::-1]

    return SpatialBasis(
        level=j,
        degree=n,
        size=size,
        combinations=c_mat,
        spline=spline,
    )


@dataclass(frozen=True, eq=False)
class TemporalBasis(_Translates):
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

    def _span(self) -> tuple[int, int]:
        return self.r_min, self.size

    def eval_many(self, t, order: float = 0.0) -> np.ndarray:
        """Table of member values (order 0) or fractional derivatives."""
        return self.translate_values(t, order)

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

