"""Spatial Galerkin operators: the Gram matrices and the load.

The mass and stiffness matrices and the load vectors are integrated by
composite Gauss-Legendre quadrature on the dyadic cells; with 8 points per
cell the spline-times-spline integrands are handled exactly (up to roundoff).
The temporal collocation tables are plain basis tables
(``TemporalBasis.eval_many``), which the solver takes directly.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import SpatialBasis

__all__ = [
    "QuadratureRule",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_load_matrix",
]


@functools.lru_cache(maxsize=None)
def _reference_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on the dyadic cells of [0, span].

    The Galerkin integrals take the basis level, so spline kinks sit on the
    cell boundaries and each cell sees a polynomial; the error norms take a
    finer one.
    """

    points_per_cell: int = 8

    def nodes(self, level: int, span: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on [0, span], ``2**level`` cells per unit."""
        if self.points_per_cell < 1:
            raise ValueError("points_per_cell must be at least 1")
        ncells = span * 2**level
        ref_x, ref_w = _reference_rule(self.points_per_cell)
        h = 1.0 / 2**level
        left = np.arange(ncells) * h
        x = (left[:, None] + (ref_x + 1.0) * (h / 2.0)).ravel()
        w = np.tile(ref_w * (h / 2.0), ncells)
        return x, w


def assemble_mass(basis: SpatialBasis, quad: QuadratureRule | None = None) -> np.ndarray:
    """Gram matrix of member values; symmetric positive definite."""
    quad = quad or QuadratureRule()
    x, w = quad.nodes(basis.level)
    v = basis.eval_many(x)
    return (v * w[:, None]).T @ v


def assemble_stiffness(
    basis: SpatialBasis, quad: QuadratureRule | None = None
) -> np.ndarray:
    """Gram matrix of member first derivatives (weak Laplacian with
    homogeneous Dirichlet ends)."""
    quad = quad or QuadratureRule()
    x, w = quad.nodes(basis.level)
    d = basis.eval_many(x, deriv=1)
    return (d * w[:, None]).T @ d


def _forcing_on_grid(forcing, t: float, x: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(forcing(t, x), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        warnings.warn(
            f"forcing raised {type(exc).__name__} on an array of x; "
            "falling back to one call per quadrature point",
            RuntimeWarning,
            stacklevel=2,
        )
        vals = np.array([forcing(t, xi) for xi in x], dtype=np.float64)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape)
    return vals


def assemble_load_matrix(
    basis: SpatialBasis,
    forcing,
    times: np.ndarray,
    quad: QuadratureRule | None = None,
) -> np.ndarray:
    """Load vectors over a whole node set, one column per time."""
    quad = quad or QuadratureRule()
    x, w = quad.nodes(basis.level)
    vw = basis.eval_many(x) * w[:, None]
    cols = np.empty((basis.size, len(times)))
    for p, t in enumerate(times):
        cols[:, p] = vw.T @ _forcing_on_grid(forcing, float(t), x)
    return cols
