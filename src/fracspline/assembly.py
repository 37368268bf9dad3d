"""Spatial Galerkin operators: the Gram matrices and the load.

The mass and stiffness matrices and the load vectors are integrated by
composite Gauss-Legendre quadrature on the dyadic cells; with 8 points per
cell the spline-times-spline integrands are handled exactly (up to roundoff).
The temporal collocation tables are plain basis tables
(``TemporalBasis.eval_many``), which the solver takes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SpatialBasis

__all__ = [
    "QuadratureRule",
    "assemble_mass",
    "assemble_stiffness",
    "load_table",
    "assemble_load_matrix",
]


def _reference_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(points)


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


def load_table(basis: SpatialBasis, quad: QuadratureRule | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The level-only half of the load: the quadrature nodes ``x`` and the
    weighted member values ``basis.eval_many(x) * w[:, None]``."""
    quad = quad or QuadratureRule()
    x, w = quad.nodes(basis.level)
    return x, basis.eval_many(x) * w[:, None]


def assemble_load_matrix(table: tuple[np.ndarray, np.ndarray], forcing, times: np.ndarray) -> np.ndarray:
    """Load vectors, one column per time, from one ``forcing`` call on
    ``times[:, None]`` against the nodes ``x[None, :]`` of ``load_table``."""
    x, vw = table
    f = np.asarray(forcing(times[:, None], x[None, :]), dtype=np.float64)
    try:
        f = np.broadcast_to(f, (times.size, x.size))
    except ValueError:
        raise ValueError(
            f"forcing returned shape {f.shape}, not broadcastable to the (times, nodes) grid {(times.size, x.size)}"
        ) from None
    return vw.T @ f.T
