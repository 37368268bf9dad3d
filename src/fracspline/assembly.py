"""Assembly of the discrete operators.

Spatial Gram matrices (mass, stiffness) and load vectors are integrated by
composite Gauss-Legendre quadrature on the dyadic cells; with 8 points per
cell the spline-times-spline integrands are handled exactly (up to roundoff).
Temporal operators are collocation tables on the interior dyadic nodes
``t = p 2**-q``, p >= 1; the initial condition u(0, .) = 0 is not a row
here but is imposed by the solver's coefficient elimination.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import SpatialBasis, TemporalBasis

__all__ = [
    "QuadratureRule",
    "CollocationSystem",
    "DiscreteSystem",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_load_matrix",
    "assemble_collocation",
    "assemble_system",
]


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
        ref_x, ref_w = np.polynomial.legendre.leggauss(self.points_per_cell)
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


@dataclass(frozen=True, eq=False)
class CollocationSystem:
    """Temporal collocation tables on the interior dyadic nodes.

    ``derivative[p, r]`` holds the fractional derivative of translate r at
    node p and ``value[p, r]`` its plain value.  There is no t = 0 row: the
    solver imposes u(0, .) = 0 by eliminating one coefficient per spatial
    member.
    """

    derivative: np.ndarray
    value: np.ndarray
    nodes: np.ndarray


def assemble_collocation(
    tbasis: TemporalBasis,
    order: float,
    q: int,
) -> CollocationSystem:
    """Collocate values and order-``order`` derivatives at ``t = p 2**-q``,
    p = 1 .. 2**q T."""
    if not (isinstance(q, int) and q >= tbasis.level):
        raise ValueError(
            f"collocation level q={q!r} must be an integer >= time level "
            f"{tbasis.level}"
        )
    nodes = np.arange(1, 2**q * tbasis.horizon + 1, dtype=np.float64) / 2**q
    return CollocationSystem(
        derivative=tbasis.eval_many(nodes, order), value=tbasis.eval_many(nodes), nodes=nodes
    )


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    """Everything the least-squares solve needs, in factored Kronecker form:
    ``(mass (x) derivative + stiffness (x) value) vec(coeffs) = vec(load)``.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    collocation: CollocationSystem
    load: np.ndarray  # shape (spatial size, number of nodes)


def assemble_system(
    sbasis: SpatialBasis,
    tbasis: TemporalBasis,
    forcing,
    order: float,
    q: int,
    quad: QuadratureRule | None = None,
) -> DiscreteSystem:
    """Assemble all discrete operators for one solve."""
    quad = quad or QuadratureRule()
    mass = assemble_mass(sbasis, quad)
    stiffness = assemble_stiffness(sbasis, quad)
    coll = assemble_collocation(tbasis, order, q)
    load = assemble_load_matrix(sbasis, forcing, coll.nodes, quad)
    return DiscreteSystem(mass=mass, stiffness=stiffness, collocation=coll, load=load)
