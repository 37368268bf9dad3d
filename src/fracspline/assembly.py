"""Assembly of the discrete operators.

Spatial Gram matrices (mass, stiffness) and load vectors are integrated by
composite Gauss-Legendre quadrature on the dyadic cells; with 8 points per
cell the spline-times-spline integrands are handled exactly (up to roundoff).
Temporal operators are collocation tables on the dyadic node grid.
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
    "assemble_load",
    "assemble_load_matrix",
    "assemble_collocation",
    "assemble_system",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on a dyadic cell partition of [0, 1].

    ``level=None`` means "use the basis level", which is what every Galerkin
    integral here wants: spline kinks sit on the cell boundaries and each
    cell sees a polynomial.
    """

    points_per_cell: int = 8
    level: int | None = None

    def nodes(self, default_level: int) -> tuple[np.ndarray, np.ndarray]:
        lvl = self.level if self.level is not None else default_level
        if self.points_per_cell < 1:
            raise ValueError("points_per_cell must be at least 1")
        ncells = 2**lvl
        ref_x, ref_w = np.polynomial.legendre.leggauss(self.points_per_cell)
        h = 1.0 / ncells
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


def assemble_load(
    basis: SpatialBasis, forcing, t: float, quad: QuadratureRule | None = None
) -> np.ndarray:
    """Load vector of the forcing against the spatial basis at one time."""
    quad = quad or QuadratureRule()
    x, w = quad.nodes(basis.level)
    v = basis.eval_many(x)
    return v.T @ (w * _forcing_on_grid(forcing, float(t), x))


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
    """Temporal collocation tables on the dyadic node grid.

    ``derivative[p, r]`` holds the fractional derivative of translate r at
    node p and ``value[p, r]`` its plain value.  When the initial-condition
    row is included, node 0 is t = 0 and its derivative row is identically
    zero by construction: that row encodes the constraint u(0, .) = 0, not
    the equation.
    """

    derivative: np.ndarray
    value: np.ndarray
    nodes: np.ndarray
    has_ic_row: bool


def assemble_collocation(
    tbasis: TemporalBasis,
    order: float,
    q: int,
    include_ic_row: bool = True,
) -> CollocationSystem:
    """Collocate values and order-``order`` derivatives at ``t = p 2**-q``.

    Interior nodes run p = 1 .. 2**q T; the optional leading t = 0 row
    enforces the homogeneous initial condition.
    """
    if not (isinstance(q, int) and q >= tbasis.level):
        raise ValueError(
            f"collocation level q={q!r} must be an integer >= time level "
            f"{tbasis.level}"
        )
    n_interior = 2**q * tbasis.horizon
    interior = np.arange(1, n_interior + 1, dtype=np.float64) / 2**q
    a_in = tbasis.eval_many(interior, order)
    g_in = tbasis.eval_many(interior)
    if include_ic_row:
        nodes = np.concatenate(([0.0], interior))
        a = np.vstack([np.zeros((1, tbasis.size)), a_in])
        g = np.vstack([tbasis.initial_values()[None, :], g_in])
    else:
        nodes, a, g = interior, a_in, g_in
    return CollocationSystem(derivative=a, value=g, nodes=nodes, has_ic_row=include_ic_row)


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    """Everything the least-squares solve needs, in factored Kronecker form:
    ``(mass (x) derivative + stiffness (x) value) vec(coeffs) = vec(load)``.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    collocation: CollocationSystem
    load: np.ndarray  # shape (spatial size, number of nodes)

    @property
    def shape(self) -> tuple[int, int]:
        n_rows = self.mass.shape[0] * self.collocation.nodes.size
        n_cols = self.mass.shape[0] * self.collocation.value.shape[1]
        return (n_rows, n_cols)


def assemble_system(
    sbasis: SpatialBasis,
    tbasis: TemporalBasis,
    forcing,
    order: float,
    q: int,
    quad: QuadratureRule | None = None,
    include_ic_row: bool = True,
) -> DiscreteSystem:
    """Assemble all discrete operators for one solve."""
    quad = quad or QuadratureRule()
    mass = assemble_mass(sbasis, quad)
    stiffness = assemble_stiffness(sbasis, quad)
    coll = assemble_collocation(tbasis, order, q, include_ic_row)
    if include_ic_row:
        load = np.empty((sbasis.size, coll.nodes.size))
        load[:, 0] = 0.0  # constraint row: u(0, .) = 0
        load[:, 1:] = assemble_load_matrix(sbasis, forcing, coll.nodes[1:], quad)
    else:
        load = assemble_load_matrix(sbasis, forcing, coll.nodes, quad)
    return DiscreteSystem(mass=mass, stiffness=stiffness, collocation=coll, load=load)
