"""Spatial Galerkin operators: the Gram matrices and the load.

The mass and stiffness matrices and the load vectors are integrated by
composite Gauss-Legendre quadrature on the dyadic cells, 8 points per cell
or ``degree + 1`` where 8 fall short, so the spline-times-spline integrands
are handled exactly (up to roundoff).
The temporal collocation tables are plain basis tables
(``TemporalBasis.eval_many``), which the solver takes directly.
"""

from __future__ import annotations

import numpy as np

from .basis import SpatialBasis

__all__ = [
    "gauss_rule",
    "spatial_operators",
    "assemble_load_matrix",
]


def gauss_rule(points: int, level: int, span: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, span], ``points``
    per dyadic cell and ``2**level`` cells per unit.

    The Galerkin integrals take the basis level, so spline kinks sit on the
    cell boundaries and each cell sees a polynomial; the error norms take a
    finer one.
    """
    if points < 1:
        raise ValueError("points must be at least 1")
    ncells = span * 2**level
    ref_x, ref_w = np.polynomial.legendre.leggauss(points)
    h = 1.0 / 2**level
    left = np.arange(ncells) * h
    x = (left[:, None] + (ref_x + 1.0) * (h / 2.0)).ravel()
    w = np.tile(ref_w * (h / 2.0), ncells)
    return x, w


def spatial_operators(basis: SpatialBasis) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The level's Galerkin operators on one Gauss rule.

    Returns ``mass``, the Gram matrix of member values (symmetric positive
    definite); ``stiffness``, that of first derivatives (the weak Laplacian
    with homogeneous Dirichlet ends); and the load table ``(x, vw)``: the
    nodes and the weighted member values ``v * w[:, None]``, which the mass
    shares.
    """
    # p points per cell are exact to degree 2p - 1, the Gram products have
    # degree 2 * degree: 8 points serve every degree up to 7
    x, w = gauss_rule(max(8, basis.degree + 1), basis.level)
    d = basis.eval_many(x, deriv=1)
    stiffness = (d * w[:, None]).T @ d
    del d  # so that at most two (nodes, members) tables are alive at once
    v = basis.eval_many(x)
    vw = v * w[:, None]
    return vw.T @ v, stiffness, (x, vw)


def assemble_load_matrix(table: tuple[np.ndarray, np.ndarray], forcing, times: np.ndarray) -> np.ndarray:
    """Load vectors, one column per time, from one ``forcing`` call on
    ``times[:, None]`` against the nodes ``x[None, :]`` of the load table
    of ``spatial_operators``.  A load that is not finite (a forcing value
    NaN or infinite) is a ``ValueError``, so no solve returns NaN
    coefficients from it."""
    x, vw = table
    f = np.asarray(forcing(times[:, None], x[None, :]), dtype=np.float64)
    try:
        f = np.broadcast_to(f, (times.size, x.size))
    except ValueError:
        raise ValueError(
            f"forcing returned shape {f.shape}, not broadcastable to the (times, nodes) grid {(times.size, x.size)}"
        ) from None
    # a NaN or infinite value is raised on below, not warned on here
    with np.errstate(invalid="ignore", over="ignore"):
        load = vw.T @ f.T
    bad = ~np.isfinite(load).all(axis=0)
    if bad.any():
        raise ValueError(
            f"forcing gave a load that is not finite at {bad.sum()} of {times.size} times, "
            f"the first t={float(times[bad][0])!r}"
        )
    return load
