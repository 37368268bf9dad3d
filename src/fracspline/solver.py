"""End-to-end solve: assemble, constrain, least-squares, measure.

The time discretisation is collocation in a redundant translate family, so
the discrete system is solved in the least-squares sense, one spatial
eigenmode at a time (``linalg.modal_lstsq_solve``).  That minimises the
residual in the ``mass^-1 (x) I`` norm rather than the Euclidean norm.  The
homogeneous initial condition is enforced exactly by eliminating one
coefficient per spatial member (a null-space substitution that preserves
the Kronecker structure); that is the only place it enters, and the
collocation tables hold the interior nodes alone.

``solve`` builds that system in factored Kronecker form, ``(mass (x) A +
stiffness (x) G) vec(coeffs) = vec(load)``: the spatial Gram matrices and
the load come from ``assembly``, and the temporal tables ``A`` (order-gamma
derivatives) and ``G`` (values) are the time basis evaluated at the
interior dyadic nodes ``t = p 2**-q``, p = 1 .. 2**q T.

What depends on the spatial level alone, ``(j, alpha, quad_points)``, is
built once per process and shared read-only by every solve at that level:
the basis, the Gram matrices and their eigenpairs, and the load's value
table (``_spatial_level``).  The temporal spline is shared the same way
(``basis.build_temporal``).
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import QuadratureRule, assemble_load_matrix, assemble_mass, assemble_stiffness, load_table
from .basis import SpatialBasis, TemporalBasis, build_spatial, build_temporal
from .bspline import DEFAULT_TAIL_TOL
from .linalg import LeastSquaresReport, SpatialModes, modal_lstsq_solve, spatial_modes
from .problems import ProblemSpec

__all__ = [
    "SolveConfig",
    "Solution",
    "ErrorReport",
    "solve",
    "evaluate",
    "l2_error",
    "l2_error_at_time",
]

ILL_CONDITION_THRESHOLD = 1e12


@dataclass(frozen=True)
class SolveConfig:
    """Discretisation parameters of one solve.

    ``q`` is the dyadic collocation level (defaults to ``s + 1``, i.e. twice
    as many collocation nodes as time translates per unit).  The rank cut
    of the least-squares solve is fixed in ``linalg`` (``RCOND``).
    """

    gamma: float
    j: int
    s: int
    alpha: int = 3
    beta: float = 3.5
    q: Optional[int] = None
    horizon: int = 1
    tail_tol: float = DEFAULT_TAIL_TOL
    quad_points: int = 8

    def __post_init__(self):
        if not (isinstance(self.j, int) and self.j >= 1):
            raise ValueError(f"spatial level j must be an integer >= 1, got {self.j!r}")
        if not (isinstance(self.s, int) and self.s >= 0):
            raise ValueError(f"time level s must be an integer >= 0, got {self.s!r}")
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if not (isinstance(self.alpha, int) and self.alpha >= 1):
            raise ValueError(f"spatial degree alpha must be an integer >= 1, got {self.alpha!r}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        if self.gamma >= self.beta + 0.5:
            raise ValueError(
                f"gamma={self.gamma!r} needs beta > gamma - 1/2, got beta={self.beta!r}"
            )
        if self.q is not None and not (isinstance(self.q, int) and self.q >= self.s):
            raise ValueError(
                f"collocation level q={self.q!r} must be an integer >= s={self.s!r}"
            )
        if not isinstance(self.quad_points, int):
            raise ValueError(f"quad_points must be an integer, got {self.quad_points!r}")
        if self.quad_points < self.alpha + 1:
            raise ValueError(
                f"{self.quad_points} quadrature points cannot integrate degree-"
                f"{self.alpha} splines exactly; need at least {self.alpha + 1}"
            )
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol!r}")

    @property
    def collocation_level(self) -> int:
        return self.q if self.q is not None else self.s + 1


@dataclass(frozen=True, eq=False)
class Solution:
    """Coefficient array plus the bases needed to evaluate it.

    ``coeffs[k, r]`` multiplies spatial member k times temporal translate r.
    """

    coeffs: np.ndarray
    spatial: SpatialBasis
    temporal: TemporalBasis
    config: SolveConfig

    def grid_values(self, t_nodes: np.ndarray, x_nodes: np.ndarray) -> np.ndarray:
        """Field values on a tensor grid, shape (len(t_nodes), len(x_nodes))."""
        xt = self.temporal.eval_many(np.asarray(t_nodes, dtype=np.float64))
        phi = self.spatial.eval_many(np.asarray(x_nodes, dtype=np.float64))
        return xt @ self.coeffs.T @ phi.T


@dataclass(frozen=True)
class ErrorReport:
    """Headline numbers of one solve."""

    l2_error: float
    dof: int
    condition_estimate: float
    residual_norm: float


@dataclass(frozen=True, eq=False)
class _SpatialLevel:
    """Everything a solve needs that depends on the spatial level alone."""

    basis: SpatialBasis
    mass: np.ndarray
    stiffness: np.ndarray
    load_table: tuple[np.ndarray, np.ndarray]
    modes: SpatialModes


# Enough for every level of a CLI sweep, j = 2..8, at one alpha and rule.
_LEVEL_CACHE_SIZE = 8
_level_lock = threading.Lock()


@functools.lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _cached_level(j: int, alpha: int, quad_points: int) -> _SpatialLevel:
    basis = build_spatial(j, alpha)
    quad = QuadratureRule(points_per_cell=quad_points)
    mass = assemble_mass(basis, quad)
    stiffness = assemble_stiffness(basis, quad)
    table = load_table(basis, quad)
    level = _SpatialLevel(basis, mass, stiffness, table, spatial_modes(mass, stiffness))
    shared = (basis.combinations, basis.spline.value_weights, mass, stiffness, *table)
    for arr in (*shared, level.modes.lam, level.modes.v):
        arr.flags.writeable = False
    return level


def _spatial_level(config: SolveConfig) -> _SpatialLevel:
    """The shared, read-only spatial level of a validated ``config``.  The
    lock makes concurrent solves wait for one build instead of each
    assembling and factoring the same level."""
    with _level_lock:
        return _cached_level(config.j, config.alpha, config.quad_points)


def solve(problem: ProblemSpec, config: SolveConfig) -> tuple[Solution, LeastSquaresReport]:
    """Discretise and solve one manufactured (or user) problem.

    Returns the solution together with the least-squares diagnostics; a
    condition estimate beyond 1e12 (``cond(mass)`` times the R-diagonal
    spread over all modes) triggers a warning, matching the observed
    breakdown regime of the redundant translate family.
    """
    if abs(problem.order - config.gamma) > 1e-12:
        raise ValueError(
            f"problem has derivative order {problem.order!r} but the config says "
            f"{config.gamma!r}"
        )
    if problem.horizon != config.horizon:
        raise ValueError(
            f"problem horizon {problem.horizon!r} != config horizon {config.horizon!r}"
        )
    level = _spatial_level(config)
    sbasis = level.basis
    tbasis = build_temporal(config.s, config.beta, config.horizon, config.tail_tol)
    q = config.collocation_level
    nodes = np.arange(1, 2**q * config.horizon + 1, dtype=np.float64) / 2**q
    a_mat = tbasis.eval_many(nodes, config.gamma)
    g_mat = tbasis.eval_many(nodes)

    z = _ic_nullspace(tbasis)
    if z is not None:
        a_mat = a_mat @ z
        g_mat = g_mat @ z

    load = assemble_load_matrix(level.load_table, problem.forcing, nodes)
    coeffs, report = modal_lstsq_solve(level.modes, a_mat, g_mat, load)
    n_cols = a_mat.shape[1]
    if z is not None:
        coeffs = coeffs @ z.T

    if report.condition_estimate > ILL_CONDITION_THRESHOLD:
        if report.rank_deficient:
            detail = f"rank-truncated solve kept {report.rank} of {n_cols * sbasis.size} columns"
        else:
            detail = "reported errors may stagnate"
        warnings.warn(
            f"collocation system condition estimate "
            f"{report.condition_estimate:.2e} exceeds {ILL_CONDITION_THRESHOLD:.0e}; "
            + detail,
            stacklevel=2,
        )
    return Solution(coeffs=coeffs, spatial=sbasis, temporal=tbasis, config=config), report


def _ic_nullspace(tbasis: TemporalBasis) -> Optional[np.ndarray]:
    """Null-space basis of the t = 0 value functional, or None if it
    already vanishes on every translate."""
    g0 = tbasis.initial_values()
    pivot = int(np.argmax(np.abs(g0)))
    if g0[pivot] == 0.0:
        return None
    n = g0.size
    z = np.zeros((n, n - 1))
    cols = [r for r in range(n) if r != pivot]
    for c, r in enumerate(cols):
        z[r, c] = 1.0
        z[pivot, c] = -g0[r] / g0[pivot]
    return z


def evaluate(sol: Solution, t, x):
    """Point value(s) of the solution field; domain-checked.

    ``t`` and ``x`` broadcast against each other by NumPy's rules, so a
    scalar ``t`` with an array ``x`` gives a profile at one time.

    Local-support evaluation: each point touches only the ``S + 1`` time
    and ``alpha + 2`` space translates that can be nonzero there, never a
    full points x translates table.  The work is one vector pass over the
    points per (space, time) slot pair; no per-point block of coefficients
    is gathered.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    # written so that NaN, which fails every comparison, is rejected too
    if not np.all((0.0 <= t_arr) & (t_arr <= sol.config.horizon)):
        raise ValueError(f"t outside [0, {sol.config.horizon}]")
    if not np.all((0.0 <= x_arr) & (x_arr <= 1.0)):
        raise ValueError("x outside [0, 1]")
    try:
        t_b, x_b = np.broadcast_arrays(t_arr, x_arr)
    except ValueError:
        raise ValueError(
            f"t and x must have matching shapes (or broadcast together), "
            f"got {t_arr.shape} and {x_arr.shape}"
        ) from None
    t_flat = np.atleast_1d(t_b).ravel()
    x_flat = np.atleast_1d(x_b).ravel()
    # Only the translates supported at a point contribute.  Every step is an
    # elementwise pass over the points, so a point's sum runs in the same
    # order whatever batch it comes in.
    xv, xc = sol.spatial.supported_translates(x_flat)
    tv, tc = sol.temporal.supported_translates(t_flat)
    pair_coeffs = sol.spatial.combinations.T @ sol.coeffs
    n_t = pair_coeffs.shape[1]
    flat = pair_coeffs.ravel()
    vals = np.zeros(t_flat.shape)
    for a in range(xv.shape[0]):
        row = xc[a] * n_t
        acc = tv[0] * flat.take(row + tc[0])
        for b in range(1, tv.shape[0]):
            acc += tv[b] * flat.take(row + tc[b])
        vals += xv[a] * acc
    return float(vals[0]) if t_b.ndim == 0 else vals.reshape(t_b.shape)


def l2_error(sol: Solution, exact: Callable, points_per_cell: int = 4) -> float:
    """Space-time L2 distance to ``exact`` over [0, horizon] x [0, 1].

    Tensor Gauss-Legendre at one dyadic level above the finer of the two
    discretisation levels, so the quadrature resolves both the solution and
    the reference field.
    """
    level = max(sol.config.j, sol.config.s) + 1
    quad = QuadratureRule(points_per_cell)
    t_nodes, t_w = quad.nodes(level, sol.config.horizon)
    x_nodes, x_w = quad.nodes(level)
    num = sol.grid_values(t_nodes, x_nodes)
    ref = exact(t_nodes[:, None], x_nodes[None, :])
    diff2 = (num - ref) ** 2
    return float(math.sqrt(t_w @ diff2 @ x_w))


def l2_error_at_time(
    sol: Solution, exact: Callable, t: float, points_per_cell: int = 4
) -> float:
    """Space-only L2 distance at a fixed time ``t`` in ``[0, horizon]``
    (diagnostic)."""
    # written so that NaN, which fails every comparison, is rejected too
    if not 0.0 <= t <= sol.config.horizon:
        raise ValueError(f"t={t!r} outside [0, {sol.config.horizon}]")
    level = max(sol.config.j, sol.config.s) + 1
    x_nodes, x_w = QuadratureRule(points_per_cell).nodes(level)
    num = sol.grid_values(np.array([t]), x_nodes)[0]
    ref = exact(float(t), x_nodes)
    return float(math.sqrt(x_w @ (num - ref) ** 2))


def error_report(
    sol: Solution, lsq: LeastSquaresReport, exact: Optional[Callable]
) -> ErrorReport:
    err = l2_error(sol, exact) if exact is not None else math.nan
    return ErrorReport(
        l2_error=err,
        dof=sol.coeffs.size,
        condition_estimate=lsq.condition_estimate,
        residual_norm=lsq.residual_norm,
    )
