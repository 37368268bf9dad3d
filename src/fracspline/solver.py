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

What depends on levels alone is built once per process and shared
read-only: per ``(j, alpha, quad_points)`` the basis, the Gram matrices,
their eigenpairs and the load's value table (``_spatial_level``); per
``(s, beta, horizon, tail_tol, q)`` the time basis, the nodes, the
elimination and ``G`` after it (``_temporal_level``); and the value tables
of both error norms.  A solve builds only ``A`` (gamma varies) and the load.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
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
        # ``type(v) is int``, as bool is an int subclass but no level or degree
        if not (type(self.j) is int and self.j >= 1):
            raise ValueError(f"spatial level j must be an integer >= 1, got {self.j!r}")
        if not (type(self.s) is int and self.s >= 0):
            raise ValueError(f"time level s must be an integer >= 0, got {self.s!r}")
        if not (type(self.horizon) is int and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if not (type(self.alpha) is int and self.alpha >= 1):
            raise ValueError(f"spatial degree alpha must be an integer >= 1, got {self.alpha!r}")
        if 2**self.j < 2 * self.alpha:  # build_spatial's rule: the endpoint zones must not overlap
            raise ValueError(f"level j={self.j} too coarse for degree alpha={self.alpha}: need 2**j >= {2 * self.alpha}")
        if isinstance(self.beta, bool) or not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        if self.gamma >= self.beta + 0.5:
            raise ValueError(
                f"gamma={self.gamma!r} needs beta > gamma - 1/2, got beta={self.beta!r}"
            )
        if self.q is not None and not (type(self.q) is int and self.q >= self.s):
            raise ValueError(
                f"collocation level q={self.q!r} must be an integer >= s={self.s!r}"
            )
        if type(self.quad_points) is not int:
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


class _Shared:
    """A bounded least-recently-used store of what depends on discretisation
    levels alone, shared by every solve in the process.  ``get`` builds a
    missing entry under a lock, so concurrent solves (sweep cells on worker
    threads) wait for one build instead of each building it.  Keys are the
    values that define an entry, not object identities, and builders make
    every array they hand out read-only."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.entries: OrderedDict = OrderedDict()
        self.lock = threading.Lock()

    def get(self, key: tuple, build: Callable, *args):
        with self.lock:
            if key not in self.entries:
                self.entries[key] = build(*args)
                if len(self.entries) > self.maxsize:
                    self.entries.popitem(last=False)
            self.entries.move_to_end(key)
            return self.entries[key]


def _read_only(*arrays: Optional[np.ndarray]) -> tuple:
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False
    return arrays


# Enough for every level of a CLI sweep, j = 2..8, at one alpha and rule.
_SPATIAL_LEVELS = _Shared(8)
# Enough for the README ``curves`` command, 5 betas x 4 time levels = 20.
_TEMPORAL_LEVELS = _Shared(32)


def _build_spatial_level(j: int, alpha: int, quad_points: int) -> _SpatialLevel:
    basis = build_spatial(j, alpha)
    quad = QuadratureRule(points_per_cell=quad_points)
    mass = assemble_mass(basis, quad)
    stiffness = assemble_stiffness(basis, quad)
    table = load_table(basis, quad)
    level = _SpatialLevel(basis, mass, stiffness, table, spatial_modes(mass, stiffness))
    _read_only(basis.combinations, basis.spline.value_weights, mass, stiffness, *table, level.modes.lam, level.modes.v)
    return level


def _spatial_level(config: SolveConfig) -> _SpatialLevel:
    """The shared, read-only spatial level of a validated ``config``."""
    key = (config.j, config.alpha, config.quad_points)
    return _SPATIAL_LEVELS.get(key, _build_spatial_level, *key)


def _build_temporal_level(s: int, beta: float, horizon: int, tail_tol: float, q: int) -> tuple:
    """The basis, the collocation nodes, the initial-condition elimination
    ``z`` and the value table after it, in Fortran order for the mode loop."""
    basis = build_temporal(s, beta, horizon, tail_tol)
    nodes = np.arange(1, 2**q * horizon + 1, dtype=np.float64) / 2**q
    z = _ic_nullspace(basis)
    g = basis.eval_many(nodes)
    if z is not None:
        g = g @ z
    return (basis, *_read_only(nodes, z, np.asfortranarray(g)))


def _temporal_level(config: SolveConfig) -> tuple:
    """The shared, read-only temporal level of a validated ``config``."""
    key = (config.s, config.beta, config.horizon, config.tail_tol, config.collocation_level)
    return _TEMPORAL_LEVELS.get(key, _build_temporal_level, *key)


def solve(problem: ProblemSpec, config: SolveConfig) -> tuple[Solution, LeastSquaresReport]:
    """Discretise and solve one manufactured (or user) problem.

    Returns the solution together with the least-squares diagnostics; a
    condition estimate beyond 1e12 (``cond(mass)`` times the R-diagonal
    spread over all modes) triggers a warning, matching the observed
    breakdown regime of the redundant translate family.  Only the order-gamma
    table ``A`` and the load are built here; the rest is per-level and shared.
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
    tbasis, nodes, z, g_mat = _temporal_level(config)
    # the gamma table is built per solve, as gamma varies across a sweep
    a_mat = tbasis.eval_many(nodes, config.gamma)
    if z is not None:
        a_mat = a_mat @ z

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


# The rule of both error norms: Gauss-Legendre, 4 points per dyadic cell,
# one dyadic level above the finer of the two discretisation levels, so it
# resolves the solution and the reference field
_ERROR_RULE = QuadratureRule(points_per_cell=4)
# A sweep runs at one j, so it reaches few levels max(j, s) + 1.
_SPACE_ERROR_TABLES = _Shared(8)
# As many as temporal levels; one table at level 9 is about 4.4 MiB.
_TIME_ERROR_TABLES = _Shared(32)


def _error_table(basis, level: int, span: int = 1) -> tuple:
    """Nodes, weights and member values of the error rule on [0, span]."""
    x, w = _ERROR_RULE.nodes(level, span)
    return _read_only(x, w, basis.eval_many(x))


def _error_norm(sol: Solution, xt: np.ndarray, t_w: np.ndarray, reference: Callable) -> float:
    """L2 distance over [0, 1] in x, summed with weights ``t_w`` over the
    times of the temporal table ``xt``, to ``reference(x_nodes)`` on the
    (times, x_nodes) grid."""
    b, level = sol.spatial, max(sol.config.j, sol.config.s) + 1
    x_nodes, x_w, phi = _SPACE_ERROR_TABLES.get((b.level, b.degree, level), _error_table, b, level)
    # the association of ``Solution.grid_values``; the residual is squared in place
    diff = (xt @ sol.coeffs.T) @ phi.T
    diff -= reference(x_nodes)
    np.square(diff, out=diff)
    return math.sqrt(float(t_w @ diff @ x_w))


def l2_error(sol: Solution, exact: Callable) -> float:
    """Space-time L2 distance to ``exact`` over [0, horizon] x [0, 1]."""
    b, level = sol.temporal, max(sol.config.j, sol.config.s) + 1
    key = (b.level, b.degree, b.horizon, b.spline.tail_tol, level)
    t_nodes, t_w, xt = _TIME_ERROR_TABLES.get(key, _error_table, b, level, b.horizon)
    return _error_norm(sol, xt, t_w, lambda x: exact(t_nodes[:, None], x[None, :]))


def l2_error_at_time(sol: Solution, exact: Callable, t: float) -> float:
    """Space-only L2 distance at a fixed time ``t`` in ``[0, horizon]``
    (diagnostic); ``exact`` is called with the scalar ``t``."""
    # written so that NaN, which fails every comparison, is rejected too
    if not 0.0 <= t <= sol.config.horizon:
        raise ValueError(f"t={t!r} outside [0, {sol.config.horizon}]")
    xt = sol.temporal.eval_many(np.array([float(t)]))
    return _error_norm(sol, xt, np.ones(1), lambda x: exact(float(t), x))


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
