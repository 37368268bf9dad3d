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
read-only through one store (``_SHARED``), bounded by the bytes of the
arrays it holds: per ``(j, alpha, quad_points)`` the basis, the Gram
matrices, their eigenpairs and the load's value table (``_spatial_level``);
per ``(s, beta, horizon, tail_tol, q)`` the time basis with its spline, the
nodes, the elimination and ``G`` after it (``_temporal_level``); and the
value tables of both error norms.  A solve builds only ``A`` (gamma varies)
and the load.  An evicted entry is built again, to the same bits.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import assemble_load_matrix, gauss_rule, spatial_operators
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
        if isinstance(self.gamma, bool) or not 0.0 < self.gamma <= 1.0:
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
    """A least-recently-used store of what depends on discretisation levels
    alone, shared by every solve in the process and bounded by the bytes of
    the arrays it holds.  ``get`` builds a missing entry under a lock, so
    concurrent solves (on a library caller's own threads) wait for one build
    instead of each building it.  Keys start with a kind tag and go on with
    the values that define an entry, not object identities.  A builder makes
    every array it hands out read-only and returns ``(value, nbytes)``.  The
    newest entry is kept even when it alone exceeds the bound."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.entries: OrderedDict = OrderedDict()  # key -> (value, nbytes)
        self.nbytes = 0
        self.lock = threading.Lock()

    def get(self, key: tuple, build: Callable, *args):
        with self.lock:
            if key not in self.entries:
                value, nbytes = build(*args)
                self.entries[key] = value, nbytes
                self.nbytes += nbytes
                while self.nbytes > self.max_bytes and len(self.entries) > 1:
                    _, (_, evicted) = self.entries.popitem(last=False)
                    self.nbytes -= evicted
            self.entries.move_to_end(key)
            return self.entries[key][0]


def _read_only(*arrays: Optional[np.ndarray]) -> int:
    """Make ``arrays`` read-only; return their total bytes."""
    nbytes = 0
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False
            nbytes += arr.nbytes
    return nbytes


# Two (8, 8) cells' worth of level-only entries (one cell's come to 15.8 MiB).
# Beyond it a large ``table`` sweep evicts its error tables, most of which
# serve one cell.
_SHARED_BYTES = 32 << 20
_SHARED = _Shared(_SHARED_BYTES)


def _build_spatial_level(j: int, alpha: int, quad_points: int) -> tuple[_SpatialLevel, int]:
    basis = build_spatial(j, alpha)
    mass, stiffness, table = spatial_operators(basis, quad_points)
    level = _SpatialLevel(basis, mass, stiffness, table, spatial_modes(mass, stiffness))
    nbytes = _read_only(basis.combinations, basis.spline.value_weights, mass, stiffness, *table, level.modes.lam, level.modes.v)
    return level, nbytes


def _spatial_level(config: SolveConfig) -> _SpatialLevel:
    """The shared, read-only spatial level of a validated ``config``."""
    key = (config.j, config.alpha, config.quad_points)
    return _SHARED.get(("spatial", *key), _build_spatial_level, *key)


def _build_temporal_level(s: int, beta: float, horizon: int, tail_tol: float, q: int) -> tuple:
    """The basis, the collocation nodes, the initial-condition elimination
    ``z`` and the value table after it, in Fortran order for the mode loop."""
    basis = build_temporal(s, beta, horizon, tail_tol)
    nodes = np.arange(1, 2**q * horizon + 1, dtype=np.float64) / 2**q
    z = _ic_nullspace(basis)
    g = basis.eval_many(nodes)
    if z is not None:
        g = g @ z
    g = np.asfortranarray(g)
    return (basis, nodes, z, g), _read_only(basis.spline.value_weights, nodes, z, g)


def _temporal_level(config: SolveConfig) -> tuple:
    """The shared, read-only temporal level of a validated ``config``."""
    key = (config.s, config.beta, config.horizon, config.tail_tol, config.collocation_level)
    return _SHARED.get(("temporal", *key), _build_temporal_level, *key)


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


# Points per block of ``evaluate``: the (space, time) slot-pair terms of a
# block fill this many bytes (4766 points at 5 x 11 slots, where all of a
# block's scratch comes to 4.3 MiB).  A block costs about a hundred small
# NumPy calls besides its arithmetic; at half this budget the benchmark's
# evaluate-field pass took a fifth longer.
_BLOCK_BYTES = 2 << 20


def evaluate(sol: Solution, t, x):
    """Point value(s) of the solution field; domain-checked.

    ``t`` and ``x`` broadcast against each other by NumPy's rules, so a
    scalar ``t`` with an array ``x`` gives a profile at one time.

    Local-support evaluation: each point touches only the ``S + 1`` time
    and ``alpha + 2`` space translates that can be nonzero there, never a
    full points x translates table.  The points go block by block
    (``_BLOCK_BYTES``) through scratch sized for one block, so a call needs
    its output plus one block's scratch whatever its size.  Per block, each
    basis gives the values of a point's slots and the column of its slot 0
    as one integer (``kernels.supported_translates``).  The translate
    coefficient matrix is padded with zeros on each side, so every slot of
    a point in the domain has a column to read, 0 off the table, without a
    clamp; the coefficients of each (space, time) slot pair are gathered
    from offset views of it.  Every slot sum is written out slot by slot,
    over the time slots and then over the space slots, rather than reduced
    along an axis, whose order NumPy picks from the array's shape: a
    point's value has the same bits whatever batch or block it comes in.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    # written so that NaN, which fails every comparison, is rejected too; in
    # at least one dimension, as a NumPy scalar's ``all`` is slow
    t_1d, x_1d = np.atleast_1d(t_arr, x_arr)
    if not ((0.0 <= t_1d) & (t_1d <= sol.config.horizon)).all():
        raise ValueError(f"t outside [0, {sol.config.horizon}]")
    if not ((0.0 <= x_1d) & (x_1d <= 1.0)).all():
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
    spatial, temporal = sol.spatial, sol.temporal
    # slots per point: floor(cutoff) + 1, the value cutoff being the support
    wx, wt = spatial.spline.effective_support + 1, temporal.spline.effective_support + 1
    n = t_flat.size
    block = max(1, min(n, _BLOCK_BYTES // (8 * wx * wt)))
    # One allocation holds the scratch of every block: freed whole, the C
    # allocator hands it back on the next call, while separate arrays of
    # this size can go back to the system and fault in again page by page,
    # which costs more than the arithmetic on them.
    work = np.empty((3 * wx + 3 * wt + wx * wt + wx, block))
    x_scratch = work[: 3 * wx].reshape(3, wx, block)
    t_scratch = work[3 * wx : 3 * (wx + wt)].reshape(3, wt, block)
    terms = work[3 * (wx + wt) : -wx].reshape(wx, wt, block)
    acc = work[-wx:]
    cols = np.empty((wt, block), dtype=np.intp)
    # every slot column of a point in the domain lies in -1 .. n_cols
    n_x, n_t = spatial.combinations.shape[1] + 2, sol.coeffs.shape[1] + 2
    pair = np.zeros((n_x, n_t))
    pair[1:-1, 1:-1] = spatial.combinations.T @ sol.coeffs
    flat = pair.ravel()
    # space slot a lies wx - 1 - a rows past the last one: one index per
    # time slot serves every space slot through these views
    rows = [flat[(wx - 1 - a) * n_t :] for a in range(wx)]
    back = np.arange(1, 1 - wt, -1)[:, None]
    vals = np.empty(n)
    for lo in range(0, n, block):
        xv, x_first = spatial.supported_translates(x_flat[lo : lo + block], x_scratch)
        tv, t_first = temporal.supported_translates(t_flat[lo : lo + block], t_scratch)
        m = xv.shape[1]
        # padded column of time slot b in the padded row of the last space slot
        idx = cols[:, :m]
        np.add((x_first - (wx - 2)) * n_t + t_first, back, out=idx)
        prods = terms[:, :, :m]
        for a in range(wx):
            # in range by construction; "clip" spares the copy "raise" makes
            rows[a].take(idx, out=prods[a], mode="clip")
        prods *= tv
        sums = acc[:, :m]
        np.copyto(sums, prods[:, 0])
        for b in range(1, wt):
            sums += prods[:, b]
        sums *= xv
        out = vals[lo : lo + m]
        out.fill(0.0)
        for a in range(wx):
            out += sums[a]
    return float(vals[0]) if t_b.ndim == 0 else vals.reshape(t_b.shape)


# The rule of both error norms: Gauss-Legendre, 4 points per dyadic cell,
# one dyadic level above the finer of the two discretisation levels, so it
# resolves the solution and the reference field
_ERROR_POINTS = 4


def _error_table(basis, level: int, span: int = 1) -> tuple:
    """Nodes, weights and member values of the error rule on [0, span]."""
    x, w = gauss_rule(_ERROR_POINTS, level, span)
    table = (x, w, basis.eval_many(x))
    return table, _read_only(*table)


# Bytes of the column block the error norms form the field's residual in:
# 128 space nodes against the 1024 error-rule times of a (7, 7) cell, 64
# against the 2048 of an (8, 8) one.  A warm (8, 8) norm took 89 ms at 256 KiB
# against 61 ms here; at 4 MiB it took 56 ms, but the (6, 5) and (5, 6) norms
# of the benchmark's ladder a fifth longer.
_ERROR_BYTES = 1 << 20


def _error_norm(sol: Solution, xt: np.ndarray, t_w: np.ndarray, reference: Callable) -> float:
    """L2 distance over [0, 1] in x, summed with weights ``t_w`` over the
    times of the temporal table ``xt``, to ``reference(x_nodes)`` on the
    (times, x_nodes) grid.

    The grid is never formed whole: ``left = xt @ coeffs.T`` is formed once,
    and the space nodes go one column block (``_ERROR_BYTES``) at a time
    through one scratch, where the block's residual is formed and squared in
    place and its weighted column sums written out; one dot with the space
    weights ends it.  The products, sums and dot are those of the whole
    grid, ``((xt @ coeffs.T) @ phi.T - reference)**2`` summed by ``t_w``
    and then ``x_w``, taken column block by column block.
    """
    b, level = sol.spatial, max(sol.config.j, sol.config.s) + 1
    x_nodes, x_w, phi = _SHARED.get(("space error", b.level, b.degree, level), _error_table, b, level)
    left = xt @ sol.coeffs.T
    n_t, n_x = left.shape[0], x_nodes.shape[0]
    width = max(1, min(n_x, _ERROR_BYTES // (8 * n_t)))
    scratch = np.empty(n_t * width)
    sums = np.empty(n_x)
    for lo in range(0, n_x, width):
        hi = min(n_x, lo + width)
        block = scratch[: n_t * (hi - lo)].reshape(n_t, hi - lo)
        np.matmul(left, phi[lo:hi].T, out=block)
        block -= reference(x_nodes[lo:hi])
        np.square(block, out=block)
        np.matmul(t_w, block, out=sums[lo:hi])
    return math.sqrt(float(sums @ x_w))


def l2_error(sol: Solution, exact: Callable) -> float:
    """Space-time L2 distance to ``exact`` over [0, horizon] x [0, 1].

    ``exact`` is called once per column block of the error rule's space
    nodes, with the times as a column against that block as a row."""
    b, level = sol.temporal, max(sol.config.j, sol.config.s) + 1
    key = ("time error", b.level, b.degree, b.horizon, b.spline.tail_tol, level)
    t_nodes, t_w, xt = _SHARED.get(key, _error_table, b, level, b.horizon)
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
