"""End-to-end solve: assemble, constrain, least-squares, measure.

The time discretisation is collocation in a redundant translate family, so
the discrete system is solved in the least-squares sense, one spatial
eigenmode at a time (``linalg.modal_lstsq_solve``).  That minimises the
residual in the ``mass^-1 (x) I`` norm rather than the Euclidean norm.  The
homogeneous initial condition is enforced exactly by eliminating one
coefficient per spatial member (a null-space substitution that preserves
the Kronecker structure); the t = 0 collocation row is kept as well but
becomes inert.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .assembly import QuadratureRule, assemble_system
from .basis import SpatialBasis, TemporalBasis, build_spatial, build_temporal
from .bspline import DEFAULT_TAIL_TOL
from .linalg import LeastSquaresReport, modal_lstsq_solve
from .problems import ProblemSpec
from .specfun import ConvergenceError
from .specfun import gamma as _gamma

__all__ = [
    "SolveConfig",
    "Solution",
    "ErrorReport",
    "solve",
    "evaluate",
    "l2_error",
    "l2_error_at_time",
    "caputo_oracle",
]

ILL_CONDITION_THRESHOLD = 1e12


@dataclass(frozen=True)
class SolveConfig:
    """Discretisation parameters of one solve.

    ``q`` is the dyadic collocation level (defaults to ``s + 1``, i.e. twice
    as many collocation nodes as time translates per unit); ``ic_row``
    keeps the explicit t = 0 constraint row and the exact coefficient
    elimination that goes with it.  ``rcond`` is the relative R-diagonal
    cutoff of the least-squares solve, one global threshold over all
    spatial modes (``rcond`` times the largest leading pivot of any mode):
    the non-integer translate family is redundant by construction, and the
    default cutoff filters the near-null directions that otherwise put a
    conditioning floor under every error column.  Pass ``None`` for the
    raw machine-precision cutoff.
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
    ic_row: bool = True
    rcond: Optional[float] = 1e-8

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if self.gamma >= self.beta + 0.5:
            raise ValueError(
                f"gamma={self.gamma!r} needs beta > gamma - 1/2, got beta={self.beta!r}"
            )
        if self.q is not None and self.q < self.s:
            raise ValueError(f"collocation level q={self.q!r} must be >= s={self.s!r}")
        if self.quad_points < self.alpha + 1:
            raise ValueError(
                f"{self.quad_points} quadrature points cannot integrate degree-"
                f"{self.alpha} splines exactly; need at least {self.alpha + 1}"
            )
        if self.rcond is not None and not 0.0 < self.rcond < 1.0:
            raise ValueError(f"rcond must lie in (0, 1), got {self.rcond!r}")

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
    sbasis = build_spatial(config.j, config.alpha)
    tbasis = build_temporal(config.s, config.beta, config.horizon, config.tail_tol)
    quad = QuadratureRule(points_per_cell=config.quad_points)
    system = assemble_system(
        sbasis,
        tbasis,
        problem.forcing,
        config.gamma,
        config.collocation_level,
        quad,
        include_ic_row=config.ic_row,
    )

    a_mat = system.collocation.derivative
    g_mat = system.collocation.value

    z = _ic_nullspace(tbasis) if config.ic_row else None
    if z is not None:
        a_mat = a_mat @ z
        g_mat = g_mat @ z

    coeffs, report = modal_lstsq_solve(
        system.mass, system.stiffness, a_mat, g_mat, system.load, rcond=config.rcond
    )
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

    Local-support evaluation: each point touches only the ``S + 1`` time
    and ``alpha + 2`` space translates that can be nonzero there, never a
    full points x translates table.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > sol.config.horizon):
        raise ValueError(f"t outside [0, {sol.config.horizon}]")
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("x outside [0, 1]")
    scalar = t_arr.ndim == 0 and x_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr).ravel()
    x_flat = np.atleast_1d(x_arr).ravel()
    if t_flat.shape != x_flat.shape:
        raise ValueError("t and x must have matching shapes (or be scalars)")
    # Only the translates supported at a point contribute: contract their
    # values with the coefficients of each (space, time) translate pair.
    xv, xc = sol.spatial.supported_translates(x_flat)
    tv, tc = sol.temporal.supported_translates(t_flat)
    pair_coeffs = sol.spatial.combinations.T @ sol.coeffs
    vals = np.einsum("pa,pb,pab->p", xv, tv, pair_coeffs[xc[:, :, None], tc[:, None, :]])
    return float(vals[0]) if scalar else vals.reshape(t_arr.shape)


def _tensor_gauss(level: int, cells0: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    ref_x, ref_w = np.polynomial.legendre.leggauss(points)
    ncells = cells0 * 2**level
    h = cells0 / ncells
    left = np.arange(ncells) * h
    nodes = (left[:, None] + (ref_x + 1.0) * (h / 2.0)).ravel()
    weights = np.tile(ref_w * (h / 2.0), ncells)
    return nodes, weights


def l2_error(sol: Solution, exact: Callable, points_per_cell: int = 4) -> float:
    """Space-time L2 distance to ``exact`` over [0, horizon] x [0, 1].

    Tensor Gauss-Legendre at one dyadic level above the finer of the two
    discretisation levels, so the quadrature resolves both the solution and
    the reference field.
    """
    level = max(sol.config.j, sol.config.s) + 1
    t_nodes, t_w = _tensor_gauss(level, sol.config.horizon, points_per_cell)
    x_nodes, x_w = _tensor_gauss(level, 1, points_per_cell)
    num = sol.grid_values(t_nodes, x_nodes)
    ref = exact(t_nodes[:, None], x_nodes[None, :])
    diff2 = (num - ref) ** 2
    return float(math.sqrt(t_w @ diff2 @ x_w))


def l2_error_at_time(
    sol: Solution, exact: Callable, t: float, points_per_cell: int = 4
) -> float:
    """Space-only L2 distance at a fixed time (diagnostic)."""
    level = max(sol.config.j, sol.config.s) + 1
    x_nodes, x_w = _tensor_gauss(level, 1, points_per_cell)
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


def caputo_oracle(
    f: Callable[[float], float],
    order: float,
    t: float,
    fprime: Optional[Callable[[float], float]] = None,
    breakpoints=(),
) -> float:
    """Caputo derivative of a scalar function by adaptive quadrature.

    Slow and accurate on purpose: this is the reference the closed-form
    derivative rules are tested against, not a production path.  The kernel
    singularity is removed by the substitution ``sigma = (t - tau)**(1-g)``,
    after which the integrand is as smooth as ``f'``; known kink locations
    of ``f`` can be passed via ``breakpoints`` (in the original variable).

    Raises
    ------
    ConvergenceError
        If the quadrature does not reach its tolerance.
    """
    if not 0.0 < order < 1.0:
        raise ValueError(f"Caputo order must lie in (0, 1), got {order!r}")
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t!r}")
    if t == 0.0:
        return 0.0
    if fprime is None:
        h = 1e-5 * max(1.0, abs(t))

        def fprime(tau, _f=f, _h=h):
            return (
                -_f(tau + 2 * _h)
                + 8.0 * _f(tau + _h)
                - 8.0 * _f(tau - _h)
                + _f(tau - 2 * _h)
            ) / (12.0 * _h)

    p = 1.0 - order
    upper = t**p

    def integrand(sigma):
        return fprime(t - sigma ** (1.0 / p))

    pts = sorted({(t - b) ** p for b in breakpoints if 0.0 < b < t})
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            # request an order tighter than the acceptance gate below, or
            # quad stops at its own default right on top of the gate
            val, abserr = integrate.quad(
                integrand,
                0.0,
                upper,
                points=pts or None,
                limit=200,
                epsabs=1e-10,
                epsrel=1e-10,
            )
        except integrate.IntegrationWarning as exc:
            raise ConvergenceError(f"Caputo quadrature did not converge: {exc}") from exc
    if abserr > 1e-8 * max(1.0, abs(val)):
        raise ConvergenceError(
            f"Caputo quadrature error estimate {abserr:.2e} too large at t={t}"
        )
    return val / _gamma(2.0 - order)
