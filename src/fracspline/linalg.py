"""Least-squares machinery for the Kronecker-structured systems.

The collocation system is ``M C A^T + L C G^T = B``: spatial mass ``M`` and
stiffness ``L`` (n_x x n_x) times the temporal derivative and value
collocation tables ``A`` and ``G`` (n_pts x n_t).  It is never materialised.
The generalized eigenpairs ``L V = M V diag(lam)``, ``V^T M V = I``, split it
by fast diagonalisation (Lynch, Rice & Thomas, *Numer. Math.* 6, 1964) into
n_x independent n_pts x n_t problems ``(A + lam_k G) d_k = (V^T B)_k``, with
``C = V D``.  Solving each mode in the least-squares sense minimises the
residual in the ``M^-1 (x) I`` norm, not the Euclidean one, because
``V V^T = M^-1``.

Each mode is solved by Householder QR with column pivoting.  Column
pivoting matters: the fractional translate tails make trailing columns
nearly dependent at high refinement, and the pivoted factorisation both
flags that and survives it.  The rank rule lives here alone (``RCOND``).

The eigenpairs depend on the spatial operators alone, so they are a step of
their own (``spatial_modes``) whose result serves every solve at one spatial
level; ``modal_lstsq_solve`` takes them and runs the mode loop.  Both run
entirely at one BLAS thread (``_blas``): the blocks are small enough that a
second thread only adds overhead, and the rounding of the factorisation then
depends on neither the caller's thread count nor the machine's core count.
The cap is process-wide while it is held, so BLAS calls from other threads of
the process also see one thread during a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, lapack

from . import _blas

__all__ = [
    "RCOND",
    "LeastSquaresReport",
    "SpatialModes",
    "lstsq_solve",
    "modal_lstsq_solve",
    "spatial_modes",
]

# The non-integer translate family is redundant by construction; this cut
# filters the near-null directions that put a floor under every error column.
RCOND = 1e-8


@dataclass(frozen=True)
class LeastSquaresReport:
    """Diagnostics of one least-squares solve."""

    residual_norm: float
    condition_estimate: float
    rank: int
    rank_deficient: bool


def lstsq_solve(
    a: np.ndarray, b: np.ndarray, rcond: float | None = None
) -> tuple[np.ndarray, LeastSquaresReport]:
    """Minimum-residual solve of an overdetermined dense system.

    Rank decisions use the pivoted R diagonal: columns whose diagonal falls
    below ``rcond`` times the leading one are dropped and their coefficients
    set to zero (basic solution).  The returned report carries the residual
    norm, the R-diagonal condition estimate and the rank-deficiency flag.

    ``a`` is overwritten when it is Fortran-contiguous (the intended use:
    hand it a scratch block and let QR work in place).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError(f"rhs length {b.shape[0]} does not match {m} rows")
    if rcond is None:
        rcond = max(m, n) * np.finfo(np.float64).eps

    overwrite = a.flags.f_contiguous
    # workspace sized for the blocked algorithm (nb = 128); a query call
    # would copy the (large) matrix a second time
    lwork = max(3 * (n + 1), 2 * n + (n + 1) * 128)
    qr, jpvt, tau, _, info = lapack.dgeqp3(a, lwork=lwork, overwrite_a=overwrite)
    if info != 0:
        raise RuntimeError(f"dgeqp3 failed with info={info}")

    diag = np.abs(np.diag(qr[: min(m, n), :]))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        keep = diag >= rcond * diag[0]
        # diagonal of a pivoted R is non-increasing in exact arithmetic;
        # cut at the first drop below threshold to be safe
        rank = int(np.argmin(keep)) if not keep.all() else diag.size
    if rank == 0:
        x = np.zeros(n)
        report = LeastSquaresReport(
            residual_norm=float(np.linalg.norm(b)),
            condition_estimate=np.inf,
            rank=0,
            rank_deficient=True,
        )
        return x, report

    c = b.reshape(m, 1).copy(order="F")
    # reflector block only: dormqr reads the reflector count off the width.
    # A one-column workspace selects the unblocked path, which for a single
    # right-hand side skips forming the blocked reflectors' triangular factors.
    cq, _, info = lapack.dormqr("L", "T", qr[:, : tau.shape[0]], tau, c, 1, overwrite_c=1)
    if info != 0:
        raise RuntimeError(f"dormqr failed with info={info}")

    # The leading `rank` columns, read with leading dimension m, hold R's
    # top rank x rank block in place; dtrtrs solves for cq's first `rank`
    # entries and returns a copy, so cq keeps the residual part.
    y, info = lapack.dtrtrs(qr[:, :rank], cq)
    if info != 0:
        raise RuntimeError(f"dtrtrs failed with info={info}")
    xp = np.zeros(n)
    xp[:rank] = y[:rank, 0]
    x = np.empty(n)
    x[jpvt - 1] = xp  # jpvt is 1-based

    residual = float(np.linalg.norm(cq[rank:, 0])) if m > rank else 0.0
    # full-diagonal spread, not just the kept block: the estimate should keep
    # reporting how unstable the column family is even when rcond cut it
    cond = float(diag[0] / diag[-1]) if diag[-1] > 0 else np.inf
    report = LeastSquaresReport(
        residual_norm=residual,
        condition_estimate=cond,
        rank=rank,
        rank_deficient=rank < n,
    )
    return x, report


@dataclass(frozen=True, eq=False)
class SpatialModes:
    """Generalized eigenpairs of the spatial pencil and the mass condition.

    ``stiffness v = mass v diag(lam)`` with ``v^T mass v = I`` and ``lam``
    ascending; ``mass_cond`` is ``cond(mass)``, the largest over the
    smallest eigenvalue.  They depend on the spatial operators alone, so one
    set serves every solve at that spatial level.
    """

    lam: np.ndarray
    v: np.ndarray
    mass_cond: float


def spatial_modes(mass: np.ndarray, stiffness: np.ndarray) -> SpatialModes:
    """Eigenpairs of ``(stiffness, mass)`` for ``modal_lstsq_solve``.

    ``mass`` must be symmetric positive definite and ``stiffness``
    symmetric.  Runs at one BLAS thread, as the mode loop does.
    """
    mass = np.asarray(mass, dtype=np.float64)
    stiffness = np.asarray(stiffness, dtype=np.float64)
    nk = mass.shape[0]
    if mass.shape != (nk, nk) or stiffness.shape != mass.shape:
        raise ValueError("factor shape mismatch")
    with _blas.single_thread():
        lam, v = eigh(stiffness, mass)
        mass_eigs = np.linalg.eigvalsh(mass)
    return SpatialModes(lam=lam, v=v, mass_cond=float(mass_eigs[-1] / mass_eigs[0]))


def modal_lstsq_solve(
    modes: SpatialModes,
    a: np.ndarray,
    g: np.ndarray,
    load: np.ndarray,
    rcond: float = RCOND,
) -> tuple[np.ndarray, LeastSquaresReport]:
    """Least-squares solve of ``mass C a^T + stiffness C g^T = load`` mode by mode.

    ``modes`` are the spatial pencil's eigenpairs (``spatial_modes``);
    ``load`` has one row per spatial member and one column per row of
    ``a``.  Returns ``C`` (shape ``(n_x, n_t)``) and a report over all
    modes.  The residual minimised, and reported as ``residual_norm``, is
    that of the whole system in the ``mass^-1 (x) I`` norm.

    Rank decisions use one threshold for all modes, ``rcond`` times the
    largest leading pivot of any mode; a per-mode relative cut would keep
    directions in the weak modes that the strong ones swamp.  The leading
    pivot of a column-pivoted QR is the block's largest column norm, and
    the largest over all modes is that of the first or the last mode, so
    the threshold is known before any factorisation.

    ``condition_estimate`` is ``cond(mass)`` times the R-diagonal spread
    over all modes, largest leading pivot over smallest trailing one.  As
    ``cond(V)**2 == cond(mass)``, that estimates an upper bound on the
    condition of the whole system.  ``rank`` counts the columns kept over
    all modes.
    """
    lam, v = modes.lam, modes.v
    # Fortran order, so that forming each mode's block is a contiguous pass
    a = np.asfortranarray(a, dtype=np.float64)
    g = np.asfortranarray(g, dtype=np.float64)
    load = np.asarray(load, dtype=np.float64)
    nk = lam.shape[0]
    npts, nc = a.shape
    if v.shape != (nk, nk) or g.shape != a.shape:
        raise ValueError("factor shape mismatch")
    if load.shape != (nk, npts):
        raise ValueError(f"load has shape {load.shape}, expected {(nk, npts)}")

    with _blas.single_thread():
        rhs = v.T @ load
        # ||a_c + lam g_c||**2 is convex in lam: its maximum is at an end of the sorted lam
        top = max(np.linalg.norm(a + lam_k * g, axis=0).max() for lam_k in lam[[0, -1]])

        d = np.empty((nk, nc))
        block = np.empty((npts, nc), order="F")
        rank = 0
        residual2 = 0.0
        floor = math.inf  # smallest trailing pivot over all modes
        for k, lam_k in enumerate(lam):
            np.multiply(g, lam_k, out=block)
            block += a
            colmax = np.linalg.norm(block, axis=0).max()
            d[k], rep = lstsq_solve(block, rhs[k], rcond=rcond * top / colmax)
            rank += rep.rank
            residual2 += rep.residual_norm**2
            floor = min(floor, colmax / rep.condition_estimate)

        spread = top / floor if floor > 0.0 else math.inf
        report = LeastSquaresReport(
            residual_norm=math.sqrt(residual2),
            condition_estimate=float(modes.mass_cond * spread),
            rank=rank,
            rank_deficient=rank < nk * nc,
        )
        return v @ d, report
