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
level; ``modal_lstsq_solve`` takes them and runs the mode loop.  At sweep
sizes a block's QR takes tens of microseconds, about what a few NumPy calls
cost, and under a sweep's cell threads each call also takes the GIL.  So the
loop forms its blocks in chunks of modes that fit one 1 MiB buffer, with one
broadcast and one norm reduction per chunk, and ``lstsq_solve`` makes few
calls besides its three LAPACK ones.  Both steps run at one BLAS thread
(``_blas``): the blocks are small enough that a second thread only adds
overhead, and the rounding of the factorisation then depends on neither the
caller's thread count nor the machine's core count.  The cap is process-wide
while it is held.
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

# Scratch bytes the mode loop forms blocks in: one chunk holds every mode of a
# curves cell, and a level-8 block (513 x 265, 1.04 MiB) alone fills one.
_CHUNK_BYTES = 1 << 20


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
    hand it a scratch block and let QR work in place).  The mode loop calls
    this once per block, so past the three LAPACK calls it makes only a
    fixed handful of NumPy calls.
    """
    a = np.asarray(a, dtype=np.float64)
    # the one copy of the right-hand side; dormqr overwrites it in place
    c = np.array(b, dtype=np.float64).reshape(-1, 1)
    m, n = a.shape
    if m == 0:  # dgeqp3 would print an illegal-value message to stderr
        raise ValueError("matrix has no rows")
    if c.shape[0] != m:
        raise ValueError(f"rhs length {c.shape[0]} does not match {m} rows")
    if rcond is None:
        rcond = max(m, n) * np.finfo(np.float64).eps

    # workspace sized for the blocked algorithm (nb = 128); a query call
    # would copy the (large) matrix a second time
    lwork = max(3 * (n + 1), 2 * n + (n + 1) * 128)
    qr, jpvt, tau, _, info = lapack.dgeqp3(a, lwork=lwork, overwrite_a=a.flags.f_contiguous)
    if info != 0:
        raise RuntimeError(f"dgeqp3 failed with info={info}")

    diag = np.abs(qr.diagonal())
    rank = 0
    if diag.size and diag[0] != 0.0:
        # diagonal of a pivoted R is non-increasing in exact arithmetic;
        # cut at the first drop below threshold to be safe
        keep = diag >= rcond * diag[0]
        rank = int(keep.argmin())
        if keep[rank]:  # nothing falls below the threshold
            rank = diag.size

    x = np.zeros(n)
    if rank:
        # reflector block only: dormqr reads the reflector count off the width.
        # A one-column workspace selects the unblocked path, which for a single
        # right-hand side skips forming the blocked reflectors' triangular factors.
        c, _, info = lapack.dormqr("L", "T", qr[:, : tau.shape[0]], tau, c, 1, overwrite_c=1)
        if info != 0:
            raise RuntimeError(f"dormqr failed with info={info}")
        # The leading `rank` columns, read with leading dimension m, hold R's
        # top rank x rank block in place; dtrtrs solves for c's first `rank`
        # entries and returns a copy, so c keeps the residual part.
        y, info = lapack.dtrtrs(qr[:, :rank], c)
        if info != 0:
            raise RuntimeError(f"dtrtrs failed with info={info}")
        x[jpvt[:rank] - 1] = y[:rank, 0]  # jpvt is 1-based

    tail = c[rank:, 0]  # all of b when nothing is kept
    # full-diagonal spread, not just the kept block: the estimate should keep
    # reporting how unstable the column family is even when rcond cut it
    cond = float(diag[0] / diag[-1]) if diag.size and diag[-1] > 0 else math.inf
    # an empty fit counts as rank-deficient
    return x, LeastSquaresReport(math.sqrt(tail @ tail), cond, rank, rank < n or rank == 0)


@dataclass(frozen=True, eq=False)
class SpatialModes:
    """Generalized eigenpairs of the spatial pencil and the mass condition.

    ``stiffness v = mass v diag(lam)`` with ``v^T mass v = I`` and ``lam``
    ascending; ``mass_cond`` is ``cond(mass)``, the largest over the
    smallest eigenvalue.  One set serves every solve at that spatial level.
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

    The blocks ``a + lam_k g`` are formed in a C-order ``(modes, n_t, n_pts)``
    buffer of at most 1 MiB (at least one block), allocated once per call,
    as many modes at a time as fit: one broadcast forms a chunk and one sum
    along its contiguous axis gives its column norms.  Each block's transpose
    is the Fortran-order matrix that ``lstsq_solve``, called once per mode,
    factors in place.
    """
    lam, v = modes.lam, modes.v
    # C-contiguous (n_t, n_pts) views, made contiguous once rather than per chunk
    at = np.asfortranarray(a, dtype=np.float64).T
    gt = np.asfortranarray(g, dtype=np.float64).T
    load = np.asarray(load, dtype=np.float64)
    nk = lam.shape[0]
    nc, npts = at.shape
    if v.shape != (nk, nk) or gt.shape != at.shape:
        raise ValueError("factor shape mismatch")
    if load.shape != (nk, npts):
        raise ValueError(f"load has shape {load.shape}, expected {(nk, npts)}")

    per = max(1, _CHUNK_BYTES // (8 * nc * npts))  # modes per chunk
    with _blas.single_thread():
        rhs = v.T @ load
        # ||a_c + lam g_c||**2 is convex in lam: its maximum is at an end of the sorted lam
        ends = at + lam[[0, -1], None, None] * gt
        top = math.sqrt(np.add.reduce(ends * ends, axis=2).max())

        d = np.empty((nk, nc))
        buf = np.empty((min(per, nk), nc, npts))
        rank = 0
        residual2 = 0.0
        floor = math.inf  # smallest trailing pivot over all modes
        for k0 in range(0, nk, per):
            blocks = buf[: min(per, nk - k0)]
            np.multiply(gt, lam[k0 : k0 + len(blocks), None, None], out=blocks)
            blocks += at
            colmax = np.sqrt(np.add.reduce(blocks * blocks, axis=2).max(axis=1))
            for k, block, cm in zip(range(k0, nk), blocks, colmax):
                d[k], rep = lstsq_solve(block.T, rhs[k], rcond=rcond * top / cm)
                rank += rep.rank
                residual2 += rep.residual_norm**2
                floor = min(floor, cm / rep.condition_estimate)

        spread = top / floor if floor > 0.0 else math.inf
        cond = float(modes.mass_cond * spread)
        return v @ d, LeastSquaresReport(math.sqrt(residual2), cond, rank, rank < nk * nc)
