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
cost.  So the loop works a chunk of modes at a time, in one scratch per call
that holds a 1 MiB chunk of blocks and their squares: one broadcast forms
the chunk and one reduction its column norms, ``dgeqp3`` factors each block
in place, the chunk's ranks are read off its R diagonals at once, and past
that each mode that keeps columns makes only its ``dormqr`` and ``dtrtrs``
calls.  It is the one least-squares entry point, so the rank rule has one
home; a single block ``a`` is its one-mode case (``lam = 0``, ``v = 1``,
``g = 0``).  Both steps run at one BLAS thread
(``_blas``): the blocks are small enough that a second thread only adds
overhead, and the rounding of the factorisation then depends on neither the
caller's thread count nor the machine's core count.  The cap is
process-wide while it is held.

SciPy serves the two steps alone (``eigh`` and the LAPACK calls), so
importing this module loads none of it: ``scipy.linalg`` is imported by the
first ``spatial_modes`` or ``modal_lstsq_solve`` call, before its BLAS cap,
and its routines are then module attributes like any import (``_scipy``).
A process that only evaluates a stored solution never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas

__all__ = [
    "RCOND",
    "LeastSquaresReport",
    "SpatialModes",
    "modal_lstsq_solve",
    "spatial_modes",
]

# The non-integer translate family is redundant by construction; this cut
# filters the near-null directions that put a floor under every error column.
RCOND = 1e-8

# Bytes of one chunk of the mode loop's blocks (its scratch holds a chunk and
# the chunk's squares): one chunk holds every mode of a curves cell, and a
# level-8 block (513 x 265, 1.04 MiB) alone fills one.
_CHUNK_BYTES = 1 << 20

# SciPy's routines, bound as module attributes by ``_scipy``
_SCIPY_NAMES = ("eigh", "dgeqp3", "dormqr", "dtrtrs")


def _scipy() -> None:
    """Bind ``eigh``, ``dgeqp3``, ``dormqr`` and ``dtrtrs`` as module
    attributes, importing ``scipy.linalg`` the first time.  A name already
    bound (a patched one, say) is kept."""
    bound = globals()
    if all(name in bound for name in _SCIPY_NAMES):
        return
    from scipy.linalg import eigh
    from scipy.linalg.lapack import dgeqp3, dormqr, dtrtrs

    for name, routine in zip(_SCIPY_NAMES, (eigh, dgeqp3, dormqr, dtrtrs)):
        bound.setdefault(name, routine)


def __getattr__(name: str):
    """``linalg.eigh`` and the LAPACK routines before the first solve."""
    if name in _SCIPY_NAMES:
        _scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class LeastSquaresReport:
    """Diagnostics of one least-squares solve."""

    residual_norm: float
    condition_estimate: float
    rank: int
    rank_deficient: bool


def _solve_stack(
    stack: np.ndarray, rhs: np.ndarray, x: np.ndarray, rcond: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Pivoted-QR least-squares solves of a stack of blocks, in place.

    Block k is the Fortran-order matrix ``stack[k].T`` (``stack`` is
    C-contiguous), ``rhs[k]`` its right-hand side and ``x[k]``, zero on
    entry, its solution.  Its rank is the number of R-diagonal entries
    before the first one below ``rcond[k]`` times the leading one; the
    dropped columns keep zero coefficients (basic solution).  The stack
    ends up holding the factors and ``rhs[k]`` its residual part past the
    rank.  Returns the ranks, the R-diagonal spreads (leading over trailing
    pivot of the whole diagonal, ``inf`` when the trailing one is zero) and
    the residual norms, one per block.
    """
    count, n, _ = stack.shape
    # workspace sized for the blocked algorithm (nb = 128); a query call
    # would copy the (large) matrix a second time
    lwork = max(3 * (n + 1), 2 * n + (n + 1) * 128)
    factors = []
    for block in stack:
        _, jpvt, tau, _, info = dgeqp3(block.T, lwork=lwork, overwrite_a=1)
        if info != 0:
            raise RuntimeError(f"dgeqp3 failed with info={info}")
        factors.append((jpvt, tau))

    diag = np.abs(np.diagonal(stack, axis1=1, axis2=2))
    lead, last = diag[:, 0], diag[:, -1]
    # the diagonal of a pivoted R is non-increasing in exact arithmetic;
    # cut at the first drop below threshold to be safe.  A zero block
    # keeps nothing, whatever its (possibly infinite) rcond.
    cut = np.multiply(rcond, lead, out=np.full(count, math.inf), where=lead != 0.0)
    keep = diag >= cut[:, None]
    ranks = np.logical_and.accumulate(keep, axis=1).sum(axis=1)
    # full-diagonal spread, not just the kept block: the estimate should keep
    # reporting how unstable the column family is even when rcond cut it
    spread = np.divide(lead, last, out=np.full(count, math.inf), where=last > 0.0)

    norms = []
    for block, c, xk, (jpvt, tau), rank in zip(stack, rhs, x, factors, ranks.tolist()):
        if rank:
            qr, col = block.T, c[:, None]
            # reflector block only: dormqr reads the reflector count off the width.
            # A one-column workspace selects the unblocked path, which for a single
            # right-hand side skips forming the blocked reflectors' triangular factors.
            _, _, info = dormqr("L", "T", qr[:, : tau.shape[0]], tau, col, 1, overwrite_c=1)
            if info != 0:
                raise RuntimeError(f"dormqr failed with info={info}")
            # The leading `rank` columns, read with leading dimension m, hold R's
            # top rank x rank block in place; dtrtrs overwrites c's first `rank`
            # entries with the solution, so the rest stays the residual part.
            _, info = dtrtrs(qr[:, :rank], col, overwrite_b=1)
            if info != 0:
                raise RuntimeError(f"dtrtrs failed with info={info}")
            xk[jpvt[:rank] - 1] = c[:rank]  # jpvt is 1-based
        tail = c[rank:]  # all of b when nothing is kept
        norms.append(math.sqrt(tail @ tail))
    return ranks, spread, norms


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
    _scipy()
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
    chunk of at most 1 MiB (at least one block), as many modes at a time as
    fit, in one scratch allocated once per call that holds a chunk and its
    squares: one broadcast forms a chunk and one sum along its contiguous
    axis gives its column norms.  Each block's transpose is the
    Fortran-order matrix that ``dgeqp3`` factors in place; then the chunk's
    R diagonals are read, and its thresholds and ranks set, at once, and
    ``dormqr`` and ``dtrtrs`` solve each mode that keeps columns straight
    into its rows of the rotated load and of ``D`` (``_solve_stack``).  The
    residual and the pivot spread are summed once, in mode order.  A system
    with no rows or no columns is a ``ValueError``, raised before any
    allocation or LAPACK call.
    """
    lam, v = modes.lam, modes.v
    # C-contiguous (n_t, n_pts) views, made contiguous once rather than per chunk
    at = np.asfortranarray(a, dtype=np.float64).T
    gt = np.asfortranarray(g, dtype=np.float64).T
    load = np.asarray(load, dtype=np.float64)
    nk = lam.shape[0]
    nc, npts = at.shape
    if nc == 0 or npts == 0:  # a chunk would hold no block, and dgeqp3 takes no empty matrix
        raise ValueError(f"a has shape {(npts, nc)}: nothing to fit")
    if v.shape != (nk, nk) or gt.shape != at.shape:
        raise ValueError("factor shape mismatch")
    if load.shape != (nk, npts):
        raise ValueError(f"load has shape {load.shape}, expected {(nk, npts)}")

    per = max(1, _CHUNK_BYTES // (8 * nc * npts))  # modes per chunk
    blocks_buf, squares_buf = np.empty((2, min(per, nk), nc, npts))

    def form(lams):
        """The blocks of ``lams`` at the head of the scratch, and their largest column norms."""
        blocks, squares = blocks_buf[: len(lams)], squares_buf[: len(lams)]
        np.multiply(gt, lams[:, None, None], out=blocks)
        blocks += at
        np.multiply(blocks, blocks, out=squares)
        return blocks, np.sqrt(np.add.reduce(squares, axis=2).max(axis=1))

    _scipy()
    with _blas.single_thread():
        rhs = v.T @ load
        # ||a_c + lam g_c||**2 is convex in lam: its maximum is at an end of the sorted lam
        top = max(form(lam[[0]])[1][0], form(lam[[-1]])[1][0])
        d = np.zeros((nk, nc))
        colmax = np.empty(nk)
        ranks = np.empty(nk, dtype=np.intp)
        spread = np.empty(nk)
        norms = []
        for k0 in range(0, nk, per):
            k1 = min(nk, k0 + per)
            blocks, colmax[k0:k1] = form(lam[k0:k1])
            # a zero block's threshold, rcond * top / 0, is infinite
            cuts = np.full(k1 - k0, math.inf)
            np.divide(rcond * top, colmax[k0:k1], out=cuts, where=colmax[k0:k1] > 0.0)
            ranks[k0:k1], spread[k0:k1], chunk_norms = _solve_stack(blocks, rhs[k0:k1], d[k0:k1], cuts)
            norms += chunk_norms

        # one mode at a time, in mode order: a pairwise sum rounds differently
        residual2 = 0.0
        for norm in norms:
            residual2 += norm**2
        floor = (colmax / spread).min()  # smallest trailing pivot over all modes
        cond = float(modes.mass_cond * (top / floor if floor > 0.0 else math.inf))
        rank = int(ranks.sum())
        return v @ d, LeastSquaresReport(math.sqrt(residual2), cond, rank, rank < nk * nc)
