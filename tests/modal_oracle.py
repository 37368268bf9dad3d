"""The mode loop one block at a time: the reference the chunked loop is checked against.

``oracle_modal_lstsq_solve`` has the signature of ``linalg.modal_lstsq_solve``
and the same rank rule, but forms and solves each mode's block on its own
through ``oracle_lstsq_solve``, a self-contained pivoted-QR solve of one
block that builds a full report.  The arithmetic of every step is that of
the library, so coefficients and reports must agree to the bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from fracspline import _blas
from fracspline.linalg import RCOND, LeastSquaresReport


def oracle_lstsq_solve(a, b, rcond):
    """One block: ``dgeqp3``, a cut at the first pivot below ``rcond`` times
    the leading one, then ``dormqr`` and ``dtrtrs`` on the kept columns."""
    a = np.array(a, dtype=np.float64, order="F")
    c = np.array(b, dtype=np.float64).reshape(-1, 1)
    n = a.shape[1]
    lwork = max(3 * (n + 1), 2 * n + (n + 1) * 128)
    qr, jpvt, tau, _, info = lapack.dgeqp3(a, lwork=lwork, overwrite_a=1)
    assert info == 0
    diag = np.abs(qr.diagonal())
    rank = 0
    if diag.size and diag[0] != 0.0:
        keep = diag >= rcond * diag[0]
        rank = int(keep.argmin())
        if keep[rank]:
            rank = diag.size
    x = np.zeros(n)
    if rank:
        c, _, info = lapack.dormqr("L", "T", qr[:, : tau.shape[0]], tau, c, 1, overwrite_c=1)
        assert info == 0
        y, info = lapack.dtrtrs(qr[:, :rank], c)
        assert info == 0
        x[jpvt[:rank] - 1] = y[:rank, 0]
    tail = c[rank:, 0]
    cond = float(diag[0] / diag[-1]) if diag.size and diag[-1] > 0 else math.inf
    return x, LeastSquaresReport(math.sqrt(tail @ tail), cond, rank, rank < n or rank == 0)


def oracle_modal_lstsq_solve(modes, a, g, load, rcond=RCOND):
    """Every mode's block ``a + lam_k g`` formed and solved on its own."""
    lam, v = modes.lam, modes.v
    at = np.asfortranarray(a, dtype=np.float64).T
    gt = np.asfortranarray(g, dtype=np.float64).T
    nk, nc = lam.shape[0], at.shape[0]
    with _blas.single_thread():
        rhs = v.T @ np.asarray(load, dtype=np.float64)
        ends = at + lam[[0, -1], None, None] * gt
        top = math.sqrt(np.add.reduce(ends * ends, axis=2).max())
        d = np.empty((nk, nc))
        rank, residual2, floor = 0, 0.0, math.inf
        for k in range(nk):
            block = np.multiply(gt, lam[k])
            block += at
            cm = np.sqrt(np.add.reduce(block * block, axis=1).max())
            d[k], rep = oracle_lstsq_solve(block.T, rhs[k], rcond=rcond * top / cm)
            rank += rep.rank
            residual2 += rep.residual_norm**2
            floor = min(floor, cm / rep.condition_estimate)
        spread = top / floor if floor > 0.0 else math.inf
        cond = float(modes.mass_cond * spread)
        return v @ d, LeastSquaresReport(math.sqrt(residual2), cond, rank, rank < nk * nc)
