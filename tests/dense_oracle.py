"""Dense Kronecker least squares: the reference the modal solve is checked against.

``dense_lstsq_solve`` takes the Gram matrices in place of their eigenpairs
but otherwise the arguments of ``linalg.modal_lstsq_solve``; it materialises
``kron(mass, a) + kron(stiffness, g)`` and runs one pivoted QR on it,
minimising the Euclidean residual.  Its rank cut defaults to the library's,
``linalg.RCOND`` times the leading pivot.  Its memory grows as
n_x**2 * n_pts * n_t, so use it on small cells only.

``one_block_lstsq`` is how a single dense block reaches the library's one
least-squares routine: as the one mode, with ``lam = 0`` and ``v = 1``, of a
system whose ``g`` is zero.  The library reads its cut from ``linalg.RCOND``
alone, so this helper patches that constant for the length of the call.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from fracspline import linalg
from fracspline.linalg import RCOND, SpatialModes, modal_lstsq_solve

ONE_MODE = SpatialModes(lam=np.zeros(1), v=np.eye(1), mass_cond=1.0)


def materialize_kron_sum(
    m: np.ndarray, a: np.ndarray, l: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Dense ``kron(m, a) + kron(l, g)``, built block-wise in Fortran order.

    Fortran order lets the LAPACK factorisation overwrite the buffer instead
    of copying it.
    """
    if m.shape != l.shape or a.shape != g.shape:
        raise ValueError("factor shape mismatch")
    nk, nc = m.shape
    npts, nr = a.shape
    out = np.zeros((nk * npts, nc * nr), order="F")
    for k in range(nk):
        rows = slice(k * npts, (k + 1) * npts)
        for i in range(nc):
            out[rows, i * nr : (i + 1) * nr] = m[k, i] * a + l[k, i] * g
    return out


def one_block_lstsq(a, b, rcond):
    """Least-squares solve of ``a x = b``, columns cut below ``rcond`` times
    the leading pivot; returns ``x`` and the report."""
    a = np.asarray(a, dtype=np.float64)
    with mock.patch.object(linalg, "RCOND", rcond):
        x, report = modal_lstsq_solve(ONE_MODE, a, np.zeros_like(a), np.asarray(b, dtype=np.float64)[None])
    return x[0], report


def dense_lstsq_solve(mass, stiffness, a, g, load, rcond=RCOND):
    """One Euclidean least-squares solve of ``mass C a^T + stiffness C g^T = load``."""
    big = materialize_kron_sum(mass, a, stiffness, g)
    x, report = one_block_lstsq(big, np.ravel(load), rcond)
    return x.reshape(mass.shape[0], a.shape[1]), report
