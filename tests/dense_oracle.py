"""Dense Kronecker least squares: the reference the modal solve is checked against.

``dense_lstsq_solve`` has the signature of ``linalg.modal_lstsq_solve`` but
materialises ``kron(mass, a) + kron(stiffness, g)`` and runs one pivoted QR
on it, minimising the Euclidean residual.  Its rank cut defaults to the
library's, ``linalg.RCOND`` times the leading pivot.  Its memory grows as
n_x**2 * n_pts * n_t, so use it on small cells only.
"""

from __future__ import annotations

import numpy as np

from fracspline.linalg import RCOND, lstsq_solve


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


def dense_lstsq_solve(mass, stiffness, a, g, load, rcond=RCOND):
    """One Euclidean least-squares solve of ``mass C a^T + stiffness C g^T = load``."""
    big = materialize_kron_sum(mass, a, stiffness, g)
    x, report = lstsq_solve(big, np.ravel(load), rcond=rcond)
    return x.reshape(mass.shape[0], a.shape[1]), report
