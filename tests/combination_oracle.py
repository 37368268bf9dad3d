"""Translate-by-translate combination matrix: the reference the sliced and
mirrored ``build_spatial`` is checked against.

``loop_combinations`` writes every coefficient with its own index, the
right endpoint rows through the reflection ``k -> 2**j - n - 1 - k`` of the
translate index, so it shows no symmetry it was not built with.
"""

from __future__ import annotations

import numpy as np

from fracspline.basis import _left_boundary_combos
from fracspline.bspline import FractionalBSpline


def loop_combinations(j: int, n: int) -> np.ndarray:
    """Coefficients of the degree-``n`` Dirichlet members at level ``j``
    over the translates ``k = -n .. 2**j - 1``, one row per member."""
    size = 2**j + n - 2

    def col(k: int) -> int:
        return k + n

    combos = _left_boundary_combos(FractionalBSpline(float(n)))
    c_mat = np.zeros((size, 2**j + n))
    # left endpoint combinations
    for m, c in enumerate(combos, start=1):
        for coeff, k in zip(c, range(-(m + 1), 0)):
            c_mat[m - 1, col(k)] = coeff
    # interior translates
    for i, k in enumerate(range(0, 2**j - n)):
        c_mat[(n - 1) + i, col(k)] = 1.0
    # right endpoint combinations: reflect k -> 2**j - n - 1 - k
    for m, c in enumerate(combos, start=1):
        for coeff, k in zip(c, range(-(m + 1), 0)):
            c_mat[size - m, col(2**j - n - 1 - k)] = coeff
    return c_mat
