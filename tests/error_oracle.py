"""The error norms on one whole grid: the reference the column-block norms are checked against.

``grid_l2_error`` and ``grid_l2_error_at_time`` take the library's error
rule and value tables but form the field's residual on the whole
(time nodes x space nodes) grid at once, as two full grids.
"""

from __future__ import annotations

import math

import numpy as np

from fracspline import solver


def _grid_error_norm(sol, xt, t_w, reference):
    b, level = sol.spatial, max(sol.config.j, sol.config.s) + 1
    x_nodes, x_w, phi = solver._error_table(b, level)[0]
    diff = (xt @ sol.coeffs.T) @ phi.T
    diff -= reference(x_nodes)
    np.square(diff, out=diff)
    return math.sqrt(float(t_w @ diff @ x_w))


def grid_l2_error(sol, exact):
    b, level = sol.temporal, max(sol.config.j, sol.config.s) + 1
    t_nodes, t_w, xt = solver._error_table(b, level, b.horizon)[0]
    return _grid_error_norm(sol, xt, t_w, lambda x: exact(t_nodes[:, None], x[None, :]))


def grid_l2_error_at_time(sol, exact, t):
    xt = sol.temporal.eval_many(np.array([float(t)]))
    return _grid_error_norm(sol, xt, np.ones(1), lambda x: exact(float(t), x))
