"""Shared fixtures: the expensive table sweeps are solved once per session,
and the per-process operator caches can be emptied."""

from __future__ import annotations

import time
import warnings

import pytest

from fracspline import basis, solver
from fracspline.problems import example1
from fracspline.solver import SolveConfig, l2_error, solve


def _sweep(beta: float):
    prob = example1(0.5)
    rows = {}
    start = time.perf_counter()
    for s in (5, 6):
        for j in (3, 4, 5, 6):
            cfg = SolveConfig(gamma=0.5, j=j, s=s, beta=beta)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol, rep = solve(prob, cfg)
            rows[(s, j)] = (sol, rep, l2_error(sol, prob.exact))
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.fixture(scope="session")
def table1_sweep():
    """gamma 0.5, beta 3.5, s in {5,6} x j in {3..6}: (solution, report, l2) per cell."""
    return _sweep(3.5)


@pytest.fixture(scope="session")
def table2_sweep():
    """Same grid with the cubic temporal family (beta 3)."""
    return _sweep(3.0)


@pytest.fixture
def clear_caches():
    """Empty the shared spatial-level, temporal-level, error-table and
    temporal-spline caches, so the test starts cold; the fixture's value
    empties them again when called."""

    def clear():
        shared = (solver._SPATIAL_LEVELS, solver._TEMPORAL_LEVELS, solver._SPACE_ERROR_TABLES, solver._TIME_ERROR_TABLES)
        for cache in shared:
            cache.entries.clear()
        basis._cached_spline.cache_clear()

    clear()
    return clear
