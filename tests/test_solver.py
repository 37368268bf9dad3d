"""End-to-end solves: exactness limits, evaluation, diagnostics, oracle."""

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh

from caputo_oracle import caputo_oracle
from dense_oracle import dense_lstsq_solve
from error_oracle import grid_l2_error, grid_l2_error_at_time
from kernel_oracle import column_loop_basis_matrix
from fracspline import _blas, kernels, solver
from fracspline.assembly import spatial_operators
from fracspline.basis import build_spatial, build_temporal
from fracspline.bspline import DEFAULT_TAIL_TOL
from fracspline.linalg import RCOND, lstsq_solve, modal_lstsq_solve, spatial_modes
from fracspline.problems import ProblemSpec, example1, example2
from fracspline.solver import (
    SolveConfig,
    error_report,
    evaluate,
    l2_error,
    l2_error_at_time,
    solve,
)
from fracspline.specfun import gamma as gamma_fn


def _null_problem(order=0.5):
    return ProblemSpec(
        name="null",
        order=order,
        forcing=lambda t, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )


def _solve_quiet(problem, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(problem, config)


@pytest.fixture(scope="module")
def proxy():
    """One medium solve shared by the evaluation tests (gamma 1/2, s=5, j=4)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol, rep = solve(example1(0.5), SolveConfig(gamma=0.5, j=4, s=5))
    return sol, rep


class TestSolveBasics:
    def test_zero_forcing_gives_zero_field(self):
        sol, rep = _solve_quiet(_null_problem(), SolveConfig(gamma=0.5, j=3, s=3))
        assert np.abs(sol.coeffs).max() == 0.0
        assert rep.residual_norm == 0.0

    def test_error_of_zero_field_is_exact_norm(self):
        # ||t^2 sin(2 pi x)||_L2 over the cylinder is sqrt(1/10)
        sol, _ = _solve_quiet(_null_problem(), SolveConfig(gamma=0.5, j=3, s=3))
        err = l2_error(sol, example1(0.5).exact)
        assert err == pytest.approx(math.sqrt(0.1), rel=1e-6)

    def test_classical_heat_limit(self):
        # gamma = 1 with an integer-degree time basis reduces to a plain
        # spline discretisation of the heat equation
        sol, _ = _solve_quiet(
            example1(1.0), SolveConfig(gamma=1.0, j=5, s=5, beta=3.0)
        )
        assert l2_error(sol, example1(1.0).exact) < 5e-3

    def test_forcing_is_called_once_per_solve(self):
        calls = []
        forcing = example1(0.5).forcing

        def counting(t, x):
            calls.append((np.shape(t), np.shape(x)))
            return forcing(t, x)

        problem = ProblemSpec(name="counted", order=0.5, forcing=counting)
        _solve_quiet(problem, SolveConfig(gamma=0.5, j=3, s=3))
        # the 16 collocation times against the 64 Galerkin quadrature nodes
        assert calls == [((16, 1), (1, 64))]

    def test_scalar_only_forcing_raises_without_warning(self):
        problem = ProblemSpec(name="scalar", order=0.5, forcing=lambda t, x: t * math.sin(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError):
                solve(problem, SolveConfig(gamma=0.5, j=3, s=3))

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="derivative order"):
            solve(example1(0.5), SolveConfig(gamma=0.75, j=3, s=3))

    def test_horizon_mismatch_rejected(self):
        prob = ProblemSpec(
            name="long", order=0.5, forcing=lambda t, x: np.zeros_like(x), horizon=2
        )
        with pytest.raises(ValueError, match="horizon"):
            solve(prob, SolveConfig(gamma=0.5, j=3, s=3, horizon=1))

    def test_condition_warning_reports_truncation(self):
        with pytest.warns(UserWarning, match="rank-truncated"):
            solve(example1(0.5), SolveConfig(gamma=0.5, j=3, s=5))

    def test_full_rank_cubic_cell_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, rep = solve(example1(0.5), SolveConfig(gamma=0.5, j=3, s=5, beta=3.0))
        assert not rep.rank_deficient
        assert rep.condition_estimate < 1e12


class TestModalSolve:
    @pytest.mark.parametrize("beta", [3.0, 3.5])
    @pytest.mark.parametrize("j, s", [(3, 3), (3, 4)])
    def test_no_worse_than_dense_oracle(self, monkeypatch, j, s, beta):
        problem = example1(0.5)
        config = SolveConfig(gamma=0.5, j=j, s=s, beta=beta)
        modal, _ = _solve_quiet(problem, config)
        sbasis = build_spatial(j, 3)
        mass, stiffness, _ = spatial_operators(sbasis, 8)

        def dense_solve(modes, a, g, load):
            return dense_lstsq_solve(mass, stiffness, a, g, load)

        monkeypatch.setattr(solver, "modal_lstsq_solve", dense_solve)
        dense, _ = _solve_quiet(problem, config)
        ratio = l2_error(modal, problem.exact) / l2_error(dense, problem.exact)
        assert ratio <= 1.05, ratio

    @pytest.mark.parametrize(
        "j, s, beta",
        [
            (3, 3, 3.0),
            (3, 3, 3.5),
            (3, 4, 3.0),
            (3, 4, 3.5),
            (6, 6, 3.5),  # 65 blocks of 128 x 72 (4.8 MB): the mode loop's blocks span several chunks
            (3, 2, 3.5),  # underdetermined 8 x 12 blocks, as curves sweeps run at s = 2
        ],
    )
    def test_threshold_is_rcond_times_largest_column_norm(self, monkeypatch, j, s, beta):
        # the rule written out: top is the largest column norm over every
        # mode's block, and each mode cuts below RCOND * top
        seen = {}

        def capture(*args):
            seen["args"] = args
            return modal_lstsq_solve(*args)

        monkeypatch.setattr(solver, "modal_lstsq_solve", capture)
        _, solve_rep = _solve_quiet(example1(0.5), SolveConfig(gamma=0.5, j=j, s=s, beta=beta))
        _, a, g, load = seen["args"]
        sbasis = build_spatial(j, 3)
        mass, stiffness, _ = spatial_operators(sbasis, 8)
        coeffs, rep = modal_lstsq_solve(spatial_modes(mass, stiffness), a, g, load)
        # the solve's shared modes give the same bits as modes built here
        assert np.array_equal(coeffs, modal_lstsq_solve(*seen["args"])[0])
        assert rep == solve_rep

        with _blas.single_thread():
            lam, v = eigh(stiffness, mass)
            blocks = [a + lam_k * g for lam_k in lam]
            colmax = [np.linalg.norm(block, axis=0).max() for block in blocks]
            top = max(colmax)
            rank, d = 0, []
            for block, cm, rhs in zip(blocks, colmax, v.T @ load):
                x, block_rep = lstsq_solve(np.asfortranarray(block), rhs, rcond=RCOND * top / cm)
                rank += block_rep.rank
                d.append(x)
            expected = v @ np.array(d)
        assert np.array_equal(coeffs, expected)
        assert rep.rank == rank
        assert rep.rank_deficient == (beta == 3.5)

    def test_consistent_load_recovers_coefficients(self):
        # cubic temporal family: the system has full column rank
        sbasis = build_spatial(3, 3)
        tbasis = build_temporal(4, 3.0, 1, DEFAULT_TAIL_TOL)
        nodes = np.arange(1, 2**5 + 1) / 2**5
        a = tbasis.eval_many(nodes, 0.5)
        g = tbasis.eval_many(nodes)
        mass, stiffness, _ = spatial_operators(sbasis, 8)
        c_star = np.random.default_rng(179).standard_normal((sbasis.size, tbasis.size))
        load = mass @ c_star @ a.T + stiffness @ c_star @ g.T
        c, rep = modal_lstsq_solve(spatial_modes(mass, stiffness), a, g, load, rcond=1e-8)
        assert rep.rank == c_star.size
        assert np.abs(c - c_star).max() <= 1e-10 * np.abs(c_star).max()


class TestSharedOperators:
    def test_cold_and_warm_solves_agree(self, clear_caches):
        config = SolveConfig(gamma=0.5, j=4, s=4, beta=3.5)
        cold, cold_rep = _solve_quiet(example1(0.5), config)
        cold_errors = (l2_error(cold, example1(0.5).exact), l2_error_at_time(cold, example1(0.5).exact, 0.7))
        warm, warm_rep = _solve_quiet(example1(0.5), config)
        assert warm.spatial is cold.spatial  # the second solve reused the levels
        assert warm.temporal is cold.temporal
        assert np.array_equal(cold.coeffs, warm.coeffs)
        assert cold_rep == warm_rep
        # the error tables are warm now; the norms must not move by a bit
        assert (l2_error(warm, example1(0.5).exact), l2_error_at_time(warm, example1(0.5).exact, 0.7)) == cold_errors

    def test_cached_arrays_are_read_only(self):
        config = SolveConfig(gamma=0.5, j=3, s=3, beta=3.5)
        sol, _ = _solve_quiet(example1(0.5), config)
        l2_error(sol, example1(0.5).exact)
        level = solver._spatial_level(config)
        _, nodes, z, g = solver._temporal_level(config)
        # keyed on (j, alpha, level) and (s, beta, horizon, tail_tol, level), level = max(j, s) + 1
        x_table, _ = solver._SHARED.entries[("space error", 3, 3, 4)]
        t_table, _ = solver._SHARED.entries[("time error", 3, 3.5, 1, DEFAULT_TAIL_TOL, 4)]
        shared = {
            "combinations": sol.spatial.combinations,
            "spatial weights": sol.spatial.spline.value_weights,
            "temporal weights": sol.temporal.spline.value_weights,
            "mass": level.mass,
            "stiffness": level.stiffness,
            "load nodes": level.load_table[0],
            "load table": level.load_table[1],
            "lam": level.modes.lam,
            "v": level.modes.v,
            "collocation nodes": nodes,
            "z": z,
            "G": g,
            **{f"space error table [{i}]": arr for i, arr in enumerate(x_table)},
            **{f"time error table [{i}]": arr for i, arr in enumerate(t_table)},
        }
        assert g.flags.f_contiguous  # so the mode loop's asfortranarray does not copy it
        for name, arr in shared.items():
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            assert not arr.flags.writeable, name

    def test_shared_store_is_bounded_least_recently_used(self):
        built = []
        store = solver._Shared(2)
        for key in ("a", "b", "a", "c", "a", "b"):
            store.get((key,), lambda k: built.append(k) or (k.upper(), 1), key)
        # "b" was the least recently used entry when "c" arrived, so it is built again
        assert built == ["a", "b", "c", "b"]
        assert store.entries == {("a",): ("A", 1), ("b",): ("B", 1)}

    def test_shared_store_counts_the_bytes_it_holds(self, clear_caches):
        store = solver._Shared(10)
        for key, size in (("a", 4), ("b", 3), ("c", 5), ("d", 2)):
            store.get((key,), lambda k, n: (k, n), key, size)
            assert store.nbytes == sum(n for _, n in store.entries.values()) <= 10
        # "c" took the store to 12 bytes, so "a", the least recently used, went
        assert list(store.entries) == [("b",), ("c",), ("d",)]
        # a real solve: each entry counts the arrays its builder made read-only
        config = SolveConfig(gamma=0.5, j=3, s=3, beta=3.5)
        sol, _ = _solve_quiet(example1(0.5), config)
        l2_error(sol, example1(0.5).exact)
        shared = solver._SHARED
        assert [key[0] for key in shared.entries] == ["spatial", "temporal", "time error", "space error"]
        assert shared.nbytes == sum(n for _, n in shared.entries.values())
        (_, nodes, z, g), nbytes = shared.entries[("temporal", 3, 3.5, 1, DEFAULT_TAIL_TOL, 4)]
        assert nbytes == sol.temporal.spline.value_weights.nbytes + nodes.nbytes + z.nbytes + g.nbytes
        x_table, nbytes = shared.entries[("space error", 3, 3, 4)]
        assert nbytes == sum(arr.nbytes for arr in x_table)

    def test_shared_store_keeps_an_oversize_entry_alone(self):
        store = solver._Shared(10)
        store.get(("a",), lambda: ("A", 4))
        store.get(("big",), lambda: ("BIG", 11))
        assert store.entries == {("big",): ("BIG", 11)}
        assert store.nbytes == 11
        store.get(("b",), lambda: ("B", 4))
        assert store.entries == {("b",): ("B", 4)}
        assert store.nbytes == 4

    def test_solves_under_a_small_bound_match_a_cold_run(self, monkeypatch, clear_caches):
        # the level-only entries of these cells total about 1.9 MiB
        problem = example1(0.5)
        configs = [
            SolveConfig(gamma=0.5, j=j, s=s, beta=beta) for beta in (3.0, 3.5) for j, s in ((5, 5), (6, 6), (5, 6))
        ]

        def run():
            results = []
            for config in configs:
                sol, lsq = _solve_quiet(problem, config)
                results.append((sol.coeffs, solver.error_report(sol, lsq, problem.exact)))
            return results

        cold = run()
        warm = run()
        clear_caches()
        builds = []
        build_spatial = solver.build_spatial
        monkeypatch.setattr(solver, "build_spatial", lambda *args: builds.append(args) or build_spatial(*args))
        monkeypatch.setattr(solver._SHARED, "max_bytes", 1 << 20)
        small = run() + run()
        assert len(builds) > 2  # levels 5 and 6 were evicted and built again
        assert solver._SHARED.nbytes <= 1 << 20
        for (coeffs, report), (ref_coeffs, ref_report) in zip(small, cold + cold):
            assert np.array_equal(coeffs, ref_coeffs)
            assert report == ref_report
        for (coeffs, report), (ref_coeffs, ref_report) in zip(warm, cold):
            assert np.array_equal(coeffs, ref_coeffs)
            assert report == ref_report

    def test_concurrent_lookups_build_each_entry_once(self, monkeypatch, clear_caches):
        # more threads than cores, switching often: a lookup that builds
        # outside the lock would build some entry twice
        builds, temporal_builds = [], []
        build_spatial, build_time_basis = solver.build_spatial, solver.build_temporal

        def counting_build(*args):
            builds.append(args)
            return build_spatial(*args)

        def counting_temporal(*args):
            temporal_builds.append(args)
            return build_time_basis(*args)

        monkeypatch.setattr(solver, "build_spatial", counting_build)
        monkeypatch.setattr(solver, "build_temporal", counting_temporal)
        configs = [SolveConfig(gamma=0.5, j=j, s=3, beta=beta) for j in (3, 4) for beta in (2.5, 3.5)]
        seen = []

        def work(offset):
            for config in configs[offset:] + configs[:offset]:
                temporal_level = solver._temporal_level(config)
                seen.append((config, solver._spatial_level(config), temporal_level, temporal_level[0].spline))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i % len(configs),)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(seen) == 8 * len(configs)
        assert sorted(builds) == [(3, 3), (4, 3)]
        assert sorted(temporal_builds) == [(3, beta, 1, DEFAULT_TAIL_TOL) for beta in (2.5, 3.5)]
        for config, level, temporal_level, spline in seen:
            assert level is solver._spatial_level(SolveConfig(gamma=0.5, j=config.j, s=3))
            assert temporal_level is solver._temporal_level(config)
            assert spline is solver._temporal_level(config)[0].spline


class TestSolveConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(gamma=0.0, j=3, s=3), "gamma"),
            (dict(gamma=1.2, j=3, s=3), "gamma"),
            (dict(gamma=1.0, j=3, s=3, beta=0.4), "beta"),
            (dict(gamma=0.5, j=3, s=5, q=4), "collocation level"),
            (dict(gamma=0.5, j=3, s=3, quad_points=3), "quadrature points"),
            (dict(gamma=0.5, j=3, s=3, tail_tol=0.0), "tail_tol"),
            (dict(gamma=0.5, j=3, s=3, alpha=2.5), "alpha"),
            (dict(gamma=0.5, j=3, s=3, tail_tol=2.0), "tail_tol"),
            (dict(gamma=0.5, j=3, s=3, q=4.0), "collocation level"),
            (dict(gamma=0.5, j=3, s=3, alpha=0), "alpha"),
            (dict(gamma=0.5, j=3, s=3, beta=math.nan), "beta"),
            (dict(gamma=0.5, j=3, s=3, beta=math.inf), "beta"),
            (dict(gamma=0.5, j=3.0, s=3), "spatial level"),
            (dict(gamma=0.5, j=0, s=3), "spatial level"),
            (dict(gamma=0.5, j=3, s=3.0), "time level"),
            (dict(gamma=0.5, j=3, s=-1), "time level"),
            (dict(gamma=0.5, j=3, s=3, quad_points=8.0), "quad_points"),
            (dict(gamma=0.5, j=3, s=3, horizon=0), "horizon"),
            (dict(gamma=0.5, j=3, s=3, horizon=1.5), "horizon"),
            (dict(gamma=0.5, j=2, s=3), "too coarse"),  # 2**j < 2 alpha: build_spatial refuses it
            (dict(gamma=0.5, j=3, s=3, alpha=5), "too coarse"),
            # bool is an int subclass, but no level, degree or count
            (dict(gamma=0.5, j=True, s=3), "spatial level"),
            (dict(gamma=0.5, j=3, s=True), "time level"),
            (dict(gamma=0.5, j=3, s=3, alpha=True), "alpha"),
            (dict(gamma=0.5, j=3, s=3, horizon=True), "horizon"),
            (dict(gamma=0.5, j=3, s=0, q=True), "collocation level"),
            (dict(gamma=0.5, j=3, s=3, quad_points=True), "quad_points"),
            (dict(gamma=0.5, j=3, s=3, beta=True), "beta must be finite"),
            (dict(gamma=True, j=3, s=3), "gamma"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolveConfig(**kwargs)

    def test_has_no_rank_cut_field(self):
        # the rank cut is fixed in linalg, not a per-solve option
        with pytest.raises(TypeError, match="rcond"):
            SolveConfig(gamma=0.5, j=3, s=3, rcond=1e-8)

    def test_collocation_level_default(self):
        assert SolveConfig(gamma=0.5, j=3, s=4).collocation_level == 5
        assert SolveConfig(gamma=0.5, j=3, s=4, q=7).collocation_level == 7


def _slot_order_values(sol, t, x):
    """``evaluate`` written out over the column-loop translate tables: per
    point, the sum over space slots of the space value times the sum over
    time slots of the time value times the pair coefficient, each sum in
    slot order.  Slot i of a basis holds translate ``floor(2**level t) - i``;
    a slot off the table adds nothing."""

    def slots(b, first, count, pts):
        sp, scale = b.spline, float(2**b.level)
        table = column_loop_basis_matrix(
            pts, scale, float(first), count, sp.value_weights, sp.degree, float(sp.effective_support)
        )
        cols = np.floor(scale * pts) - first - np.arange(sp.effective_support + 1)[:, None]
        on = (cols >= 0) & (cols < count)
        cols = np.where(on, cols, 0).astype(np.intp)
        return np.where(on, table[np.arange(pts.size), cols], 0.0), cols, on

    spatial, temporal = sol.spatial, sol.temporal
    xv, xc, x_on = slots(spatial, -spatial.degree, spatial.combinations.shape[1], x)
    tv, tc, t_on = slots(temporal, temporal.r_min, temporal.size, t)
    pair = spatial.combinations.T @ sol.coeffs
    out = np.zeros(t.size)
    for a in range(xv.shape[0]):
        acc = tv[0] * np.where(x_on[a] & t_on[0], pair[xc[a], tc[0]], 0.0)
        for b in range(1, tv.shape[0]):
            acc = acc + tv[b] * np.where(x_on[a] & t_on[b], pair[xc[a], tc[b]], 0.0)
        out = out + xv[a] * acc
    return out


class TestEvaluate:
    def test_matches_manufactured_field(self, proxy):
        sol, _ = proxy
        assert evaluate(sol, 0.25, 0.25) == pytest.approx(0.0625, abs=2e-3)
        assert evaluate(sol, 0.5, 0.25) == pytest.approx(0.25, abs=2e-3)

    def test_dirichlet_walls(self, proxy):
        sol, _ = proxy
        for t in (0.1, 0.5, 0.99):
            assert abs(evaluate(sol, t, 0.0)) < 1e-8
            assert abs(evaluate(sol, t, 1.0)) < 1e-8

    def test_initial_line(self, proxy):
        sol, _ = proxy
        xs = np.linspace(0.0, 1.0, 33)
        assert np.abs(sol.grid_values(np.array([0.0]), xs)).max() < 1e-10

    def test_domain_checks(self, proxy):
        sol, _ = proxy
        with pytest.raises(ValueError, match="t outside"):
            evaluate(sol, -0.1, 0.5)
        with pytest.raises(ValueError, match="t outside"):
            evaluate(sol, 1.0001, 0.5)
        with pytest.raises(ValueError, match="x outside"):
            evaluate(sol, 0.5, -0.01)
        with pytest.raises(ValueError, match="x outside"):
            evaluate(sol, 0.5, 1.01)
        # NaN fails every comparison, so it must not slip past the check
        with pytest.raises(ValueError, match="t outside"):
            evaluate(sol, math.nan, 0.5)
        with pytest.raises(ValueError, match="x outside"):
            evaluate(sol, 0.5, math.nan)
        with pytest.raises(ValueError, match="t outside"):
            evaluate(sol, np.array([0.5, math.nan]), np.array([0.5, 0.5]))

    def test_array_shapes(self, proxy):
        sol, _ = proxy
        t = np.array([0.2, 0.5, 0.8])
        x = np.array([0.3, 0.3, 0.3])
        out = evaluate(sol, t, x)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(evaluate(sol, 0.5, 0.3), rel=1e-14)
        with pytest.raises(ValueError, match="matching shapes"):
            evaluate(sol, np.array([0.2, 0.5]), np.array([0.3, 0.4, 0.5]))

    def test_broadcasts_t_against_x(self, proxy):
        sol, _ = proxy
        t = np.array([0.0, 0.2, 0.5, 1.0])
        x = np.linspace(0.0, 1.0, 9)
        profile = evaluate(sol, 0.5, x)
        assert profile.shape == x.shape
        assert np.array_equal(profile, [evaluate(sol, 0.5, xi) for xi in x])
        grid = evaluate(sol, t[:, None], x)
        assert grid.shape == (4, 9)
        assert np.array_equal(grid, [[evaluate(sol, ti, xi) for xi in x] for ti in t])
        assert np.array_equal(evaluate(sol, t, np.array([0.3])), [evaluate(sol, ti, 0.3) for ti in t])

    @staticmethod
    def _random_solution(beta, horizon=1):
        # random coefficients exercise every translate pair, edges included
        config = SolveConfig(gamma=0.5, j=3, s=4, beta=beta, horizon=horizon)
        spatial = build_spatial(config.j, config.alpha)
        temporal = build_temporal(config.s, config.beta, horizon)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((spatial.size, temporal.size))
        return solver.Solution(coeffs=coeffs, spatial=spatial, temporal=temporal, config=config), rng

    @pytest.mark.parametrize(
        "beta, horizon",
        [
            pytest.param(3.0, 1, id="3.0"),
            pytest.param(3.5, 1, id="3.5"),
            pytest.param(2.5, 1, id="2.5"),
            pytest.param(3.5, 2, id="3.5-horizon2"),
        ],
    )
    def test_matches_grid_values(self, beta, horizon):
        sol, rng = self._random_solution(beta, horizon)
        t_edge = np.arange(2**sol.config.s * horizon + 1) / 2**sol.config.s  # 0, knots, T
        x_edge = np.arange(2**sol.config.j + 1) / 2**sol.config.j
        tt, xx = np.meshgrid(t_edge, x_edge, indexing="ij")
        ref = sol.grid_values(t_edge, x_edge)
        scale = np.abs(ref).max()
        assert np.abs(evaluate(sol, tt, xx) - ref).max() <= 1e-13 * scale
        t, x = rng.uniform(0.0, 1.0, (2, 400)) * [[horizon], [1.0]]
        ref = np.diag(sol.grid_values(t, x))
        assert np.abs(evaluate(sol, t, x) - ref).max() <= 1e-13 * scale

    @pytest.mark.parametrize(
        "beta, horizon",
        [
            pytest.param(3.0, 1, id="3.0"),
            pytest.param(3.5, 1, id="3.5"),
            pytest.param(2.5, 1, id="2.5"),
            pytest.param(3.5, 2, id="3.5-horizon2"),
        ],
    )
    def test_matches_slot_order_oracle(self, beta, horizon, monkeypatch):
        sol, rng = self._random_solution(beta, horizon)
        # the knots and both ends of t and x ...
        t_edge = np.arange(2**sol.config.s * horizon + 1) / 2**sol.config.s
        x_edge = np.arange(2**sol.config.j + 1) / 2**sol.config.j
        tt, xx = np.meshgrid(t_edge, x_edge, indexing="ij")
        # ... times whose fraction of 2**s t does not fit beside the integer
        # part of every argument (summed term by term) ...
        tiny = np.array([5e-324, 1e-300, 2.0**-60])
        # ... and random points
        t = np.concatenate([tt.ravel(), tiny, rng.uniform(0.0, horizon, 20_000)])
        x = np.concatenate([xx.ravel(), rng.uniform(0.0, 1.0, tiny.size + 20_000)])
        want = _slot_order_values(sol, t, x)
        assert np.array_equal(evaluate(sol, t, x), want)
        # in blocks a sixteenth of the size, many of them and a partial one
        sizes = []
        supported = kernels.supported_translates

        def counted(pts, *args):
            sizes.append(len(pts))
            return supported(pts, *args)

        monkeypatch.setattr(kernels, "supported_translates", counted)
        monkeypatch.setattr(solver, "_BLOCK_BYTES", solver._BLOCK_BYTES // 16)
        assert np.array_equal(evaluate(sol, t, x), want)
        # two kernel calls (space, time) per block
        assert len(sizes) >= 8 and set(sizes[:-2]) == {sizes[0]} and sizes[-1] < sizes[0]
        edges = tt.size + tiny.size
        assert np.array_equal([evaluate(sol, ti, xi) for ti, xi in zip(t[:edges], x[:edges])], want[:edges])

    def test_scratch_is_one_block(self):
        # a 200k-point call needs its output plus the scratch of one block
        sol, rng = self._random_solution(3.5)
        t, x = rng.uniform(0.0, 1.0, (2, 200_000))
        tracemalloc.start()
        try:
            values = evaluate(sol, t, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 8 * 2**20

    @pytest.mark.parametrize("beta", [2.5, 3.0, 3.5])
    def test_value_does_not_depend_on_batch(self, beta):
        # each point's value is summed in the same order whatever the batch
        sol, rng = self._random_solution(beta)
        t, x = rng.uniform(0.0, 1.0, (2, 5000))
        whole = evaluate(sol, t, x)
        assert np.array_equal(whole, [evaluate(sol, ti, xi) for ti, xi in zip(t, x)])
        sevens = [evaluate(sol, t[i : i + 7], x[i : i + 7]) for i in range(0, t.size, 7)]
        assert np.array_equal(whole, np.concatenate(sevens))

    def test_builds_no_dense_table(self, proxy, monkeypatch):
        sol, _ = proxy
        want = evaluate(sol, np.array([0.3, 0.7]), np.array([0.2, 0.9]))

        def dense(*args):
            raise AssertionError("evaluate built a dense translate table")

        monkeypatch.setattr(kernels, "basis_matrix", dense)
        assert np.array_equal(evaluate(sol, np.array([0.3, 0.7]), np.array([0.2, 0.9])), want)

    def test_grid_values_shape(self, proxy):
        sol, _ = proxy
        g = sol.grid_values(np.linspace(0, 1, 5), np.linspace(0, 1, 7))
        assert g.shape == (5, 7)


class TestErrorMeasures:
    def test_self_distance_is_zero(self, proxy):
        sol, _ = proxy
        self_field = lambda t, x: sol.grid_values(np.ravel(t), np.ravel(x))
        assert l2_error(sol, self_field) < 1e-12
        assert l2_error_at_time(sol, lambda t, x: sol.grid_values(np.array([t]), x)[0], 0.7) < 1e-12

    def test_space_only_error_at_final_time(self, proxy):
        sol, _ = proxy
        err = l2_error_at_time(sol, example1(0.5).exact, 1.0)
        assert err < 1e-3

    @pytest.mark.parametrize("t", [-0.1, 1.0001, 2.0, math.nan])
    def test_space_only_error_rejects_t_off_the_horizon(self, proxy, t):
        sol, _ = proxy
        with pytest.raises(ValueError, match="outside"):
            l2_error_at_time(sol, example1(0.5).exact, t)

    @pytest.mark.parametrize("budget", [None, 100_000])  # None: the library's; then blocks with a short last one
    @pytest.mark.parametrize("j, s, horizon", [(5, 5, 1), (6, 5, 1), (5, 6, 1), (7, 7, 1), (5, 5, 2)])
    def test_column_blocks_match_one_grid(self, monkeypatch, j, s, horizon, budget):
        # same products and sums as the whole grid; bits matched on OpenBLAS,
        # but another BLAS may split a product differently
        if budget is not None:
            monkeypatch.setattr(solver, "_ERROR_BYTES", budget)
        for problem in (example1(0.5), example2(0.5)):
            problem = dataclasses.replace(problem, horizon=horizon)
            sol, _ = _solve_quiet(problem, SolveConfig(gamma=0.5, j=j, s=s, horizon=horizon))
            pairs = [(l2_error(sol, problem.exact), grid_l2_error(sol, problem.exact))]
            for t in (0.7, horizon):
                pairs.append((l2_error_at_time(sol, problem.exact, t), grid_l2_error_at_time(sol, problem.exact, t)))
            for got, want in pairs:
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_error_scratch_is_one_column_block(self):
        problem = example1(0.5)
        sol, _ = _solve_quiet(problem, SolveConfig(gamma=0.5, j=7, s=7))
        l2_error(sol, problem.exact)  # the error tables are in the store from here on
        n_t = n_x = 4 * 2**8  # nodes of the level-8 error rule on [0, 1]
        left = 8 * n_t * sol.coeffs.shape[0]
        # the residual block, the reference's block of the same size, `left`
        # and 1 MiB for the rest; the whole grid alone is 8 MiB
        bound = 2 * solver._ERROR_BYTES + left + 2**20
        tracemalloc.start()
        try:
            l2_error(sol, problem.exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound < 8 * n_t * n_x

    def test_error_report_fields(self, proxy):
        sol, rep = proxy
        er = error_report(sol, rep, example1(0.5).exact)
        assert er.dof == sol.coeffs.size
        assert er.l2_error == pytest.approx(l2_error(sol, example1(0.5).exact))
        assert er.condition_estimate == rep.condition_estimate
        assert er.residual_norm == rep.residual_norm

    def test_error_report_without_exact(self, proxy):
        sol, rep = proxy
        er = error_report(sol, rep, None)
        assert math.isnan(er.l2_error)
        assert er.dof == sol.coeffs.size


class TestConvergence:
    def test_errors_decrease_in_j(self, table1_sweep):
        rows, _ = table1_sweep
        for s in (5, 6):
            errs = [rows[(s, j)][2] for j in (3, 4, 5, 6)]
            assert all(a > b for a, b in zip(errs, errs[1:])), errs

    def test_observed_order_window(self, table1_sweep):
        # second-order-or-better decay on the pre-saturation pairs; the
        # 5 -> 6 pair at s=6 flattens against the temporal resolution and
        # is deliberately left out
        rows, _ = table1_sweep
        for j in (3, 4):
            ratio = rows[(6, j)][2] / rows[(6, j + 1)][2]
            order = math.log2(ratio)
            assert 1.8 <= order <= 4.6, (j, order)


class TestCaputoOracle:
    @pytest.mark.parametrize("order", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("t", [0.4, 1.0])
    def test_power_rules(self, order, t):
        d1 = caputo_oracle(lambda s: s, order, t, fprime=lambda s: 1.0)
        assert d1 == pytest.approx(t ** (1 - order) / gamma_fn(2 - order), abs=1e-8)
        d2 = caputo_oracle(lambda s: s * s, order, t, fprime=lambda s: 2.0 * s)
        assert d2 == pytest.approx(
            2.0 * t ** (2 - order) / gamma_fn(3 - order), abs=1e-8
        )

    def test_constant_annihilated(self):
        assert caputo_oracle(lambda s: 3.7, 0.5, 0.8, fprime=lambda s: 0.0) == 0.0

    def test_zero_time(self):
        assert caputo_oracle(lambda s: s * s, 0.5, 0.0) == 0.0

    def test_order_domain(self):
        with pytest.raises(ValueError, match="Caputo order"):
            caputo_oracle(lambda s: s, 1.0, 0.5)
        with pytest.raises(ValueError, match="Caputo order"):
            caputo_oracle(lambda s: s, 0.0, 0.5)

    def test_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            caputo_oracle(lambda s: s, 0.5, -0.2)

    def test_finite_difference_fallback(self):
        # no fprime supplied: the stencil derivative should still hit the
        # closed form for a smooth integrand
        d = caputo_oracle(lambda s: s * s, 0.5, 0.7)
        assert d == pytest.approx(2.0 * 0.7**1.5 / gamma_fn(2.5), abs=1e-7)

    def test_example2_rhs_consistency(self):
        # cross-check the 1F1 closed form used by the manufactured problem
        p = example2(0.5)
        t = 0.6
        d = caputo_oracle(
            lambda s: math.sin(math.pi * s),
            0.5,
            t,
            fprime=lambda s: math.pi * math.cos(math.pi * s),
        )
        forcing_pred = d * math.sin(math.pi * 0.3) + math.pi**2 * math.sin(
            math.pi * t
        ) * math.sin(math.pi * 0.3)
        assert float(p.forcing(t, 0.3)) == pytest.approx(forcing_pred, abs=1e-6)
