"""End-to-end solves: exactness limits, evaluation, diagnostics, oracle."""

import math
import warnings

import numpy as np
import pytest

from dense_oracle import dense_lstsq_solve
from fracspline import kernels, solver
from fracspline.assembly import assemble_system
from fracspline.basis import build_spatial, build_temporal
from fracspline.bspline import DEFAULT_TAIL_TOL
from fracspline.linalg import modal_lstsq_solve
from fracspline.problems import ProblemSpec, example1, example2
from fracspline.solver import (
    SolveConfig,
    caputo_oracle,
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
    @pytest.mark.parametrize("ic_row", [True, False])
    @pytest.mark.parametrize("beta", [3.0, 3.5])
    @pytest.mark.parametrize("j, s", [(3, 3), (3, 4)])
    def test_no_worse_than_dense_oracle(self, monkeypatch, j, s, beta, ic_row):
        problem = example1(0.5)
        config = SolveConfig(gamma=0.5, j=j, s=s, beta=beta, ic_row=ic_row)
        modal, _ = _solve_quiet(problem, config)
        monkeypatch.setattr(solver, "modal_lstsq_solve", dense_lstsq_solve)
        dense, _ = _solve_quiet(problem, config)
        ratio = l2_error(modal, problem.exact) / l2_error(dense, problem.exact)
        assert ratio <= 1.05, ratio

    def test_consistent_load_recovers_coefficients(self):
        # cubic temporal family: the system has full column rank
        sbasis = build_spatial(3, 3)
        tbasis = build_temporal(4, 3.0, 1, DEFAULT_TAIL_TOL)
        system = assemble_system(
            sbasis, tbasis, _null_problem().forcing, 0.5, 5, include_ic_row=False
        )
        a = system.collocation.derivative
        g = system.collocation.value
        c_star = np.random.default_rng(179).standard_normal((sbasis.size, tbasis.size))
        load = system.mass @ c_star @ a.T + system.stiffness @ c_star @ g.T
        c, rep = modal_lstsq_solve(system.mass, system.stiffness, a, g, load, rcond=1e-8)
        assert rep.rank == c_star.size
        assert np.abs(c - c_star).max() <= 1e-10 * np.abs(c_star).max()


class TestSolveConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(gamma=0.0, j=3, s=3), "gamma"),
            (dict(gamma=1.2, j=3, s=3), "gamma"),
            (dict(gamma=1.0, j=3, s=3, beta=0.4), "beta"),
            (dict(gamma=0.5, j=3, s=5, q=4), "collocation level"),
            (dict(gamma=0.5, j=3, s=3, quad_points=3), "quadrature points"),
            (dict(gamma=0.5, j=3, s=3, rcond=0.0), "rcond"),
            (dict(gamma=0.5, j=3, s=3, rcond=1.5), "rcond"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolveConfig(**kwargs)

    def test_collocation_level_default(self):
        assert SolveConfig(gamma=0.5, j=3, s=4).collocation_level == 5
        assert SolveConfig(gamma=0.5, j=3, s=4, q=7).collocation_level == 7


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

    def test_array_shapes(self, proxy):
        sol, _ = proxy
        t = np.array([0.2, 0.5, 0.8])
        x = np.array([0.3, 0.3, 0.3])
        out = evaluate(sol, t, x)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(evaluate(sol, 0.5, 0.3), rel=1e-14)
        with pytest.raises(ValueError, match="matching shapes"):
            evaluate(sol, np.array([0.2, 0.5]), np.array([0.3]))

    @pytest.mark.parametrize("beta", [3.0, 3.5, 2.5])
    def test_matches_grid_values(self, beta):
        # random coefficients exercise every translate pair, edges included
        config = SolveConfig(gamma=0.5, j=3, s=4, beta=beta)
        spatial = build_spatial(config.j, config.alpha)
        temporal = build_temporal(config.s, config.beta)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((spatial.size, temporal.size))
        sol = solver.Solution(coeffs=coeffs, spatial=spatial, temporal=temporal, config=config)
        t_edge = np.arange(2**config.s + 1) / 2**config.s  # 0, knots, 1
        x_edge = np.arange(2**config.j + 1) / 2**config.j
        tt, xx = np.meshgrid(t_edge, x_edge, indexing="ij")
        ref = sol.grid_values(t_edge, x_edge)
        scale = np.abs(ref).max()
        assert np.abs(evaluate(sol, tt, xx) - ref).max() <= 1e-13 * scale
        t, x = rng.uniform(0.0, 1.0, (2, 400))
        ref = np.diag(sol.grid_values(t, x))
        assert np.abs(evaluate(sol, t, x) - ref).max() <= 1e-13 * scale

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
