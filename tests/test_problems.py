"""Manufactured problems: exact fields, forcing consistency, domains."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from caputo_oracle import caputo_oracle
from fracspline import solver
from fracspline.problems import ProblemSpec, example1, example2
from fracspline.solver import SolveConfig, solve

# Bound stated before the run: example 2's forcing lies within
# 1e-12 * max(1, |f|) of 40-digit mpmath for every t in [0, 3].
FORCING_TOL = 1e-12


class TestExample1:
    def test_exact_peak_value(self):
        p = example1(0.5)
        assert p.exact(1.0, 0.25) == pytest.approx(1.0, abs=1e-14)

    def test_exact_broadcasts(self):
        p = example1(0.5)
        t = np.array([[0.1], [0.7]])
        x = np.array([0.0, 0.25, 0.5])
        u = p.exact(t, x)
        assert u.shape == (2, 3)
        assert u[1, 1] == pytest.approx(0.49 * math.sin(math.pi / 2))

    def test_forcing_vanishes_on_boundary_line(self):
        p = example1(0.75)
        for t in (0.0, 0.3, 1.0):
            assert abs(p.forcing(t, 0.0)) < 1e-14
            assert abs(p.forcing(t, 1.0)) < 1e-12

    @pytest.mark.parametrize("order", [0.25, 0.5, 0.75])
    def test_forcing_closes_the_equation(self, order):
        # f must equal D_t^g u - u_xx with the time derivative supplied
        # by the independent quadrature oracle
        p = example1(order)
        for t, x in [(0.5, 0.3), (0.9, 0.11), (0.2, 0.77)]:
            dt = caputo_oracle(lambda s: s**2, order, t, fprime=lambda s: 2.0 * s)
            lhs = dt * math.sin(2.0 * math.pi * x) - float(p.exact_dxx(t, x))
            assert lhs == pytest.approx(float(p.forcing(t, x)), abs=1e-8)

    def test_integer_order_is_classical_heat_forcing(self):
        p = example1(1.0)
        for t, x in [(0.4, 0.2), (1.0, 0.6)]:
            expect = (2.0 * t + 4.0 * math.pi**2 * t**2) * math.sin(2.0 * math.pi * x)
            assert float(p.forcing(t, x)) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.5, 2.0])
    def test_order_domain(self, bad):
        with pytest.raises(ValueError, match="derivative order"):
            example1(bad)

    def test_spec_fields(self):
        p = example1(0.5)
        assert isinstance(p, ProblemSpec)
        assert p.name == "example1"
        assert p.order == 0.5
        assert p.horizon == 1
        with pytest.raises(AttributeError):
            p.order = 0.9


class TestExample2:
    def test_exact_peak_value(self):
        p = example2(0.5)
        assert p.exact(0.5, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_homogeneous_data_is_exact(self):
        p = example2(0.25)
        ts = np.linspace(0.0, 1.0, 7)
        xs = np.linspace(0.0, 1.0, 9)
        assert np.abs(p.exact(0.0, xs)).max() < 1e-14
        assert np.abs(p.exact(ts, 0.0)).max() < 1e-14
        assert np.abs(p.exact(ts, 1.0)).max() < 1e-14

    @pytest.mark.parametrize("order", [0.25, 0.5, 0.75])
    def test_forcing_closes_the_equation(self, order):
        p = example2(order)
        w = math.pi
        for t, x in [(0.5, 0.3), (0.85, 0.5), (0.23, 0.62)]:
            dt = caputo_oracle(
                lambda s: math.sin(w * s), order, t, fprime=lambda s: w * math.cos(w * s)
            )
            lhs = dt * math.sin(w * x) - float(p.exact_dxx(t, x))
            assert lhs == pytest.approx(float(p.forcing(t, x)), abs=1e-6)

    @pytest.mark.parametrize("order", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_forcing_against_mpmath(self, order):
        # D^g sin(pi t) = pi t**(1-g) Re 1F1(1; 2-g; i pi t) / gamma(2-g), at
        # x = 1/2 where sin(pi x) is 1; the grid holds 0, 1, 2 and 3 exactly
        t = np.arange(61) / 20
        got = example2(order).forcing(t, 0.5)
        with mpmath.workdps(40):
            for ti, fi in zip(t, got):
                tm = mpmath.mpf(float(ti))
                dt = mpmath.pi * tm ** (1 - mpmath.mpf(order)) / mpmath.gamma(2 - mpmath.mpf(order))
                dt *= mpmath.re(mpmath.hyp1f1(1, 2 - mpmath.mpf(order), 1j * mpmath.pi * tm))
                ref = float(dt + mpmath.pi**2 * mpmath.sin(mpmath.pi * tm))
                assert abs(fi - ref) <= FORCING_TOL * max(1.0, abs(ref)), ti

    @pytest.mark.parametrize("bad", [-0.1, 3.0001, math.nan])
    def test_forcing_refuses_times_outside_its_series_range(self, bad):
        # past t = 3 the alternating series cancels beyond 1e-12; a NaN time
        # is refused too, alone or as one entry of the load's time column
        p = example2(0.5)
        for t in (bad, np.array([[0.5], [bad]])):
            with pytest.raises(ValueError, match=r"t in \[0, 3\]"):
                p.forcing(t, np.array([0.25, 0.5]))

    def test_horizon_15_solve_is_refused_before_the_mode_loop(self, monkeypatch):
        # the forcing used to reach 9.6e3 on [14, 15], where it stays below
        # 11.3, and this solve returned l2_error 79 for a field of size 1
        def refuse(*args):
            raise AssertionError("ran the mode loop")

        monkeypatch.setattr(solver, "modal_lstsq_solve", refuse)
        problem = dataclasses.replace(example2(0.5), horizon=15)
        config = SolveConfig(gamma=0.5, j=4, s=4, beta=3.0, horizon=15)
        with pytest.raises(ValueError, match=r"t in \[0, 3\]"):
            solve(problem, config)

    def test_forcing_is_real_valued(self):
        # the series is summed in real arithmetic; the forcing must come
        # back as a real float64 array
        p = example2(0.6)
        out = p.forcing(0.7, np.linspace(0.0, 1.0, 5))
        assert np.isrealobj(out)
        assert out.dtype == np.float64

    def test_forcing_at_time_zero(self):
        p = example2(0.4)
        assert np.abs(p.forcing(0.0, np.array([0.25, 0.5]))).max() < 1e-14

    def test_array_time_path(self):
        p = example2(0.5)
        t = np.array([0.2, 0.6])
        x = 0.5
        out = p.forcing(t, x)
        assert out.shape == (2,)
        for ti, oi in zip(t, out):
            assert oi == pytest.approx(float(p.forcing(float(ti), x)), rel=1e-14)
        # the load's call shape, (times, 1) against (1, nodes), t = 0 included
        t = np.arange(17.0)[:, None] / 16
        x = np.linspace(0.0, 1.0, 9)[None, :]
        for order in (0.25, 0.5, 0.75):
            p = example2(order)
            grid = p.forcing(t, x)
            assert grid.shape == (17, 9)
            points = [[float(p.forcing(float(ti), float(xk))) for xk in x[0]] for ti in t[:, 0]]
            np.testing.assert_allclose(grid, points, rtol=1e-14, atol=0.0)
            assert not grid[0].any()  # the whole forcing is 0 at t = 0

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.2, -0.1])
    def test_order_domain_is_strict(self, bad):
        with pytest.raises(ValueError, match="derivative order"):
            example2(bad)
