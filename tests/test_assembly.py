import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from fracspline import solver
from fracspline.assembly import (
    QuadratureRule,
    assemble_load_matrix,
    assemble_mass,
    assemble_stiffness,
    load_table,
)
from fracspline.basis import build_spatial
from fracspline.problems import ProblemSpec, example1, example2

# Gram values of the cardinal cubic family: the autocorrelation of B_3 is
# B_7, and the derivative Gram is -B_7'' at the integers.
MASS_BAND = (Fraction(151, 315), Fraction(397, 1680), Fraction(1, 42), Fraction(1, 5040))
STIFF_BAND = (Fraction(2, 3), Fraction(-1, 8), Fraction(-1, 5), Fraction(-1, 120))


def test_quadrature_nodes_and_weights():
    rule = QuadratureRule(points_per_cell=8)
    x, w = rule.nodes(3)
    assert x.shape == w.shape == (64,)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    # composite 8-point Gauss is exact through degree 15
    assert (w @ x**15) == pytest.approx(1.0 / 16.0, rel=1e-13)
    # a span of 2 keeps the cell width and doubles the cells
    x2, w2 = rule.nodes(3, 2)
    assert x2.shape == w2.shape == (128,)
    np.testing.assert_array_equal(x2[:64], x)
    assert w2.sum() == pytest.approx(2.0, rel=1e-14)
    # the reference rule is shared between calls, so a caller writing into
    # a returned array must not change the next call's nodes
    x[:] = -1.0
    w[:] = -1.0
    np.testing.assert_array_equal(rule.nodes(3)[0], x2[:64])
    np.testing.assert_array_equal(rule.nodes(3)[1], w2[:64])


def test_quadrature_validation():
    with pytest.raises(ValueError):
        QuadratureRule(points_per_cell=0).nodes(2)


@pytest.mark.parametrize("j", [3, 4])
def test_mass_interior_band(j):
    basis = build_spatial(j, 3)
    m = assemble_mass(basis)
    mid = basis.size // 2  # a pure translate, well clear of both ends
    for offset, exact in enumerate(MASS_BAND):
        want = float(exact) * 2.0**-j
        assert m[mid, mid + offset] == pytest.approx(want, rel=1e-13)
    if j >= 4:  # at j=3 the +4 neighbour is already a boundary combination
        assert m[mid, mid + 4] == pytest.approx(0.0, abs=1e-16)


def test_stiffness_interior_band():
    j = 4
    basis = build_spatial(j, 3)
    l = assemble_stiffness(basis)
    mid = basis.size // 2
    for offset, exact in enumerate(STIFF_BAND):
        want = float(exact) * 2.0**j
        assert l[mid, mid + offset] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("assemble,deriv", [(assemble_mass, 0), (assemble_stiffness, 1)])
def test_gram_entries_against_adaptive_quadrature(assemble, deriv):
    basis = build_spatial(3, 3)
    mat = assemble(basis)
    knots = np.linspace(0.0, 1.0, 2**3 + 1)[1:-1]
    # include boundary-combination rows: entries (0, 0), (0, 2), (5, 5)
    for a, b in ((0, 0), (0, 2), (5, 5), (1, 3)):
        ref, err = integrate.quad(
            lambda x: basis.eval_many(np.array([x]), deriv)[0, a]
            * basis.eval_many(np.array([x]), deriv)[0, b],
            0.0,
            1.0,
            points=knots,
            limit=200,
        )
        assert err < 1e-10
        assert mat[a, b] == pytest.approx(ref, rel=1e-10, abs=1e-14)


def test_mass_spd_and_symmetric():
    basis = build_spatial(4, 3)
    m = assemble_mass(basis)
    assert np.max(np.abs(m - m.T)) < 1e-14
    assert np.linalg.eigvalsh(m).min() > 0.0


def test_stiffness_spd_on_dirichlet_space():
    basis = build_spatial(4, 3)
    l = assemble_stiffness(basis)
    assert np.max(np.abs(l - l.T)) < 1e-12
    assert np.linalg.eigvalsh(l).min() > 0.0


def test_gram_centro_symmetry():
    basis = build_spatial(4, 3)
    for mat in (assemble_mass(basis), assemble_stiffness(basis)):
        np.testing.assert_allclose(mat, mat[::-1, ::-1], atol=1e-13)


def test_load_against_adaptive_quadrature():
    basis = build_spatial(3, 3)
    forcing = lambda t, x: (1.0 + t) * np.sin(2.0 * np.pi * x)
    vec = assemble_load_matrix(load_table(basis), forcing, np.array([0.3]))[:, 0]
    knots = np.linspace(0.0, 1.0, 2**3 + 1)[1:-1]
    for k in (0, 1, 4, 8):
        ref, err = integrate.quad(
            lambda x: forcing(0.3, x) * basis.eval_many(np.array([x]))[0, k],
            0.0,
            1.0,
            points=knots,
            limit=200,
        )
        assert err < 1e-10
        assert vec[k] == pytest.approx(ref, rel=1e-9, abs=1e-13)


def _per_time_columns(vw, x, forcing, times):
    """The load column by column, one forcing call per time."""
    return np.stack([vw.T @ np.asarray(forcing(t, x)) for t in times], axis=1)


@pytest.mark.parametrize("example", [example1, example2])
def test_example_forcings_take_the_vectorised_path(example):
    # one forcing call on the (time, node) grid gives the per-time columns
    table = load_table(build_spatial(3, 3))
    forcing = example(0.5).forcing
    times = np.array([0.0, 0.3, 0.625, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = assemble_load_matrix(table, forcing, times)
    ref = _per_time_columns(table[1], table[0], forcing, times)
    np.testing.assert_allclose(cols, ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())


def test_load_rejects_a_forcing_that_does_not_broadcast():
    table = load_table(build_spatial(3, 3))
    with pytest.raises(ValueError, match=r"shape \(3,\).*grid \(2, 64\)"):
        assemble_load_matrix(table, lambda t, x: np.ones(3), np.array([0.25, 0.5]))


# The temporal collocation tables and the load are built inside ``solve``;
# these tests read them where ``solve`` hands them to the modal solve, and
# check the load against one built column by column.  The Gram matrices and
# the load table come from the spatial level whose modes ``solve`` passed.
def _operators_through_solve(monkeypatch, forcing, horizon, s, q):
    seen = {}
    real = solver.modal_lstsq_solve

    def capture(modes, a, g, load):
        seen.update(modes=modes, a=a, g=g, load=load)
        return real(modes, a, g, load)

    monkeypatch.setattr(solver, "modal_lstsq_solve", capture)
    problem = ProblemSpec(name="capture", order=0.5, forcing=forcing, horizon=horizon)
    config = solver.SolveConfig(gamma=0.5, j=3, s=s, q=q, horizon=horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol, _ = solver.solve(problem, config)
    level = solver._spatial_level(config)
    assert seen["modes"] is level.modes and sol.spatial is level.basis
    seen.update(mass=level.mass, stiffness=level.stiffness, table=level.load_table)
    x, w = QuadratureRule().nodes(3)
    nodes = np.arange(1, 2**q * horizon + 1) / 2**q
    ref = _per_time_columns(sol.spatial.eval_many(x) * w[:, None], x, forcing, nodes)
    np.testing.assert_allclose(seen["load"], ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())
    return sol, seen


def _forcing(t, x):
    return t * np.sin(np.pi * np.asarray(x))


def test_collocation_interior_nodes(monkeypatch):
    sol, seen = _operators_through_solve(monkeypatch, _forcing, 1, s=3, q=4)
    nodes = np.arange(1, 17) / 16.0
    # the t = 0 value functional is eliminated, one column fewer
    z = solver._ic_nullspace(sol.temporal)
    np.testing.assert_array_equal(seen["a"], sol.temporal.eval_many(nodes, 0.5) @ z)
    np.testing.assert_array_equal(seen["g"], sol.temporal.eval_many(nodes) @ z)
    table = load_table(sol.spatial, QuadratureRule())
    np.testing.assert_array_equal(seen["table"][0], table[0])
    np.testing.assert_array_equal(seen["table"][1], table[1])
    np.testing.assert_array_equal(seen["load"], assemble_load_matrix(table, _forcing, nodes))
    np.testing.assert_array_equal(seen["mass"], assemble_mass(sol.spatial, QuadratureRule()))
    np.testing.assert_array_equal(seen["stiffness"], assemble_stiffness(sol.spatial, QuadratureRule()))


def test_collocation_horizon_scales_node_count(monkeypatch):
    sol, seen = _operators_through_solve(monkeypatch, _forcing, 2, s=3, q=3)
    nodes = np.arange(1, 17) / 8.0
    assert seen["a"].shape[0] == seen["g"].shape[0] == seen["load"].shape[1] == 16
    np.testing.assert_array_equal(
        seen["load"], assemble_load_matrix(load_table(sol.spatial), _forcing, nodes)
    )


def test_assemble_system_shapes_and_ic_column(monkeypatch):
    for horizon in (1, 2):
        sol, seen = _operators_through_solve(monkeypatch, _forcing, horizon, s=3, q=4)
        n_x, n_t, rows = sol.spatial.size, sol.temporal.size, 16 * horizon
        assert seen["mass"].shape == seen["stiffness"].shape == seen["modes"].v.shape == (n_x, n_x)
        assert seen["a"].shape == seen["g"].shape == (rows, n_t - 1)
        # no t = 0 constraint column: the first column is the load at t = 1/16
        assert seen["load"].shape == (n_x, rows)
        assert np.any(seen["load"][:, 0] != 0.0)
