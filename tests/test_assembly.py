import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from fracspline import solver
from fracspline.assembly import assemble_load_matrix, gauss_rule, spatial_operators
from fracspline.basis import SpatialBasis, build_spatial
from fracspline.linalg import spatial_modes
from fracspline.problems import ProblemSpec, example1, example2

# Gram values of the cardinal cubic family: the autocorrelation of B_3 is
# B_7, and the derivative Gram is -B_7'' at the integers.
MASS_BAND = (Fraction(151, 315), Fraction(397, 1680), Fraction(1, 42), Fraction(1, 5040))
STIFF_BAND = (Fraction(2, 3), Fraction(-1, 8), Fraction(-1, 5), Fraction(-1, 120))


def test_quadrature_nodes_and_weights():
    x, w = gauss_rule(8, 3)
    assert x.shape == w.shape == (64,)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    # composite 8-point Gauss is exact through degree 15
    assert (w @ x**15) == pytest.approx(1.0 / 16.0, rel=1e-13)
    # a span of 2 keeps the cell width and doubles the cells
    x2, w2 = gauss_rule(8, 3, 2)
    assert x2.shape == w2.shape == (128,)
    np.testing.assert_array_equal(x2[:64], x)
    assert w2.sum() == pytest.approx(2.0, rel=1e-14)
    # the reference rule is shared between calls, so a caller writing into
    # a returned array must not change the next call's nodes
    x[:] = -1.0
    w[:] = -1.0
    np.testing.assert_array_equal(gauss_rule(8, 3)[0], x2[:64])
    np.testing.assert_array_equal(gauss_rule(8, 3)[1], w2[:64])


def test_quadrature_validation():
    with pytest.raises(ValueError):
        gauss_rule(0, 2)


@pytest.mark.parametrize("alpha, points", [(1, 8), (3, 8), (7, 8), (8, 9), (12, 13)])
def test_galerkin_rule_follows_the_degree(alpha, points):
    # p Gauss points are exact to degree 2p - 1, the Gram products have
    # degree 2 alpha: 8 points up to alpha = 7, alpha + 1 beyond
    x, _ = spatial_operators(build_spatial(5, alpha))[2]
    np.testing.assert_array_equal(x, gauss_rule(points, 5)[0])


@pytest.mark.parametrize("j", [3, 4])
def test_mass_interior_band(j):
    basis = build_spatial(j, 3)
    m, _, _ = spatial_operators(basis)
    mid = basis.size // 2  # a pure translate, well clear of both ends
    for offset, exact in enumerate(MASS_BAND):
        want = float(exact) * 2.0**-j
        assert m[mid, mid + offset] == pytest.approx(want, rel=1e-13)
    if j >= 4:  # at j=3 the +4 neighbour is already a boundary combination
        assert m[mid, mid + 4] == pytest.approx(0.0, abs=1e-16)


def test_stiffness_interior_band():
    j = 4
    basis = build_spatial(j, 3)
    _, l, _ = spatial_operators(basis)
    mid = basis.size // 2
    for offset, exact in enumerate(STIFF_BAND):
        want = float(exact) * 2.0**j
        assert l[mid, mid + offset] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("operator,deriv", [("mass", 0), ("stiffness", 1)])
def test_gram_entries_against_adaptive_quadrature(operator, deriv):
    basis = build_spatial(3, 3)
    mass, stiffness, _ = spatial_operators(basis)
    mat = {"mass": mass, "stiffness": stiffness}[operator]
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
    m, _, _ = spatial_operators(basis)
    assert np.max(np.abs(m - m.T)) < 1e-14
    assert np.linalg.eigvalsh(m).min() > 0.0


def test_stiffness_spd_on_dirichlet_space():
    basis = build_spatial(4, 3)
    _, l, _ = spatial_operators(basis)
    assert np.max(np.abs(l - l.T)) < 1e-12
    assert np.linalg.eigvalsh(l).min() > 0.0


def test_gram_centro_symmetry():
    basis = build_spatial(4, 3)
    for mat in spatial_operators(basis)[:2]:
        np.testing.assert_allclose(mat, mat[::-1, ::-1], atol=1e-13)


def test_load_against_adaptive_quadrature():
    basis = build_spatial(3, 3)
    forcing = lambda t, x: (1.0 + t) * np.sin(2.0 * np.pi * x)
    vec = assemble_load_matrix(spatial_operators(basis)[2], forcing, np.array([0.3]))[:, 0]
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


@pytest.mark.parametrize("j", [3, 5])
def test_a_cold_level_evaluates_the_basis_once_per_order(monkeypatch, j):
    # the Gram matrices and the load table come from one rule: one
    # value table, which the mass and the load share, and one derivative table
    orders = []
    eval_many = SpatialBasis.eval_many

    def counting(basis, x, deriv=0):
        orders.append(deriv)
        return eval_many(basis, x, deriv)

    monkeypatch.setattr(SpatialBasis, "eval_many", counting)
    solver._build_spatial_level(j, 3)
    assert sorted(orders) == [0, 1]


def _per_time_columns(vw, x, forcing, times):
    """The load column by column, one forcing call per time."""
    return np.stack([vw.T @ np.asarray(forcing(t, x)) for t in times], axis=1)


@pytest.mark.parametrize("example", [example1, example2])
def test_example_forcings_take_the_vectorised_path(example):
    # one forcing call on the (time, node) grid gives the per-time columns
    table = spatial_operators(build_spatial(3, 3))[2]
    forcing = example(0.5).forcing
    times = np.array([0.0, 0.3, 0.625, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = assemble_load_matrix(table, forcing, times)
    ref = _per_time_columns(table[1], table[0], forcing, times)
    np.testing.assert_allclose(cols, ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())


def test_load_rejects_a_forcing_that_does_not_broadcast():
    table = spatial_operators(build_spatial(3, 3))[2]
    with pytest.raises(ValueError, match=r"shape \(3,\).*grid \(2, 64\)"):
        assemble_load_matrix(table, lambda t, x: np.ones(3), np.array([0.25, 0.5]))


@pytest.mark.parametrize(
    "forcing, count, first",
    [
        (lambda t, x: np.where(t > 0.5, np.nan, t * np.sin(np.pi * x)), 16, 0.53125),  # NaN past t = 1/2
        (lambda t, x: np.full(np.broadcast(t, x).shape, np.inf), 32, 0.03125),
    ],
    ids=["nan", "inf"],
)
def test_load_rejects_a_forcing_that_is_not_finite(forcing, count, first):
    # such a load gave NaN coefficients and a NaN residual with no error
    table = spatial_operators(build_spatial(4, 3))[2]
    times = np.arange(1, 33) / 32
    with pytest.raises(ValueError, match=rf"not finite at {count} of 32 times, the first t={first}$"):
        assemble_load_matrix(table, forcing, times)
    problem = ProblemSpec(name="not finite", order=0.5, forcing=forcing)
    with pytest.raises(ValueError, match="not finite"):
        solver.solve(problem, solver.SolveConfig(gamma=0.5, j=4, s=4))


# The temporal collocation tables and the load are built inside ``solve``;
# these tests read them where ``solve`` hands them to the modal solve, and
# check the load against one built column by column.  The load table and the
# eigenpairs come from the spatial level whose modes ``solve`` passed.
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
    seen.update(table=level.load_table)
    x, w = gauss_rule(8, 3)
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
    mass, stiffness, table = spatial_operators(sol.spatial)
    np.testing.assert_array_equal(seen["table"][0], table[0])
    np.testing.assert_array_equal(seen["table"][1], table[1])
    np.testing.assert_array_equal(seen["load"], assemble_load_matrix(table, _forcing, nodes))
    # the level keeps the eigenpairs of the Gram matrices, not the matrices
    modes = spatial_modes(mass, stiffness)
    np.testing.assert_array_equal(seen["modes"].lam, modes.lam)
    np.testing.assert_array_equal(seen["modes"].v, modes.v)
    assert seen["modes"].mass_cond == modes.mass_cond


def test_collocation_horizon_scales_node_count(monkeypatch):
    sol, seen = _operators_through_solve(monkeypatch, _forcing, 2, s=3, q=3)
    nodes = np.arange(1, 17) / 8.0
    assert seen["a"].shape[0] == seen["g"].shape[0] == seen["load"].shape[1] == 16
    np.testing.assert_array_equal(
        seen["load"], assemble_load_matrix(spatial_operators(sol.spatial)[2], _forcing, nodes)
    )


def test_assemble_system_shapes_and_ic_column(monkeypatch):
    for horizon in (1, 2):
        sol, seen = _operators_through_solve(monkeypatch, _forcing, horizon, s=3, q=4)
        n_x, n_t, rows = sol.spatial.size, sol.temporal.size, 16 * horizon
        assert seen["modes"].lam.shape == (n_x,) and seen["modes"].v.shape == (n_x, n_x)
        assert seen["a"].shape == seen["g"].shape == (rows, n_t - 1)
        # no t = 0 constraint column: the first column is the load at t = 1/16
        assert seen["load"].shape == (n_x, rows)
        assert np.any(seen["load"][:, 0] != 0.0)
