import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from fracspline.assembly import (
    QuadratureRule,
    assemble_collocation,
    assemble_load_matrix,
    assemble_mass,
    assemble_stiffness,
    assemble_system,
)
from fracspline.basis import build_spatial, build_temporal
from fracspline.problems import example1, example2

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
    vec = assemble_load_matrix(basis, forcing, np.array([0.3]))[:, 0]
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


def test_load_accepts_scalar_only_forcing():
    basis = build_spatial(3, 3)

    def forcing(t, x):  # deliberately not vectorised
        if np.ndim(x) != 0:
            raise TypeError("scalar only")
        return float(x) ** 2

    with pytest.warns(RuntimeWarning, match="TypeError"):
        vec = assemble_load_matrix(basis, forcing, np.zeros(1))
    smooth = assemble_load_matrix(basis, lambda t, x: np.asarray(x) ** 2, np.zeros(1))
    np.testing.assert_allclose(vec, smooth, rtol=1e-14)


def test_scalar_forcing_fallback_warns_and_matches_vectorised_twin():
    basis = build_spatial(3, 3)
    times = np.array([0.0, 0.25, 0.7, 1.0])
    scalar = lambda t, x: math.exp(-t) * math.sin(math.pi * x)
    vectorised = lambda t, x: np.exp(-t) * np.sin(np.pi * x)
    with pytest.warns(RuntimeWarning, match="TypeError"):
        cols = assemble_load_matrix(basis, scalar, times)
    np.testing.assert_allclose(
        cols, assemble_load_matrix(basis, vectorised, times), rtol=1e-14, atol=1e-17
    )


@pytest.mark.parametrize("example", [example1, example2])
def test_example_forcings_take_the_vectorised_path(example):
    basis = build_spatial(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_load_matrix(basis, example(0.5).forcing, np.array([0.0, 0.3, 1.0]))


def test_collocation_interior_nodes():
    tb = build_temporal(3, 3.0)
    sys_ = assemble_collocation(tb, 0.5, q=4)
    np.testing.assert_allclose(sys_.nodes, np.arange(1, 17) / 16.0)
    assert sys_.derivative.shape == (16, tb.size)
    np.testing.assert_allclose(sys_.value, tb.eval_many(sys_.nodes), atol=1e-15)
    np.testing.assert_allclose(sys_.derivative, tb.eval_many(sys_.nodes, 0.5), atol=1e-15)


def test_collocation_horizon_scales_node_count():
    tb = build_temporal(3, 3.0, T=2)
    sys_ = assemble_collocation(tb, 0.5, q=3)
    assert sys_.nodes.size == 16
    assert sys_.nodes[-1] == pytest.approx(2.0)


def test_collocation_level_validation():
    tb = build_temporal(4, 3.0)
    with pytest.raises(ValueError):
        assemble_collocation(tb, 0.5, q=3)
    with pytest.raises(ValueError):
        assemble_collocation(tb, 0.5, q=4.0)  # type: ignore[arg-type]


def test_assemble_system_shapes_and_ic_column():
    sb = build_spatial(3, 3)
    tb = build_temporal(3, 3.5)
    forcing = lambda t, x: t * np.sin(np.pi * np.asarray(x))
    system = assemble_system(sb, tb, forcing, 0.5, q=4)
    assert system.mass.shape == system.stiffness.shape == (sb.size, sb.size)
    assert system.collocation.derivative.shape == system.collocation.value.shape == (16, tb.size)
    # no t = 0 constraint column: the first column is the load at t = 1/16
    assert system.load.shape == (sb.size, 16)
    assert np.any(system.load[:, 0] != 0.0)
