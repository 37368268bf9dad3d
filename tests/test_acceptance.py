"""Acceptance gate: one test per headline criterion.

Each test prints one pass/fail line under ``pytest -v``.  Criteria 1-3
compare against the reference convergence tables for the two benchmark
problems; criteria 4-8 are self-contained oracle and invariant checks.

Criteria 1-3 hold every table cell between two edges (and criteria 1-2
also hold its dof count to the table's):

* upper edge, ``err <= 2 x reference``: the tables' accuracy claim.  The
  reference values are kept as published.
* lower edge, ``err >= B(example, j)``: ``B`` is the space-time L2
  distance from the exact field to its spatial L2 projection onto *all*
  cubic splines on the same knots, boundary conditions dropped.  Every
  solution the solver can return lies in that space at each instant, so
  no correct solve and no correct error measure can report less.  ``B``
  is computed here with scipy, independently of ``fracspline.basis``.

A two-sided factor-2 band around the reference cannot be met: the
reference columns fall as O(h^2) and sit about 150 times above ``B``,
while a cubic Galerkin solution converges as O(h^4) (Thomee, *Galerkin
Finite Element Methods for Parabolic Problems*, Springer 2006).  At
(j=3, s=6, beta=3.5) the solve is 1.017 times ``B`` while the reference
is 150 times ``B``.  ``PAPER.md`` holds only the paper's abstract, so
which error measure its columns report is an open question.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
import scipy.interpolate

from caputo_oracle import caputo_oracle
from dense_oracle import materialize_kron_sum, one_block_lstsq
from fracspline.assembly import spatial_operators
from fracspline.basis import build_spatial
from fracspline.bspline import FractionalBSpline
from fracspline.problems import example1, example2
from fracspline.solver import SolveConfig, l2_error, solve
from refinement_mask import mask

# reference L2 errors and dof counts, example 1, gamma=0.5: (s, j) -> (err, dof)
TABLE1 = {  # beta = 3.5
    (5, 3): (0.02037, 369),
    (5, 4): (0.00449, 697),
    (5, 5): (0.00101, 1353),
    (5, 6): (0.00025, 2665),
    (6, 3): (0.02067, 657),
    (6, 4): (0.00417, 1241),
    (6, 5): (0.00093, 2409),
    (6, 6): (0.00024, 4745),
}
TABLE2 = {  # beta = 3
    (5, 3): (0.02121, 315),
    (5, 4): (0.00452, 595),
    (5, 5): (0.00104, 1155),
    (5, 6): (0.00025, 2275),
    (6, 3): (0.02109, 603),
    (6, 4): (0.00443, 1139),
    (6, 5): (0.00097, 2211),
    (6, 6): (0.00023, 4355),
}
# reference L2 errors, example 2, gamma=0.5, s=5 spot cells: j -> err
TABLE3 = {3: 0.01938, 4: 0.00429, 5: 0.00111}  # beta = 3.5
TABLE4 = {3: 0.01909, 4: 0.00404, 5: 0.00102}  # beta = 3


# exact fields u = a(t) g(x) on [0, 1] x [0, 1]:
# example -> (problem, a, analytic L2(0, 1) norm of a, g)
FIELDS = {
    "example1": (
        example1,
        lambda t: t * t,
        math.sqrt(1 / 5),
        lambda x: np.sin(2 * math.pi * x),
    ),
    "example2": (
        example2,
        lambda t: np.sin(math.pi * t),
        math.sqrt(1 / 2),
        lambda x: np.sin(math.pi * x),
    ),
}
ORACLE_ORDERS = (8, 12)  # Gauss points per knot interval: value, check


def _projection_error(g, j, order):
    """L2(0, 1) distance from ``g`` to its L2 projection onto every cubic
    spline on the knots ``k 2**-j`` (no boundary condition imposed).

    Least squares on composite Gauss-Legendre nodes: with ``order >= 4``
    the discrete Gram matrix of the splines is exact, so the fit is the
    L2 projection up to the quadrature of ``g`` itself.
    """
    cells = 2**j
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = ((np.arange(cells)[:, None] + 0.5 * (nodes + 1.0)) / cells).ravel()
    w = np.tile(weights / (2 * cells), cells)
    knots = np.r_[[0.0] * 3, np.linspace(0.0, 1.0, cells + 1), [1.0] * 3]
    y = g(x)
    fit = scipy.interpolate.make_lsq_spline(x, y, knots, k=3, w=np.sqrt(w))
    return math.sqrt(w @ (y - fit(x)) ** 2)


@pytest.fixture(scope="module")
def best_approximation():
    """(example, j) -> (B, relative quadrature uncertainty of B) for j in 3..6.

    ``B = ||a|| * ||g - P_j g||``; the uncertainty is the relative change of
    ``B`` between the two Gauss orders in ``ORACLE_ORDERS``, and must stay
    far inside the tightest lower-edge margin (0.3%, example 1, beta=3,
    s=6, j=4).
    """
    ts = np.linspace(0.0, 1.0, 11)[:, None]
    xs = np.linspace(0.0, 1.0, 13)[None, :]
    out = {}
    for name, (problem, a, a_norm, g) in FIELDS.items():
        field = problem(0.5).exact(ts, xs)
        assert np.abs(field - a(ts) * g(xs)).max() < 1e-14, f"{name} not a(t) g(x)"
        for j in (3, 4, 5, 6):
            value, check = (a_norm * _projection_error(g, j, n) for n in ORACLE_ORDERS)
            slack = abs(value - check) / check
            assert slack < 1e-6, f"{name}, j={j}: quadrature uncertainty {slack:.2e}"
            out[(name, j)] = (value, slack)
    return out


def _band_report(cells):
    """Check each cell against both edges and its dof count.

    ``cells`` holds ``(label, err, reference, (B, slack), dofs)`` tuples,
    ``dofs`` being ``(computed, reference)`` or ``None``.  The lower edge
    allows the relative quadrature uncertainty ``slack`` of ``B``.
    Returns (ok, one line per cell).
    """
    lines = []
    ok = True
    for label, err, ref, (bound, slack), dofs in cells:
        failed = []
        if not err <= 2.0 * ref:
            failed.append("upper edge err <= 2 x reference")
        if not err >= bound * (1.0 - slack):
            failed.append("lower edge err >= B")
        line = (
            f"  ({label}): err={err:.4e}, reference {ref:.5f}, err/reference "
            f"{err / ref:.3e}, B={bound:.4e}, err/B {err / bound:.5g}"
        )
        if dofs is not None:
            dof, ref_dof = dofs
            line += f", dof {dof}"
            if dof != ref_dof:
                failed.append(f"dof {dof} != reference {ref_dof}")
        ok = ok and not failed
        lines.append(line + (f"; FAILED {', '.join(failed)}" if failed else ""))
    return ok, "\n".join(lines)


def _table_cells(rows, table, bounds):
    """Band cells of an example-1 sweep, one per reference table cell."""
    cells = []
    for (s, j), (ref_err, ref_dof) in sorted(table.items()):
        sol, _, err = rows[(s, j)]
        dofs = (sol.coeffs.size, ref_dof)
        cells.append((f"s={s}, j={j}", err, ref_err, bounds[("example1", j)], dofs))
    return cells


@pytest.fixture(scope="module")
def example2_cells():
    """Example 2 spot cells (s=5, j in 3..5) for both temporal degrees."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for beta in (3.5, 3.0):
            for j in (3, 4, 5):
                cfg = SolveConfig(gamma=0.5, j=j, s=5, beta=beta)
                sol, rep = solve(example2(0.5), cfg)
                out[(beta, j)] = (sol, l2_error(sol, example2(0.5).exact))
    return out


def test_best_approximation_oracle(best_approximation):
    # B to the 4 digits quoted in README.md
    quoted = {
        ("example1", 3): 1.382e-4,
        ("example1", 4): 7.300e-6,
        ("example1", 5): 4.347e-7,
        ("example1", 6): 2.683e-8,
        ("example2", 3): 1.151e-5,
        ("example2", 4): 6.871e-7,
        ("example2", 5): 4.241e-8,
    }
    for key, want in quoted.items():
        got = best_approximation[key][0]
        assert abs(got - want) <= 6e-4 * want, f"{key}: B={got:.4e}, quoted {want:.3e}"
    # the space holds every cubic, with no condition at the ends
    assert _projection_error(lambda x: x**3 - 2.0 * x + 1.0, 3, 8) < 1e-14


def test_criterion_1_table1_example1_beta35(table1_sweep, best_approximation):
    rows, elapsed = table1_sweep
    assert elapsed < 300.0, f"sweep took {elapsed:.1f} s, budget is 300 s"
    ok, report = _band_report(_table_cells(rows, TABLE1, best_approximation))
    assert ok, (
        "example 1, beta=3.5: cells outside [B, 2 x reference] or off the "
        "reference dof count:\n" + report
    )


def test_criterion_2_table2_example1_beta3(table2_sweep, best_approximation):
    rows, elapsed = table2_sweep
    assert elapsed < 300.0, f"sweep took {elapsed:.1f} s, budget is 300 s"
    ok, report = _band_report(_table_cells(rows, TABLE2, best_approximation))
    assert ok, (
        "example 1, beta=3: cells outside [B, 2 x reference] or off the "
        "reference dof count:\n" + report
    )


def test_criterion_3_example2_spot_cells(example2_cells, best_approximation):
    cells = [
        (
            f"beta={beta:g}, s=5, j={j}",
            example2_cells[(beta, j)][1],
            ref,
            best_approximation[("example2", j)],
            None,
        )
        for beta, table in ((3.5, TABLE3), (3.0, TABLE4))
        for j, ref in sorted(table.items())
    ]
    ok, report = _band_report(cells)
    assert ok, "example 2 spot cells outside [B, 2 x reference]:\n" + report


def test_criterion_4_derivative_rule_matches_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for beta in (1.0, 2.5, 3.0, 3.5):
        sp = FractionalBSpline(beta)
        hi = min(float(sp.effective_support), 6.0)
        pts = rng.uniform(0.05, hi, size=20)
        knots = tuple(range(1, int(np.ceil(hi)) + 1))
        for gamma in (0.25, 0.5, 0.75):
            for t in pts:
                want = float(sp.frac_derivative(gamma, float(t)))
                got = caputo_oracle(
                    sp,
                    gamma,
                    float(t),
                    # order-1 rule, checked against an independent identity
                    # in test_bspline; a finite difference here costs four
                    # spline calls per quadrature node
                    fprime=lambda u: float(sp.frac_derivative(1.0, u)),
                    breakpoints=knots,
                )
                worst = max(worst, abs(want - got))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"worst |rule - oracle| = {worst:.3e}"
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f} s, budget is 30 s"


def test_criterion_5_property_suites():
    # refinement equation and partition of unity for a non-integer degree
    sp = FractionalBSpline(3.5)
    a = mask(sp.degree, 2 * sp.effective_support)
    ts = np.linspace(0.1, sp.effective_support - 0.1, 201)
    fine = sum(ak * sp(2.0 * ts - k) for k, ak in enumerate(a))
    assert np.abs(fine - sp(ts)).max() < 3e-6, "refinement equation"
    window = np.linspace(sp.effective_support + 0.1, sp.effective_support + 1.9, 101)
    pou = sum(sp(window - k) for k in range(2 * sp.effective_support))
    assert np.abs(pou - 1.0).max() < 3e-6, "partition of unity"

    # integer-degree specialization against the classical cubic B-spline
    cubic = FractionalBSpline(3.0)
    ref = scipy.interpolate.BSpline.basis_element(np.arange(5.0), extrapolate=False)
    xs = np.linspace(0.01, 3.99, 97)
    assert np.abs(cubic(xs) - np.nan_to_num(ref(xs))).max() < 1e-12, "cubic match"

    # mask sum (two-scale normalisation)
    assert abs(mask(3.5, 60).sum() - 2.0) < 1e-6, "mask sum"

    # mass matrix symmetric positive definite
    m = spatial_operators(build_spatial(4, 3))[0]
    assert np.abs(m - m.T).max() < 1e-14, "mass symmetry"
    assert np.linalg.eigvalsh(m).min() > 0.0, "mass SPD"

    # Kronecker materialisation vs numpy, exhaustive shapes <= 8
    rng = np.random.default_rng(5)
    for mr, mc, ar, ac in itertools.product(range(1, 9), repeat=4):
        mm = rng.standard_normal((mr, mc))
        aa = rng.standard_normal((ar, ac))
        ll = rng.standard_normal((mr, mc))
        gg = rng.standard_normal((ar, ac))
        assert np.allclose(
            materialize_kron_sum(mm, aa, ll, gg),
            np.kron(mm, aa) + np.kron(ll, gg),
            atol=1e-13,
        ), (mr, mc, ar, ac)

    # QR least-squares residual orthogonality, one block as a one-mode solve
    a_mat = rng.standard_normal((40, 15))
    b_vec = rng.standard_normal(40)
    x, _ = one_block_lstsq(a_mat, b_vec, 40 * np.finfo(np.float64).eps)
    grad = np.linalg.norm(a_mat.T @ (a_mat @ x - b_vec))
    assert grad < 1e-8 * np.linalg.norm(a_mat, 2) * np.linalg.norm(b_vec), "residual orthogonality"


def test_criterion_6_spatial_order_at_s6(table1_sweep):
    rows, _ = table1_sweep
    for j in (3, 4):
        ratio = rows[(6, j)][2] / rows[(6, j + 1)][2]
        assert ratio >= 4.0, f"err({j})/err({j + 1}) = {ratio:.2f} < 4 at s=6"


def test_criterion_7_manufactured_residual():
    rng = np.random.default_rng(7)
    pts = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(10)]

    p1 = example1(0.5)
    worst1 = 0.0
    for t, x in pts:
        dt = caputo_oracle(lambda s: s * s, 0.5, t, fprime=lambda s: 2.0 * s)
        res = dt * math.sin(2 * math.pi * x) - float(p1.exact_dxx(t, x)) - float(
            p1.forcing(t, x)
        )
        worst1 = max(worst1, abs(res))
    assert worst1 <= 1e-6, f"example 1 residual {worst1:.3e}"

    p2 = example2(0.5)
    worst2 = 0.0
    for t, x in pts:
        dt = caputo_oracle(
            lambda s: math.sin(math.pi * s),
            0.5,
            t,
            fprime=lambda s: math.pi * math.cos(math.pi * s),
        )
        res = dt * math.sin(math.pi * x) - float(p2.exact_dxx(t, x)) - float(
            p2.forcing(t, x)
        )
        worst2 = max(worst2, abs(res))
    assert worst2 <= 1e-6, f"example 2 residual {worst2:.3e}"


def test_criterion_8_boundary_and_initial_conditions(table1_sweep, example2_cells):
    ts = np.linspace(0.0, 1.0, 257)
    xs = np.linspace(0.0, 1.0, 257)
    worst = 0.0
    solutions = [table1_sweep[0][(5, 3)][0], table1_sweep[0][(6, 6)][0]]
    solutions.append(example2_cells[(3.5, 5)][0])
    for sol in solutions:
        walls = sol.grid_values(ts, np.array([0.0, 1.0]))
        start = sol.grid_values(np.array([0.0]), xs)
        worst = max(worst, np.abs(walls).max(), np.abs(start).max())
    assert worst <= 1e-8, f"max boundary/initial violation {worst:.3e}"
