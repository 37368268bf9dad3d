"""Least squares, the modal Kronecker solve and its dense oracle."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from dense_oracle import materialize_kron_sum
from modal_oracle import oracle_lstsq_solve, oracle_modal_lstsq_solve
from fracspline import _blas, linalg, solver
from fracspline.linalg import (
    LeastSquaresReport,
    lstsq_solve,
    modal_lstsq_solve,
    spatial_modes,
)
from fracspline.problems import example1


def _normal_solve_longdouble(a, b):
    """Normal-equation solve in extended precision.

    numpy.linalg refuses longdouble, so this is a hand-rolled Gaussian
    elimination with partial pivoting on A^T A x = A^T b.  For the
    well-conditioned random systems below it carries ~18 significant
    digits, which is plenty of headroom for a 1e-8 comparison.
    """
    al = a.astype(np.longdouble)
    g = al.T @ al
    rhs = al.T @ b.astype(np.longdouble)
    n = g.shape[0]
    aug = np.hstack([g, rhs[:, None]])
    for col in range(n):
        p = col + int(np.argmax(np.abs(aug[col:, col])))
        if p != col:
            aug[[col, p]] = aug[[p, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(col + 1, n):
            aug[row] -= aug[row, col] * aug[col]
    x = np.zeros(n, dtype=np.longdouble)
    for col in range(n - 1, -1, -1):
        x[col] = aug[col, -1] - aug[col, col + 1 : n] @ x[col + 1 : n]
    return x


def _graded_matrix(rng, m, n, decades):
    """Random matrix with singular values 10**0 .. 10**-decades."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0.0, -float(decades), n)
    return u @ np.diag(s) @ v.T


class TestLstsqSolve:
    def test_matches_numpy_lstsq(self):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((60, 30))
        b = rng.standard_normal(60)
        x, rep = lstsq_solve(a, b)
        x_np = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose(x, x_np, rtol=1e-10, atol=1e-12)
        assert rep.rank == 30
        assert not rep.rank_deficient
        assert rep.residual_norm == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-10)

    def test_square_nonsingular(self):
        rng = np.random.default_rng(103)
        a = rng.standard_normal((25, 25))
        b = rng.standard_normal(25)
        x, rep = lstsq_solve(a, b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-9)
        assert rep.residual_norm < 1e-10 * np.linalg.norm(b)

    def test_consistent_system_recovers_generator(self):
        rng = np.random.default_rng(107)
        a = rng.standard_normal((45, 12))
        x_star = rng.standard_normal(12)
        b = a @ x_star
        x, rep = lstsq_solve(a, b)
        assert np.allclose(x, x_star, rtol=1e-10)
        assert rep.residual_norm < 1e-9 * np.linalg.norm(b)

    def test_fifty_by_twenty_against_extended_precision(self):
        rng = np.random.default_rng(109)
        a = rng.standard_normal((50, 20))
        b = rng.standard_normal(50)
        x, _ = lstsq_solve(a, b)
        x_ref = _normal_solve_longdouble(a, b)
        assert np.abs(x - x_ref.astype(np.float64)).max() < 1e-8

    def test_duplicate_column_gives_basic_solution(self):
        rng = np.random.default_rng(113)
        a = rng.standard_normal((30, 10))
        a[:, 6] = a[:, 2]  # exact dependency
        b = rng.standard_normal(30)
        x, rep = lstsq_solve(a, b)
        assert rep.rank == 9
        assert rep.rank_deficient
        # one of the twins is dropped, its coefficient exactly zero
        assert x[2] == 0.0 or x[6] == 0.0
        # and the fit is still the least-squares optimum
        grad = np.linalg.norm(a.T @ (a @ x - b))
        assert grad < 1e-10 * np.linalg.norm(a, 2) * np.linalg.norm(b)

    def test_underdetermined_consistent(self):
        rng = np.random.default_rng(127)
        a = rng.standard_normal((8, 14))
        b = a @ rng.standard_normal(14)
        x, rep = lstsq_solve(a, b)
        assert rep.rank == 8
        assert rep.residual_norm == 0.0
        assert np.linalg.norm(a @ x - b) < 1e-10 * np.linalg.norm(b)

    def test_rcond_override_shrinks_rank(self):
        rng = np.random.default_rng(131)
        a = _graded_matrix(rng, 40, 10, decades=9)
        b = rng.standard_normal(40)
        ranks = [lstsq_solve(a.copy(), b, rcond=rc)[1].rank for rc in (None, 1e-6, 1e-2)]
        assert ranks[0] == 10
        assert ranks[0] >= ranks[1] >= ranks[2]
        assert ranks[2] < 10

    def test_residual_bounded_and_gradient_orthogonal(self):
        rng = np.random.default_rng(137)
        a = rng.standard_normal((40, 15))
        b = rng.standard_normal(40)
        x, rep = lstsq_solve(a, b)
        assert rep.residual_norm <= np.linalg.norm(b) * (1.0 + 1e-12)
        grad = np.linalg.norm(a.T @ (a @ x - b))
        assert grad < 1e-8 * np.linalg.norm(a, 2) * np.linalg.norm(b)

    def test_condition_estimate_identity(self):
        x, rep = lstsq_solve(np.eye(9), np.arange(9.0))
        assert np.allclose(x, np.arange(9.0))
        assert rep.condition_estimate == pytest.approx(1.0)

    def test_condition_estimate_spans_full_diagonal(self):
        # even when rcond drops trailing columns, the estimate keeps
        # reporting the spread of the whole family, not the kept block
        rng = np.random.default_rng(139)
        a = _graded_matrix(rng, 30, 8, decades=8)
        b = rng.standard_normal(30)
        _, rep = lstsq_solve(a, b, rcond=1e-3)
        assert rep.rank < 8
        assert rep.condition_estimate > 1e6

    def test_fortran_order_path_matches(self):
        rng = np.random.default_rng(149)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal(20)
        x_c, _ = lstsq_solve(a, b)
        x_f, _ = lstsq_solve(np.asfortranarray(a.copy()), b)
        assert np.array_equal(x_c, x_f)

    def test_read_only_input_is_not_overwritten(self):
        rng = np.random.default_rng(151)
        a = np.asfortranarray(rng.standard_normal((20, 8)))
        b = rng.standard_normal(20)
        want = lstsq_solve(a.copy(order="F"), b)
        frozen = a.copy(order="F")
        frozen.flags.writeable = False
        got = lstsq_solve(frozen, b)
        assert np.array_equal(frozen, a)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    @pytest.mark.parametrize("n", [3, 0])
    def test_no_rows_raises_before_lapack(self, n, capfd):
        with pytest.raises(ValueError, match="no rows"):
            lstsq_solve(np.zeros((0, n)), np.zeros(0))
        assert capfd.readouterr().err == ""

    def test_no_columns_is_the_empty_fit(self):
        x, rep = lstsq_solve(np.zeros((3, 0)), np.ones(3))
        assert x.shape == (0,)
        assert rep == LeastSquaresReport(math.sqrt(3.0), math.inf, 0, True)

    def test_zero_matrix(self):
        b = np.ones(5)
        x, rep = lstsq_solve(np.zeros((5, 3)), b)
        assert np.array_equal(x, np.zeros(3))
        assert rep.rank == 0
        assert rep.rank_deficient
        assert rep.residual_norm == pytest.approx(np.sqrt(5.0))
        assert np.isinf(rep.condition_estimate)

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError, match="rhs length"):
            lstsq_solve(np.eye(4), np.ones(5))

    def test_report_is_frozen(self):
        _, rep = lstsq_solve(np.eye(2), np.ones(2))
        assert isinstance(rep, LeastSquaresReport)
        with pytest.raises(AttributeError):
            rep.rank = 99


class TestKron:
    def test_exhaustive_small_shapes(self):
        # every factor shape up to 8: materialised sum equals np.kron
        rng = np.random.default_rng(151)
        for mr, mc, ar, ac in itertools.product(range(1, 9), repeat=4):
            m = rng.standard_normal((mr, mc))
            a = rng.standard_normal((ar, ac))
            l = rng.standard_normal((mr, mc))
            g = rng.standard_normal((ar, ac))
            dense = materialize_kron_sum(m, a, l, g)
            ref = np.kron(m, a) + np.kron(l, g)
            assert np.allclose(dense, ref, atol=1e-13)

    def test_materialize_is_fortran_ordered(self):
        out = materialize_kron_sum(np.eye(3), np.eye(4), np.eye(3), np.eye(4))
        assert out.flags.f_contiguous

    def test_materialize_shape_mismatch(self):
        with pytest.raises(ValueError, match="factor shape"):
            materialize_kron_sum(np.eye(3), np.eye(4), np.eye(2), np.eye(4))


def _spd(rng, n, decades):
    """Random symmetric positive definite matrix with eigenvalues 10**0 .. 10**-decades."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0.0, -float(decades), n)) @ q.T


class TestModalLstsq:
    def test_minimises_the_mass_inverse_weighted_residual(self):
        # full rank: the modal solution is the least-squares solution of the
        # dense system weighted by chol(mass)^-1 (x) I
        rng = np.random.default_rng(157)
        nk, npts, nc = 5, 11, 4
        mass = _spd(rng, nk, 2)
        stiffness = _spd(rng, nk, 1)
        a = rng.standard_normal((npts, nc))
        g = rng.standard_normal((npts, nc))
        load = rng.standard_normal((nk, npts))
        c, rep = modal_lstsq_solve(spatial_modes(mass, stiffness), a, g, load)
        w = np.kron(np.linalg.inv(np.linalg.cholesky(mass)), np.eye(npts))
        big = materialize_kron_sum(mass, a, stiffness, g)
        ref = np.linalg.lstsq(w @ big, w @ load.ravel(), rcond=None)[0]
        assert np.allclose(c.ravel(), ref, rtol=1e-10, atol=1e-12)
        assert rep.rank == nk * nc
        assert not rep.rank_deficient
        weighted = np.linalg.norm(w @ (big @ c.ravel() - load.ravel()))
        assert rep.residual_norm == pytest.approx(weighted, rel=1e-9)

    def test_rank_threshold_is_global_over_modes(self):
        # the weak mode's block sits wholly below rcond times the strong
        # mode's leading pivot, so it is dropped although it is well
        # conditioned on its own
        rng = np.random.default_rng(167)
        a = rng.standard_normal((12, 4))
        g = rng.standard_normal((12, 4))
        mass = np.eye(2)
        stiffness = np.diag([0.0, 1e6])
        load = rng.standard_normal((2, 12))
        c, rep = modal_lstsq_solve(spatial_modes(mass, stiffness), a, g, load, rcond=1e-3)
        assert rep.rank == 4
        assert rep.rank_deficient
        assert np.abs(c[0]).max() == 0.0
        assert lstsq_solve(a.copy(), load[0], rcond=1e-3)[1].rank == 4

    def test_table_order_does_not_change_the_result(self):
        rng = np.random.default_rng(181)
        # the second stack (40 blocks of 80 x 50, 1.3 MB) spans two chunks of the mode loop
        for nk, npts, nc in ((5, 30, 12), (40, 80, 50)):
            mass, stiffness = _spd(rng, nk, 2), _spd(rng, nk, 1)
            a = rng.standard_normal((npts, nc))
            g = rng.standard_normal((npts, nc))
            g[:, -1] = g[:, 0] + 1e-10 * g[:, 1]  # a near-dependent column for the cut
            a[:, -1] = a[:, 0]
            load = rng.standard_normal((nk, npts))
            modes = spatial_modes(mass, stiffness)
            c_c, rep_c = modal_lstsq_solve(modes, a, g, load)
            f = np.asfortranarray
            c_f, rep_f = modal_lstsq_solve(modes, f(a), f(g), load)
            assert np.array_equal(c_c, c_f)
            assert rep_c == rep_f
            assert rep_c.rank < nk * nc

    def test_condition_estimate_carries_cond_of_mass(self):
        rng = np.random.default_rng(173)
        a = rng.standard_normal((10, 3))
        g = rng.standard_normal((10, 3))
        mass = np.diag([1.0, 1e-3])
        modes = spatial_modes(mass, np.zeros((2, 2)))
        assert modes.mass_cond == pytest.approx(1e3, rel=1e-12)
        _, rep = modal_lstsq_solve(modes, a, g, rng.standard_normal((2, 10)))
        spread = lstsq_solve(a.copy(), np.ones(10))[1].condition_estimate
        assert rep.condition_estimate == pytest.approx(1e3 * spread, rel=1e-10)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="factor shape"):
            spatial_modes(np.eye(3), np.eye(2))
        modes = spatial_modes(np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="factor shape"):
            modal_lstsq_solve(modes, np.eye(4), np.eye(4, 3), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="load has shape"):
            modal_lstsq_solve(modes, np.eye(4), np.eye(4), np.zeros((4, 3)))

    def test_blocks_run_at_one_blas_thread(self, monkeypatch):
        controls = _blas.thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread controls in this process")
        before = [get() for get, _ in controls]
        seen = []
        factor_block = linalg.dgeqp3

        def recording(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return factor_block(*args, **kwargs)

        real_eigh = linalg.eigh

        def recording_eigh(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(linalg, "dgeqp3", recording)
        monkeypatch.setattr(linalg, "eigh", recording_eigh)
        rng = np.random.default_rng(179)
        nk, npts, nc = 6, 40, 20
        modal_lstsq_solve(
            spatial_modes(_spd(rng, nk, 2), _spd(rng, nk, 1)),
            rng.standard_normal((npts, nc)),
            rng.standard_normal((npts, nc)),
            rng.standard_normal((nk, npts)),
        )
        assert len(seen) == nk + 1  # the eigensolve, then one factorisation per mode
        assert all(counts == [1] * len(controls) for counts in seen)
        assert [get() for get, _ in controls] == before


def _cell_system(monkeypatch, gamma, j, s, beta):
    """The arguments ``solve`` hands the mode loop for one example-1 cell."""
    seen = {}

    def capture(*args):
        seen["args"] = args
        return modal_lstsq_solve(*args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "modal_lstsq_solve", capture)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solver.solve(example1(gamma), solver.SolveConfig(gamma=gamma, j=j, s=s, beta=beta))
    return seen["args"]


class TestModeLoopOracle:
    """The chunked mode loop against one block at a time through a per-block solve."""

    @pytest.mark.parametrize(
        "gamma, j, s, beta",
        [
            (0.5, 5, 2, 2.0),  # curves cells: every mode in one chunk
            (1.0, 5, 3, 2.5),
            (0.5, 5, 4, 3.5),
            (1.0, 5, 5, 4.0),
            (0.5, 6, 6, 3.5),  # 65 blocks of 128 x 72 over five chunks
            (0.5, 6, 6, 3.0),  # as many, each with a residual: its sum is order-sensitive
            (0.5, 3, 2, 3.5),  # underdetermined 8 x 12 blocks
            (0.5, 3, 5, 3.0),  # the full-rank cubic cell
        ],
    )
    def test_matches_one_block_at_a_time(self, monkeypatch, gamma, j, s, beta):
        args = _cell_system(monkeypatch, gamma, j, s, beta)
        coeffs, rep = modal_lstsq_solve(*args)
        want_coeffs, want_rep = oracle_modal_lstsq_solve(*args)
        assert np.array_equal(coeffs, want_coeffs)
        assert rep == want_rep

    def test_zero_block_keeps_nothing(self):
        # a = 0 and the first eigenvalue 0 make mode 0's block exactly zero
        rng = np.random.default_rng(191)
        a = np.zeros((12, 5))
        g = rng.standard_normal((12, 5))
        modes = spatial_modes(np.eye(3), np.diag([0.0, 1.0, 2.0]))
        load = rng.standard_normal((3, 12))
        # the zero block's threshold is rcond * top / 0
        with np.errstate(divide="ignore", invalid="ignore"):
            coeffs, rep = modal_lstsq_solve(modes, a, g, load)
            want_coeffs, want_rep = oracle_modal_lstsq_solve(modes, a, g, load)
        assert np.array_equal(coeffs, want_coeffs)
        assert rep == want_rep
        assert rep.rank == 10 and math.isinf(rep.condition_estimate)

    @pytest.mark.parametrize(
        "kind, rcond",
        [
            ("graded", None),
            ("graded", 1e-6),
            ("graded", 1e-2),
            ("underdetermined", None),
            ("zero", None),
            ("no columns", None),
        ],
    )
    def test_single_block_matches(self, kind, rcond):
        rng = np.random.default_rng(193)
        a = {
            "graded": lambda: _graded_matrix(rng, 40, 10, decades=9),
            "underdetermined": lambda: rng.standard_normal((8, 12)),
            "zero": lambda: np.zeros((5, 3)),
            "no columns": lambda: np.zeros((3, 0)),
        }[kind]()
        b = rng.standard_normal(a.shape[0])
        x, rep = lstsq_solve(a.copy(), b, rcond=rcond)
        want_x, want_rep = oracle_lstsq_solve(a, b, rcond=rcond)
        assert np.array_equal(x, want_x)
        assert rep == want_rep

    def test_qr_work_is_one_factorisation_per_mode(self, monkeypatch):
        # the same dgeqp3 calls, block shapes and workspaces as one block at a time
        args = _cell_system(monkeypatch, 0.5, 6, 6, 3.5)
        calls = {}
        for name, module in (("chunked", linalg), ("oracle", lapack)):
            calls[name] = []

            def recording(a, *rest, _real=module.dgeqp3, _calls=calls[name], **kwargs):
                _calls.append((a.shape, kwargs.get("lwork")))
                return _real(a, *rest, **kwargs)

            monkeypatch.setattr(module, "dgeqp3", recording)
        modal_lstsq_solve(*args)
        oracle_modal_lstsq_solve(*args)
        nk, (npts, nc) = args[0].lam.shape[0], args[1].shape
        assert calls["chunked"] == calls["oracle"] == [((npts, nc), 2 * nc + (nc + 1) * 128)] * nk
