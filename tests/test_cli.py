"""Command-line interface: formats, ordering, exit codes, determinism."""

import itertools
import json
import math
import os
import time
import warnings

import numpy as np
import pytest

import fracspline.cli as cli
from fracspline import _blas, solver
from fracspline.bspline import FractionalBSpline
from fracspline.cli import CSV_COLUMNS, main

# the tiny sweep cells used here sit in the warning regime on purpose;
# the warnings themselves are covered in test_solver
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

FAST = ["--example", "1", "--gamma", "0.5", "-j", "3", "-s", "3"]


def _strip_runtime(csv_text):
    out = []
    for i, line in enumerate(csv_text.splitlines()):
        if i == 0:
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)


class TestSolveCommand:
    def test_human_summary(self, capsys):
        assert main(["solve", *FAST]) == 0
        out = capsys.readouterr().out
        assert "example1" in out
        assert "dof" in out
        assert "l2 error" in out
        assert "space only" in out
        assert "condition estimate" in out
        assert "lsq residual" in out

    def test_csv_format(self, capsys):
        assert main(["solve", *FAST, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        vals = lines[1].split(",")
        assert vals[0] == "3" and vals[1] == "3"
        assert int(vals[5]) > 0  # dof
        assert 0.0 < float(vals[4]) < 1.0  # l2_error

    def test_json_format_matches_csv_values(self, capsys, tmp_path):
        csv_path = tmp_path / "row.csv"
        json_path = tmp_path / "row.json"
        assert main(["solve", *FAST, "--format", "csv", "--out", str(csv_path)]) == 0
        assert main(["solve", *FAST, "--format", "json", "--out", str(json_path)]) == 0
        row = json.loads(json_path.read_text())
        assert set(row) == set(CSV_COLUMNS)
        vals = csv_path.read_text().strip().splitlines()[1].split(",")
        # %.17g survives the float round-trip exactly
        assert float(vals[4]) == row["l2_error"]
        assert int(vals[5]) == row["dof"]
        assert float(vals[6]) == row["condition_estimate"]

    def test_stdout_equals_file_output(self, capsys, tmp_path):
        assert main(["solve", *FAST, "--format", "csv"]) == 0
        stdout_text = capsys.readouterr().out
        path = tmp_path / "out.csv"
        assert main(["solve", *FAST, "--format", "csv", "--out", str(path)]) == 0
        assert _strip_runtime(path.read_text()) == _strip_runtime(stdout_text)

    def test_rejects_sweep_lists(self, capsys):
        assert main(["solve", "--example", "1", "--gamma", "0.5", "-j", "3,4", "-s", "3"]) == 2
        assert "table subcommand" in capsys.readouterr().err

    def test_requires_levels(self, capsys):
        assert main(["solve", "--example", "1", "--gamma", "0.5"]) == 2
        assert "needs -j and -s" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, monkeypatch, capsys):
        def boom(problem, config):
            raise RuntimeError("synthetic breakdown")

        monkeypatch.setattr(cli, "solve", boom)
        assert main(["solve", *FAST]) == 3
        assert "synthetic breakdown" in capsys.readouterr().err


class TestTableCommand:
    def test_csv_order_is_sorted_regardless_of_input(self, capsys):
        assert (
            main(
                [
                    "table",
                    "--example",
                    "1",
                    "--gamma",
                    "0.5",
                    "-j",
                    "4,3",
                    "-s",
                    "4,3",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = [tuple(int(v) for v in ln.split(",")[:2]) for ln in lines[1:]]
        assert cells == [(3, 3), (3, 4), (4, 3), (4, 4)]

    def test_repeat_runs_identical_modulo_runtime(self, tmp_path):
        args = [
            "table",
            "--example",
            "1",
            "--gamma",
            "0.5",
            "-j",
            "3,4",
            "-s",
            "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert _strip_runtime(a.read_text()) == _strip_runtime(b.read_text())

    def test_json_matches_csv(self, tmp_path):
        args = ["table", "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "3,4"]
        c, jj = tmp_path / "t.csv", tmp_path / "t.json"
        assert main([*args, "--out", str(c)]) == 0
        assert main([*args, "--format", "json", "--out", str(jj)]) == 0
        rows = json.loads(jj.read_text())
        assert [r["s"] for r in rows] == [3, 4]
        csv_rows = c.read_text().strip().splitlines()[1:]
        for row, line in zip(rows, csv_rows):
            vals = line.split(",")
            assert row["l2_error"] == float(vals[4])
            assert row["dof"] == int(vals[5])

    def test_failed_cell_becomes_nan_row_and_sweep_continues(
        self, monkeypatch, capsys
    ):
        real_solve = cli.solve

        def flaky(problem, config):
            if config.j == 4:
                raise RuntimeError("synthetic breakdown")
            return real_solve(problem, config)

        monkeypatch.setattr(cli, "solve", flaky)
        assert main(["table", "--example", "1", "--gamma", "0.5", "-j", "3,4", "-s", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "cell s=3 j=4 beta=3.5 gamma=0.5: RuntimeError: synthetic breakdown\n"
        lines = captured.out.strip().splitlines()
        good = lines[1].split(",")
        bad = lines[2].split(",")
        assert float(good[4]) > 0.0
        assert bad[1] == "4" and bad[4] == "nan" and bad[6] == "nan"
        # the sentinel row still reports the dof the cell would have had
        sol, _ = real_solve(
            cli.example1(0.5), cli.SolveConfig(gamma=0.5, j=4, s=3)
        )
        assert int(bad[5]) == sol.coeffs.size

    def test_failed_cell_json_uses_null(self, monkeypatch, capsys):
        def boom(problem, config):
            raise RuntimeError("synthetic breakdown")

        monkeypatch.setattr(cli, "solve", boom)
        assert (
            main(
                [
                    "table",
                    "--example",
                    "1",
                    "--gamma",
                    "0.5",
                    "-j",
                    "3",
                    "-s",
                    "3",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["l2_error"] is None
        assert rows[0]["condition_estimate"] is None
        assert rows[0]["dof"] > 0

    def test_config_error_leaves_no_file(self, tmp_path, capsys):
        target = tmp_path / "never.csv"
        code = main(
            [
                "table",
                "--example",
                "1",
                "--gamma",
                "0.5",
                "-j",
                "3,9",
                "-s",
                "3",
                "--out",
                str(target),
            ]
        )
        assert code == 2
        assert "outside 2..8" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--example", "1", "--gamma", "1.5", "-j", "3", "-s", "3"],
            ["table", "--example", "1", "--gamma", "0.5", "-j", "", "-s", "3"],
            ["table", "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "1"],
            ["table", "--example", "2", "--gamma", "1.0", "-j", "3", "-s", "3"],
            ["table", "--example", "1", "--gamma", "0.5", "-s", "3"],
            ["solve", "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "3", "--tail-tol", "2"],
            ["table", "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "3", "--tail-tol", "2"],
            ["table", "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "3", "--threads", "0"],
            *(
                [command, "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "3", *bad]
                for bad in (
                    ["--alpha", "0"],
                    ["--beta", "nan"],
                    ["--beta", "inf"],
                    ["-q", "40"],  # asks for terabytes if it gets through
                    ["-q", "10"],
                )
                for command in ("solve", "table")
            ),
            # level 2 is in the CLI's range, but the default degree 3 needs 2**j >= 6
            ["solve", "--example", "1", "--gamma", "0.5", "-j", "2", "-s", "3"],
            ["table", "--example", "1", "--gamma", "0.5", "-j", "2,3", "-s", "3"],
            # a non-finite level is no integer
            *(
                [command, "--example", "1", "--gamma", "0.5", *levels]
                for levels in (["-j", "inf", "-s", "3"], ["-j", "nan", "-s", "3"], ["-j", "3", "-s", "inf"])
                for command in ("solve", "table")
            ),
            # an empty path names no file (for curves it is an empty prefix)
            *(
                [command, "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "2", "--out", ""]
                for command in ("solve", "table")
            ),
        ],
    )
    def test_bad_configs_exit_2(self, argv, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("solved a cell")

        monkeypatch.setattr(cli, "_measure", refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error")
        assert captured.out == ""

    @pytest.mark.parametrize("points", ["33", "100000"])
    @pytest.mark.parametrize("command", ["solve", "table"])
    def test_quad_points_bound_builds_no_rule(self, command, points, monkeypatch, capsys):
        # the Galerkin rule follows from --alpha; the removed flag ends in
        # argparse's exit 2 before any rule is built
        def refuse(n):
            raise AssertionError(f"built a {n}-point Gauss rule")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        with pytest.raises(SystemExit) as exc:
            main([command, *FAST, "--quad-points", points])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quad-points" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["-1", "0", "9", "10", "100"])
    @pytest.mark.parametrize("command", ["solve", "table"])
    def test_alpha_bound_builds_nothing(self, command, alpha, monkeypatch, capsys):
        # --alpha 100 -j 8 would build a degree-100 space on a 101-point rule;
        # the bound comes before the cell's first build, its problem
        def refuse(*args):
            raise AssertionError("built the cell's problem")

        monkeypatch.setattr(cli, "_make_problem", refuse)
        argv = [command, "--example", "1", "--gamma", "0.5", "-j", "8", "-s", "3", "--alpha", alpha]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: --alpha: degree {alpha} outside 1..8\n"
        assert captured.out == ""

    def test_alpha_bound_admits_every_degree_up_to_alpha_max(self):
        parser = cli._build_parser()
        assert cli.ALPHA_MAX == 8
        for alpha in range(1, cli.ALPHA_MAX + 1):
            args = parser.parse_args(["solve", "--example", "1", "--gamma", "0.5", "-j", "8", "-s", "3", "--alpha", str(alpha)])
            assert cli._build_cell(args, 0.5, 3.5, 8, 3).config.alpha == alpha

    @pytest.mark.parametrize("command", ["solve", "table", "curves"])
    def test_beta_bound_builds_nothing(self, command, monkeypatch, capsys, tmp_path):
        # from about 5.5 a fractional time spline's support scan reads cancellation
        # noise as tail (--beta 15.5 exited 0 with l2_error 0.39, 170 ended in
        # an overflow); the bound comes before the first cell is built, and a
        # list is refused for any one entry
        def refuse(*args):
            raise AssertionError("built a cell")

        monkeypatch.setattr(cli, "_build_cell", refuse)
        betas = "5.5" if command == "solve" else "3.5,5.5"
        argv = [command, "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "2", "--beta", betas]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration error: --beta: degree 5.5 exceeds 5\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["solve", "table", "curves"])
    def test_out_directory_that_does_not_exist_builds_nothing(self, command, monkeypatch, capsys, tmp_path):
        # a missing directory is refused before any cell is built, not found
        # when the output is written after the last cell; for curves --out is
        # a file-name prefix, whose directory is checked
        def refuse(*args):
            raise AssertionError("built a cell")

        monkeypatch.setattr(cli, "_build_cell", refuse)
        missing = tmp_path / "missing"
        argv = [command, "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "2", "--out", str(missing / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: --out: no directory {str(missing)!r}\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_beta_bound_admits_beta_max(self, capsys):
        argv = ["solve", "--example", "1", "--gamma", "0.5", "-j", "3", "-s", "2", "--format", "csv"]
        assert main([*argv, "--beta", str(cli.BETA_MAX)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[CSV_COLUMNS.index("beta")]) == cli.BETA_MAX == 5.0
        assert float(row[CSV_COLUMNS.index("l2_error")]) < 1e-2

    @pytest.mark.parametrize("command, levels", [("table", ["-j", "3,4", "-s", "3"]), ("curves", ["-j", "3", "-s", "3,4"])])
    def test_threads_bound_starts_no_thread(self, command, levels, tmp_path, capsys):
        argv = [command, "--example", "1", "--gamma", "0.5", *levels, "--out", str(tmp_path / "out")]
        assert main([*argv, "--threads", str(cli.THREADS_MAX + 1)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_argparse_rejects_unknown_example(self):
        with pytest.raises(SystemExit):
            main(["table", "--example", "3", "--gamma", "0.5", "-j", "3", "-s", "3"])

    def test_threads_equivalence(self, tmp_path, clear_caches):
        # At (7, 7) the 129x129 eigenproblem and the 257x136 mode blocks are
        # large enough for a two-thread LAPACK call to round differently from
        # a one-thread one (on two cores the eigensolve does), so a solve step
        # that ran on the caller's BLAS pools, sized by the core count, would
        # show in the output.  Each run starts cold, so the second builds its
        # own eigenpairs instead of reusing the first run's.  A 1-core box
        # runs every pool at one thread either way, so there this case cannot
        # show the fault.
        args = ["table", "--example", "1", "--gamma", "0.5", "--beta", "3.5", "-j", "3,7", "-s", "7"]
        pools, capped = tmp_path / "pools.csv", tmp_path / "capped.csv"
        clear_caches()
        assert main([*args, "--out", str(pools)]) == 0
        clear_caches()
        with _blas.single_thread():
            assert main([*args, "--out", str(capped)]) == 0
        assert _strip_runtime(pools.read_text()) == _strip_runtime(capped.read_text())

    def test_threads_share_blas_cores(self, monkeypatch):
        # a sweep caps nothing around its cells; only each solve's own steps
        # run at one BLAS thread, and the caller's counts come back after it
        controls = _blas.thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread controls in this process")
        before = [get() for get, _ in controls]
        seen = []
        run_cell = cli._run_cell

        def recording(cell):
            seen.append([get() for get, _ in controls])
            return run_cell(cell)

        monkeypatch.setattr(cli, "_run_cell", recording)
        args = ["table", "--example", "1", "--gamma", "0.5", "-j", "3,4", "-s", "3", "--out", os.devnull]
        for threads in ("1", "2"):
            seen.clear()
            assert main([*args, "--threads", threads]) == 0
            assert len(seen) == 2 and all(counts == before for counts in seen)
            assert [get() for get, _ in controls] == before


class TestCellPlan:
    def test_cells_in_output_order_with_duplicates(self):
        args = cli._build_parser().parse_args(
            ["table", "--example", "1", "--gamma", "1.0,0.5,0.5", "--beta", "3.5,3", "-j", "4,3", "-s", "4,3,3"]
        )
        axes, cells = cli._cells(args)
        assert axes == ([0.5, 0.5, 1.0], [3.0, 3.5], [3, 3, 4], [3, 4])
        keys = [(c.config.gamma, c.config.beta, c.config.s, c.config.j) for c in cells]
        # nested loops over the sorted lists: a duplicated s repeats its run of j
        assert keys == [
            (gamma, beta, s, j) for gamma in (0.5, 0.5, 1.0) for beta in (3.0, 3.5) for s in (3, 3, 4) for j in (3, 4)
        ]

    @pytest.mark.parametrize(
        "argv, betas, js",
        [
            (["solve", "-j", "3", "-s", "3"], [3.5], [3]),
            (["table", "-j", "3", "-s", "3"], [3.5], [3]),
            (["curves", "-s", "3"], list(cli.DEFAULT_CURVE_BETAS), [5]),
        ],
    )
    def test_command_defaults(self, argv, betas, js):
        args = cli._build_parser().parse_args([*argv, "--example", "1", "--gamma", "0.5"])
        axes, _ = cli._cells(args)
        assert axes[1] == betas and axes[3] == js

    @pytest.mark.parametrize("command", ["table", "curves"])
    def test_every_cell_is_checked_before_any_runs(self, command, monkeypatch, tmp_path, capsys):
        def refuse(cell):
            raise AssertionError("ran a cell")

        monkeypatch.setattr(cli, "_run_cell", refuse)
        # example 2 takes gamma 0.5 but not 1.0, whose cells come last
        argv = [command, "--example", "2", "--gamma", "0.5,1.0", "-j", "3", "-s", "3", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error: --example 2 with --gamma 1:")
        assert not list(tmp_path.iterdir())

    def test_one_cell_agrees_across_commands(self, tmp_path, capsys):
        cell = ["--example", "1", "--gamma", "0.5", "--beta", "3.5", "-j", "3", "-s", "3"]
        assert main(["solve", *cell, "--format", "csv"]) == 0
        solve_row = capsys.readouterr().out.splitlines()[1].split(",")
        assert main(["table", *cell]) == 0
        table_row = capsys.readouterr().out.splitlines()[1].split(",")
        assert main(["curves", *cell, "--out", str(tmp_path / "cv")]) == 0
        curve_value = (tmp_path / "cv_gamma0.5.dat").read_text().splitlines()[2].split()[1]
        error = CSV_COLUMNS.index("l2_error")
        assert solve_row[:-1] == table_row[:-1]  # all but runtime_ms
        assert solve_row[error] == curve_value and math.isfinite(float(curve_value))

    def test_duplicated_entries_repeat_rows_and_lines(self, tmp_path, capsys):
        cells = ["--example", "1", "--gamma", "0.5,0.5", "--beta", "3.5,3,3.5", "-j", "3", "-s", "3,3"]
        assert main(["table", *cells]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        # gamma, beta, s: each duplicate repeats its cell's row
        assert [(r[3], r[2], r[0]) for r in rows] == list(itertools.product(["0.5"] * 2, ["3", "3.5", "3.5"], ["3"] * 2))
        error = CSV_COLUMNS.index("l2_error")
        by_beta = {r[2]: r[error] for r in rows}
        assert all(r[error] == by_beta[r[2]] for r in rows)
        prefix = tmp_path / "cv"
        assert main(["curves", *cells, "--out", str(prefix)]) == 0
        path = tmp_path / "cv_gamma0.5.dat"
        # the one file is written once per gamma entry, with a line per s entry
        assert capsys.readouterr().out == f"wrote {path} (2 rows)\n" * 2
        lines = path.read_text().splitlines()
        assert lines[1] == "# s  err[beta=3]  err[beta=3.5]  err[beta=3.5]"
        assert lines[2:] == [f"3  {by_beta['3']}  {by_beta['3.5']}  {by_beta['3.5']}"] * 2


class TestCurvesCommand:
    def test_one_file_per_gamma(self, tmp_path, capsys):
        prefix = str(tmp_path / "cv")
        code = main(
            [
                "curves",
                "--example",
                "1",
                "--gamma",
                "0.5,1.0",
                "--beta",
                "3.0,3.5",
                "-j",
                "3",
                "-s",
                "3,4",
                "--out",
                prefix,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        f1 = tmp_path / "cv_gamma0.5.dat"
        f2 = tmp_path / "cv_gamma1.dat"
        assert f1.exists() and f2.exists()
        assert f"wrote {f1} (2 rows)" in out
        assert f"wrote {f2} (2 rows)" in out

        lines = f1.read_text().splitlines()
        assert lines[0].startswith("# example 1  gamma=0.5  j=3")
        assert lines[1] == "# s  err[beta=3]  err[beta=3.5]"
        data = [ln.split() for ln in lines[2:]]
        assert [row[0] for row in data] == ["3", "4"]
        assert all(len(row) == 3 for row in data)
        # errors decrease from s=3 to s=4 for each beta column
        for col in (1, 2):
            assert float(data[1][col]) < float(data[0][col])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_builds_each_level_and_spline_once(self, tmp_path, monkeypatch, clear_caches, threads):
        builds, tables, scans, temporal_builds, error_tables = [], [], [], [], []
        build_spatial = solver.build_spatial
        build_temporal = solver.build_temporal
        spatial_operators = solver.spatial_operators
        error_table = solver._error_table
        scan_support = FractionalBSpline._scan_support

        def counting_build(*args):
            builds.append(args)
            return build_spatial(*args)

        def counting_temporal(s, beta, *rest):
            temporal_builds.append((beta, s))
            return build_temporal(s, beta, *rest)

        def counting_error_table(basis, level, *span):
            error_tables.append((type(basis).__name__, basis.degree, basis.level, level))
            return error_table(basis, level, *span)

        def counting_operators(basis):
            tables.append(basis.level)
            return spatial_operators(basis)

        def counting_scan(spline, degree):
            scans.append(degree)
            return scan_support(spline, degree)

        monkeypatch.setattr(solver, "build_spatial", counting_build)
        monkeypatch.setattr(solver, "build_temporal", counting_temporal)
        monkeypatch.setattr(solver, "spatial_operators", counting_operators)
        monkeypatch.setattr(solver, "_error_table", counting_error_table)
        monkeypatch.setattr(FractionalBSpline, "_scan_support", counting_scan)
        argv = [
            "curves", "--example", "1", "--gamma", "0.5,1.0", "--beta", "2,2.5,3.5",
            "-j", "3", "-s", "2,3", "--threads", str(threads), "--out", str(tmp_path / "cv"),
        ]
        assert main(argv) == 0
        # 12 cells at one j and three betas: one spatial level with one load
        # table, one temporal level per (beta, s) whatever gamma, with one
        # support scan each for a fractional beta (integer degrees need
        # none), and one spatial error table at level max(j, s) + 1 = 4
        assert builds == [(3, 3)]
        assert tables == [3]
        assert sorted(scans) == [2.5, 2.5, 3.5, 3.5]
        assert sorted(temporal_builds) == [(beta, s) for beta in (2.0, 2.5, 3.5) for s in (2, 3)]
        assert sorted(error_tables) == [("SpatialBasis", 3, 3, 4)] + [
            ("TemporalBasis", beta, s, 4) for beta in (2.0, 2.5, 3.5) for s in (2, 3)
        ]

    def test_float_round_trip(self, tmp_path):
        prefix = str(tmp_path / "rt")
        assert (
            main(
                [
                    "curves",
                    "--example",
                    "1",
                    "--gamma",
                    "0.5",
                    "--beta",
                    "3.5",
                    "-j",
                    "3",
                    "-s",
                    "3",
                    "--out",
                    prefix,
                ]
            )
            == 0
        )
        path = tmp_path / "rt_gamma0.5.dat"
        lines = path.read_text().splitlines()
        val = lines[2].split()[1]
        assert "%.17g" % float(val) == val

    def test_requires_s_list(self, capsys):
        assert main(["curves", "--example", "1", "--gamma", "0.5", "-j", "3"]) == 2
        assert "-s list" in capsys.readouterr().err

    def test_single_j_only(self, capsys):
        assert (
            main(["curves", "--example", "1", "--gamma", "0.5", "-j", "3,4", "-s", "3"])
            == 2
        )
        assert "single -j" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param(command, flag, id=f"{command}-{name}")
        for command in ("solve", "table", "curves")
        for name, flag in (("T", ["-T", "2"]), ("no-ic-row", ["--no-ic-row"]))
    ]
    + [
        pytest.param("curves", ["--format", "json"], id="curves-format"),
        pytest.param("solve", ["--threads", "2"], id="solve-threads"),
    ],
)
def test_horizon_flag_is_rejected(command, flag, capsys):
    # removed flags end in argparse's exit 2: the built-in examples are
    # posed on [0, 1] (no -T), u(0, .) = 0 is always imposed by elimination
    # (no --no-ic-row), curves writes gnuplot files only (no --format), and
    # a single solve takes no --threads
    with pytest.raises(SystemExit) as exc:
        main([command, *FAST, *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "table"])
def test_runtime_covers_error_report(command, monkeypatch, capsys):
    # runtime_ms is the cell's solve plus its error report, in both commands
    real_report = cli.error_report

    def slow_report(*args):
        time.sleep(0.05)
        return real_report(*args)

    monkeypatch.setattr(cli, "error_report", slow_report)
    assert main([command, *FAST, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[CSV_COLUMNS.index("runtime_ms")]) >= 50.0


def test_indefinite_mass_prints_infinite_condition(capsys):
    # degree 8's mass matrix is indefinite in double precision at j = 5; the
    # summary shows an inf estimate and the solve warns, where it printed a
    # negative one
    argv = ["solve", "--example", "1", "--gamma", "0.5", "--alpha", "8", "-j", "5", "-s", "4", "--beta", "3"]
    with pytest.warns(UserWarning, match="condition estimate inf exceeds") as record:
        assert main(argv) == 0
    assert "  condition estimate inf\n" in capsys.readouterr().out
    assert "degree-8 mass matrix is not positive definite" in str(record[0].message)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["solve", "table"])
def test_infinite_condition_is_null_in_strict_json(capsys, command):
    # the same cell: a strict parser reads its rows, where a bare Infinity stood
    argv = [command, "--example", "1", "--gamma", "0.5", "--alpha", "8", "-j", "5", "-s", "4", "--beta", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    row = doc if command == "solve" else doc[0]
    assert row["condition_estimate"] is None
    assert list(row) == list(CSV_COLUMNS) and math.isfinite(row["l2_error"])
