"""Command-line interface: formats, ordering, exit codes, determinism."""

import json
import math
import os
import time

import numpy as np
import pytest

import fracspline.cli as cli
from fracspline import _blas, assembly, solver
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
        ],
    )
    def test_bad_configs_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error")

    @pytest.mark.parametrize("points", ["33", "100000"])
    @pytest.mark.parametrize("command", ["solve", "table"])
    def test_quad_points_bound_builds_no_rule(self, command, points, monkeypatch, capsys):
        # NumPy's 100000-point Gauss rule alone would take about 80 GB
        def refuse(n):
            raise AssertionError(f"built a {n}-point Gauss rule")

        monkeypatch.setattr(assembly, "_reference_rule", refuse)
        assert main([command, *FAST, "--quad-points", points]) == 2
        assert "--quad-points" in capsys.readouterr().err

    @pytest.mark.parametrize("command, levels", [("table", ["-j", "3,4", "-s", "3"]), ("curves", ["-j", "3", "-s", "3,4"])])
    def test_threads_bound_starts_no_thread(self, command, levels, tmp_path, monkeypatch, capsys):
        def refuse(max_workers):
            raise AssertionError(f"started a pool of {max_workers} threads")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", refuse)
        argv = [command, "--example", "1", "--gamma", "0.5", *levels, "--out", str(tmp_path / "out")]
        assert main([*argv, "--threads", str(cli.THREADS_MAX + 1)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_argparse_rejects_unknown_example(self):
        with pytest.raises(SystemExit):
            main(["table", "--example", "3", "--gamma", "0.5", "-j", "3", "-s", "3"])

    def test_threads_equivalence(self, tmp_path, clear_caches):
        # each run starts cold, so the second builds its own eigenpairs
        # instead of reusing the first run's
        args = ["table", "--example", "1", "--gamma", "0.5", "-j", "3,4", "-s", "3"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main([*args, "--threads", "1", "--out", str(one)]) == 0
        clear_caches()
        assert main([*args, "--threads", "2", "--out", str(two)]) == 0
        assert _strip_runtime(one.read_text()) == _strip_runtime(two.read_text())
        # The (7, 7) cell's 257x136 blocks are large enough for a two-thread
        # dgeqp3 to round differently from a one-thread one, so a BLAS pool
        # sized by --threads or by the core count would show in the output.
        # Two cells, because a one-cell sweep never starts the pool.  A
        # 1-core box runs every pool at one thread either way, so there this
        # case cannot show the fault.
        args = ["table", "--example", "1", "--gamma", "0.5", "--beta", "3.5", "-j", "3,7", "-s", "7"]
        clear_caches()
        assert main([*args, "--threads", "1", "--out", str(one)]) == 0
        clear_caches()
        assert main([*args, "--threads", "2", "--out", str(two)]) == 0
        assert _strip_runtime(one.read_text()) == _strip_runtime(two.read_text())

    def test_threads_share_blas_cores(self, monkeypatch):
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
        assert main([*args, "--threads", "2"]) == 0
        assert seen and all(counts == [1] * len(controls) for counts in seen)
        assert [get() for get, _ in controls] == before
        seen.clear()
        assert main([*args, "--threads", "1"]) == 0
        assert seen and all(counts == before for counts in seen)


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
        load_table = solver.load_table
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

        def counting_table(basis, quad):
            tables.append(basis.level)
            return load_table(basis, quad)

        def counting_scan(spline, degree):
            scans.append(degree)
            return scan_support(spline, degree)

        monkeypatch.setattr(solver, "build_spatial", counting_build)
        monkeypatch.setattr(solver, "build_temporal", counting_temporal)
        monkeypatch.setattr(solver, "load_table", counting_table)
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
    # a single solve has no cells to run in parallel (no --threads)
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
