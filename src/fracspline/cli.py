"""Experiment runner: single solves, (s, j) sweeps, error-curve families.

Three subcommands share one flag vocabulary:

* ``solve``  -- one cell, human-readable summary (or ``--format csv|json``)
* ``table``  -- Cartesian sweep over comma-separated ``-s``/``-j`` (and
  ``--gamma``/``--beta``) lists, emitted as CSV or JSON in deterministic
  row order
* ``curves`` -- one gnuplot-ready data file per gamma, columns ``s`` then
  one error column per beta, at fixed ``-j``

Exit codes: 0 success, 2 configuration error (nothing written), 3 solver
failure.  Inside a sweep a failing cell becomes a NaN sentinel row, its
exception is named on stderr, and the sweep keeps going.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from . import _blas
from .basis import build_spatial, build_temporal
from .bspline import DEFAULT_TAIL_TOL
from .problems import ProblemSpec, example1, example2
from .solver import ErrorReport, Solution, SolveConfig, error_report, l2_error_at_time, solve

DEFAULT_CURVE_BETAS = (2.0, 2.5, 3.0, 3.5, 4.0)
# CLI-level sanity bounds; the library accepts any level or rule that fits in memory.
LEVEL_RANGE = (2, 8)
QUAD_POINTS_MAX = 32
# each sweep thread is an OS thread, whatever the number of cells
THREADS_MAX = 64


class ConfigError(ValueError):
    """Any problem that should abort with exit code 2 before output starts."""


@dataclass(frozen=True)
class TableRow:
    """One output row; its fields are the CSV columns, in order.

    ``runtime_ms`` is the cell's solve plus its error report.
    """

    s: int
    j: int
    beta: float
    gamma: float
    l2_error: float
    dof: int
    condition_estimate: float
    runtime_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(TableRow))


def _f17(x: float) -> str:
    return "%.17g" % x


def _float_list(text: str, flag: str) -> list[float]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"{flag}: empty list")
    try:
        return [float(piece) for piece in items]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _int_list(text: str, flag: str) -> list[int]:
    values = _float_list(text, flag)
    out = []
    for v in values:
        if v != int(v):
            raise ConfigError(f"{flag}: {v!r} is not an integer")
        out.append(int(v))
    return out


def _check_levels(values: Sequence[int], flag: str) -> None:
    lo, hi = LEVEL_RANGE
    for v in values:
        if not lo <= v <= hi:
            raise ConfigError(f"{flag}: level {v} outside {lo}..{hi}")


def _make_problem(example: int, gamma: float) -> ProblemSpec:
    try:
        if example == 1:
            return example1(gamma)
        if example == 2:
            return example2(gamma)
    except ValueError as exc:
        raise ConfigError(f"--example {example} with --gamma {gamma:g}: {exc}") from None
    raise ConfigError(f"--example must be 1 or 2, got {example}")


@dataclass(frozen=True)
class _Cell:
    problem: ProblemSpec
    config: SolveConfig


def _build_cell(args, gamma: float, beta: float, j: int, s: int) -> _Cell:
    # q = LEVEL_RANGE[1] + 1 is the default collocation level of the finest cell
    q_max = LEVEL_RANGE[1] + 1
    if args.q is not None and not s <= args.q <= q_max:
        raise ConfigError(f"-q: collocation level {args.q} outside {s}..{q_max}")
    if args.quad_points > QUAD_POINTS_MAX:
        raise ConfigError(f"--quad-points: {args.quad_points} exceeds {QUAD_POINTS_MAX}")
    problem = _make_problem(args.example, gamma)
    try:
        config = SolveConfig(
            gamma=gamma,
            j=j,
            s=s,
            alpha=args.alpha,
            beta=beta,
            q=args.q,
            tail_tol=args.tail_tol,
            quad_points=args.quad_points,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return _Cell(problem=problem, config=config)


def _fallback_dof(cell: _Cell) -> int:
    # DOF is a property of the discretisation, not of the solve, so report it
    # even for sentinel rows whenever the bases can still be built.
    cfg = cell.config
    try:
        n_x = build_spatial(cfg.j, cfg.alpha).size
        n_t = build_temporal(cfg.s, cfg.beta, cfg.horizon, cfg.tail_tol).size
    except Exception:
        return 0
    return n_x * n_t


def _measure(cell: _Cell) -> tuple[TableRow, Solution, ErrorReport]:
    """Solve one cell and report its errors, both under the row's timer."""
    cfg = cell.config
    start = time.perf_counter()
    sol, lsq = solve(cell.problem, cfg)
    rep = error_report(sol, lsq, cell.problem.exact)
    ms = (time.perf_counter() - start) * 1e3
    row = TableRow(cfg.s, cfg.j, cfg.beta, cfg.gamma, rep.l2_error, rep.dof, rep.condition_estimate, ms)
    return row, sol, rep


def _run_cell(cell: _Cell) -> TableRow:
    """A sweep cell's row; a failing cell becomes a NaN sentinel row."""
    cfg = cell.config
    start = time.perf_counter()
    try:
        return _measure(cell)[0]
    except Exception as exc:
        ms = (time.perf_counter() - start) * 1e3
        # one write per line, so lines from parallel cells do not interleave
        sys.stderr.write(
            f"cell s={cfg.s} j={cfg.j} beta={cfg.beta:g} gamma={cfg.gamma:g}: "
            f"{type(exc).__name__}: {exc}\n"
        )
        return TableRow(cfg.s, cfg.j, cfg.beta, cfg.gamma, math.nan, _fallback_dof(cell), math.nan, ms)


def _run_cells(cells: list[_Cell], threads: int) -> list[TableRow]:
    if threads <= 1 or len(cells) <= 1:
        return [_run_cell(c) for c in cells]
    # Every cell calls BLAS: each worker drives one BLAS thread rather than
    # a pool as large as the machine, as each solve's mode loop does anyway.
    with _blas.single_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        # map() preserves submission order, so output order never depends on
        # which cell finishes first.
        return list(pool.map(_run_cell, cells))


def _csv_lines(rows: Sequence[TableRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        values = (getattr(r, name) for name in CSV_COLUMNS)
        lines.append(",".join(str(v) if isinstance(v, int) else _f17(v) for v in values))
    return "\n".join(lines) + "\n"


def _row_object(r: TableRow) -> dict:
    values = ((name, getattr(r, name)) for name in CSV_COLUMNS)
    return {name: None if isinstance(v, float) and math.isnan(v) else v for name, v in values}


def _json_text(rows: Sequence[TableRow], single: bool) -> str:
    if single:
        return json.dumps(_row_object(rows[0]), indent=2) + "\n"
    return json.dumps([_row_object(r) for r in rows], indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _add_common(p: argparse.ArgumentParser, *, sweep: bool) -> None:
    p.add_argument("--example", type=int, required=True, choices=(1, 2))
    p.add_argument("--gamma", required=True, help="derivative order(s), comma list" if sweep else "derivative order")
    p.add_argument("--beta", default=None, help="temporal spline degree(s)" if sweep else "temporal spline degree (default 3.5)")
    p.add_argument("--alpha", type=int, default=3, help="spatial spline degree (default 3)")
    p.add_argument("-j", default=None, help="spatial level(s)" if sweep else "spatial level")
    p.add_argument("-s", default=None, help="temporal level(s)" if sweep else "temporal level")
    p.add_argument("-q", type=int, default=None, help="collocation level (default s+1)")
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    p.add_argument("--quad-points", type=int, default=8)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if sweep:
        p.add_argument("--threads", type=int, default=1, help="parallel sweep cells (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspline",
        description="Fractional-spline collocation-Galerkin experiments for time-fractional diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one (j, s) cell")
    _add_common(p_solve, sweep=False)
    p_solve.add_argument("--format", choices=("csv", "json"), default=None, help="machine output instead of the summary")

    p_table = sub.add_parser("table", help="Cartesian (s, j) sweep")
    _add_common(p_table, sweep=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_curves = sub.add_parser("curves", help="error-vs-s data files, one per gamma")
    _add_common(p_curves, sweep=True)

    return parser


def _resolve_threads(args) -> int:
    if not 1 <= args.threads <= THREADS_MAX:
        raise ConfigError(f"--threads must lie in 1..{THREADS_MAX}, got {args.threads}")
    return args.threads


def _cmd_solve(args) -> int:
    gammas = _float_list(args.gamma, "--gamma")
    betas = _float_list(args.beta, "--beta") if args.beta is not None else [3.5]
    js = _int_list(args.j, "-j") if args.j is not None else None
    ss = _int_list(args.s, "-s") if args.s is not None else None
    if js is None or ss is None:
        raise ConfigError("solve needs -j and -s")
    if len(gammas) != 1 or len(betas) != 1 or len(js) != 1 or len(ss) != 1:
        raise ConfigError("solve takes single values, not lists; use the table subcommand to sweep")
    _check_levels(js, "-j")
    _check_levels(ss, "-s")
    cell = _build_cell(args, gammas[0], betas[0], js[0], ss[0])
    try:
        row, sol, rep = _measure(cell)
    except Exception as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3

    if args.format == "csv":
        _emit(_csv_lines([row]), args.out)
    elif args.format == "json":
        _emit(_json_text([row], single=True), args.out)
    else:
        final_t = float(cell.config.horizon)
        if cell.problem.exact is not None:
            err_t = l2_error_at_time(sol, cell.problem.exact, final_t)
            err_t_text = f"{err_t:.5e}"
        else:
            err_t_text = "n/a"
        err_text = f"{rep.l2_error:.5e}" if not math.isnan(rep.l2_error) else "n/a"
        summary = (
            f"{cell.problem.name}  gamma={cell.config.gamma:g}  beta={cell.config.beta:g}  "
            f"alpha={cell.config.alpha}  j={cell.config.j}  s={cell.config.s}  "
            f"q={cell.config.collocation_level}\n"
            f"  dof                {rep.dof}\n"
            f"  l2 error           {err_text}   (space-time)\n"
            f"  l2 error at t={final_t:g}    {err_t_text}   (space only)\n"
            f"  condition estimate {rep.condition_estimate:.5e}\n"
            f"  lsq residual       {rep.residual_norm:.5e}\n"
            f"  runtime            {row.runtime_ms:.1f} ms\n"
        )
        _emit(summary, args.out)
    return 0


def _cmd_table(args) -> int:
    gammas = _float_list(args.gamma, "--gamma")
    betas = _float_list(args.beta, "--beta") if args.beta is not None else [3.5]
    if args.j is None or args.s is None:
        raise ConfigError("table needs -j and -s sweep lists")
    js = _int_list(args.j, "-j")
    ss = _int_list(args.s, "-s")
    _check_levels(js, "-j")
    _check_levels(ss, "-s")
    threads = _resolve_threads(args)

    # Validate every cell before any output so a config error leaves no file.
    cells = [
        _build_cell(args, gamma, beta, j, s)
        for gamma in sorted(gammas)
        for beta in sorted(betas)
        for s in sorted(ss)
        for j in sorted(js)
    ]
    rows = _run_cells(cells, threads)
    if args.format == "json":
        _emit(_json_text(rows, single=False), args.out)
    else:
        _emit(_csv_lines(rows), args.out)
    return 0


def _curve_file_name(prefix: str, gamma: float) -> str:
    return f"{prefix}_gamma{gamma:g}.dat"


def _cmd_curves(args) -> int:
    gammas = _float_list(args.gamma, "--gamma")
    betas = _float_list(args.beta, "--beta") if args.beta is not None else list(DEFAULT_CURVE_BETAS)
    js = _int_list(args.j, "-j") if args.j is not None else [5]
    if len(js) != 1:
        raise ConfigError("curves uses a single -j (default 5)")
    if args.s is None:
        raise ConfigError("curves needs an -s list (e.g. -s 2,3,4,5)")
    ss = sorted(_int_list(args.s, "-s"))
    _check_levels(js, "-j")
    _check_levels(ss, "-s")
    betas = sorted(betas)
    gammas = sorted(gammas)
    threads = _resolve_threads(args)
    prefix = args.out if args.out is not None else "curves"

    plan = [
        (gamma, beta, s)
        for gamma in gammas
        for beta in betas
        for s in ss
    ]
    cells = [_build_cell(args, gamma, beta, js[0], s) for gamma, beta, s in plan]
    rows = _run_cells(cells, threads)
    by_key = {key: row for key, row in zip(plan, rows)}

    for gamma in gammas:
        beta_heads = "  ".join(f"err[beta={b:g}]" for b in betas)
        lines = [
            f"# example {args.example}  gamma={gamma:g}  j={js[0]}  alpha={args.alpha}  "
            f"q={'s+1' if args.q is None else args.q}",
            f"# s  {beta_heads}",
        ]
        for s in ss:
            errs = "  ".join(_f17(by_key[(gamma, beta, s)].l2_error) for beta in betas)
            lines.append(f"{s}  {errs}")
        path = _curve_file_name(prefix, gamma)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {path} ({len(ss)} rows)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_curves(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # solver-side failures outside the sweep path
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
