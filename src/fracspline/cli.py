"""Experiment runner: single solves, (s, j) sweeps, error-curve families.

Three subcommands share one flag vocabulary and one cell plan (``_cells``).
The plan parses the ``--gamma``/``--beta``/``-j``/``-s`` lists once, applies
the command's defaults, checks the levels, ``--beta``, ``--threads``, the
directory of ``--out`` and every cell before any cell runs, and orders the
cells gamma, beta, s, j, each ascending, with duplicated entries kept.  Each
command then only emits:

* ``solve``  -- the plan's one cell, human-readable summary (or
  ``--format csv|json``)
* ``table``  -- one row per cell of the Cartesian sweep over comma-separated
  ``-s``/``-j`` (and ``--gamma``/``--beta``) lists, as CSV or JSON
* ``curves`` -- one gnuplot-ready data file per gamma, columns ``s`` then
  one error column per beta, at fixed ``-j``

Exit codes: 0 success, 2 configuration error (a bad flag, an empty
``--out`` path, or an ``--out`` in a directory that does not exist; nothing
written), 3 solver failure.
Inside a sweep a failing cell becomes a NaN sentinel row, its exception is
named on stderr, and the sweep keeps going.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from .basis import build_spatial, build_temporal
from .bspline import DEFAULT_TAIL_TOL
from .problems import ProblemSpec, example1, example2
from .solver import ErrorReport, Solution, SolveConfig, error_report, l2_error_at_time, solve

DEFAULT_CURVE_BETAS = (2.0, 2.5, 3.0, 3.5, 4.0)
# CLI-level sanity bounds; the library accepts any level or degree that fits in memory.
LEVEL_RANGE = (2, 8)
# from degree 9 up the mass matrix of the endpoint combinations is not
# positive definite in double precision, so the solve's eigensolve fails
ALPHA_MAX = 8
# a fractional time spline's truncated-power sum cancels as beta grows: from
# beta ~5.5 the support scan reads the noise as tail (S = 63-64, against at
# most 9 on [4, 5.4]), and on 257 points of [0, 1] the translates sum to 1
# within 1.1e-5 at 6.5, 9.3e-4 at 8.5 and 1.09 at 11.5; on [2, 5] within 6.2e-7
BETA_MAX = 5.0
# range of --threads, a flag that selects nothing: sweep cells run one at a time
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
        if not math.isfinite(v) or v != int(v):
            raise ConfigError(f"{flag}: {v!r} is not an integer")
        out.append(int(v))
    return out


def _make_problem(example: int, gamma: float) -> ProblemSpec:
    try:
        return (example1 if example == 1 else example2)(gamma)
    except ValueError as exc:
        raise ConfigError(f"--example {example} with --gamma {gamma:g}: {exc}") from None


@dataclass(frozen=True)
class _Cell:
    problem: ProblemSpec
    config: SolveConfig


def _build_cell(args, gamma: float, beta: float, j: int, s: int) -> _Cell:
    if not 1 <= args.alpha <= ALPHA_MAX:
        raise ConfigError(f"--alpha: degree {args.alpha} outside 1..{ALPHA_MAX}")
    # q = LEVEL_RANGE[1] + 1 is the default collocation level of the finest cell
    q_max = LEVEL_RANGE[1] + 1
    if args.q is not None and not s <= args.q <= q_max:
        raise ConfigError(f"-q: collocation level {args.q} outside {s}..{q_max}")
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
        sys.stderr.write(
            f"cell s={cfg.s} j={cfg.j} beta={cfg.beta:g} gamma={cfg.gamma:g}: "
            f"{type(exc).__name__}: {exc}\n"
        )
        return TableRow(cfg.s, cfg.j, cfg.beta, cfg.gamma, math.nan, _fallback_dof(cell), math.nan, ms)


def _csv_lines(rows: Sequence[TableRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        values = (getattr(r, name) for name in CSV_COLUMNS)
        lines.append(",".join(str(v) if isinstance(v, int) else _f17(v) for v in values))
    return "\n".join(lines) + "\n"


def _row_object(r: TableRow) -> dict:
    """The row as a JSON object: a NaN or infinite value is ``null``, which
    strict JSON parsers accept and ``NaN`` or ``Infinity`` they reject."""
    values = ((name, getattr(r, name)) for name in CSV_COLUMNS)
    return {name: None if isinstance(v, float) and not math.isfinite(v) else v for name, v in values}


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
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if sweep:
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; cells run one at a time")


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


# per command: the --beta list and the -j text taken when the flag is absent,
# and the error raised when -j or -s is still missing
_DEFAULTS = {
    "solve": ("3.5", None, "solve needs -j and -s"),
    "table": ("3.5", None, "table needs -j and -s sweep lists"),
    "curves": (",".join(map(str, DEFAULT_CURVE_BETAS)), "5", "curves needs an -s list (e.g. -s 2,3,4,5)"),
}


def _cells(args) -> tuple[tuple[list, ...], list[_Cell]]:
    """The command's cells in output order, every one checked, none run.

    Returns the sorted ``(gammas, betas, ss, js)`` lists, duplicated entries
    kept, and one cell per combination: gamma-major, then beta, s and j.
    """
    beta_text, j_text, missing = _DEFAULTS[args.command]
    gammas = _float_list(args.gamma, "--gamma")
    betas = _float_list(beta_text if args.beta is None else args.beta, "--beta")
    j_text = j_text if args.j is None else args.j
    if j_text is None or args.s is None:
        raise ConfigError(missing)
    js, ss = _int_list(j_text, "-j"), _int_list(args.s, "-s")
    if args.command == "solve" and len(gammas) * len(betas) * len(js) * len(ss) > 1:
        raise ConfigError("solve takes single values, not lists; use the table subcommand to sweep")
    if args.command == "curves" and len(js) > 1:
        raise ConfigError("curves uses a single -j (default 5)")
    lo, hi = LEVEL_RANGE
    for flag, levels in (("-j", js), ("-s", ss)):
        for v in levels:
            if not lo <= v <= hi:
                raise ConfigError(f"{flag}: level {v} outside {lo}..{hi}")
    for beta in betas:
        if beta > BETA_MAX:
            raise ConfigError(f"--beta: degree {beta:g} exceeds {BETA_MAX:g}")
    threads = getattr(args, "threads", 1)  # solve has no --threads
    if not 1 <= threads <= THREADS_MAX:
        raise ConfigError(f"--threads must lie in 1..{THREADS_MAX}, got {threads}")
    # a path, or for curves a file-name prefix (which may be empty): either
    # way its directory must exist
    if args.out == "" and args.command != "curves":
        raise ConfigError("--out: empty path")
    out_dir = os.path.dirname(args.out or "")
    if out_dir and not os.path.isdir(out_dir):
        raise ConfigError(f"--out: no directory {out_dir!r}")
    axes = tuple(sorted(values) for values in (gammas, betas, ss, js))
    return axes, [_build_cell(args, gamma, beta, j, s) for gamma, beta, s, j in itertools.product(*axes)]


def _cmd_solve(args, cell: _Cell) -> int:
    row, sol, rep = _measure(cell)
    if args.format == "csv":
        text = _csv_lines([row])
    elif args.format == "json":
        text = json.dumps(_row_object(row), indent=2) + "\n"
    else:
        final_t = float(cell.config.horizon)
        if cell.problem.exact is not None:
            err_t = l2_error_at_time(sol, cell.problem.exact, final_t)
            err_t_text = f"{err_t:.5e}"
        else:
            err_t_text = "n/a"
        err_text = f"{rep.l2_error:.5e}" if not math.isnan(rep.l2_error) else "n/a"
        text = (
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
    _emit(text, args.out)
    return 0


def _cmd_table(args, cells: Sequence[_Cell]) -> int:
    rows = [_run_cell(c) for c in cells]
    if args.format == "json":
        _emit(json.dumps([_row_object(r) for r in rows], indent=2) + "\n", args.out)
    else:
        _emit(_csv_lines(rows), args.out)
    return 0


def _cmd_curves(args, axes: tuple[list, ...], cells: Sequence[_Cell]) -> int:
    gammas, betas, ss, (j,) = axes
    prefix = args.out if args.out is not None else "curves"
    rows = iter([_run_cell(c) for c in cells])
    beta_heads = "  ".join(f"err[beta={b:g}]" for b in betas)
    for gamma in gammas:
        # within one gamma the plan runs beta-major, then s
        columns = [[_f17(next(rows).l2_error) for _ in ss] for _ in betas]
        lines = [
            f"# example {args.example}  gamma={gamma:g}  j={j}  alpha={args.alpha}  "
            f"q={'s+1' if args.q is None else args.q}",
            f"# s  {beta_heads}",
            *(f"{s}  {'  '.join(errs)}" for s, *errs in zip(ss, *columns)),
        ]
        path = f"{prefix}_gamma{gamma:g}.dat"
        _emit("\n".join(lines) + "\n", path)
        print(f"wrote {path} ({len(ss)} rows)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        axes, cells = _cells(args)
        if args.command == "solve":
            return _cmd_solve(args, cells[0])
        if args.command == "table":
            return _cmd_table(args, cells)
        return _cmd_curves(args, axes, cells)
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
