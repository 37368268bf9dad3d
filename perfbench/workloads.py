"""The benchmark's three workloads.

Each workload has a ``setup`` that builds its inputs from the seed and a
``run_pass`` that times one pass of its section and checks the outputs.  The
library is always called through its module attributes (``solver.solve``,
``cli.main``), so the wrappers that ``layertrace.instrument`` installs are the ones
called.

* ``solve-ladder``: library ``solve`` + ``error_report`` (what ``fracspline
  solve`` does) over the dense-QR ladder; ``linalg`` carries the load.
* ``curves-sweep``: the README's figure command, run in-process through
  ``cli.main`` with ``--threads 2``; many small cells on a thread pool.
* ``evaluate-field``: off-grid ``evaluate`` on a stored example-2 solution,
  then its L2 errors; ``kernels`` carries the load and ``linalg`` is idle.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fracspline import basis, cli, problems, solver

# A zero field scores about 0.3 on both examples; every error the workloads
# produce sits below 5e-3.
ERROR_CEILING = 0.1

LADDER_BETAS = (3.0, 3.5)
# Cells today's dense QR finishes in a few seconds; (6, 6) takes 30 s.
LADDER_LEVELS = ((5, 5), (6, 5), (5, 6))
# At beta = 3.5 the L2 error moves steeply and unevenly with gamma (it doubles
# from 0.50 to 0.55 at (5, 5), and a band of +-0.005 still moves the ladder's
# geometric mean by 12%), so each cell draws gamma within 1e-3 of 0.5: every
# seed gives new inputs while the accuracy metric stays steady across seeds.
LADDER_GAMMA = (0.499, 0.501)

CURVES_THREADS = 2
CURVES_ARGV = (
    "curves --example 1 --gamma 0.5,1.0 --beta 2,2.5,3,3.5,4 -j 5 -s 2,3,4,5"
    f" --threads {CURVES_THREADS}"
).split()
CURVES_GAMMAS = (0.5, 1.0)
CURVES_BETAS = (2.0, 2.5, 3.0, 3.5, 4.0)
CURVES_LEVELS = (2, 3, 4, 5)

FIELD_CONFIG = dict(gamma=0.5, j=5, s=6, beta=3.5)
FIELD_POINTS = 200_000
FIELD_BATCH = 20_000
FIELD_SAMPLE = 64
FIELD_TIME = 1.0  # time of the space-only error
FIELD_AGREEMENT = 1e-12


@dataclass
class PassResult:
    """One timed pass: its wall time, the L2 errors it produced and the
    outcome of every operation and output check."""

    wall_s: float = 0.0
    errors: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def error(self, value: float, what: str) -> None:
        """Record one L2 error as an operation that must be finite and small."""
        self.errors.append(value)
        self.record(math.isfinite(value) and value < ERROR_CEILING, f"{what}: L2 error {value!r}")


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class SolveLadder:
    name = "solve-ladder"
    cli_threads = None

    def setup(self, seed: int, scratch: Path, load: bool):
        rng = np.random.default_rng(seed)
        cells = []
        for beta in LADDER_BETAS:
            for j, s in LADDER_LEVELS:
                gamma = float(rng.uniform(*LADDER_GAMMA))
                config = solver.SolveConfig(gamma=gamma, j=j, s=s, beta=beta)
                cells.append((problems.example1(gamma), config))
        return cells

    def run_pass(self, cells, tracer) -> PassResult:
        out = PassResult()
        reports = []
        start = time.perf_counter()
        for problem, config in cells:
            try:
                sol, lsq = solver.solve(problem, config)
                reports.append((config, solver.error_report(sol, lsq, problem.exact)))
            except Exception as exc:  # a failing cell is counted, the pass goes on
                reports.append((config, _failure(exc)))
        out.wall_s = time.perf_counter() - start
        for config, rep in reports:
            what = f"cell beta={config.beta:g} j={config.j} s={config.s}"
            if isinstance(rep, str):
                out.record(False, f"{what}: {rep}")
            else:
                out.error(rep.l2_error, what)
        return out


class CurvesSweep:
    name = "curves-sweep"
    cli_threads = CURVES_THREADS

    def setup(self, seed: int, scratch: Path, load: bool):
        # The command is the README's verbatim, so the seed changes nothing;
        # it writes its files into the run's scratch directory.
        work = scratch / "curves"
        work.mkdir(exist_ok=True)
        return work

    def run_pass(self, work: Path, tracer) -> PassResult:
        out = PassResult()
        for name in os.listdir(work):
            os.remove(work / name)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(CURVES_ARGV)
                out.wall_s = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        n_cells = len(CURVES_GAMMAS) * len(CURVES_BETAS) * len(CURVES_LEVELS)
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            table = {gamma: _parse_curves(work / f"curves_gamma{gamma:g}.dat") for gamma in CURVES_GAMMAS}
        except (OSError, ValueError) as exc:
            out.record(False, f"curve files: {exc}")
            out.attempted += n_cells
            out.failed += n_cells
            return out
        out.record(True, "curve files")
        for gamma, rows in table.items():
            for s, errs in rows:
                for beta, err in zip(CURVES_BETAS, errs):
                    out.error(err, f"cell gamma={gamma:g} beta={beta:g} s={s}")
        return out


def _parse_curves(path: Path) -> list[tuple[int, list[float]]]:
    """Rows of one curve file; raises ValueError unless the header names the
    betas and the rows list the levels in the deterministic order."""
    lines = path.read_text(encoding="ascii").splitlines()
    heads = "  ".join(f"err[beta={b:g}]" for b in CURVES_BETAS)
    if len(lines) != 2 + len(CURVES_LEVELS) or lines[1] != f"# s  {heads}":
        raise ValueError(f"{path.name}: unexpected header or row count")
    rows = []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 1 + len(CURVES_BETAS):
            raise ValueError(f"{path.name}: malformed row {line!r}")
        rows.append((int(parts[0]), [float(p) for p in parts[1:]]))
    if [s for s, _ in rows] != list(CURVES_LEVELS):
        raise ValueError(f"{path.name}: rows out of order")
    return rows


@dataclass
class FieldInputs:
    problem: problems.ProblemSpec
    solution: solver.Solution
    t: np.ndarray
    x: np.ndarray
    sample: np.ndarray
    reference: np.ndarray


class EvaluateField:
    name = "evaluate-field"
    cli_threads = None

    def setup(self, seed: int, scratch: Path, load: bool) -> FieldInputs:
        """Solve example 2 once and draw the point cloud.

        The set-up child processes solve and save the coefficients in
        ``scratch``; the measuring process loads them (``load``), so its peak
        memory is that of evaluation rather than of the dense solve.
        """
        stored = scratch / "coeffs.npy"
        problem = problems.example2(FIELD_CONFIG["gamma"])
        config = solver.SolveConfig(**FIELD_CONFIG)
        if load:
            solution = solver.Solution(
                coeffs=np.load(stored),
                spatial=basis.build_spatial(config.j, config.alpha),
                temporal=basis.build_temporal(config.s, config.beta, config.horizon, config.tail_tol),
                config=config,
            )
        else:
            solution, _ = solver.solve(problem, config)
            np.save(stored, solution.coeffs)
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, config.horizon, FIELD_POINTS)
        x = rng.uniform(0.0, 1.0, FIELD_POINTS)
        sample = rng.choice(FIELD_POINTS, FIELD_SAMPLE, replace=False)
        reference = np.diag(solution.grid_values(t[sample], x[sample]))
        return FieldInputs(problem, solution, t, x, sample, reference)

    def run_pass(self, inputs: FieldInputs, tracer) -> PassResult:
        out = PassResult()
        sol, exact = inputs.solution, inputs.problem.exact
        values = np.full(FIELD_POINTS, np.nan)
        outcomes = []
        start = time.perf_counter()
        for lo in range(0, FIELD_POINTS, FIELD_BATCH):
            hi = lo + FIELD_BATCH
            tracer.new_cell()
            try:
                values[lo:hi] = solver.evaluate(sol, inputs.t[lo:hi], inputs.x[lo:hi])
                outcomes.append(None)
            except Exception as exc:  # a failing call is counted, the pass goes on
                outcomes.append(_failure(exc))
        tracer.new_cell()
        try:
            errors = [
                ("space-time", solver.l2_error(sol, exact)),
                (f"space at t={FIELD_TIME:g}", solver.l2_error_at_time(sol, exact, FIELD_TIME)),
            ]
        except Exception as exc:  # counted as a failed check below
            errors = [(f"L2 errors ({_failure(exc)})", math.nan)]
        out.wall_s = time.perf_counter() - start
        for k, failure in enumerate(outcomes):
            lo = k * FIELD_BATCH
            batch = values[lo : lo + FIELD_BATCH]
            out.record(
                failure is None and bool(np.isfinite(batch).all()),
                f"evaluate batch {k}: {failure or 'non-finite values'}",
            )
        for what, err in errors:
            out.error(err, what)
        gap = float(np.max(np.abs(values[inputs.sample] - inputs.reference)))
        scale = float(np.max(np.abs(inputs.reference)))
        out.record(
            gap <= FIELD_AGREEMENT * scale,
            f"evaluate vs grid_values: max gap {gap:.3e} for field scale {scale:.3e}",
        )
        return out


WORKLOADS = {w.name: w for w in (SolveLadder(), CurvesSweep(), EvaluateField())}
