"""Import surface of the package.

Start-up cost: SciPy serves the solve alone, so only a solve loads it.  A
fresh interpreter imports every ``fracspline`` module, the CLI included, and
reports what ended up in ``sys.modules``: no SciPy.  Nor does rebuilding a
stored solution's bases and evaluating it, or a CLI run that exits before
solving.  A solve loads ``scipy.linalg`` and no other SciPy subpackage.  Test
helpers such as the quadrature oracle of ``tests/caputo_oracle.py`` pull in
the heavy SciPy subpackages, so they must never be reached from the package.

Public names: every name a module lists in ``__all__`` exists in it, so a
deleted function cannot leave a stale entry behind (tools that instrument
the layers by ``__all__`` would break on one).
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracspline

FORBIDDEN = (
    "scipy.integrate",
    "scipy.optimize",
    "scipy.special",
    "scipy.sparse",
    "scipy.interpolate",
    "mpmath",
    "pytest",
)

# the report a probe prints last: what it ran, then what the process loaded
REPORT = """
scipy_packages = sorted(
    name for name, mod in sys.modules.items()
    if name.count(".") == 1 and name.startswith("scipy.")
    and not name.split(".")[1].startswith("_") and hasattr(mod, "__path__")
)
print(json.dumps({"ran": ran, "modules": sorted(sys.modules), "scipy": scipy_packages}))
"""

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import fracspline
ran = [m.name for m in pkgutil.iter_modules(fracspline.__path__, "fracspline.")]
for name in ran:
    importlib.import_module(name)
"""

# a stored example-2 solution: its coefficients, then its bases rebuilt
EVALUATE_STORED = """
import json, sys
import numpy as np
from fracspline import basis, problems, solver
config = solver.SolveConfig(gamma=0.5, j=4, s=4, beta=3.5)
spatial = basis.build_spatial(config.j, config.alpha)
temporal = basis.build_temporal(config.s, config.beta, config.horizon, config.tail_tol)
coeffs = np.random.default_rng(5).standard_normal((spatial.size, temporal.size))
sol = solver.Solution(coeffs=coeffs, spatial=spatial, temporal=temporal, config=config)
exact = problems.example2(config.gamma).exact
values = solver.evaluate(sol, np.linspace(0.0, 1.0, 50), np.linspace(0.0, 1.0, 50))
errors = [solver.l2_error(sol, exact), solver.l2_error_at_time(sol, exact, 0.5)]
ran = bool(np.isfinite(values).all() and np.isfinite(errors).all())
"""

SOLVE = """
import json, sys, warnings
from fracspline import problems, solver
warnings.simplefilter("ignore")
sol, _ = solver.solve(problems.example1(0.5), solver.SolveConfig(gamma=0.5, j=3, s=3))
ran = sol.coeffs.shape
"""

# the CLI's exits that come before any solve: help, and a bad configuration
CLI_EXITS = """
import json, sys
from fracspline import cli
ran = []
for argv in (["--help"], ["solve", "--help"], ["solve", "--example", "1", "--gamma", "0.5", "--alpha", "0"]):
    try:
        ran.append(cli.main(argv))
    except SystemExit as exc:
        ran.append(exc.code)
"""


def _probe(code: str) -> dict:
    src = str(Path(fracspline.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run(
        [sys.executable, "-c", code + REPORT], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def _scipy_modules(report: dict) -> list[str]:
    return [name for name in report["modules"] if name == "scipy" or name.startswith("scipy.")]


def test_package_import_loads_no_scipy():
    report = _probe(IMPORT_ALL)
    assert "fracspline.cli" in report["ran"]
    assert "fracspline.solver" in report["ran"]
    assert _scipy_modules(report) == []
    assert [name for name in FORBIDDEN if name in report["modules"]] == []


def test_evaluating_a_stored_solution_loads_no_scipy():
    report = _probe(EVALUATE_STORED)
    assert report["ran"] is True
    assert _scipy_modules(report) == []


def test_solve_loads_only_scipy_linalg():
    report = _probe(SOLVE)
    assert report["ran"] == [9, 17]
    assert [name for name in FORBIDDEN if name in report["modules"]] == []
    assert report["scipy"] == ["scipy.linalg"]


def test_cli_exits_before_a_solve_load_no_scipy():
    report = _probe(CLI_EXITS)
    assert report["ran"] == [0, 0, 2]
    assert _scipy_modules(report) == []


@pytest.mark.parametrize(
    "name",
    ["fracspline"]
    + [m.name for m in pkgutil.iter_modules(fracspline.__path__, "fracspline.")],
)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
