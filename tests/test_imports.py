"""Import surface of the package.

Start-up cost: importing the package loads no SciPy subpackage but
``scipy.linalg``.  A fresh interpreter imports every ``fracspline`` module,
the CLI included, and reports what ended up in ``sys.modules``.  Test
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

PROBE = """
import importlib, json, pkgutil, sys
import fracspline
names = [m.name for m in pkgutil.iter_modules(fracspline.__path__, "fracspline.")]
for name in names:
    importlib.import_module(name)
scipy_packages = sorted(
    name for name, mod in sys.modules.items()
    if name.count(".") == 1 and name.startswith("scipy.")
    and not name.split(".")[1].startswith("_") and hasattr(mod, "__path__")
)
print(json.dumps({"imported": names, "modules": sorted(sys.modules), "scipy": scipy_packages}))
"""


def _probe() -> dict:
    src = str(Path(fracspline.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_package_import_loads_only_scipy_linalg():
    report = _probe()
    assert "fracspline.cli" in report["imported"]
    assert "fracspline.solver" in report["imported"]
    loaded = set(report["modules"])
    assert [name for name in FORBIDDEN if name in loaded] == []
    assert report["scipy"] == ["scipy.linalg"]


@pytest.mark.parametrize(
    "name",
    ["fracspline"]
    + [m.name for m in pkgutil.iter_modules(fracspline.__path__, "fracspline.")],
)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
