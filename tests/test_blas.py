"""The single-thread BLAS cap: re-entrant, shared by threads, restored once;
and the loader of SciPy's LAPACK module, which binds the same routines
whichever way it finds them."""

import builtins
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from fracspline import _blas


class FakePool:
    """A BLAS pool's thread count, with a log of every count set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def pools(monkeypatch):
    pools = [FakePool(4), FakePool(3)]
    monkeypatch.setattr(_blas, "thread_controls", lambda: tuple((p.get, p.set) for p in pools))
    return pools


def _counts(pools):
    return [p.count for p in pools]


def _join(threads):
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)


def test_nested_entry_restores_once_after_the_last_exit(pools):
    with _blas.single_thread():
        assert _counts(pools) == [1, 1]
        with _blas.single_thread():
            assert _counts(pools) == [1, 1]
        assert _counts(pools) == [1, 1]
    assert _counts(pools) == [4, 3]
    assert [p.sets for p in pools] == [[1, 4], [1, 3]]


def test_interleaved_threads_restore_once_after_the_last_exit(pools):
    # a enters, b enters, a exits while b is still inside, b exits
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def a():
        with _blas.single_thread():
            a_in.set()
            b_in.wait(timeout=10)
            seen["a inside"] = _counts(pools)
        a_out.set()

    def b():
        a_in.wait(timeout=10)
        with _blas.single_thread():
            b_in.set()
            a_out.wait(timeout=10)
            seen["b inside, a gone"] = _counts(pools)

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    _join(threads)
    assert a_out.is_set() and b_in.is_set()
    assert seen == {"a inside": [1, 1], "b inside, a gone": [1, 1]}
    assert _counts(pools) == [4, 3]
    assert [p.sets for p in pools] == [[1, 4], [1, 3]]


def test_many_threads_keep_the_cap(pools):
    # more threads than cores, switching often: a lost update of the entry
    # count would restore a pool while some thread is still inside
    wrong = []

    def work():
        for _ in range(200):
            with _blas.single_thread():
                with _blas.single_thread():
                    if _counts(pools) != [1, 1]:
                        wrong.append(_counts(pools))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        _join(threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert _counts(pools) == [4, 3]


def test_real_pools_read_one_inside_the_cap():
    controls = _blas.thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread controls in this process")
    before = [get() for get, _ in controls]
    with _blas.single_thread():
        with _blas.single_thread():
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == [1] * len(controls)
    assert [get() for get, _ in controls] == before


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
def test_loaded_libraries_are_listed_once(monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    _blas.thread_controls.cache_clear()
    first = _blas.thread_controls()
    for _ in range(3):
        with _blas.single_thread():
            assert _blas.thread_controls() is first
    assert opened.count("/proc/self/maps") == 1


def _run(code: str, *args: str) -> str:
    """The last line a fresh interpreter prints after running ``code`` with ``args``."""
    src = str(Path(_blas.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


# one solve, its LAPACK module loaded one of four ways: which of the scipy
# and scipy.linalg packages the solve imported, whether the routines it calls
# are the objects scipy.linalg exports, the coefficient bytes and the report
LOADED_SOLVE = """
import hashlib, json, sys, warnings
from fracspline import _blas, problems, solver
warnings.simplefilter("ignore")
order = sys.argv[1]
if order == "fallback":
    _blas._flapack_file = lambda: None
if order == "retry":
    load, loads = _blas._load, []

    def refused_once(path):
        loads.append(path)
        if len(loads) == 1:
            raise ImportError("first load refused")
        return load(path)

    _blas._load = refused_once
if order == "import first":
    import scipy.linalg
sol, report = solver.solve(problems.example1(0.5), solver.SolveConfig(gamma=0.5, j=5, s=4, beta=3.5))
packages = [name for name in ("scipy", "scipy.linalg") if name in sys.modules]
import scipy.linalg
from scipy.linalg import _flapack
same = [
    getattr(_blas.flapack(), name) is getattr(scipy.linalg.lapack, name)
    for name in ("dsygvd", "dgeqp3", "dormqr", "dtrtrs")
] + [_blas.flapack() is _flapack is sys.modules["scipy.linalg._flapack"]]
if order == "retry":
    same.append(len(loads) == 2)
print(json.dumps({
    "packages": packages, "same": same,
    "coeffs": hashlib.sha256(sol.coeffs.tobytes()).hexdigest(), "report": repr(report),
}))
"""


def test_every_way_of_loading_lapack_binds_the_same_routines_and_bits():
    # solve then import scipy.linalg (the module loaded from its file, no
    # SciPy package imported), import it first (the module reused), a first
    # file load that fails (the scipy package's start-up, then the file once
    # more) and a file lookup that finds nothing (the import through
    # scipy.linalg)
    orders = ("solve first", "import first", "retry", "fallback")
    runs = {order: json.loads(_run(LOADED_SOLVE, order)) for order in orders}
    assert {order: run.pop("packages") for order, run in runs.items()} == {
        "solve first": [],
        "import first": ["scipy", "scipy.linalg"],
        "retry": ["scipy"],
        "fallback": ["scipy", "scipy.linalg"],
    }
    assert runs["retry"]["same"].pop() is True  # the file loaded twice
    for order, run in runs.items():
        assert run["same"] == [True] * 5, order
    assert runs["solve first"] == runs["import first"] == runs["retry"] == runs["fallback"]


def test_lapack_file_is_the_one_scipy_linalg_loads():
    # else every process would take the fallback, and a solve would import scipy.linalg
    import scipy.linalg.lapack

    assert _blas._flapack_file() == scipy.linalg.lapack._flapack.__file__


CAP_BEFORE_SOLVE = """
import json, warnings
from fracspline import _blas, linalg, problems, solver
warnings.simplefilter("ignore")
seen = []
solve_stack = linalg._solve_stack

def recording(*args):
    # a scan of its own, so a pool the cap's cached scan missed shows here
    seen.append([get() for get, _ in _blas.thread_controls.__wrapped__()])
    return solve_stack(*args)

linalg._solve_stack = recording
with _blas.single_thread():
    solver.solve(problems.example1(0.5), solver.SolveConfig(gamma=0.5, j=3, s=3))
print(json.dumps(seen))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
def test_a_cap_taken_before_any_solve_covers_the_solves_pools():
    # a fresh process, so SciPy is not loaded when the cap scans.  Every pool
    # mapped inside the mode loop, SciPy's among them, must read 1; a 1-core
    # box runs every pool at one thread either way and cannot show a miss
    seen = json.loads(_run(CAP_BEFORE_SOLVE))
    if not seen[0]:
        pytest.skip("no OpenBLAS thread controls in this process")
    assert len(seen) == 1 and len(seen[0]) == len(_blas.thread_controls())
    assert seen[0] == [1] * len(seen[0])
