"""The single-thread BLAS cap: re-entrant, shared by threads, restored once."""

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
    src = str(Path(_blas.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run(
        [sys.executable, "-c", CAP_BEFORE_SOLVE], env=env, capture_output=True, text=True, check=True
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    if not seen[0]:
        pytest.skip("no OpenBLAS thread controls in this process")
    assert len(seen) == 1 and len(seen[0]) == len(_blas.thread_controls())
    assert seen[0] == [1] * len(seen[0])
