"""The single-thread BLAS cap: re-entrant, shared by threads, restored once."""

import builtins
import os
import sys
import threading

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
