"""Thread counts of the OpenBLAS libraries that NumPy and SciPy load.

NumPy and SciPy wheels each bundle their own OpenBLAS, and each sizes its
thread pool to the whole machine.  When several Python threads call BLAS at
once, those pools oversubscribe the cores and the run time of the same work
swings widely from one run to the next.  ``limited_threads`` caps every pool
for the length of such a section and restores the previous counts after it.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable, Iterator

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` thread-count functions of every OpenBLAS library loaded
    in this process; empty where the loaded libraries cannot be listed."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        if not (path.startswith("/") and os.path.basename(path).startswith("lib")):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = [(f"{p}_get_num_threads{s}", f"{p}_set_num_threads{s}") for p in _PREFIXES for s in _SUFFIXES]
        for get_name, set_name in names:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def limited_threads(n: int) -> Iterator[None]:
    """Run the body with at most ``n`` threads in every OpenBLAS pool."""
    controls = thread_controls()
    saved = [get() for get, _ in controls]
    for (_, set_), old in zip(controls, saved):
        if old > n:
            set_(n)
    try:
        yield
    finally:
        for (_, set_), old in zip(controls, saved):
            set_(old)
