"""One thread for every OpenBLAS pool that NumPy and SciPy load.

NumPy and SciPy wheels each bundle their own OpenBLAS, and each sizes its
thread pool to the whole machine.  The rounding of a blocked factorisation
such as ``dgeqp3`` depends on the thread count, so under such a pool a
result depends on the machine's core count; and the small blocks of the
mode loop run slower on two threads than on one.  ``single_thread`` sets
every pool to one thread for the length of a section.

The cap is process-wide while it is held: BLAS calls from every thread of
the process, inside a capped section or not, see one thread.  It is
re-entrant and thread-safe.  The first entry saves the counts and sets them
to 1, later entries (nested, or from other threads) only count, and the last
exit restores the saved counts.

The pools are found through ``/proc/self/maps``, once per process.  SciPy
is loaded only by a solve, and a library loaded after the scan is not seen,
so the scan loads SciPy's LAPACK, and with it SciPy's OpenBLAS, first: a cap
taken before any solve still covers the pool that solve's LAPACK calls run
on.  Only the solve steps take the cap.  Where no
OpenBLAS shows there (another BLAS such as MKL or Accelerate, or no
``/proc``), nothing is capped, and what rests on the cap, such as output that
does not depend on the thread or core count, is not guaranteed.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")

# The pools are process-wide, so the state that guards them is too.
_lock = threading.Lock()
_depth = 0
_saved: tuple[int, ...] = ()


@cache
def thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """``(get, set)`` thread-count functions of every OpenBLAS library loaded
    in this process; empty where the loaded libraries cannot be listed.

    Found on the first call and kept, after loading SciPy's LAPACK; a library
    loaded later is not seen.
    """
    import scipy.linalg  # noqa: F401  (maps SciPy's OpenBLAS before the scan)

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return ()
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
                get.argtypes = []
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the body with one thread in every OpenBLAS pool of the process."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            controls = thread_controls()
            _saved = tuple(get() for get, _ in controls)
            for _, set_ in controls:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, set_), old in zip(thread_controls(), _saved):
                    set_(old)
