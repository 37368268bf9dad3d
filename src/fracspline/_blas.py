"""SciPy's compiled LAPACK module, and one thread for every OpenBLAS pool
that NumPy and SciPy load.

The solve needs four LAPACK routines, and SciPy's compiled module
``scipy.linalg._flapack`` holds them.  ``flapack`` loads that module without
running any of SciPy's Python: not the ``scipy.linalg`` package (about
0.25 s and 24 MiB), nor the top-level ``scipy`` package (about 8 ms and
1 MiB, with ``subprocess``, ``sysconfig`` and more).  It reuses the module
when ``scipy.linalg`` was imported first.  Otherwise it finds SciPy's
install directory from the import system's spec of ``scipy``, loads the
module from its file, and with it SciPy's OpenBLAS, and registers it under
its own name, so a later ``import scipy.linalg`` reuses the same module
object.  Where that load fails, it imports the ``scipy`` package and loads
the file once more: SciPy's own start-up sets up what the file needs, such
as its DLL directories on Windows.  Where the file is not where SciPy puts
it today, it imports the module through ``scipy.linalg``.

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
so the scan loads SciPy's LAPACK module, and with it SciPy's OpenBLAS,
first: a cap taken before any solve still covers the pool that solve's
LAPACK calls run on.  Only the solve steps take the cap, so a solve's
coefficients and report do not depend on the thread or core count, but the
matrix products of the error norms run outside it and an ``l2_error`` can
differ in its last digits (at level j = 8, say).  Capping them would load
SciPy into a process that only evaluates a stored solution.  Where no
OpenBLAS shows there (another BLAS such as MKL or Accelerate, or no
``/proc``), nothing is capped, and what rests on the cap, such as output that
does not depend on the thread or core count, is not guaranteed.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
import threading
from contextlib import contextmanager
from functools import cache
from types import ModuleType
from typing import Callable, Iterator

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")

# The pools are process-wide, so the state that guards them is too.
_lock = threading.Lock()
_depth = 0
_saved: tuple[int, ...] = ()

_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()


def _flapack_file() -> str | None:
    """Path of SciPy's ``linalg/_flapack`` extension file, or ``None``;
    found without importing SciPy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    stem = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    return next((stem + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + s)), None)


def _load(path: str) -> ModuleType:
    """The LAPACK extension module at ``path``, executed, not registered."""
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flapack() -> ModuleType:
    """SciPy's compiled LAPACK module, ``scipy.linalg._flapack``, loaded
    once per process from its file, without the ``scipy`` package unless
    the file needs SciPy's start-up to load."""
    with _flapack_lock:
        module = sys.modules.get(_FLAPACK)
        if module is not None:
            return module
        path = _flapack_file()
        if path is None:  # SciPy does not promise its file layout
            from scipy.linalg import _flapack

            return _flapack
        try:
            module = _load(path)
        except (ImportError, OSError):
            import scipy  # SciPy's start-up, then the file once more

            module = _load(path)
        sys.modules[_FLAPACK] = module
        return module


@cache
def thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """``(get, set)`` thread-count functions of every OpenBLAS library loaded
    in this process; empty where the loaded libraries cannot be listed.

    Found on the first call and kept, after loading SciPy's LAPACK module; a
    library loaded later is not seen.
    """
    flapack()  # maps SciPy's OpenBLAS before the scan

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
