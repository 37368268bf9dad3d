"""Outside-in layer trace of the fracspline library.

``instrument`` wraps, from outside the library, every function listed in a
layer module's ``__all__`` (public functions for modules without one) plus
the hot methods ``SpatialBasis.eval_many``, ``TemporalBasis.eval_many`` and
``FractionalBSpline.derivative_weights``.  It then rebinds every public
``fracspline`` module attribute that still points at an original, so calls
made through ``from .x import name`` are traced as well; that keeps working
when the private helpers behind the public names are renamed.

A wrapper records nothing unless ``Tracer.recording`` is set, so set-up work
done before the timed section leaves no spans.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "bspline", "basis", "assembly", "linalg", "solver", "problems", "cli")

# Counters that keep the largest value seen instead of a sum.
_MAX_COUNTERS = {"linalg.system_mb"}


class Tracer:
    """Span and counter store shared by all wrappers of one run.

    A span is ``[id, parent_id, layer, name, start, end, thread, cell, pass]``.
    Its parent is the innermost open span of its thread; a span opened in a
    worker thread with nothing open there (a CLI sweep cell) takes the
    innermost open span of the main thread, which is the sweep that spawned
    the worker.
    """

    def __init__(self) -> None:
        self.recording = False
        self.pass_no = 0
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, int | float]] = defaultdict(lambda: defaultdict(int))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[list] = self._stack()
        self._span_ids = itertools.count(1)
        self._cell_ids = itertools.count(1)

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_cell(self) -> None:
        """Give the spans that follow in this thread a fresh cell id."""
        self._local.cell = next(self._cell_ids)

    def count(self, key: str, value: float) -> None:
        with self._lock:
            bucket = self.counters[self.pass_no]
            if key in _MAX_COUNTERS:
                bucket[key] = max(bucket[key], value)
            else:
                bucket[key] += value

    def wrap(self, layer: str, name: str, fn, counter=None):
        """Return ``fn`` wrapped in a span; ``counter(tracer, result, *args,
        **kwargs)`` adds the counts computed from one call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = None
                if stack is not tracer._main_stack:
                    try:
                        parent = tracer._main_stack[-1]
                    except IndexError:
                        pass
                # A solve opened at the top of a thread starts a new cell:
                # that is how the CLI runs one sweep cell per worker call.
                if name == "solve" or getattr(tracer._local, "cell", None) is None:
                    tracer.new_cell()
            span = [
                next(tracer._span_ids),
                parent[0] if parent else None,
                layer,
                name,
                time.perf_counter(),
                None,
                threading.get_ident(),
                tracer._local.cell,
                tracer.pass_no,
            ]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                counter(tracer, result, *args, **kwargs)
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "layer", "name", "start", "end", "thread", "cell", "pass")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _kernel_terms(tracer, result, t, scale, shift0, n_cols, weights, *rest, **kw):
    tracer.count("kernels.terms", len(t) * n_cols * len(weights))


def _qr_counts(tracer, result, a, *rest, **kw):
    m, n = a.shape
    tracer.count("linalg.qr_flops", (6 * m * n * n - 2 * n**3) // 3)
    tracer.count("linalg.system_mb", 8.0 * m * n / 2**20)
    tracer.count("linalg.rank_kept", result[1].rank)


def _points(tracer, result, t, x, *rest, **kw):
    tracer.count("problems.points", np.broadcast(np.asarray(t), np.asarray(x)).size)


_COUNTERS = {
    ("kernels", "basis_matrix"): _kernel_terms,
    ("linalg", "lstsq_solve"): _qr_counts,
}

_METHODS = (
    ("basis", "SpatialBasis", "eval_many"),
    ("basis", "TemporalBasis", "eval_many"),
    ("bspline", "FractionalBSpline", "derivative_weights"),
)


def _public_functions(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [
            n
            for n, v in vars(mod).items()
            if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__
        ]
    return [n for n in names if inspect.isfunction(getattr(mod, n))]


def _problem_factory(tracer, fn, spec_type):
    """Trace a problem constructor and the callbacks of the spec it returns."""
    traced = tracer.wrap("problems", fn.__name__, fn)

    @functools.wraps(fn)
    def build(*args, **kwargs):
        spec = traced(*args, **kwargs)
        if not isinstance(spec, spec_type):
            return spec
        callbacks = {
            field: tracer.wrap("problems", f"{spec.name}.{field}", getattr(spec, field), _points)
            for field in ("forcing", "exact", "exact_dxx")
            if getattr(spec, field) is not None
        }
        return dataclasses.replace(spec, **callbacks)

    return build


def instrument(tracer: Tracer) -> None:
    """Wrap the public surface of every layer module and rebind its users."""
    modules = {layer: importlib.import_module(f"fracspline.{layer}") for layer in LAYERS}
    replaced = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for name in _public_functions(mod):
            fn = getattr(mod, name)
            if layer == "problems":
                wrapper = _problem_factory(tracer, fn, modules["problems"].ProblemSpec)
            else:
                wrapper = tracer.wrap(layer, name, fn, _COUNTERS.get((layer, name)))
            replaced[id(fn)] = (fn, wrapper)
    for layer, cls_name, meth in _METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, meth, tracer.wrap(layer, f"{cls_name}.{meth}", vars(cls)[meth]))

    for mod_name, mod in list(sys.modules.items()):
        public = mod_name == "fracspline" or (
            mod_name.startswith("fracspline.") and not mod_name.rsplit(".", 1)[1].startswith("_")
        )
        if not public:
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer, pass_no: int) -> dict[str, float]:
    """Per-layer calls, self time and counts of one pass.

    Self time is a span's duration minus the part of it covered by its child
    spans, summed over all spans of the layer in every thread.
    """
    spans = [s for s in tracer.spans if s[8] == pass_no]
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s[0]] = s
        if s[1] is not None:
            children[s[1]].append((s[4], s[5]))
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        out[f"{s[2]}.calls"] += 1
        out[f"{s[2]}.self_s"] += (s[5] - s[4]) - _covered(children[s[0]], s[4], s[5])
    for key in ("kernels.terms", "linalg.qr_flops", "linalg.system_mb", "linalg.rank_kept", "problems.points"):
        out[key] = tracer.counters[pass_no].get(key, 0)
    # Effective parallelism of a sweep: busy time of the cells it ran (what
    # the CSV runtime_ms column sums) over the sweep's wall time.
    sweep = sum(s[5] - s[4] for s in spans if s[2] == "cli")
    cells = sum(
        s[5] - s[4]
        for s in spans
        if s[2] == "solver" and s[1] in by_id and by_id[s[1]][2] == "cli"
    )
    out["cli.concurrency"] = cells / sweep if sweep > 0 else 0.0
    return out
