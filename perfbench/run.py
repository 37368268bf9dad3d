"""fracspline benchmark: one workload, its end-to-end metrics or its layer trace.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload solve-ladder --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Human-readable lines (machine facts, one
line per metric with its unit, any failed check) come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report, and for traced
runs every span, goes to ``perfbench/out/``.

The benchmark imports the library from the checkout's ``src`` directory and
exits with code 2 when there is none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
# Set-up is repeated in fresh processes and its median reported: the import
# cost only shows in a process that has not imported the library yet.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("solve-ladder", "curves-sweep", "evaluate-field"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_child(args) -> int:
    """Time one set-up in this fresh process: import plus input construction."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload].setup(args.seed, Path(args.setup_only), load=False)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _setup_samples(args, scratch: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only", str(scratch),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed ({done.returncode}): {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _blas_facts() -> list[dict]:
    """Name of every BLAS library this process has loaded (NumPy and SciPy
    each bundle their own), with build string and thread count for OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh if "blas" in line.rsplit("/", 1)[-1].lower()})
    paths = [p for p in paths if os.path.basename(p).startswith("lib")]
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
        facts.append(entry)
    return facts


def _machine_facts(workload) -> dict:
    import numpy
    import scipy

    import fracspline

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas_facts(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": fracspline.KERNEL_BACKEND,
        "cli_threads": workload.cli_threads,
    }


def _geomean(values) -> float:
    good = [v for v in values if math.isfinite(v) and v > 0.0]
    return math.exp(sum(math.log(v) for v in good) / len(good)) if good else math.nan


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fracspline" / "__init__.py").is_file():
        print(f"no fracspline sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    if args.setup_only is not None:
        return _setup_child(args)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"{tag}-{os.getpid()}"
    scratch.mkdir()
    try:
        return _measure(args, tag, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, tag: str, scratch: Path) -> int:
    setup_samples = _setup_samples(args, scratch)

    import fracspline
    import layertrace
    import workloads

    if not Path(fracspline.__file__).resolve().is_relative_to(SRC):
        print(f"fracspline imported from {fracspline.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Every ladder and sweep cell runs in the rank-truncated regime and warns
    # about it; the report counts failures instead.
    warnings.filterwarnings("ignore", message="collocation system condition estimate")
    workload = workloads.WORKLOADS[args.workload]
    tracer = layertrace.Tracer()
    if args.trace:
        layertrace.instrument(tracer)
    inputs = workload.setup(args.seed, scratch, load=True)

    passes, layers = [], []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        tracer.pass_no = len(passes)
        tracer.recording = bool(args.trace)
        try:
            result = workload.run_pass(inputs, tracer)
        finally:
            tracer.recording = False
        passes.append(result)
        if len(passes) == 1:
            # What a user running the command once in a fresh process sees;
            # later passes add the allocator's leftovers from earlier ones.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            layers.append(layertrace.layer_metrics(tracer, tracer.pass_no))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    if args.trace:
        units = {"calls": "count", "self_s": "s", "terms": "count", "qr_flops": "flop",
                 "system_mb": "MiB", "rank_kept": "count", "points": "count", "concurrency": "1"}
        metrics = {
            key: {"value": statistics.median(m[key] for m in layers), "unit": units[key.split(".", 1)[1]]}
            for key in layers[0]
        }
        metrics["traced.wall_s"] = {"value": wall, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "l2_error_geomean": {"value": statistics.median(_geomean(p.errors) for p in passes), "unit": "1"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
        }

    facts = _machine_facts(workload)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "setup_samples_s": setup_samples,
        "pass_wall_s": walls,
        "attempted": attempted,
        "failed": failed,
        "failures": [note for p in passes for note in p.notes],
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="ascii")
    if args.trace:
        tracer.write(OUT / f"{tag}-spans.jsonl")

    print(f"machine {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, pass wall {walls}")
    for note in report["failures"]:
        print(f"FAILED {note}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
