"""Self-test of the benchmark.  Run from the root of a source checkout::

    python3 perfbench/selftest.py

It runs every workload once untraced and twice traced, one pass each, and
checks that

* every run is correct and prints every metric named in ``BENCHMARK.json``,
  with its unit, and no other;
* the two traced runs give identical ``kernels.terms``, ``linalg.qr_flops``,
  ``linalg.system_mb``, ``linalg.rank_kept`` and ``problems.points``;
* ``linalg.calls`` is 0 on ``evaluate-field``;
* a directory holding only ``BENCHMARK.json`` and the benchmark's own files
  makes the benchmark exit non-zero without printing a result.

It also prints, for information, the layer with the largest self time on
each workload and the tracing overhead of the single pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
EXACT_COUNTS = ("kernels.terms", "linalg.qr_flops", "linalg.system_mb", "linalg.rank_kept", "problems.points")
SEED = 7
TIMEOUT_S = 300


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result(workload: str, trace: int, problems: list[str]) -> dict:
    done = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        problems.append(f"{where}: exit code {done.returncode}: {done.stderr.strip()[-500:]}")
        return {"metrics": {}}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct ({result.get('failed')} failed)")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in spec}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != wanted:
        problems.append(f"{where}: metrics/units {printed} differ from BENCHMARK.json {wanted}")
    for name in wanted:
        if f"metric {name} = " not in done.stdout:
            problems.append(f"{where}: no human-readable line for {name}")
    return result


def _bare_directory(problems: list[str]) -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = _run(bare, SPEC["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"bare directory: exit code {done.returncode}, output {done.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = _result(workload, 0, problems)
        first = _result(workload, 1, problems)["metrics"]
        second = _result(workload, 1, problems)["metrics"]
        for key in EXACT_COUNTS:
            a, b = first.get(key, {}).get("value"), second.get(key, {}).get("value")
            if a is None or a != b:
                problems.append(f"{workload}: {key} differs between traced runs: {a!r} vs {b!r}")
        if workload == "evaluate-field" and first.get("linalg.calls", {}).get("value") != 0:
            problems.append(f"evaluate-field: linalg.calls is {first.get('linalg.calls')}, expected 0")
        self_s = {k: v["value"] for k, v in first.items() if k.endswith(".self_s")}
        if self_s and plain["metrics"]:
            top = max(self_s, key=self_s.get)
            overhead = first["traced.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
            print(f"{workload}: largest self time {top} = {self_s[top]:.3f} s; "
                  f"tracing overhead {overhead:+.3f} s on one pass")
    _bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
