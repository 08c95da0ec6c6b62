#!/usr/bin/env python3
"""Quick self-test of the benchmark; not part of the repository's test suite.

Runs every workload at tiny size (``--quick``, one second), untraced and
traced, and asserts that each metric named in BENCHMARK.json is emitted
with its unit, that no correctness check failed, that the traced stage
self times account for the simulate_run time, and that the benchmark
refuses to run without the package source.  Takes about a minute.

Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import measure
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_workload(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == named, (workload, trace, set(emitted) ^ set(named))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values()), values
    if trace:
        stages = sum(values[f"{stage}.self_s"] for stage in tracing.STAGES)
        total = values["simulation.run.total_s"]
        assert total > 0 and abs(stages + values["simulation.run.self_s"] - total) <= 1e-6 * total
    else:
        assert all(v > 0 for v in values.values()), values
    print(f"ok {workload} --trace {trace}: {result['attempted']} checks")


def check_refuses_without_source() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "engine-bench", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok refuses to run without the package source")


def check_helpers() -> None:
    assert measure.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert measure.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |   scipy.stats",
        "import time:         7 |         42 | biphoton_feedforward",
    ])
    forest = measure._importtime_forest(stderr)
    assert measure._group_cum_us(forest, "numpy") == 30
    assert measure._group_cum_us(forest, "scipy") == 5
    assert measure._package_self_us(forest, "biphoton_feedforward") == 7
    print("ok helpers")


def main() -> int:
    check_helpers()
    check_refuses_without_source()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
