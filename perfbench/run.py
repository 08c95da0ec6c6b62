#!/usr/bin/env python3
"""Benchmark of the biphoton_feedforward simulator, run from a source checkout.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): ``engine-bench`` and
``engine-saturated`` call ``simulate_run`` back to back in this process;
``cli-golden`` runs the canned scenarios and ``analyze fit`` as
``python -m biphoton_feedforward`` child processes, one at a time.  Every
unit passes a correctness gate.  With ``--trace 0`` the last stdout line is
a JSON object with the end-to-end metrics; with ``--trace 1`` the layers
are wrapped from outside (perfbench/tracing.py) and the per-layer metrics
are printed instead.  ``--quick`` shrinks the engine units for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import measure
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_build") / "perfbench"
SETUP_REPEATS = 3
MIN_ENGINE_PASSES = 4  # 16 units
MIN_CLI_PASSES = 2  # 16 units
IMPORT_REPEATS = 3


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny engine units, for the self-test")
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _unit_metrics(
    unit_times: list[float], pass_times: list[float], raw_times: list[float], speed: measure.SpeedScale
) -> tuple[dict, str]:
    """wall_s, unit_s_p50 and unit_s_tail from speed-scaled times, and a note on the raw ones."""
    tail, percentile = measure.tail(unit_times)
    note = (
        f"{len(unit_times)} units in {len(pass_times)} passes; unit_s_tail is p{percentile:.1f}; "
        f"raw wall time per unit {statistics.median(raw_times):.4f} s (median), "
        f"speed factor median {statistics.median(speed.factors):.4f} "
        f"[{min(speed.factors):.4f}, {max(speed.factors):.4f}]"
    )
    return {
        "wall_s": _metric(statistics.median(pass_times), "s"),
        "unit_s_p50": _metric(statistics.median(unit_times), "s"),
        "unit_s_tail": _metric(tail, "s"),
    }, note


# ---------------------------------------------------------------------------
# engine workloads


def _engine(args: argparse.Namespace, checks: workloads.Checks) -> tuple[dict, list[str]]:
    # simulate_run is looked up on the module at each call, so that the
    # traced passes reach the installed wrapper.
    from biphoton_feedforward import simulation

    name = args.workload
    base = simulation.ExperimentConfig(**workloads.ENGINE_WORKLOADS[name])

    # Untimed: the default-seed unit, whose counts must match the stored
    # fingerprints; it also lets allocations and lazy set-up settle.
    reference = replace(base, seed=workloads.unit_seed(name, workloads.DEFAULT_SEED, 0))
    result = simulation.simulate_run(reference)
    expected = workloads.fingerprints()[name]
    got = workloads.fingerprint(result)
    checks.check(got == expected, f"{name} default-seed fingerprint {got} != {expected}")
    workloads.check_engine_unit(checks, name, reference, result)
    if args.quick:
        base = replace(base, duration=base.duration / 100.0)

    speed = measure.SpeedScale()
    setup = None if args.trace else measure.import_seconds(
        _child_env(), str(ROOT), 1 if args.quick else SETUP_REPEATS, speed
    )
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    unit_times: dict[bool, list[float]] = {False: [], True: []}
    raw_times, pairs_rates, pass_times = [], [], []
    unit = 0
    min_passes = 2 if args.trace or args.quick else MIN_ENGINE_PASSES
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(pass_times) < min_passes:
        traced = bool(args.trace) and len(pass_times) % 2 == 1
        if traced:
            hooks.install()
        pass_time = 0.0
        for _ in range(workloads.UNITS_PER_PASS):
            unit += 1
            config = replace(base, seed=workloads.unit_seed(name, args.seed, unit))
            tracer.unit = unit
            start = time.perf_counter()
            try:
                result = simulation.simulate_run(config)
            except Exception as exc:  # a failed unit is counted, and the loop goes on
                checks.check(False, f"{name} unit {unit}: {type(exc).__name__}: {exc}")
                continue
            raw = time.perf_counter() - start
            elapsed = raw * speed.factor()
            raw_times.append(raw)
            unit_times[traced].append(elapsed)
            pass_time += elapsed
            pairs_rates.append(result.pairs_emitted / elapsed)
            workloads.check_engine_unit(checks, name, config, result)
        hooks.uninstall()
        pass_times.append(pass_time)

    if args.trace:
        tracer.write(str(ROOT / OUT / f"{name}-trace-seed{args.seed}.jsonl"))
        return _trace_metrics(tracer.spans, hooks.absent, sorted(tracer.counter_errors), unit_times)
    metrics, note = _unit_metrics(unit_times[False], pass_times, raw_times, speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.update(
        setup_s=_metric(setup, "s"),
        pairs_per_s=_metric(statistics.median(pairs_rates), "1/s"),
        peak_rss_mb=_metric(rss_mb, "MB"),
    )
    return metrics, [note]


def _trace_metrics(
    spans: list[tracing.Span],
    absent: list[str],
    counter_errors: list[str],
    times: dict[bool, list[float]],
) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced sample (engine unit or CLI pass), and notes."""
    values = tracing.layer_metrics(spans, len(times[True]))
    values.update(measure.import_breakdown(_child_env(), str(ROOT), IMPORT_REPEATS))
    overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
    values["trace.overhead_ratio"] = overhead
    units = {**tracing.LAYER_METRICS, **measure.IMPORT_METRICS, "trace.overhead_ratio": "ratio"}
    notes = [
        f"{len(times[True])} traced and {len(times[False])} untraced samples; "
        f"tracing overhead {overhead:+.4f}; "
        f"stage self times + simulate_run self time = "
        f"{tracing.accounted_share(spans):.6f} of simulate_run time"
    ]
    if absent:
        notes.append("absent spans (reported as 0): " + ", ".join(absent))
    if counter_errors:
        notes.append("counts unavailable for: " + ", ".join(sorted(counter_errors)))
    return {key: _metric(values[key], unit) for key, unit in units.items()}, notes


# ---------------------------------------------------------------------------
# CLI workload


def _cli(args: argparse.Namespace, checks: workloads.Checks) -> tuple[dict, list[str]]:
    out = OUT / workloads.CLI_WORKLOAD
    if args.trace:
        return _cli_traced(args, checks, out)
    env = _child_env()
    speed = measure.SpeedScale()
    setup = measure.import_seconds(env, str(ROOT), 1 if args.quick else SETUP_REPEATS, speed)
    unit_times, raw_times, pass_times = [], [], []
    min_passes = 1 if args.quick else MIN_CLI_PASSES
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(pass_times) < min_passes:
        seed = workloads.pass_seed(args.seed, len(pass_times))
        shutil.rmtree(ROOT / out, ignore_errors=True)
        outcomes = []
        for label, argv in workloads.cli_pass(str(out), seed):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "biphoton_feedforward", *argv],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
            )
            raw_times.append(time.perf_counter() - start)
            unit_times.append(raw_times[-1] * speed.factor())
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
            outcomes.append((label, proc.returncode, proc.stdout))
        pass_times.append(sum(unit_times[-len(outcomes):]))
        workloads.check_cli_pass(checks, ROOT, str(out), seed, outcomes)
    shutil.rmtree(ROOT / out, ignore_errors=True)

    metrics, note = _unit_metrics(unit_times, pass_times, raw_times, speed)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    pairs = workloads.nominal_pairs(ROOT)
    metrics.update(
        setup_s=_metric(setup, "s"),
        pairs_per_s=_metric(pairs / metrics["wall_s"]["value"], "1/s"),
        peak_rss_mb=_metric(rss_mb, "MB"),
    )
    return metrics, [note, f"pairs_per_s counts {pairs:.0f} nominal scan pairs per pass"]


def _cli_traced(args: argparse.Namespace, checks: workloads.Checks, out: Path) -> tuple[dict, list[str]]:
    (ROOT / OUT).mkdir(parents=True, exist_ok=True)
    spans_path = ROOT / OUT / f"{workloads.CLI_WORKLOAD}-trace-seed{args.seed}.jsonl"
    result_path = ROOT / OUT / f"{workloads.CLI_WORKLOAD}-passes-seed{args.seed}.json"
    subprocess.run(
        [
            sys.executable, str(Path(__file__).with_name("cli_inprocess.py")),
            "--root", str(ROOT), "--out", str(out), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--spans", str(spans_path), "--result", str(result_path),
        ],
        cwd=ROOT, env=_child_env(), timeout=170, check=True,
    )
    shutil.rmtree(ROOT / out, ignore_errors=True)
    report = json.loads(result_path.read_text(encoding="ascii"))
    times: dict[bool, list[float]] = {False: [], True: []}
    for entry in report["passes"]:
        times[entry["traced"]].append(entry["wall_s"])
        checks.attempted += entry["attempted"]
        checks.failures += entry["failures"]
    with open(spans_path, encoding="ascii") as lines:
        spans = [tracing.Span(**json.loads(line)) for line in lines]
    return _trace_metrics(spans, report["absent"], report["counter_errors"], times)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "biphoton_feedforward" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    # One vCPU for this process and its children, so that the speed
    # reference and the timed work run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import biphoton_feedforward  # noqa: F401  (compiles bytecode before any timing)

    checks = workloads.Checks()
    runner = _cli if args.workload == workloads.CLI_WORKLOAD else _engine
    metrics, notes = runner(args, checks)
    failed = len(checks.failures)
    for note in notes:
        print(f"{args.workload}: {note}")
    for failure in checks.failures:
        print(f"{args.workload}: FAILED {failure}")
    print(f"{args.workload}: failed_ratio = {failed}/{checks.attempted} = {failed / max(checks.attempted, 1)}")
    print(json.dumps({
        "correct": failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
