#!/usr/bin/env python3
"""Check the working tree against a base commit: output bytes, then paired benchmark runs.

Not part of the Tier-1 suite.  The base is ``git archive BASE_REF``; the
change is a copy of the working tree, uncommitted edits included, without
``.git`` and the caches.  Both copies go to one temporary directory.

Bytes.  In each copy, ``scripts/reproduce_figures.py fresh`` runs, and the
five golden commands each write to their own directory.  Those are the
canned scenarios of the working tree's ``cli.GOLDEN_COMMANDS``, run in both
copies as ``python -m biphoton_feedforward`` with their files' own seeds.
The change's fresh figures must equal its committed ``results/``, and every
stream (exit code, stdout, stderr) and written file of the two copies must
be equal.  Each stream or file that differs is printed as a unified diff on
stderr, and the script exits 1 before any timing.

Timings.  The workloads are those of ``BENCHMARK.json``, in file order.
Pair k of a workload runs ``perfbench/run.py --workload W --seed SEED+k
--seconds S --trace 0`` once in each copy, the parent first in even pairs
and the change first in odd ones.  Each run is pinned to one CPU with
``os.sched_setaffinity``.  The JSON printed on stdout (and written to
``--out``) has one entry per workload in the layout of the ``BENCH_*.json``
files: each end-to-end metric's medians, quartiles, every run, the pairs the
change won and the parent's IQR; and each run's failed checks.  A run that
exits non-zero or reports failed checks makes the script exit 1 after the
summary.

Usage:
    python3 scripts/compare.py BASE_REF [--pairs SPEC] [--seconds S] [--seed N] [--out FILE]

SPEC is a pair count for every workload (``1``; ``0`` checks the bytes
only) or a comma list such as ``engine-bench=10,cli-golden=3``, which runs
only the workloads it names.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the golden commands come from this tree's package, not an installed one
sys.path.insert(0, str(ROOT / "src"))
from biphoton_feedforward.cli import GOLDEN_COMMANDS

WORKLOADS = tuple(
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
)
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_build", ".benchmarks",
    "*.egg-info",
)
RUN_TIMEOUT_S = 600


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", help="the commit to compare against, e.g. HEAD or HEAD~1")
    parser.add_argument("--pairs", default="1", help="pairs per workload: N, or W=N,W=N,...")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds per run")
    parser.add_argument("--seed", type=int, default=1, help="perfbench --seed of pair 0")
    parser.add_argument("--out", type=Path, help="also write the summary JSON here")
    args = parser.parse_args(argv)
    args.pairs = _pair_counts(parser, args.pairs)
    return args


def _pair_counts(parser: argparse.ArgumentParser, spec: str) -> dict[str, int]:
    try:
        if "=" not in spec:
            return dict.fromkeys(WORKLOADS, int(spec))
        counts = {name: int(n) for name, n in (item.split("=") for item in spec.split(","))}
    except ValueError:
        parser.error(f"--pairs: expected N or W=N,W=N,..., got {spec!r}")
    unknown = sorted(set(counts) - set(WORKLOADS))
    if unknown:
        parser.error(f"--pairs: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    return counts


def _trees(base_ref: str, tmp: Path) -> tuple[Path, Path]:
    """(parent, change): ``git archive`` of ``base_ref`` and a copy of the working tree."""
    archive = subprocess.run(
        ["git", "archive", base_ref], cwd=ROOT, capture_output=True, check=True
    ).stdout
    parent = tmp / "parent"
    parent.mkdir()
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    change = tmp / "change"
    shutil.copytree(ROOT, change, ignore=COPY_IGNORE)
    return parent, change


def _env(tree: Path) -> dict[str, str]:
    """The environment of a run in ``tree``: its own package first on the path."""
    paths = [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _python(tree: Path, *argv: str, cpu: int | None = None) -> subprocess.CompletedProcess:
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.run(
        [sys.executable, *argv], cwd=tree, env=_env(tree), capture_output=True,
        timeout=RUN_TIMEOUT_S, preexec_fn=pin,
    )


# ---------------------------------------------------------------------------
# bytes


def _outputs(tree: Path) -> dict[str, bytes]:
    """Every stream and written file of the byte check in ``tree``, by name."""
    runs = [("reproduce_figures.py", ("scripts/reproduce_figures.py", "fresh"))]
    for name, command in GOLDEN_COMMANDS:
        argv = (*command, "--config", f"scenarios/{name}.cfg", "--out", f"golden/{name}")
        runs.append((f"biphoton-sim {command[-1]} {name}", ("-m", "biphoton_feedforward", *argv)))
    streams = {}
    for label, argv in runs:
        proc = _python(tree, *argv)
        streams[f"{label}: exit code"] = str(proc.returncode).encode()
        streams[f"{label}: stdout"] = proc.stdout
        streams[f"{label}: stderr"] = proc.stderr
    for top in ("fresh", "golden"):
        for path in sorted((tree / top).rglob("*")):
            if path.is_file():
                streams[str(path.relative_to(tree))] = path.read_bytes()
    return streams


def _lines(data: bytes | None) -> list[str]:
    """The text lines of a stream or file, each ending in a newline; none when it is missing."""
    text = "" if data is None else data.decode("utf-8", errors="replace")
    return [line + "\n" for line in text.splitlines()]


def _diff(want: dict[str, bytes], got: dict[str, bytes], labels: tuple[str, str]) -> str:
    """A unified diff of every stream or file whose bytes differ; empty when none does."""
    diff = []
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            hunks = list(difflib.unified_diff(
                _lines(want.get(name)), _lines(got.get(name)),
                f"{labels[0]}: {name}", f"{labels[1]}: {name}",
            ))
            # bytes that differ only in line ends or in undecodable bytes
            diff += hunks or [f"{name}: the bytes differ, the text lines do not\n"]
    return "".join(diff)


def check_bytes(parent: Path, change: Path) -> str:
    """The unified diffs of what differs: fresh figures against the committed
    ``results/``, then the parent's outputs against the change's.  Empty when the
    bytes agree."""
    committed = {
        str(path.relative_to(change)): path.read_bytes()
        for path in sorted((change / "results").rglob("*")) if path.is_file()
    }
    ours = _outputs(change)
    fresh = {
        "results/" + name[len("fresh/"):]: data
        for name, data in ours.items() if name.startswith("fresh/")
    }
    return _diff(committed, fresh, ("committed", "fresh")) + _diff(
        _outputs(parent), ours, ("parent", "change")
    )


# ---------------------------------------------------------------------------
# timings


def _bench(tree: Path, workload: str, seed: int, seconds: float, cpu: int) -> dict:
    """The JSON of one ``perfbench/run.py`` run in ``tree``, pinned to ``cpu``."""
    proc = _python(
        tree, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", cpu=cpu,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return {"correct": False, "failed": None, "metrics": {}}
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def _metric_summary(before: list[float], after: list[float], higher_is_better: bool) -> dict:
    wins = sum((a > b) if higher_is_better else (a < b) for b, a in zip(before, after))
    q_before = _quartiles(before)
    return {
        "before_median": round(statistics.median(before), 6),
        "after_median": round(statistics.median(after), 6),
        "after_over_before": round(statistics.median(after) / statistics.median(before), 4),
        "change_better_pairs": f"{wins}/{len(before)}",
        "parent_iqr": round(q_before[1] - q_before[0], 6),
        "before_quartiles": [round(q, 6) for q in q_before],
        "after_quartiles": [round(q, 6) for q in _quartiles(after)],
        "before": [round(v, 6) for v in before],
        "after": [round(v, 6) for v in after],
    }


def run_pairs(
    parent: Path, change: Path, workload: str, seeds: list[int], seconds: float, cpu: int
) -> dict:
    """One workload's alternating pairs, summarised as a ``BENCH_*.json`` entry."""
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for k, seed in enumerate(seeds):
        order = [("before", parent), ("after", change)]
        for side, tree in order if k % 2 == 0 else order[::-1]:
            result = _bench(tree, workload, seed, seconds, cpu)
            runs[side].append(result)
            value = result["metrics"].get("pairs_per_s", {}).get("value")
            print(f"{workload} seed {seed} {side}: pairs_per_s {value}, failed {result['failed']}",
                  file=sys.stderr, flush=True)
    directions = {
        m["name"]: m["better"]
        for m in json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    }
    summary = {}
    for name, better in directions.items():
        before = [r["metrics"][name]["value"] for r in runs["before"] if name in r["metrics"]]
        after = [r["metrics"][name]["value"] for r in runs["after"] if name in r["metrics"]]
        if before and len(before) == len(after):
            summary[name] = _metric_summary(before, after, better == "higher")
    summary["failed"] = {
        "before": [r["failed"] for r in runs["before"]],
        "after": [r["failed"] for r in runs["after"]],
        "correct": all(r["correct"] for side in runs.values() for r in side),
    }
    return {"summary": summary, "seeds": seeds}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    base = subprocess.run(
        ["git", "rev-parse", "--short", args.base_ref], cwd=ROOT, capture_output=True, text=True
    )
    if base.returncode != 0:
        print(f"compare: unknown BASE_REF {args.base_ref!r}", file=sys.stderr)
        return 2
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        parent, change = _trees(args.base_ref, Path(tmp))
        difference = check_bytes(parent, change)
        if difference:
            print(f"compare: bytes differ\n{difference}", end="", file=sys.stderr)
            return 1
        print("compare: identical bytes (fresh figures, golden commands)", file=sys.stderr)
        report = {
            "machine": f"{platform.platform()}, Python {platform.python_version()}, "
                       f"{os.cpu_count()} CPUs; every run pinned to CPU {cpu}",
            "before_commit": f"{base.stdout.strip()} ({args.base_ref})",
            "after": "the working tree",
            "commands": {
                "pairs": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} "
                         "--trace 0 in each copy; pair k runs seed SEED+k, the parent first in "
                         "even pairs (scripts/compare.py)",
            },
        }
        correct = True
        for workload in WORKLOADS:
            n = args.pairs.get(workload, 0)
            if n:
                seeds = list(range(args.seed, args.seed + n))
                entry = run_pairs(parent, change, workload, seeds, args.seconds, cpu)
                report[f"{workload}_pairs_seeds{seeds[0]}-{seeds[-1]}"] = entry
                correct &= entry["summary"]["failed"]["correct"]
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
