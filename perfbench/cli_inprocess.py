"""Traced cli-golden passes: the same argv through ``cli.main`` in one process.

Run by ``run.py --workload cli-golden --trace 1`` as a child process.  Passes
alternate untraced and traced (wrappers installed first) until ``--seconds``
have passed and at least one of each ran.  Spans go to ``--spans`` and a
JSON summary of every pass to ``--result``.

Usage: python3 perfbench/cli_inprocess.py --root DIR --out REL --seed N
           --seconds S --spans FILE --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def _invoke(main, argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash in one invocation is a failed unit, as in a child process
            traceback.print_exc()
            code = 1
    if code != 0:
        sys.stderr.write(stderr.getvalue())
    return code, stdout.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    root = Path(args.root)

    from biphoton_feedforward import cli

    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    passes = []
    unit = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(passes) < 2:
        index = len(passes)
        traced = index % 2 == 1
        seed = workloads.pass_seed(args.seed, index)
        shutil.rmtree(root / args.out, ignore_errors=True)
        outcomes = []
        if traced:
            hooks.install()
        start = time.perf_counter()
        for label, cli_argv in workloads.cli_pass(args.out, seed):
            tracer.unit = unit
            unit += 1
            if traced:
                span = tracer.open("cli.main")
            code, stdout = _invoke(cli.main, cli_argv)
            if traced:
                tracer.close(span)
            outcomes.append((label, code, stdout))
        wall = time.perf_counter() - start
        hooks.uninstall()
        passes.append({"traced": traced, "seed": seed, "wall_s": wall, "outcomes": outcomes})
        # Gate each pass while its outputs are on disk.
        checks = workloads.Checks()
        workloads.check_cli_pass(checks, root, args.out, seed, outcomes)
        passes[-1]["attempted"] = checks.attempted
        passes[-1]["failures"] = checks.failures
    tracer.write(args.spans)
    Path(args.result).write_text(
        json.dumps({"passes": passes, "absent": hooks.absent,
                    "counter_errors": sorted(tracer.counter_errors)}),
        encoding="ascii",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
