"""Timing statistics, machine-speed scaling and fresh-interpreter import measurements."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

_IMPORT_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import biphoton_feedforward\n"
    "print(repr(time.perf_counter() - t0))\n"
)


# On a shared 2-vCPU virtual machine, other tenants slowed each vCPU by up
# to ~30% for minutes at a time.  A fixed pure-Python loop timed between
# units tracks that: across six processes there, the raw engine unit time
# ranged over 27% while unit time / loop time ranged over 6%.  End-to-end
# times are therefore reported in seconds at the nominal speed at which the
# loop takes REF_NOMINAL_S.
REF_ITERATIONS = 1_600_000
REF_NOMINAL_S = 0.1


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop, a probe of the current CPU speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i
    return time.perf_counter() - start


class SpeedScale:
    """Scale factors to nominal speed for consecutive units of work.

    Each call of :meth:`factor` times the reference loop and returns
    REF_NOMINAL_S over the mean of the reference times that bracket the
    work done since the previous call.
    """

    def __init__(self) -> None:
        self._last = reference_seconds()
        self.factors: list[float] = []

    def factor(self) -> float:
        ref = reference_seconds()
        self.factors.append(REF_NOMINAL_S / (0.5 * (self._last + ref)))
        self._last = ref
        return self.factors[-1]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as (value, percentile).

    That is the (n - 10)-th smallest of n samples.  Up to 20 samples no
    percentile above the median has ten samples beyond it, and the median
    is returned instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def import_seconds(env: dict, cwd: str, repeats: int, speed: SpeedScale) -> float:
    """Median time of ``import biphoton_feedforward`` in fresh interpreters, at nominal speed."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_SNIPPET],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]) * speed.factor())
    return statistics.median(times)


def _importtime_forest(stderr: str) -> list[dict]:
    """Parse ``-X importtime`` lines into trees of {name, self, cum, children}.

    The lines come in post-order with two spaces of indent per level, so a
    line adopts every pending entry one level deeper as its children.
    """
    pending: list[tuple[int, dict]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, raw_name = line[len("import time:"):].split("|", 2)
        name = raw_name.rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        node = {"name": name.strip(), "self": int(self_us), "cum": int(cum_us), "children": []}
        while pending and pending[-1][0] > level:
            node["children"].insert(0, pending.pop()[1])
        pending.append((level, node))
    return [node for _, node in pending]


def _group_cum_us(nodes: list[dict], top: str) -> int:
    """Cumulative time of the outermost imports of package ``top``."""
    total = 0
    for node in nodes:
        if node["name"] == top or node["name"].startswith(top + "."):
            total += node["cum"]
        else:
            total += _group_cum_us(node["children"], top)
    return total


def _package_self_us(nodes: list[dict], top: str) -> int:
    total = 0
    for node in nodes:
        if node["name"] == top or node["name"].startswith(top + "."):
            total += node["self"]
        total += _package_self_us(node["children"], top)
    return total


def import_breakdown(env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Median ``import.*`` seconds from ``python -X importtime`` in fresh interpreters."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import biphoton_feedforward"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        forest = _importtime_forest(proc.stderr)
        values = {
            "import.total_s": _group_cum_us(forest, "biphoton_feedforward"),
            "import.scipy_s": _group_cum_us(forest, "scipy"),
            "import.numpy_s": _group_cum_us(forest, "numpy"),
            "import.package_self_s": _package_self_us(forest, "biphoton_feedforward"),
        }
        for key, us in values.items():
            samples.setdefault(key, []).append(us / 1e6)
    return {key: statistics.median(vals) for key, vals in samples.items()}


IMPORT_METRICS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.package_self_s": "s",
}
