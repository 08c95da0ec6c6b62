"""Outside-in span tracing of the biphoton_feedforward layers.

Module-level callables of the package are wrapped by name in every package
module that holds a reference to them, and methods are wrapped on their
class, so the package source is never edited.  This works because the
package looks its helpers up as module globals at call time (``simulate_run``
calls ``_drive_cell``, ``cli`` calls its own imported ``fit_visibility``).

A span records its name, start and end (``perf_counter_ns``), the index of
its parent span, the unit it belongs to and the counts its hook derived
from the call.  Spans stay in memory until :meth:`Tracer.write`.  A hook
whose target no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

PACKAGE = "biphoton_feedforward"


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    unit: int
    counts: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.unit = 0
        self.counter_errors: set[str] = set()

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.unit, {}, attrs or {}))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        if counts:
            span.counts.update(counts)
        self._stack.pop()

    def enclosing(self, name: str) -> Span | None:
        for index in reversed(self._stack):
            if self.spans[index].name == name:
                return self.spans[index]
        return None

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# hooks: (span name, "module:qualname", counter(args, result) -> dict)


def _run_attrs(args: tuple) -> dict:
    """Which detector dead-time filters this simulate_run call will apply, in order."""
    config = args[0] if args else None
    labels = [
        label
        for label, attr in (("d1", "detector_dead_time_d1"), ("d2", "detector_dead_time_d2"))
        if getattr(config, attr, 1.0) > 0.0
    ]
    return {"dead_time_labels": labels, "dead_time_calls": 0}


def _dead_time_name(tracer: Tracer) -> str:
    """Tell the D1 and D2 filter calls apart by their order inside simulate_run."""
    run = tracer.enclosing("simulation.run")
    if run is None:
        return "simulation.dead_time"
    k = run.attrs["dead_time_calls"]
    run.attrs["dead_time_calls"] = k + 1
    labels = run.attrs["dead_time_labels"]
    label = labels[k] if k < len(labels) else f"extra{k}"
    return f"simulation.{label}_dead_time"


def _bytes_written(args: tuple, result: object) -> dict:
    return {"bytes": os.path.getsize(args[0])}


HOOKS = (
    ("simulation.run", "simulation:simulate_run", None),
    ("simulation.emit", "simulation:_sample_poisson_times", lambda a, r: {"events": len(r)}),
    (
        "simulation.dead_time",
        "simulation:_dead_time_filter",
        lambda a, r: {"in": len(r), "kept": int(r.sum())},
    ),
    (
        "simulation.cell_drive",
        "simulation:_drive_cell",
        lambda a, r: {"triggers": len(a[0]), "accepted": int(r[1])},
    ),
    ("simulation.signal_arm", "simulation:CellTimeline.covers_many", None),
    ("simulation.signal_arm", "simulation:_tail_probabilities", None),
    (
        "simulation.match",
        "simulation:coincidence_match",
        lambda a, r: {"d1_clicks": len(a[0]), "coincidences": int(r)},
    ),
    ("simulation.validate", "simulation:CellTimeline.validate", None),
    ("simulation.oracle", "simulation:sampling_soundness", None),
    ("simulation.edge", "simulation:find_rotation_edge", None),
    ("analysis.fit", "analysis:fit_visibility", None),
    ("cli.parse", "cli:_build_parser", None),
    ("cli.parse", "cli:load_config_file", None),
    ("cli.parse", "cli:build_scenario", None),
    ("cli.write", "cli:write_curve_file", _bytes_written),
    ("cli.write", "cli:_write_report", _bytes_written),
    ("cli.read", "cli:read_curve_file", None),
    ("polarization.joint_probs", "polarization:joint_polarizer_probabilities", None),
)


def _wrap(tracer: Tracer, name: str, target: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name == "simulation.run":
            index = tracer.open(name, _run_attrs(args))
        elif name == "simulation.dead_time":
            index = tracer.open(_dead_time_name(tracer))
        else:
            index = tracer.open(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    counts = counter(args, result)
                except (TypeError, IndexError, AttributeError, ValueError, OSError):
                    tracer.counter_errors.add(target)
            return result
        finally:
            tracer.close(index, counts)

    return wrapper


class Hooks:
    """Installs the wrappers of :data:`HOOKS` and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        ]
        for name, target, counter in HOOKS:
            mod_name, qualname = target.split(":")
            *outer, attr = qualname.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapper = _wrap(self.tracer, name, target, original, counter)
            # A class attribute is patched once; a module-level function in
            # every package namespace that imported it by name.
            holders = [owner] if outer else [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []


# ---------------------------------------------------------------------------
# aggregation


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self nanoseconds and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; in one thread the children never overlap.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span.name, {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": {}})
        entry["calls"] += 1
        entry["total_ns"] += span.end - span.start
        entry["self_ns"] += span.end - span.start - child_ns[i]
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


def _edge_runs(spans: list[Span]) -> int:
    """simulate_run calls made under find_rotation_edge."""
    count = 0
    for span in spans:
        if span.name != "simulation.run":
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != "simulation.edge":
            parent = spans[parent].parent
        count += parent is not None
    return count


# Per-layer metrics derived from the spans, with their units.  Times and
# counts are per pass of the workload; ratios come from run totals.
LAYER_METRICS = {
    "simulation.emit.self_s": "s",
    "simulation.emit.events": "count",
    "simulation.d1_dead_time.self_s": "s",
    "simulation.d1_dead_time.kept_ratio": "ratio",
    "simulation.cell_drive.self_s": "s",
    "simulation.cell_drive.triggers": "count",
    "simulation.cell_drive.accept_ratio": "ratio",
    "simulation.signal_arm.self_s": "s",
    "simulation.d2_dead_time.self_s": "s",
    "simulation.d2_dead_time.kept_ratio": "ratio",
    "simulation.match.self_s": "s",
    "simulation.match.match_ratio": "ratio",
    "simulation.validate.self_s": "s",
    "simulation.run.self_s": "s",
    "simulation.run.total_s": "s",
    "simulation.oracle.self_s": "s",
    "simulation.edge.runs": "count",
    "analysis.fit.self_s": "s",
    "analysis.fit.calls": "count",
    "cli.parse.self_s": "s",
    "cli.write.self_s": "s",
    "cli.write.bytes": "bytes",
    "cli.read.self_s": "s",
    "polarization.joint_probs.self_s": "s",
}


# Counts per pass and ratios over the run: metric -> (span, count[, denominator count]).
_COUNTS = {
    "simulation.emit.events": ("simulation.emit", "events"),
    "simulation.cell_drive.triggers": ("simulation.cell_drive", "triggers"),
    "cli.write.bytes": ("cli.write", "bytes"),
}
_RATIOS = {
    "simulation.d1_dead_time.kept_ratio": ("simulation.d1_dead_time", "kept", "in"),
    "simulation.d2_dead_time.kept_ratio": ("simulation.d2_dead_time", "kept", "in"),
    "simulation.cell_drive.accept_ratio": ("simulation.cell_drive", "accepted", "triggers"),
    "simulation.match.match_ratio": ("simulation.match", "coincidences", "d1_clicks"),
}


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Values of :data:`LAYER_METRICS`; a span never recorded reads 0."""
    summary = summarize(spans)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": {}}
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span_name, _, what = metric.rpartition(".")
        entry = summary.get(span_name, empty)
        if what == "self_s":
            values[metric] = entry["self_ns"] / 1e9 / passes
        elif what == "total_s":
            values[metric] = entry["total_ns"] / 1e9 / passes
    for metric, (span_name, key) in _COUNTS.items():
        values[metric] = summary.get(span_name, empty)["counts"].get(key, 0) / passes
    for metric, (span_name, num, den) in _RATIOS.items():
        counts = summary.get(span_name, empty)["counts"]
        values[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    values["simulation.edge.runs"] = _edge_runs(spans) / passes
    values["analysis.fit.calls"] = summary.get("analysis.fit", empty)["calls"] / passes
    return values


STAGES = (
    "simulation.emit",
    "simulation.d1_dead_time",
    "simulation.cell_drive",
    "simulation.signal_arm",
    "simulation.d2_dead_time",
    "simulation.match",
    "simulation.validate",
)


def accounted_share(spans: list[Span]) -> float:
    """(simulate_run self time + stage self times) / simulate_run time.

    Every stage span is a child of a simulate_run span, so this reads 1
    when the stage hooks cover everything simulate_run delegates.
    """
    summary = summarize(spans)
    run = summary.get("simulation.run")
    if not run or not run["total_ns"]:
        return 0.0
    stage_ns = sum(summary[name]["self_ns"] for name in STAGES if name in summary)
    return (run["self_ns"] + stage_ns) / run["total_ns"]
