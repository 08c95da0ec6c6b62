"""Command-line front end: config files, canned scenarios, curve/report files.

Config files are flat ``key = value`` text with ``#`` comments.  Times accept
an optional unit suffix (s, ms, us, ns), angles accept deg or rad (default
radians) and are measured from the vertical axis, as everywhere in the
package; curve files and reports are expressed in the same units.

Output files carry no timestamps and render every float with 17 significant
digits, so reruns with the same config and seed are byte-identical and
curve files round-trip exactly through ``analyze fit``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import numbers
import os
import re
import stat
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .analysis import (
    MAX_EXPECTED_EVENTS,
    ConfigError,
    CurveFit,
    CurvePoint,
    DataError,
    FitError,
    InconsistencyError,
    SimulationError,
    ValueWithError,
    check_model_rises,
    correct_visibility,
    curve_rows,
    expected_background_fraction,
    fit_visibility,
    invert_eta,
    klyshko_efficiency,
    klyshko_ratio,
    singles_visibility,
    visibility_steps,
)

# The engine imports numpy, which ``analyze fit`` and ``--version`` do not
# need, so the functions that parse configs, build scenarios or run them
# import the engine names they use where they use them.
if TYPE_CHECKING:
    from .simulation import ExperimentConfig

SCHEMA_VERSION = 3

_TIME_UNITS = {"": 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_ANGLE_UNITS = {"": 1.0, "rad": 1.0, "deg": math.pi / 180.0}

_RANGE_KEYS = ("scan_start", "scan_stop", "scan_points")
_SCAN_KEYS = (*_RANGE_KEYS, "scan_values")

_VALUE_RE = re.compile(r"^([-+0-9.eE]+)\s*([a-zA-Z]*)$")


def _parse_with_unit(text: str, units: dict[str, float], what: str) -> float:
    match = _VALUE_RE.match(text.strip())
    if match is None:
        raise ConfigError(f"cannot parse {what} value {text!r}")
    number, unit = match.groups()
    if unit not in units:
        raise ConfigError(f"unknown {what} unit {unit!r} in {text!r}")
    try:
        value = float(number) * units[unit]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} value {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{what} value {text!r} is not finite")
    return value


def parse_time(text: str) -> float:
    """Seconds from '2 us', '100ns', '0.5' and similar."""
    return _parse_with_unit(text, _TIME_UNITS, "time")


def parse_angle(text: str) -> float:
    """Radians from '45 deg', '0.3 rad' or a bare number (radians)."""
    return _parse_with_unit(text, _ANGLE_UNITS, "angle")


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {text!r} for {key}") from exc


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer {text!r} for {key}") from exc


def parse_config_text(text: str) -> tuple[ExperimentConfig, dict[str, str]]:
    """Parse flat key-value config text.

    Returns the experiment config plus the scenario extras (the sweep keys) as
    raw strings, whose units :func:`build_scenario` resolves by kind.
    """
    from .simulation import _PROBABILITY_FIELDS, _RATE_FIELDS, _TIME_FIELDS, ExperimentConfig

    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    extras: dict[str, str] = {}
    values: dict[str, object] = {}
    for key, text_value in raw.items():
        if key in _SCAN_KEYS:
            extras[key] = text_value
        elif key in _TIME_FIELDS:
            values[key] = parse_time(text_value)
        elif key in _RATE_FIELDS or key in _PROBABILITY_FIELDS:
            values[key] = _parse_float(text_value, key)
        elif key == "polarizer_theta":
            values[key] = parse_angle(text_value)
        elif key == "coincidence_offset":
            values[key] = None if text_value.lower() == "auto" else parse_time(text_value)
        elif key == "seed":
            values[key] = _parse_int(text_value, key)
        elif key == "dead_time_mode":
            values[key] = text_value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**values), extras


def _read_ascii(path: str | Path, error: type[Exception], cap: int) -> str:
    """The text of an ASCII-only regular input file of at most ``cap`` bytes.

    The file is opened without blocking and checked on its descriptor, so a
    FIFO, a device or a directory is refused with a file error before any
    byte is read.  At most ``cap + 1`` bytes are read: a longer file, or any
    byte that is not ASCII, raises ``error``.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise OSError(f"not a regular file: {str(path)!r}")
        with open(fd, "rb", closefd=False) as file:
            data = file.read(cap + 1)
    finally:
        os.close(fd)
    if len(data) > cap:
        raise error(f"{path}: longer than {cap} bytes")
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}, byte {exc.start} is not ASCII") from exc


def load_config_file(path: str | Path) -> tuple[ExperimentConfig, dict[str, str]]:
    return parse_config_text(_read_ascii(path, ConfigError, _MAX_CONFIG_BYTES))


# Largest expected number of events that one command draws over all its
# runs, in runs at the per-run limit MAX_EXPECTED_EVENTS: ~2 minutes at
# ~8 M events/s, and room for a 13-point scan at that limit.
_COMMAND_BUDGET_RUNS = 50

# Each run, an oracle angle included, also counts this many events for its fixed cost:
# a run that draws nothing still takes ~0.5 ms, the time of ~4 k events, and
# its scan point keeps ~0.3 kB (its run's counts and its curve row), so the
# budget bounds the points of a scan at any rate (10^5 points at zero rate).
_RUN_OVERHEAD_EVENTS = 1e4

# The most points a command admits, a scan of runs that draw nothing: 50 runs
# at the per-run limit MAX_EXPECTED_EVENTS over 1e4 events per run, ~1e5.  An
# input file may hold that many points and 64 kB besides: a config lists each
# in at most 32 bytes ("-1.2345678901234567e-08 ns, "), and a curve holds a
# row of five 17-digit floats, at most 125 bytes, for each.
_MAX_POINTS = int(
    _COMMAND_BUDGET_RUNS * (MAX_EXPECTED_EVENTS + _RUN_OVERHEAD_EVENTS) / _RUN_OVERHEAD_EVENTS
)
_MAX_CONFIG_BYTES = 32 * _MAX_POINTS + 2**16
_MAX_CURVE_BYTES = 125 * _MAX_POINTS + 2**16


def _command_events(
    kind: str, config: ExperimentConfig, n_points: int, widest_gap: float
) -> float:
    """Expected events that a scenario draws over all its runs.

    A delay scan adds the edge bisection: two bracket checks, then one run
    per halving of its widest possible bracket (the widest gap between
    neighbouring delays) down to the tolerance.
    """
    from .simulation import EDGE_TOLERANCE

    runs = n_points
    if kind == "calibrate":
        runs += 1  # the Klyshko run
    elif kind == "delay-scan" and n_points > 1:
        runs += 2
        width = widest_gap
        while width > EDGE_TOLERANCE:
            width /= 2.0
            runs += 1
    return runs * (config.expected_events + _RUN_OVERHEAD_EVENTS)


@dataclass(frozen=True)
class Scenario:
    """A runnable scenario: what to sweep, with which config, written where."""

    kind: str
    config: ExperimentConfig
    sweep: tuple[float, ...]
    out_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.kind not in _RUNNERS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if len(self.sweep) == 0:
            raise ConfigError("scenario sweep must not be empty")


def build_scenario(
    kind: str,
    config: ExperimentConfig,
    extras: dict[str, str],
    out_dir: Path | None = None,
) -> Scenario:
    """Assemble a scenario from a parsed config and its extras.

    The sweep is the file's ``scan_values`` or its complete
    ``scan_start/stop/points`` range, exactly one of the two.
    """
    import numpy as np

    from .simulation import _check_enumerable

    if kind == "calibrate":
        visibility_steps(config)  # refuses a factor the visibility route cannot divide by
    angle_sweep = kind in ("polarizer-scan", "calibrate", "property-oracle")
    parse_value = parse_angle if angle_sweep else parse_time

    range_keys = [k for k in _RANGE_KEYS if k in extras]
    sweep: tuple[float, ...] | None = None  # None: the scan range below
    if "scan_values" in extras:
        if range_keys:
            raise ConfigError(f"scan_values and {range_keys} both give the sweep; keep one")
        sweep = tuple(
            parse_value(part.strip())
            for part in extras["scan_values"].split(",")
            if part.strip()
        )
    else:
        missing = [k for k in _RANGE_KEYS if k not in extras]
        if missing:
            raise ConfigError(f"the sweep needs scan_values or a scan range, missing {missing}")
        start = parse_value(extras["scan_start"])
        stop = parse_value(extras["scan_stop"])
        n = _parse_int(extras["scan_points"], "scan_points")
        if n < 1:
            raise ConfigError("scan_points must be at least 1")

    # the whole command is checked before the range is built or any event drawn
    if sweep is None:
        n_points, widest_gap = n, abs(stop - start) / n
    else:
        n_points = len(sweep)
        widest_gap = max((abs(b - a) for a, b in zip(sweep, sweep[1:])), default=0.0)
    if not math.isfinite(widest_gap):
        raise ConfigError("neighbouring sweep values lie farther apart than the largest float")
    events = _command_events(kind, config, n_points, widest_gap)
    budget = _COMMAND_BUDGET_RUNS * MAX_EXPECTED_EVENTS
    if events > budget:
        raise ConfigError(
            f"expected {events:.3g} events over the {kind} command exceed the budget "
            f"of {budget:.3g}; use fewer points, shorter runs or lower rates"
        )
    if kind == "property-oracle":
        _check_enumerable(config)
    if sweep is None:
        # Half-open range: stop is excluded, matching a full period scan.
        sweep = tuple(np.linspace(start, stop, n, endpoint=False))

    scenario = Scenario(kind=kind, config=config, sweep=sweep, out_dir=out_dir)
    # the swept field's rules are bounds, so its configs at the sweep's
    # extremes refuse what the scan would refuse after the output directory
    field = "polarizer_theta" if angle_sweep else "t_electronic"
    for value in (min(sweep), max(sweep)):
        replace(config, **{field: value})
    if kind == "calibrate":
        # each route inverts its model, which must rise with eta_idler; the
        # fringe's is checked at four angles, whatever the sweep
        points = [CurvePoint(k * math.pi / 4.0, 0.0, 1.0) for k in range(4)]
        check_model_rises(lambda c: singles_visibility(c, points), config, "visibility")
        check_model_rises(klyshko_ratio, _klyshko_config(config), "coincidence")
    return scenario


# ---------------------------------------------------------------------------
# deterministic rendering


def fmt(value: object) -> str:
    """Render a value for config echoes and reports (floats at 17 digits)."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return f"{float(value):.17g}"
    return str(value)


# A report section is its name and its rows.  A row is (key, value), or
# (key, value, sigma) for an estimate with its error.
Section = tuple[str, list[tuple]]


def _render_rows(rows: list[tuple]) -> list[str]:
    """``key = value`` lines; a sigma adds ``sigma_key = sigma``; sequences join by commas."""
    lines = []
    for key, value, *sigma in rows:
        if isinstance(value, (list, tuple)):
            text = ",".join(fmt(v) for v in value)
        else:
            text = fmt(value)
        lines.append(f"{key} = {text}")
        lines += [f"sigma_{key} = {fmt(s)}" for s in sigma]
    return lines


def render_sections(sections: list[Section]) -> list[str]:
    """Report lines: each section under its ``[name]``, one blank line between them."""
    lines: list[str] = []
    for name, rows in sections:
        lines += ["", f"[{name}]", *_render_rows(rows)]
    return lines[1:]


def _config_rows(config: ExperimentConfig) -> list[tuple]:
    return [(f.name, getattr(config, f.name)) for f in fields(config)]


# A curve is a list of rows (x, rate_d2, sigma_rate_d2, rate_coincidence,
# sigma_rate_coincidence).
Curve = list[tuple[float, ...]]


def _fit_section(
    label: str, rows: Curve, rate_col: int, sigma_col: int
) -> tuple[Section, CurveFit]:
    """The fit section of one curve, and the fit it renders; raises FitError.

    The section is identical for in-process and reread data.
    """
    points = [CurvePoint(float(r[0]), float(r[rate_col]), float(r[sigma_col])) for r in rows]
    fit = fit_visibility(points)
    return (label, [
        ("n_points", len(rows)),
        ("mean_a", fit.mean_a, fit.sigma_mean),
        ("visibility", fit.visibility_v, fit.sigma_visibility),
        ("theta0_rad", fit.phase_theta0, fit.sigma_theta0),
        ("chi2_reduced", fit.chi2_reduced),
        ("covariance", [v for row in fit.covariance for v in row]),
    ]), fit


def _fit_sections(rows: Curve) -> tuple[list[Section], CurveFit, CurveFit | None]:
    """The [fit_singles] and [fit_coincidences] sections of a curve, with both fits.

    A failed singles fit raises; a failed coincidence fit is recorded inline, as fit None.
    """
    singles_section, singles = _fit_section("fit_singles", rows, 1, 2)
    try:
        coincidence_section, coincidences = _fit_section("fit_coincidences", rows, 3, 4)
    except FitError as exc:
        coincidence_section, coincidences = ("fit_coincidences", [("fit_error", str(exc))]), None
    return [singles_section, coincidence_section], singles, coincidences


def write_curve_file(path: Path, kind: str, rows: Curve, config: ExperimentConfig) -> None:
    x_unit = "s" if kind == "delay-scan" else "rad"
    lines = [
        "# biphoton feed-forward curve",
        f"# schema_version = {SCHEMA_VERSION}",
        f"# kind = {kind}",
        f"# x_unit = {x_unit}",
        f"# seed = {config.seed}",
    ]
    lines += [f"# config: {line}" for line in _render_rows(_config_rows(config))]
    lines.append("# columns: x, rate_d2, sigma_rate_d2, rate_coincidence, sigma_rate_coincidence")
    for row in rows:
        lines.append(",".join(fmt(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def read_curve_file(path: str | Path) -> tuple[dict[str, str], Curve]:
    """Read back a curve file into its metadata and its rows of 5 floats."""
    meta: dict[str, str] = {}
    rows: Curve = []
    for line in _read_ascii(path, DataError, _MAX_CURVE_BYTES).splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and not body.startswith("config:"):
                key, value = (part.strip() for part in body.split("=", 1))
                meta[key] = value
            continue
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise DataError(f"curve row must have 5 columns, got {len(parts)}")
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise DataError(f"curve row {line!r} has a non-numeric cell") from exc
        if not all(math.isfinite(v) for v in row):
            raise DataError(f"curve row {line!r} has a non-finite cell")
        if min(row[1:]) < 0.0:
            raise DataError(f"curve row {line!r} has a negative rate or sigma")
        rows.append(row)
    if not rows:
        raise DataError(f"no data rows in curve file {path}")
    return meta, rows


def _write_report(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# scenario execution


def _klyshko_config(config: ExperimentConfig) -> ExperimentConfig:
    """The Klyshko run of ``config``: cell idle, signal polarizer on H."""
    from .simulation import child_config

    return child_config(config, "klyshko", cell_fail_prob=1.0, polarizer_theta=math.pi / 2.0)


def run_klyshko(config: ExperimentConfig):
    """Absolute trigger-efficiency run: cell idle, signal polarizer on H.

    With the idler analysed on V, the conjugate signal ensemble is exactly
    the horizontal one, so selecting H at D2 makes every D2 photon click the
    partner of a potential D1 click, and the coincidence-to-singles ratio
    estimates the D1 efficiency alone.  Returns the run and eta_idler, read
    by inverting the model's ratio, accidentals and D2 noise included.
    """
    from .simulation import simulate_run

    cfg = _klyshko_config(config)
    result = simulate_run(cfg)
    ratio = klyshko_efficiency(result.coincidences, result.singles_d2)
    return result, invert_eta(klyshko_ratio, cfg, ratio)


def visibility_eta(config: ExperimentConfig, rows: Curve, fit: CurveFit) -> ValueWithError:
    """The visibility route: the eta_idler at which the model's singles
    visibility, at the angles and sigmas of the curve ``rows``, meets ``fit``'s."""
    points = [CurvePoint(*row[:3]) for row in rows]
    measured = ValueWithError(fit.visibility_v, fit.sigma_visibility)
    return invert_eta(lambda c: singles_visibility(c, points), config, measured)


# A runner returns its report sections after [config] and its in-memory
# artifacts; a scan's are its "runs" and their "curve" rows.
_RunnerOutput = tuple[list[Section], dict]


def _run_polarizer_scan(scenario: Scenario) -> _RunnerOutput:
    from .simulation import scan

    runs = scan(scenario.config, "polarizer_theta", list(scenario.sweep))
    rows = curve_rows(scenario.sweep, runs, scenario.config.duration)
    sections, singles, coincidences = _fit_sections(rows)
    return sections, {
        "runs": runs, "curve": rows, "singles_fit": singles, "coincidence_fit": coincidences,
    }


def _run_delay_scan(scenario: Scenario) -> _RunnerOutput:
    from .simulation import find_rotation_edge, scan

    config = scenario.config
    runs = scan(config, "t_electronic", list(scenario.sweep))
    rows = curve_rows(scenario.sweep, runs, config.duration)
    delays = [row[0] for row in rows]
    fractions = [run.rotated_fraction for run in runs]
    points = [
        ("n_points", len(runs)),
        ("theta_rad", config.polarizer_theta),
        ("delays_s", delays),
        ("rotated_fractions", fractions),
    ]
    edge = None
    # the falling edge between neighbouring delays; the sweep may come in any order
    by_delay = sorted(zip(delays, fractions), key=lambda pair: pair[0])
    bracket = next(
        (
            (low, high)
            for (low, above), (high, below) in zip(by_delay, by_delay[1:])
            if low < high and above >= 0.5 > below
        ),
        None,
    )
    if bracket is None:
        found = [("found", False)]
    else:
        try:
            edge = find_rotation_edge(config, *bracket)
        except DataError as exc:
            # fresh runs at the bracket ends did not confirm the crossing
            found = [("found", False), ("edge_error", str(exc))]
        else:
            found = [
                ("found", True),
                ("bracket_low_s", bracket[0]),
                ("bracket_high_s", bracket[1]),
                ("delay_s", edge),
            ]
    sections = [("scan", points), ("edge", found)]
    return sections, {"runs": runs, "curve": rows, "edge": edge}


def _run_calibrate(scenario: Scenario) -> _RunnerOutput:
    """The polarizer scan and the Klyshko coincidence run, each read as eta by
    inverting its model, and the scan's visibility corrected by the paper's
    hand steps, :func:`visibility_steps`."""
    config = scenario.config
    sections, artifacts = _run_polarizer_scan(scenario)
    fit = artifacts["singles_fit"]
    v_raw, sigma_raw = fit.visibility_v, fit.sigma_visibility
    corrected = correct_visibility(v_raw, sigma_raw, visibility_steps(config))
    eta_visibility = visibility_eta(config, artifacts["curve"], fit)
    klyshko, eta_klyshko = run_klyshko(config)
    sections.append(("calibration", [
        ("v_raw", v_raw, sigma_raw),
        *((name, v.value, v.sigma) for name, v in corrected),
        ("eta_visibility", eta_visibility.value, eta_visibility.sigma),
        ("eta_klyshko", eta_klyshko.value, eta_klyshko.sigma),
        ("background_fraction_used", expected_background_fraction(config)),
        ("cell_failure_prob_used", config.cell_fail_prob),
        ("klyshko_coincidences", klyshko.coincidences),
        ("klyshko_singles_d2", klyshko.singles_d2),
    ]))
    return sections, {**artifacts, "eta_visibility": eta_visibility, "eta_klyshko": eta_klyshko}


def _run_property_oracle(scenario: Scenario) -> _RunnerOutput:
    from .simulation import child_config, sampling_soundness

    config, checks, rows = scenario.config, [], []
    for i, theta in enumerate(scenario.sweep):
        check = sampling_soundness(child_config(config, f"oracle:{i}", polarizer_theta=theta))
        checks.append(check)
        rows += [
            (f"theta_{i}_rad", check.theta),
            (f"counts_{i}", check.counts.ravel().tolist()),
            (f"expected_{i}", check.expected.ravel().tolist()),
            (f"chi2_{i}", check.chi2),
            (f"p_value_{i}", check.p_value),
        ]
    return [("oracle", rows)], {"checks": checks}


_RUNNERS = {
    "polarizer-scan": _run_polarizer_scan,
    "delay-scan": _run_delay_scan,
    "calibrate": _run_calibrate,
    "property-oracle": _run_property_oracle,
}

# The canned scenarios, scenarios/NAME.cfg with their golden files under
# results/NAME/, in run order; each command's last word is its kind.
GOLDEN_COMMANDS = (
    ("fig2", ("simulate", "polarizer-scan")),
    ("fig3", ("simulate", "polarizer-scan")),
    ("fig4", ("simulate", "delay-scan")),
    ("calib", ("calibrate",)),
    ("oracle", ("simulate", "property-oracle")),
)


def run_scenario(scenario: Scenario) -> dict:
    """Execute a scenario and, when an output directory is set, write

    ``curve.csv`` (scan kinds and calibrate) and ``report.txt``.  Returns the
    in-memory artifacts keyed by name.  The output directory is made before
    the runner draws, so a bad path fails first; a runner that raises takes
    the directories made here away again.
    """
    out = scenario.out_dir
    made: list[Path] = []  # innermost first
    if out is not None:
        made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
        out.mkdir(parents=True, exist_ok=True)
    try:
        sections, artifacts = _RUNNERS[scenario.kind](scenario)
    except BaseException:
        for directory in made:
            directory.rmdir()
        raise
    if out is not None:
        if "curve" in artifacts:
            # calibrate writes its polarizer scan
            curve_kind = "delay-scan" if scenario.kind == "delay-scan" else "polarizer-scan"
            write_curve_file(out / "curve.csv", curve_kind, artifacts["curve"], scenario.config)
            artifacts["curve_path"] = out / "curve.csv"
        report = [
            "# biphoton feed-forward report",
            f"schema_version = {SCHEMA_VERSION}",
            f"kind = {scenario.kind}",
            f"seed = {scenario.config.seed}",
            "",
            *render_sections([("config", _config_rows(scenario.config)), *sections]),
        ]
        _write_report(out / "report.txt", report)
        artifacts["report_path"] = out / "report.txt"
    return artifacts


# ---------------------------------------------------------------------------
# command handlers


def _cmd_run(args: argparse.Namespace) -> int:
    """Load, seed, build and run the scenario named by ``args``; list its files
    and print its headline estimates (``simulate`` and ``calibrate``)."""
    config, extras = load_config_file(args.config)
    if args.seed is not None:
        # parsed and range-checked as the config's own seed
        config = replace(config, seed=_parse_int(args.seed, "seed"))
    scenario = build_scenario(args.kind, config, extras, out_dir=Path(args.out))
    artifacts = run_scenario(scenario)
    for key in ("curve_path", "report_path"):
        if key in artifacts:
            print(f"wrote {artifacts[key]}")
    if args.kind == "polarizer-scan":
        fit = artifacts["singles_fit"]
        print(
            f"singles fit: visibility = {fit.visibility_v:.4f} "
            f"+/- {fit.sigma_visibility:.4f}, theta0 = {fit.phase_theta0:.4f} rad"
        )
    elif args.kind == "delay-scan" and artifacts["edge"] is not None:
        print(f"rotation edge at {artifacts['edge'] * 1e9:.2f} ns")
    elif args.kind == "calibrate":
        print(f"eta (visibility route) = {artifacts['eta_visibility']}")
        print(f"eta (coincidence route) = {artifacts['eta_klyshko']}")
    return 0


def _cmd_analyze_fit(args: argparse.Namespace) -> int:
    meta, rows = read_curve_file(args.curve)
    if meta.get("kind") == "delay-scan":
        raise FitError("delay-scan curves have no harmonic model to fit")
    print("\n".join(render_sections(_fit_sections(rows)[0])))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton-sim",
        description="Simulate and analyse the feed-forward polarization purification bench.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (config schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_args = argparse.ArgumentParser(add_help=False)
    scenario_args.add_argument("--config", required=True)
    scenario_args.add_argument("--out", required=True)
    scenario_args.add_argument("--seed", default=None)
    scenario_args.set_defaults(handler=_cmd_run)

    simulate = sub.add_parser(
        "simulate", parents=[scenario_args], help="run a scan scenario"
    )
    simulate.add_argument("kind", choices=[kind for kind in _RUNNERS if kind != "calibrate"])

    calibrate = sub.add_parser(
        "calibrate", parents=[scenario_args], help="estimate the trigger efficiency"
    )
    calibrate.set_defaults(kind="calibrate")

    analyze = sub.add_parser("analyze", help="re-analyse written curve files")
    analyze_sub = analyze.add_subparsers(dest="analyze_command", required=True)
    fit = analyze_sub.add_parser("fit")
    fit.add_argument("--curve", required=True)
    fit.set_defaults(handler=_cmd_analyze_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    except (FitError, DataError, InconsistencyError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4


def run() -> NoReturn:
    """Process entry of ``biphoton-sim`` and ``python -m biphoton_feedforward``.

    Runs ``main()`` with the collector off, since a run makes no cyclic
    garbage, and exits with its code, or argparse's own for ``--version``,
    ``--help`` and usage errors, after freezing the heap.  ``main()`` neither
    disables nor freezes, so it stays safe to call in-process many times.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        # The interpreter's final collection runs even with the collector
        # disabled, and skips frozen objects, so numpy's and the package's
        # module cycles are not torn down one by one.  Safe: every output
        # file is closed before main() returns (Path.write_text), and the
        # interpreter still flushes stdout and stderr and runs atexit; only
        # finalizers of objects in cycles are lost.
        gc.freeze()
