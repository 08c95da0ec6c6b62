"""Command-line front end: config files, canned scenarios, curve/report files.

Config files are flat ``key = value`` text with ``#`` comments.  Times accept
an optional unit suffix (s, ms, us, ns), angles accept deg or rad (default
radians).  ``angle_reference = horizontal`` declares that the file's angles
are measured from the horizontal axis; they are translated onto the
package-internal from-vertical convention at this boundary and everything
downstream (curve files, reports) is expressed in internal units.

Output files carry no timestamps and render every float with 17 significant
digits, so reruns with the same config and seed are byte-identical and
curve files round-trip exactly through ``analyze fit``.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CalibrationReport,
    CurveFit,
    CurvePoint,
    DataError,
    FitError,
    InconsistencyError,
    ValueWithError,
    accidental_coincidences,
    correct_visibility,
    fit_visibility,
    klyshko_efficiency,
)
from .simulation import (
    MAX_EXPECTED_EVENTS,
    ConfigError,
    ExperimentConfig,
    ScanPoint,
    SimulationError,
    delay_scan,
    derive_seed,
    find_rotation_edge,
    polarizer_scan,
    sampling_soundness,
    simulate_run,
)

SCHEMA_VERSION = 2

_SCENARIO_KINDS = ("polarizer-scan", "delay-scan", "calibrate", "property-oracle")

_TIME_UNITS = {"": 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_ANGLE_UNITS = {"": 1.0, "rad": 1.0, "deg": math.pi / 180.0}

_TIME_KEYS = (
    "duration",
    "t_fiber",
    "t_electronic",
    "t0_internal",
    "pulse_rise",
    "pulse_flat",
    "cell_dead_time",
    "coincidence_window",
    "detector_dead_time_d1",
    "detector_dead_time_d2",
)
_FLOAT_KEYS = (
    "pair_rate",
    "dark_rate_idler",
    "dark_rate_signal",
    "background_rate_signal",
    "eta_idler",
    "eta_signal",
    "cell_fail_prob",
)

_SCAN_KEYS = ("scan_start", "scan_stop", "scan_points", "scan_values", "samples")

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


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r} for {key}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer {text!r} for {key}") from exc


def parse_config_text(text: str) -> tuple[ExperimentConfig, dict[str, str]]:
    """Parse flat key-value config text.

    Returns the experiment config plus the scenario extras (scan bounds,
    sample count, angle reference) left as raw strings; their units depend
    on the scenario kind and are resolved in :func:`build_scenario`.
    """
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

    reference = raw.pop("angle_reference", "vertical")
    if reference not in ("vertical", "horizontal"):
        raise ConfigError(f"angle_reference must be vertical or horizontal, got {reference!r}")

    extras: dict[str, str] = {"angle_reference": reference}
    values: dict[str, object] = {}
    for key, text_value in raw.items():
        if key in _SCAN_KEYS:
            extras[key] = text_value
        elif key in _TIME_KEYS:
            values[key] = parse_time(text_value)
        elif key in _FLOAT_KEYS:
            values[key] = _parse_float(text_value, key)
        elif key == "polarizer_theta":
            values[key] = _from_reference(parse_angle(text_value), reference)
        elif key == "coincidence_offset":
            values[key] = None if text_value.lower() == "auto" else parse_time(text_value)
        elif key == "cell_enabled":
            values[key] = _parse_bool(text_value, key)
        elif key == "seed":
            values[key] = _parse_int(text_value, key)
        elif key == "dead_time_mode":
            values[key] = text_value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**values), extras


def load_config_file(path: str | Path) -> tuple[ExperimentConfig, dict[str, str]]:
    return parse_config_text(Path(path).read_text(encoding="ascii"))


def _from_reference(angle: float, reference: str) -> float:
    """Translate a file angle onto the internal from-vertical convention."""
    return angle if reference == "vertical" else math.pi / 2.0 - angle


_DEFAULT_ANGLES = tuple(np.linspace(0.0, math.pi, 13, endpoint=False))
_DEFAULT_DELAYS = tuple(np.linspace(0.0, 200e-9, 21))
_DEFAULT_ORACLE_ANGLES = (0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 2.0)

# Bisection tolerance of the delay scan's rotation edge.
_EDGE_TOLERANCE = 0.5e-9

# Largest expected number of events (or oracle samples) that one command
# draws over all its runs: ~2 minutes at ~8 M events/s, and room for a
# 13-point scan at the per-run limit.
_COMMAND_BUDGET = 50 * MAX_EXPECTED_EVENTS

# Each run or oracle angle also counts this many events for its fixed cost:
# a run that draws nothing still takes ~0.5 ms, the time of ~4 k events, and
# its scan point keeps ~1.3 kB, so the budget bounds the points of a scan
# at any rate (10^5 points at zero rate).
_RUN_OVERHEAD_EVENTS = 1e4


def _command_events(
    kind: str, config: ExperimentConfig, n_points: int, widest_gap: float, samples: int
) -> float:
    """Expected events (oracle: samples) that a scenario draws over all its runs.

    A delay scan adds the edge bisection: two bracket checks, then one run
    per halving of its widest possible bracket (the widest gap between
    neighbouring delays) down to the tolerance.
    """
    if kind == "property-oracle":
        return n_points * (samples + _RUN_OVERHEAD_EVENTS)
    runs = n_points
    if kind == "calibrate":
        runs += 1  # the Klyshko run
    elif kind == "delay-scan" and n_points > 1:
        runs += 2
        width = widest_gap
        while width > _EDGE_TOLERANCE:
            width /= 2.0
            runs += 1
    return runs * (config.expected_events + _RUN_OVERHEAD_EVENTS)


@dataclass(frozen=True)
class Scenario:
    """A runnable scenario: what to sweep, with which config, written where."""

    kind: str
    config: ExperimentConfig
    sweep: tuple[float, ...]
    samples: int = 100000
    out_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.samples <= 0:
            raise ConfigError("samples must be positive")
        if self.samples > MAX_EXPECTED_EVENTS:
            raise ConfigError(
                f"samples = {self.samples} exceed the budget of {MAX_EXPECTED_EVENTS:.3g} "
                "draws per angle"
            )
        if len(self.sweep) == 0:
            raise ConfigError("scenario sweep must not be empty")


def build_scenario(
    kind: str,
    config: ExperimentConfig,
    extras: dict[str, str],
    out_dir: Path | None = None,
    points: list[str] | None = None,
) -> Scenario:
    """Assemble a scenario from a parsed config, its extras and CLI overrides."""
    reference = extras.get("angle_reference", "vertical")
    angle_sweep = kind in ("polarizer-scan", "calibrate", "property-oracle")
    parse_value = parse_angle if angle_sweep else parse_time

    sweep: tuple[float, ...] | None = None  # None: the scan range below
    if points:
        sweep = tuple(parse_value(p) for p in points)
    elif "scan_values" in extras:
        sweep = tuple(
            parse_value(part.strip())
            for part in extras["scan_values"].split(",")
            if part.strip()
        )
    elif "scan_start" in extras or "scan_stop" in extras or "scan_points" in extras:
        missing = [
            k for k in ("scan_start", "scan_stop", "scan_points") if k not in extras
        ]
        if missing:
            raise ConfigError(f"incomplete scan range, missing {missing}")
        start = parse_value(extras["scan_start"])
        stop = parse_value(extras["scan_stop"])
        n = _parse_int(extras["scan_points"], "scan_points")
        if n < 1:
            raise ConfigError("scan_points must be at least 1")
    elif kind == "delay-scan":
        sweep = _DEFAULT_DELAYS
    elif kind == "property-oracle":
        sweep = _DEFAULT_ORACLE_ANGLES
    else:
        sweep = _DEFAULT_ANGLES
    samples = _parse_int(extras.get("samples", "100000"), "samples")

    # the whole command is checked before the range is built or any event drawn
    if sweep is None:
        n_points, widest_gap = n, abs(stop - start) / n
    else:
        n_points = len(sweep)
        widest_gap = max((abs(b - a) for a, b in zip(sweep, sweep[1:])), default=0.0)
    if not math.isfinite(widest_gap):
        raise ConfigError("neighbouring sweep values lie farther apart than the largest float")
    events = _command_events(kind, config, n_points, widest_gap, samples)
    if events > _COMMAND_BUDGET:
        raise ConfigError(
            f"expected {events:.3g} events over the {kind} command exceed the budget "
            f"of {_COMMAND_BUDGET:.3g}; use fewer points, shorter runs or lower rates"
        )
    if sweep is None:
        # Half-open range: stop is excluded, matching a full period scan.
        sweep = tuple(np.linspace(start, stop, n, endpoint=False))
    if angle_sweep:
        sweep = tuple(_from_reference(v, reference) for v in sweep)

    return Scenario(kind=kind, config=config, sweep=sweep, samples=samples, out_dir=out_dir)


# ---------------------------------------------------------------------------
# deterministic rendering


def fmt(value: object) -> str:
    """Render a value for config echoes and reports (floats at 17 digits)."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _config_lines(config: ExperimentConfig) -> list[str]:
    return [f"{f.name} = {fmt(getattr(config, f.name))}" for f in fields(config)]


def _fit_section(
    label: str, rows: np.ndarray, rate_col: int, sigma_col: int
) -> tuple[list[str], CurveFit | FitError]:
    """Fit-section lines for one curve, and the fit they render or its error.

    The lines are identical for in-process and reread data.
    """
    lines = [f"[{label}]"]
    try:
        fit = fit_visibility(
            [
                CurvePoint(float(r[0]), float(r[rate_col]), float(r[sigma_col]))
                for r in rows
            ]
        )
    except FitError as exc:
        lines.append(f"fit_error = {exc}")
        return lines, exc
    lines += [
        f"n_points = {rows.shape[0]}",
        f"mean_a = {fmt(fit.mean_a)}",
        f"sigma_mean_a = {fmt(fit.sigma_mean)}",
        f"visibility = {fmt(fit.visibility_v)}",
        f"sigma_visibility = {fmt(fit.sigma_visibility)}",
        f"theta0_rad = {fmt(fit.phase_theta0)}",
        f"sigma_theta0_rad = {fmt(fit.sigma_theta0)}",
        f"chi2_reduced = {fmt(fit.chi2_reduced)}",
        "covariance = " + ",".join(fmt(v) for v in fit.covariance.ravel()),
    ]
    return lines, fit


def _fit_sections(
    rows: np.ndarray,
) -> tuple[list[str], CurveFit | FitError, CurveFit | FitError]:
    """The [fit_singles] and [fit_coincidences] sections of a curve, with both fits."""
    singles_lines, singles = _fit_section("fit_singles", rows, 1, 2)
    coincidence_lines, coincidences = _fit_section("fit_coincidences", rows, 3, 4)
    return [*singles_lines, "", *coincidence_lines], singles, coincidences


def _points_to_rows(points: list[ScanPoint]) -> np.ndarray:
    return np.array(
        [
            [p.x, p.rate_d2, p.sigma_d2, p.rate_coincidence, p.sigma_coincidence]
            for p in points
        ],
        dtype=float,
    )


def write_curve_file(
    path: Path, kind: str, points: list[ScanPoint], config: ExperimentConfig
) -> None:
    x_unit = "s" if kind == "delay-scan" else "rad"
    lines = [
        "# biphoton feed-forward curve",
        f"# schema_version = {SCHEMA_VERSION}",
        f"# kind = {kind}",
        f"# x_unit = {x_unit}",
        f"# seed = {config.seed}",
    ]
    lines += [f"# config: {line}" for line in _config_lines(config)]
    lines.append(
        "# columns: x, rate_d2, sigma_rate_d2, rate_coincidence, sigma_rate_coincidence"
    )
    for row in _points_to_rows(points):
        lines.append(",".join(fmt(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def read_curve_file(path: str | Path) -> tuple[dict[str, str], np.ndarray]:
    """Read back a curve file into its metadata and an (n, 5) float array."""
    meta: dict[str, str] = {}
    rows: list[list[float]] = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
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
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise DataError(f"curve row {line!r} has a non-numeric cell") from exc
        if not all(math.isfinite(v) for v in row):
            raise DataError(f"curve row {line!r} has a non-finite cell")
        if min(row[1:]) < 0.0:
            raise DataError(f"curve row {line!r} has a negative rate or sigma")
        rows.append(row)
    if not rows:
        raise DataError(f"no data rows in curve file {path}")
    return meta, np.array(rows, dtype=float)


def _write_report(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _report_header(kind: str, config: ExperimentConfig) -> list[str]:
    return [
        "# biphoton feed-forward report",
        f"schema_version = {SCHEMA_VERSION}",
        f"kind = {kind}",
        f"seed = {config.seed}",
        "",
        "[config]",
        *_config_lines(config),
    ]


# ---------------------------------------------------------------------------
# scenario execution


def expected_background_fraction(config: ExperimentConfig) -> float:
    """Analytic unpolarized share of the mean D2 counts for this config.

    The mean pair-photon click rate over a uniform angle scan is
    pair_rate / 2 times the detector efficiency; dark counts enter directly
    and background light passes the polarizer half the time.
    """
    signal_rate = config.pair_rate * 0.5 * config.eta_signal
    noise_rate = (
        config.dark_rate_signal
        + config.background_rate_signal * 0.5 * config.eta_signal
    )
    total = signal_rate + noise_rate
    return noise_rate / total if total > 0.0 else 0.0


def run_klyshko(config: ExperimentConfig):
    """Absolute trigger-efficiency run: cell off, signal polarizer on H.

    With the idler analysed on V, the conjugate signal ensemble is exactly
    the horizontal one, so selecting H at D2 makes every D2 photon click the
    partner of a potential D1 click and the coincidence-to-singles ratio
    estimates the D1 efficiency alone.
    """
    cfg = replace(
        config,
        cell_enabled=False,
        polarizer_theta=math.pi / 2.0,
        seed=derive_seed(config.seed, "klyshko"),
    )
    result = simulate_run(cfg)
    rate_1 = result.singles_d1 / cfg.duration
    rate_2 = result.singles_d2 / cfg.duration
    accidentals = accidental_coincidences(
        rate_1, rate_2, cfg.coincidence_window, cfg.duration
    )
    eta = klyshko_efficiency(result.coincidences, result.singles_d2, accidentals)
    return result, accidentals, eta


def build_calibration_report(
    fit: CurveFit,
    config: ExperimentConfig,
    klyshko_counts: tuple[int, int],
    accidentals: float,
    eta_klyshko: ValueWithError,
) -> CalibrationReport:
    background = expected_background_fraction(config)
    failure = config.cell_fail_prob
    v_raw = ValueWithError(fit.visibility_v, fit.sigma_visibility)
    v_bg = correct_visibility(v_raw.value, v_raw.sigma, background, 0.0)
    v_cell = correct_visibility(v_raw.value, v_raw.sigma, background, failure)
    return CalibrationReport(
        v_raw=v_raw,
        v_background_corrected=v_bg,
        v_cell_corrected=v_cell,
        eta_visibility=v_cell,
        eta_klyshko=eta_klyshko,
        inputs={
            "background_fraction": background,
            "cell_failure_prob": failure,
            "klyshko_coincidences": klyshko_counts[0],
            "klyshko_singles_d2": klyshko_counts[1],
            "klyshko_accidentals": accidentals,
        },
    )


# A runner returns its report body (the sections after the header), its
# curve as (curve-file kind, points) or None, and its in-memory artifacts.
_RunnerOutput = tuple[list[str], tuple[str, list[ScanPoint]] | None, dict]


def _run_polarizer_scan(scenario: Scenario, n_workers: int) -> _RunnerOutput:
    points = polarizer_scan(scenario.config, list(scenario.sweep), n_workers=n_workers)
    body, singles, coincidences = _fit_sections(_points_to_rows(points))
    if isinstance(singles, FitError):
        # a scan needs its singles fit, so it writes no files
        raise singles
    return body, ("polarizer-scan", points), {
        "points": points,
        "singles_fit": singles,
        "coincidence_fit": coincidences,
    }


def _run_delay_scan(scenario: Scenario, n_workers: int) -> _RunnerOutput:
    config = scenario.config
    points = delay_scan(config, list(scenario.sweep), n_workers=n_workers)
    fractions = [p.result.rotated_fraction for p in points]
    body = [
        "[scan]",
        f"n_points = {len(points)}",
        f"theta_rad = {fmt(config.polarizer_theta)}",
        "delays_s = " + ",".join(fmt(p.x) for p in points),
        "rotated_fractions = " + ",".join(fmt(f) for f in fractions),
        "",
        "[edge]",
    ]
    edge = None
    bracket = next(
        (
            (points[i].x, points[i + 1].x)
            for i in range(len(points) - 1)
            if fractions[i] >= 0.5 > fractions[i + 1]
        ),
        None,
    )
    if bracket is None:
        body.append("found = false")
    else:
        edge = find_rotation_edge(config, bracket[0], bracket[1], tolerance=_EDGE_TOLERANCE)
        body += [
            "found = true",
            f"bracket_low_s = {fmt(bracket[0])}",
            f"bracket_high_s = {fmt(bracket[1])}",
            f"delay_s = {fmt(edge)}",
        ]
    return body, ("delay-scan", points), {"points": points, "edge": edge}


def _run_calibrate(scenario: Scenario, n_workers: int) -> _RunnerOutput:
    config = scenario.config
    body, curve, artifacts = _run_polarizer_scan(scenario, n_workers)
    klyshko_result, accidentals, eta_k = run_klyshko(config)
    calibration = build_calibration_report(
        artifacts["singles_fit"],
        config,
        (klyshko_result.coincidences, klyshko_result.singles_d2),
        accidentals,
        eta_k,
    )
    body += [
        "",
        "[calibration]",
        f"v_raw = {fmt(calibration.v_raw.value)}",
        f"sigma_v_raw = {fmt(calibration.v_raw.sigma)}",
        f"v_background_corrected = {fmt(calibration.v_background_corrected.value)}",
        f"sigma_v_background_corrected = {fmt(calibration.v_background_corrected.sigma)}",
        f"v_cell_corrected = {fmt(calibration.v_cell_corrected.value)}",
        f"sigma_v_cell_corrected = {fmt(calibration.v_cell_corrected.sigma)}",
        f"eta_visibility = {fmt(calibration.eta_visibility.value)}",
        f"sigma_eta_visibility = {fmt(calibration.eta_visibility.sigma)}",
        f"eta_klyshko = {fmt(calibration.eta_klyshko.value)}",
        f"sigma_eta_klyshko = {fmt(calibration.eta_klyshko.sigma)}",
        f"background_fraction_used = {fmt(calibration.inputs['background_fraction'])}",
        f"cell_failure_prob_used = {fmt(calibration.inputs['cell_failure_prob'])}",
        f"klyshko_coincidences = {calibration.inputs['klyshko_coincidences']}",
        f"klyshko_singles_d2 = {calibration.inputs['klyshko_singles_d2']}",
        f"klyshko_accidentals = {fmt(calibration.inputs['klyshko_accidentals'])}",
    ]
    return body, curve, {**artifacts, "calibration": calibration}


def _run_property_oracle(scenario: Scenario, n_workers: int) -> _RunnerOutput:
    seed = scenario.config.seed
    checks = [
        sampling_soundness(theta, scenario.samples, derive_seed(seed, f"oracle:{i}"))
        for i, theta in enumerate(scenario.sweep)
    ]
    body = ["[oracle]", f"samples = {scenario.samples}"]
    for i, check in enumerate(checks):
        body += [
            f"theta_{i}_rad = {fmt(check.theta)}",
            f"counts_{i} = " + ",".join(str(int(v)) for v in check.counts.ravel()),
            f"expected_{i} = " + ",".join(fmt(float(v)) for v in check.expected.ravel()),
            f"chi2_{i} = {fmt(check.chi2)}",
            f"p_value_{i} = {fmt(check.p_value)}",
        ]
    return body, None, {"checks": checks}


_RUNNERS = {
    "polarizer-scan": _run_polarizer_scan,
    "delay-scan": _run_delay_scan,
    "calibrate": _run_calibrate,
    "property-oracle": _run_property_oracle,
}


def run_scenario(scenario: Scenario, n_workers: int = 1) -> dict:
    """Execute a scenario and, when an output directory is set, write

    ``curve.csv`` (scan kinds and calibrate) and ``report.txt``.  Returns the
    in-memory artifacts keyed by name.
    """
    out = scenario.out_dir
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    body, curve, artifacts = _RUNNERS[scenario.kind](scenario, n_workers)
    artifacts = {"kind": scenario.kind, **artifacts}
    if out is not None:
        if curve is not None:
            curve_kind, points = curve
            write_curve_file(out / "curve.csv", curve_kind, points, scenario.config)
            artifacts["curve_path"] = out / "curve.csv"
        report = [*_report_header(scenario.kind, scenario.config), "", *body]
        _write_report(out / "report.txt", report)
        artifacts["report_path"] = out / "report.txt"
    return artifacts


# ---------------------------------------------------------------------------
# command handlers


def _run_command(args: argparse.Namespace) -> dict:
    """Load, seed, build and run the scenario named by ``args``; list its files."""
    config, extras = load_config_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    scenario = build_scenario(
        args.kind, config, extras, out_dir=Path(args.out), points=args.points
    )
    artifacts = run_scenario(scenario, n_workers=args.workers)
    for key in ("curve_path", "report_path"):
        if key in artifacts:
            print(f"wrote {artifacts[key]}")
    return artifacts


def _cmd_simulate(args: argparse.Namespace) -> int:
    artifacts = _run_command(args)
    if args.kind == "polarizer-scan":
        fit = artifacts["singles_fit"]
        print(
            f"singles fit: visibility = {fit.visibility_v:.4f} "
            f"+/- {fit.sigma_visibility:.4f}, theta0 = {fit.phase_theta0:.4f} rad"
        )
    elif args.kind == "delay-scan" and artifacts["edge"] is not None:
        print(f"rotation edge at {artifacts['edge'] * 1e9:.2f} ns")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    calibration = _run_command(args)["calibration"]
    print(f"eta (visibility route) = {calibration.eta_visibility}")
    print(f"eta (coincidence route) = {calibration.eta_klyshko}")
    return 0


def _cmd_analyze_fit(args: argparse.Namespace) -> int:
    meta, rows = read_curve_file(args.curve)
    if meta.get("kind") == "delay-scan":
        raise FitError("delay-scan curves have no harmonic model to fit")
    lines, singles, _ = _fit_sections(rows)
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="ascii")
    # The text records a failed fit inline; a failed singles fit also fails
    # the command.
    if isinstance(singles, FitError):
        raise singles
    return 0


def _seed_arg(text: str) -> int:
    value = int(text, 0)
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError("seed must be a 64-bit non-negative integer")
    return value


def _workers_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {value}")
    return value


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

    simulate = sub.add_parser("simulate", help="run a scan scenario")
    simulate.add_argument(
        "kind", choices=("polarizer-scan", "delay-scan", "property-oracle")
    )
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", required=True)
    simulate.add_argument("--seed", type=_seed_arg, default=None)
    simulate.add_argument(
        "--points",
        nargs="+",
        default=None,
        help="override sweep values (angles like '30 deg' or delays like '50 ns')",
    )
    simulate.add_argument("--workers", type=_workers_arg, default=1)
    simulate.set_defaults(handler=_cmd_simulate)

    calibrate = sub.add_parser("calibrate", help="estimate the trigger efficiency")
    calibrate.add_argument("--config", required=True)
    calibrate.add_argument("--out", required=True)
    calibrate.add_argument("--seed", type=_seed_arg, default=None)
    calibrate.add_argument("--workers", type=_workers_arg, default=1)
    calibrate.set_defaults(handler=_cmd_calibrate, kind="calibrate", points=None)

    analyze = sub.add_parser("analyze", help="re-analyse written curve files")
    analyze_sub = analyze.add_subparsers(dest="analyze_command", required=True)
    fit = analyze_sub.add_parser("fit")
    fit.add_argument("--curve", required=True)
    fit.add_argument("--out", default=None)
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
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    except (FitError, DataError, InconsistencyError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
