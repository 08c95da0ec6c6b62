"""Workload definitions and the correctness gate applied to every unit.

Engine workloads call ``simulate_run`` back to back on about 1.8 M pairs
per unit.  The CLI workload runs the five canned scenarios and then
``analyze fit`` on the three fitted curves, one ``biphoton-sim`` invocation
per unit.  Inputs derive only from the workload name and ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent

ENGINE_WORKLOADS = {
    # fig2 rates with every noise channel on: trigger blocking ratio
    # x = r q busy ~ 0.08 and D2 dead-time ratio ~ 0.007, so conflicts are rare.
    "engine-bench": {
        "pair_rate": 181479.0,
        "duration": 10.0,
        "background_rate_signal": 45e3,
        "dark_rate_idler": 1e3,
        "dark_rate_signal": 1e3,
        "detector_dead_time_d1": 50e-9,
        "detector_dead_time_d2": 50e-9,
        "cell_fail_prob": 0.15,
    },
    # Same pair count per unit: a paralyzable cell at x = r busy ~ 1 and
    # ~1.5 M D2 clicks/s against 50 ns, so most events sit in conflict clusters.
    "engine-saturated": {
        "pair_rate": 2e6,
        "duration": 0.9,
        "background_rate_signal": 0.8e6,
        "dark_rate_idler": 1e3,
        "dark_rate_signal": 1e3,
        "detector_dead_time_d1": 50e-9,
        "detector_dead_time_d2": 50e-9,
        "cell_fail_prob": 0.15,
        "dead_time_mode": "paralyzable",
    },
}
UNITS_PER_PASS = 4
# The fingerprinted unit uses the benchmark's default seed.
DEFAULT_SEED = 0
FINGERPRINT_FIELDS = (
    "singles_d1",
    "singles_d2",
    "coincidences",
    "triggers_accepted",
    "signals_rotated",
)
# Analytic checks accept deviations up to this many Poisson sigmas.
N_SIGMA = 5.0

CLI_WORKLOAD = "cli-golden"
SCENARIOS = (
    ("fig2", ("simulate", "polarizer-scan")),
    ("fig3", ("simulate", "polarizer-scan")),
    ("fig4", ("simulate", "delay-scan")),
    ("calib", ("calibrate",)),
    ("oracle", ("simulate", "property-oracle")),
)
FITTED = ("fig2", "fig3", "calib")
ETA_IDLER = 0.476  # eta_idler of scenarios/calib.cfg

WORKLOADS = (*ENGINE_WORKLOADS, CLI_WORKLOAD)


def unit_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Checks:
    """Counts every correctness check; failures are kept, never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def near(self, measured: float, expected: float, sigma: float, label: str) -> None:
        ok = abs(measured - expected) <= N_SIGMA * sigma
        self.check(ok, f"{label}: {measured} vs {expected} +/- {N_SIGMA} x {sigma:.4g}")


# ---------------------------------------------------------------------------
# engine units


def fingerprints() -> dict:
    return json.loads((HERE / "fingerprints.json").read_text(encoding="ascii"))


def fingerprint(result) -> dict:
    return {name: int(getattr(result, name)) for name in FINGERPRINT_FIELDS}


def check_engine_unit(checks: Checks, workload: str, config, result) -> None:
    """Analytic expectations for one unit: pairs, D1 singles and, for the
    non-paralyzable cell, the accepted triggers after x/(1+x) blocking."""
    n_pairs = config.pair_rate * config.duration
    checks.near(result.pairs_emitted, n_pairs, math.sqrt(n_pairs), f"{workload} pairs_emitted")

    r1 = config.pair_rate * 0.5 * config.eta_idler + config.dark_rate_idler
    d1 = r1 * config.duration / (1.0 + r1 * config.detector_dead_time_d1)
    checks.near(result.singles_d1, d1, math.sqrt(d1), f"{workload} singles_d1")

    if config.dead_time_mode == "nonparalyzable":
        busy = config.t_electronic + config.t0_internal + config.pulse_rise + config.cell_dead_time
        q = 1.0 - config.cell_fail_prob
        n = result.singles_d1
        x = n / config.duration * q * busy
        accepted = q * n / (1.0 + x)
        checks.near(
            result.triggers_accepted, accepted, math.sqrt(accepted), f"{workload} triggers_accepted"
        )


# ---------------------------------------------------------------------------
# CLI units


def cli_pass(out: str, seed: int | None) -> list[tuple[str, list[str]]]:
    """(label, argv) of the eight invocations of one pass, paths relative to the root."""
    seed_args = [] if seed is None else ["--seed", str(seed)]
    units = [
        (name, [*command, "--config", f"scenarios/{name}.cfg", "--out", f"{out}/{name}", *seed_args])
        for name, command in SCENARIOS
    ]
    units += [
        (f"fit-{name}", ["analyze", "fit", "--curve", f"{out}/{name}/curve.csv"]) for name in FITTED
    ]
    return units


def pass_seed(seed: int, index: int) -> int | None:
    """Pass 0 runs the scenario files' own seeds; later passes derive one."""
    return None if index == 0 else unit_seed(CLI_WORKLOAD, seed, index)


def _report_value(text: str, key: str) -> float:
    for line in text.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split("=", 1)[1])
    raise KeyError(key)


def _fit_sections(report: str) -> str:
    """The [fit_singles] and [fit_coincidences] sections of a report."""
    start = report.index("[fit_singles]")
    end = report.find("\n\n[calibration]", start)
    return report[start:] if end < 0 else report[start:end]


def check_cli_pass(
    checks: Checks, root: Path, out: str, seed: int | None, outcomes: list[tuple[str, int, str]]
) -> None:
    """Gate one pass given (label, exit code, stdout) per invocation."""
    for label, code, _ in outcomes:
        checks.check(code == 0, f"cli {label}: exit code {code}")
    out_dir = root / out
    for name, _ in SCENARIOS:
        report_path = out_dir / name / "report.txt"
        if seed is None:
            golden_dir = root / "results" / name
            golden = sorted(p.name for p in golden_dir.glob("*")) if golden_dir.is_dir() else []
            produced = sorted(p.name for p in (out_dir / name).glob("*"))
            checks.check(bool(golden) and produced == golden, f"cli {name}: files {produced} vs {golden}")
            for file_name in golden:
                same = (out_dir / name / file_name).is_file() and (
                    (out_dir / name / file_name).read_bytes()
                    == (golden_dir / file_name).read_bytes()
                )
                checks.check(same, f"cli {name}/{file_name}: differs from results/")
        else:
            text = report_path.read_text(encoding="ascii") if report_path.is_file() else ""
            checks.check(f"\nseed = {seed}\n" in text, f"cli {name}: report lacks seed {seed}")
    if seed is not None:
        calib = out_dir / "calib" / "report.txt"
        text = calib.read_text(encoding="ascii") if calib.is_file() else ""
        for route in ("eta_visibility", "eta_klyshko"):
            try:
                value = _report_value(text, route)
                sigma = _report_value(text, f"sigma_{route}")
            except KeyError:
                checks.check(False, f"cli calib: no {route} in report")
                continue
            checks.near(value, ETA_IDLER, sigma, f"cli calib {route}")
    stdouts = {label: stdout for label, _, stdout in outcomes}
    for name in FITTED:
        report_path = out_dir / name / "report.txt"
        try:
            expected = _fit_sections(report_path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            checks.check(False, f"cli fit-{name}: no fit sections in report")
            continue
        checks.check(
            stdouts.get(f"fit-{name}", "").strip() == expected.strip(),
            f"cli fit-{name}: analyze fit output differs from the report's fit sections",
        )


def nominal_pairs(root: Path) -> float:
    """Pairs a CLI pass simulates in its scans: pair_rate x duration x points.

    Helper runs (rotation-edge bisection, the coincidence-route run) are
    not counted, so this is a fixed measure of the pass's work.
    """
    from biphoton_feedforward.cli import build_scenario, load_config_file

    total = 0.0
    for name, command in SCENARIOS:
        if name == "oracle":
            continue
        config, extras = load_config_file(root / "scenarios" / f"{name}.cfg")
        kind = command[-1] if command[0] == "simulate" else "calibrate"
        scenario = build_scenario(kind, config, extras)
        total += config.pair_rate * config.duration * len(scenario.sweep)
    return total
