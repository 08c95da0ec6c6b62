"""Config parsing, scenario execution, file formats and exit codes."""

import contextlib
import gc
import importlib.util
import math
import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_feedforward import analysis, cli, simulation
from biphoton_feedforward.analysis import ConfigError, SimulationError, curve_rows
from biphoton_feedforward.cli import (
    GOLDEN_COMMANDS,
    Scenario,
    build_scenario,
    fmt,
    load_config_file,
    main,
    parse_angle,
    parse_config_text,
    parse_time,
    read_curve_file,
    render_sections,
    run_klyshko,
    run_scenario,
)
from biphoton_feedforward.simulation import ExperimentConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

FAST_RUN = """
pair_rate = 2e3
duration = 0.2
cell_dead_time = 102 ns
seed = 11
"""
FAST_CFG = FAST_RUN + "scan_start = 0 deg\nscan_stop = 180 deg\nscan_points = 9\n"


def _write_cfg(tmp_path, text=FAST_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


def _sweep_cfg(tmp_path, values, text=FAST_RUN, name="sweep.cfg"):
    """A config file of ``text`` that sweeps ``scan_values = values``."""
    return _write_cfg(tmp_path, f"{text}scan_values = {', '.join(values)}\n", name)


# ---------------------------------------------------------------------------
# value and config parsing


def test_parse_time_units():
    assert parse_time("2 us") == pytest.approx(2e-6)
    assert parse_time("100ns") == pytest.approx(1e-7)
    assert parse_time("3 ms") == pytest.approx(3e-3)
    assert parse_time("1.5") == pytest.approx(1.5)
    assert parse_time("1.5 s") == pytest.approx(1.5)
    with pytest.raises(ConfigError):
        parse_time("10 parsec")
    with pytest.raises(ConfigError):
        parse_time("fast")
    with pytest.raises(ConfigError, match="not finite"):
        parse_time("1e999 ns")


def test_parse_angle_units():
    assert parse_angle("90 deg") == pytest.approx(math.pi / 2.0)
    assert parse_angle("0.3 rad") == pytest.approx(0.3)
    assert parse_angle("0.3") == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        parse_angle("90 degz")


def test_parse_config_basics():
    config, extras = parse_config_text(
        "pair_rate = 1e4  # inline comment\n"
        "# full-line comment\n"
        "\n"
        "polarizer_theta = 45 deg\n"
        "cell_fail_prob = 1\n"
        "coincidence_offset = 250 ns\n"
        "seed = 0x10\n"
    )
    assert config.pair_rate == 1e4
    assert config.polarizer_theta == pytest.approx(math.pi / 4.0)
    assert config.cell_fail_prob == 1.0
    assert config.coincidence_offset == pytest.approx(250e-9)
    assert config.seed == 16
    assert extras == {}


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text("bogus_key = 1")
    with pytest.raises(ConfigError):
        parse_config_text("pair_rate = 1\npair_rate = 2")
    with pytest.raises(ConfigError):
        parse_config_text("pair_rate 1")
    with pytest.raises(ConfigError):
        parse_config_text("pair_rate =")
    with pytest.raises(ConfigError):
        parse_config_text("cell_fail_prob = maybe")
    with pytest.raises(ConfigError):
        parse_config_text("pair_rate = -5")  # rejected by the config itself


def test_every_config_field_parses_from_its_echo():
    # Each field is a time, a rate or a probability, or one of the keys the
    # parser names on its own.  The parser refuses any other key, so a new
    # field in none of them would break this round trip of every field.
    special = {"polarizer_theta", "coincidence_offset", "seed", "dead_time_mode"}
    kinds = simulation._TIME_FIELDS + simulation._RATE_FIELDS + simulation._PROBABILITY_FIELDS
    names = [f.name for f in fields(ExperimentConfig)]
    assert sorted([*kinds, *special]) == sorted(names)
    config = ExperimentConfig(
        pair_rate=2e3, duration=0.25, eta_idler=0.5, eta_signal=0.75, dark_rate_idler=3.0,
        dark_rate_signal=4.0, background_rate_signal=5.0, t_fiber=250e-9, t_electronic=10e-9,
        t0_internal=140e-9, pulse_rise=3e-9, pulse_flat=90e-9, cell_dead_time=1e-6,
        cell_fail_prob=0.25, coincidence_window=4e-9, coincidence_offset=-500e-9,
        polarizer_theta=0.3, dead_time_mode="paralyzable",
        detector_dead_time_d1=20e-9, detector_dead_time_d2=30e-9, seed=7,
    )
    default = ExperimentConfig()
    assert all(getattr(config, name) != getattr(default, name) for name in names)
    text = "\n".join(f"{name} = {fmt(getattr(config, name))}" for name in names)
    assert parse_config_text(text)[0] == config


def test_coincidence_offset_auto():
    config, _ = parse_config_text("coincidence_offset = auto")
    assert config.coincidence_offset is None


# ---------------------------------------------------------------------------
# scenario assembly


def test_scan_range_is_half_open():
    config, extras = parse_config_text(FAST_CFG)
    scenario = build_scenario("polarizer-scan", config, extras)
    assert len(scenario.sweep) == 9
    assert scenario.sweep[0] == pytest.approx(0.0)
    assert scenario.sweep[-1] == pytest.approx(math.pi * 8.0 / 9.0)
    # every value of a range, in degrees as written, each in radians
    text = "scan_start = 0 deg\nscan_stop = 180 deg\nscan_points = 4\n"
    config, extras = parse_config_text(text)
    scenario = build_scenario("polarizer-scan", config, extras)
    expected = (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0)
    assert scenario.sweep == pytest.approx(expected, abs=1e-12)


def test_scan_values_list():
    config, extras = parse_config_text("scan_values = 0 deg, 45 deg, 90 deg\n")
    scenario = build_scenario("polarizer-scan", config, extras)
    assert scenario.sweep == pytest.approx((0.0, math.pi / 4.0, math.pi / 2.0))


def test_delay_points_use_time_units():
    config, extras = parse_config_text("pair_rate = 1e3\nscan_values = 50 ns, 0.2 us")
    scenario = build_scenario("delay-scan", config, extras)
    assert scenario.sweep == pytest.approx((50e-9, 2e-7))


def test_incomplete_scan_range_rejected():
    config, extras = parse_config_text("scan_start = 0 deg\nscan_points = 5")
    with pytest.raises(ConfigError):
        build_scenario("polarizer-scan", config, extras)


def test_scenario_validation():
    config = ExperimentConfig()
    with pytest.raises(ConfigError):
        Scenario(kind="mystery-scan", config=config, sweep=(0.0,))
    with pytest.raises(ConfigError):
        Scenario(kind="polarizer-scan", config=config, sweep=())


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_floats_round_trip(x):
    assert float(fmt(x)) == x


# ---------------------------------------------------------------------------
# scenario execution and files


def test_polarizer_scan_writes_and_reruns_identically(tmp_path):
    # criterion 8 reruns every canned scenario against results/; this checks
    # what a scan writes against what it ran
    config, extras = load_config_file(_write_cfg(tmp_path))
    scenario = build_scenario("polarizer-scan", config, extras, out_dir=tmp_path / "a")
    first = run_scenario(scenario)

    meta, rows = read_curve_file(tmp_path / "a" / "curve.csv")
    assert meta["kind"] == "polarizer-scan"
    assert meta["x_unit"] == "rad"
    assert int(meta["seed"]) == config.seed
    # the file holds the in-memory curve, the rows of the scan's runs
    assert rows == first["curve"] == curve_rows(scenario.sweep, first["runs"], config.duration)

    text = (tmp_path / "a" / "report.txt").read_text()
    assert "[fit_singles]" in text and "[fit_coincidences]" in text
    assert "[config]" in text


def test_delay_scan_without_crossing_reports_not_found(tmp_path):
    # no fall across 1/2 between neighbouring delays, and a one-point range
    # has no neighbours
    for name, sweep in (
        ("values", "scan_values = 150 ns, 200 ns\n"),
        ("one-point", "scan_start = 0 ns\nscan_stop = 1 s\nscan_points = 1\n"),
    ):
        cfg_text = f"pair_rate = 1e3\nduration = 0.2\nseed = 13\n{sweep}"
        config, extras = load_config_file(_write_cfg(tmp_path, cfg_text))
        artifacts = run_scenario(
            build_scenario("delay-scan", config, extras, out_dir=tmp_path / name)
        )
        assert artifacts["edge"] is None
        assert "found = false" in (tmp_path / name / "report.txt").read_text()


@pytest.mark.parametrize("values, rotated, bracket", [
    # a rotated fraction of exactly 1/2 is above the edge: it brackets a fall
    # to 0, and a fall to it is no crossing
    pytest.param("50 ns, 150 ns", (1, 0), (50e-9, 150e-9), id="from-one-half"),
    pytest.param("50 ns, 150 ns", (2, 1), None, id="to-one-half"),
    # a repeated delay brackets nothing, whatever its two fractions
    pytest.param("50 ns, 50 ns", (2, 0), None, id="repeated-delay"),
])
def test_delay_scan_brackets_a_fall_below_one_half(monkeypatch, values, rotated, bracket):
    # each run detects two idlers, so its rotated fraction is rotated / 2
    brackets = []
    monkeypatch.setattr(simulation, "scan", lambda config, field, xs: [
        simulation.SimulationResult(0, 0, 0, 0, 2, 0, r) for r in rotated
    ])
    monkeypatch.setattr(
        simulation, "find_rotation_edge", lambda config, *ends: brackets.append(ends) or 1e-7
    )
    config, extras = parse_config_text(f"{FAST_RUN}scan_values = {values}\n")
    artifacts = run_scenario(build_scenario("delay-scan", config, extras))
    assert brackets == ([] if bracket is None else [pytest.approx(bracket)])
    assert artifacts["edge"] == (None if bracket is None else 1e-7)


# rotation for trigger delays in (150, 250] ns
LONG_FIBER_CFG = (
    "pair_rate = 2000\neta_idler = 1\nt_fiber = 400 ns\ncell_dead_time = 102 ns\n"
    "duration = 0.05\nseed = 3\n"
)


def _edge_section(out):
    report = (out / "report.txt").read_text()
    return report[report.index("[edge]"):]


def test_delay_scan_brackets_the_edge_in_delay_order(tmp_path, capsys):
    for name, points in (
        ("up", ["100 ns", "200 ns", "300 ns"]),
        ("down", ["300 ns", "200 ns", "100 ns"]),
    ):
        cfg = _sweep_cfg(tmp_path, points, LONG_FIBER_CFG, f"{name}.cfg")
        argv = ["simulate", "delay-scan", "--config", str(cfg), "--out", str(tmp_path / name)]
        assert main(argv) == 0
    edge = _edge_section(tmp_path / "down")
    assert edge == _edge_section(tmp_path / "up")
    values = dict(line.split(" = ") for line in edge.splitlines()[1:])
    assert values["found"] == "true"
    assert float(values["bracket_low_s"]) == pytest.approx(200e-9)
    assert float(values["bracket_high_s"]) == pytest.approx(300e-9)
    assert float(values["delay_s"]) == pytest.approx(250e-9, abs=1e-9)
    # the curve keeps the sweep order
    _, rows = read_curve_file(tmp_path / "down" / "curve.csv")
    assert [r[0] for r in rows] == pytest.approx([300e-9, 200e-9, 100e-9])
    capsys.readouterr()


def test_delay_scan_with_only_a_rising_edge_finds_none(tmp_path, capsys):
    # the sweep falls from 200 ns (rotated) to 100 ns (not): a rising edge
    cfg = _sweep_cfg(tmp_path, ["200 ns", "100 ns"], LONG_FIBER_CFG)
    out = tmp_path / "d"
    assert main(["simulate", "delay-scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert _edge_section(out) == "[edge]\nfound = false\n"
    capsys.readouterr()


def test_delay_scan_reports_an_unconfirmed_bracket(tmp_path, capsys):
    # A saturated cell rotates about half the heralded signals at every
    # delay, so noise brackets an edge that the two fresh bracket runs of
    # the bisection do not confirm.
    cfg = _write_cfg(
        tmp_path,
        "pair_rate = 2e7\ncell_dead_time = 102 ns\nduration = 0.5 ms\nseed = 2\n"
        "scan_start = 0 ns\nscan_stop = 90 ns\nscan_points = 10\n",
    )
    out = tmp_path / "d"
    assert main(["simulate", "delay-scan", "--config", str(cfg), "--out", str(out)]) == 0
    edge = _edge_section(out).splitlines()
    assert edge[:2] == ["[edge]", "found = false"]
    assert edge[2].startswith("edge_error = rotated fraction does not cross 1/2")
    _, rows = read_curve_file(out / "curve.csv")
    assert [len(r) for r in rows] == [5] * 10
    capsys.readouterr()


ORACLE_CFG = REPO_ROOT / "scenarios" / "oracle.cfg"


def _oracle_text(**overrides):
    """scenarios/oracle.cfg with the given keys set (or added) to the given values,
    or removed where the value is None."""
    lines = [
        line for line in ORACLE_CFG.read_text().splitlines()
        if line.split("=", 1)[0].strip() not in overrides
    ]
    lines += [f"{key} = {value}" for key, value in overrides.items() if value is not None]
    return "\n".join(lines) + "\n"


def _oracle_cfg(tmp_path, **overrides):
    return _write_cfg(tmp_path, _oracle_text(**overrides), "oracle.cfg")


@pytest.mark.parametrize(
    "overrides", [{}, {"pair_rate": "50", "duration": "300"}], ids=["canned", "edited"]
)
def test_property_oracle_runs_the_config_it_reports(tmp_path, capsys, monkeypatch, overrides):
    # every oracle run is the file's config at one angle and its derived
    # seed, so the report's [config] echo is the configuration that ran
    cfg = _oracle_cfg(tmp_path, **overrides)
    ran = []
    run = simulation.simulate_run

    def recording(config):
        ran.append(config)
        return run(config)

    monkeypatch.setattr(simulation, "simulate_run", recording)
    out = tmp_path / "oracle"
    assert main(["simulate", "property-oracle", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    file_config, _ = load_config_file(cfg)
    thetas = [parse_angle(f"{degrees} deg") for degrees in (0, 30, 45, 90)]
    seeds = [simulation.derive_seed(1007, f"oracle:{i}") for i in range(4)]
    assert ran == [
        replace(file_config, polarizer_theta=theta, seed=seed)
        for theta, seed in zip(thetas, seeds)
    ]
    _, sections = _parse_report((out / "report.txt").read_text())
    assert sections[0] == (
        "config", [(f.name, fmt(getattr(file_config, f.name))) for f in fields(file_config)]
    )


def test_calibrate_report(tmp_path):
    cfg_text = (
        "pair_rate = 2e4\nduration = 1\ncell_dead_time = 102 ns\nseed = 15\n"
        "scan_points = 13\nscan_start = 0 deg\nscan_stop = 180 deg\n"
    )
    config, extras = load_config_file(_write_cfg(tmp_path, cfg_text))
    artifacts = run_scenario(
        build_scenario("calibrate", config, extras, out_dir=tmp_path / "c")
    )
    eta_visibility, eta_klyshko = artifacts["eta_visibility"], artifacts["eta_klyshko"]
    assert abs(eta_visibility.value - 0.476) < 0.03
    assert abs(eta_klyshko.value - 0.476) < 0.03
    # the two independent routes must agree within combined errors
    combined = math.hypot(eta_visibility.sigma, eta_klyshko.sigma)
    assert abs(eta_visibility.value - eta_klyshko.value) <= 3.0 * combined
    report = (tmp_path / "c" / "report.txt").read_text()
    for key in ("eta_visibility", "eta_klyshko", "klyshko_coincidences"):
        assert key in report


def test_run_klyshko_refuses_a_zero_duration():
    # refused before any event is drawn, as a scan refuses it
    with _nothing_drawn(), pytest.raises(ConfigError, match="positive duration"):
        run_klyshko(ExperimentConfig(duration=0.0))


def test_klyshko_pulls_have_unit_width():
    # the quoted sigma must be the spread of the estimate: 400 seeds of the
    # calib run at 1 s, pulls against the configured eta_idler
    config, _ = load_config_file(REPO_ROOT / "scenarios" / "calib.cfg")
    pulls = []
    for seed in range(400):
        _, _, eta = run_klyshko(replace(config, duration=1.0, seed=seed))
        pulls.append((eta.value - config.eta_idler) / eta.sigma)
    assert abs(np.mean(pulls)) <= 0.15
    assert 0.9 <= np.std(pulls, ddof=1) <= 1.1


def test_visibility_pulls_have_unit_width():
    # the same for the visibility route: 200 seeds of the calib scan at
    # 0.25 s per point, pulls of the singles visibility against eta_idler
    config, extras = load_config_file(REPO_ROOT / "scenarios" / "calib.cfg")
    pulls = []
    for seed in range(200):
        scenario = build_scenario(
            "polarizer-scan", replace(config, duration=0.25, seed=seed), extras
        )
        fit = run_scenario(scenario)["singles_fit"]
        pulls.append((fit.visibility_v - config.eta_idler) / fit.sigma_visibility)
    assert abs(np.mean(pulls)) <= 0.15
    assert 0.9 <= np.std(pulls, ddof=1) <= 1.1


# ---------------------------------------------------------------------------
# command-line entry point


def test_cli_simulate_and_analyze_round_trip(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    assert main(["analyze", "fit", "--curve", str(out / "curve.csv")]) == 0
    stdout = capsys.readouterr().out
    report = (out / "report.txt").read_text()
    assert stdout.rstrip("\n") == report[report.index("[fit_singles]"):].rstrip("\n")


def test_cli_seed_override_changes_output(tmp_path):
    cfg = _write_cfg(tmp_path)
    main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(tmp_path / "x")])
    main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(tmp_path / "y"),
          "--seed", "99"])
    assert (tmp_path / "x" / "curve.csv").read_bytes() != (tmp_path / "y" / "curve.csv").read_bytes()


def test_cli_calibrate(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        "pair_rate = 1e4\nduration = 1\ncell_dead_time = 102 ns\nseed = 17\n"
        "scan_start = 0 deg\nscan_stop = 180 deg\nscan_points = 13\n",
    )
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    stdout = capsys.readouterr().out
    assert "eta (visibility route)" in stdout
    assert "eta (coincidence route)" in stdout


# ---------------------------------------------------------------------------
# exits: every command that cannot run or fails, one table


@contextlib.contextmanager
def _nothing_drawn():
    """Fail on any draw, and on a scan range of more than 10^5 points."""
    linspace = np.linspace

    def small_linspace(start, stop, num, **kwargs):
        assert num <= 10**5, f"a range of {num} points was built"
        return linspace(start, stop, num, **kwargs)

    def no_draw(*args, **kwargs):
        raise AssertionError("drawn while building a scenario")

    with (
        mock.patch.object(simulation, "_sample_poisson_times", no_draw),
        mock.patch.object(np, "linspace", small_linspace),
    ):
        yield


class _Exit(NamedTuple):
    """A command that exits nonzero: the files its argv names, its code and its stderr."""

    id: str
    argv: list[str]
    # name: its text, a size for a sparse file of zeros, or _FIFO; made in
    # the directory the command runs in
    files: dict[str, object]
    code: int
    error: str  # what stderr begins with; a whole message ends in "\n"


def _scenario(id, command, text, code, error, *options):
    """``command`` on a config file of ``text``, writing to ``out``."""
    argv = [*command.split(), "--config", "run.cfg", "--out", "out", *options]
    return _Exit(id, argv, {"run.cfg": text}, code, error)


def _fit(id, text, code, error):
    """``analyze fit`` of a curve file of ``text``."""
    argv = ["analyze", "fit", "--curve", "curve.csv"]
    return _Exit(id, argv, {"curve.csv": text}, code, error)


_FIFO = object()  # a named pipe that no process writes


def _alternating_curve(peak, sigma):
    """13 singles rows, rates alternating 0 and ``peak``, each of sigma ``sigma``."""
    return "".join(f"{k * math.pi / 13!r},{k % 2 * peak},{sigma},1,1\n" for k in range(13))


# the oracle's enumeration predicts a run without losses, noise or
# accidentals: each of these edits of oracle.cfg is refused, naming its field
_ORACLE_REFUSALS = {
    "cell": ({"cell_fail_prob": "0.999"}, "needs cell_fail_prob = 1.0, not 0.999"),
    "eta_idler": ({"eta_idler": "0.476"}, "needs eta_idler = 1.0, not 0.476"),
    "eta_signal": ({"eta_signal": "0.9"}, "needs eta_signal = 1.0, not 0.9"),
    "dark": ({"dark_rate_signal": "10"}, "needs dark_rate_signal = 0.0, not 10.0"),
    "background": (
        {"background_rate_signal": "10"}, "needs background_rate_signal = 0.0, not 10.0"
    ),
    "dead-time": (
        {"detector_dead_time_d1": "50 ns"},
        "needs detector_dead_time_d1 = 0.0, not 5.0000000000000004e-08",
    ),
    "offset": (
        {"coincidence_offset": "248 ns"}, "needs coincidence_offset = None, not 2.48e-07"
    ),
    "accidentals": (
        {"pair_rate": "1e4", "duration": "10"},
        "expects 0.75 accidentals per angle, above 0.01; lower pair_rate or duration",
    ),
}

_COMMANDS = {k: "calibrate" if k == "calibrate" else f"simulate {k}" for k in cli._RUNNERS}
_SCAN = "simulate polarizer-scan"
_ORACLE = "simulate property-oracle"
_RANGE = "['scan_start', 'scan_stop', 'scan_points']"
_DELAY = "config error: t_electronic must be finite and non-negative, got"
_NO_DURATION = "config error: a run needs a positive duration\n"
_NO_DILUTION = "config error: calibrate needs an expected background fraction and a cell_fail_prob"
_OVER_BUDGET = "events per run exceed the budget of 2e+07; shorten duration or lower the rates\n"
_NO_SEED = "config error: seed must be a 64-bit non-negative integer\n"
_BAD_SEED = "config error: cannot parse integer 'x' for seed\n"
_BIG = "18446744073709551616"  # 2^64
_FIG2_CURVE, _FIG4_CURVE = (
    (REPO_ROOT / "results" / name / "curve.csv").read_text(encoding="ascii")
    for name in ("fig2", "fig4")
)

_EXITS = [
    # the sweep: exactly one of scan_values and a complete range, no default
    *(
        _scenario(
            f"no-sweep-{kind}", command,
            _oracle_text(scan_values=None) if kind == "property-oracle" else FAST_RUN, 2,
            f"config error: the sweep needs scan_values or a scan range, missing {_RANGE}\n",
        )
        for kind, command in _COMMANDS.items()
    ),
    *(
        _scenario(
            f"two-sweeps-{name}", _SCAN, f"{FAST_RUN}{lines}scan_values = 0 deg, 90 deg\n", 2,
            f"config error: scan_values and {keys} both give the sweep; keep one\n",
        )
        for name, lines, keys in (
            ("full-range", "scan_start = 0 deg\nscan_stop = 180 deg\nscan_points = 9\n", _RANGE),
            ("partial-range", "scan_stop = 180 deg\n", "['scan_stop']"),
        )
    ),
    *(
        _scenario(f"infinite-angle-{kind}", f"simulate {kind}",
                  f"{FAST_RUN}scan_values = 1e999, 0, 1, 2\n", 2,
                  "config error: angle value '1e999' is not finite\n")
        for kind in ("polarizer-scan", "property-oracle")
    ),
    # every delay of the sweep, the range's start included, is a valid t_electronic
    _scenario("negative-delay-values", "simulate delay-scan",
              f"{FAST_RUN}scan_values = 0 ns, -5 ns\n", 2, f"{_DELAY} -5e-09\n"),
    _scenario("negative-delay-range", "simulate delay-scan",
              f"{FAST_RUN}scan_start = -10 ns\nscan_stop = 10 ns\nscan_points = 4\n", 2,
              f"{_DELAY} -1e-08\n"),
    # the config's keys and values; --seed gets the rules and messages of `seed = ...`
    *(
        _scenario(f"unknown-key-{key}", _SCAN, f"{FAST_CFG}{key} = 1\n", 2,
                  f"config error: unknown config key '{key}'\n")
        for key in ("mystery", "pulse_tail", "idler_polarizer", "cell_enabled", "angle_reference")
    ),
    _scenario("seed-too-large-option", _SCAN, FAST_CFG, 2, _NO_SEED, "--seed", _BIG),
    _scenario("seed-too-large-in-file", _SCAN, FAST_CFG.replace("seed = 11", f"seed = {_BIG}"),
              2, _NO_SEED),
    _scenario("seed-not-a-number-option", _SCAN, FAST_CFG, 2, _BAD_SEED, "--seed", "x"),
    _scenario("seed-not-a-number-in-file", _SCAN, FAST_CFG.replace("seed = 11", "seed = x"),
              2, _BAD_SEED),
    # a run of zero expected pairs measures nothing
    *(
        _scenario(f"no-duration-{kind}", command, "pair_rate = 2e3\nduration = 0\n", 2,
                  _NO_DURATION)
        for kind, command in _COMMANDS.items() if kind != "property-oracle"
    ),
    _scenario("no-duration-property-oracle", _ORACLE, _oracle_text(duration="0"), 2,
              _NO_DURATION),
    _scenario("no-pairs-property-oracle", _ORACLE, _oracle_text(pair_rate="0"), 2,
              "config error: the property oracle needs pairs: pair_rate above 0\n"),
    # the visibility route divides by (1 - background fraction) (1 - cell_fail_prob)
    _scenario("calibrate-idle-cell", "calibrate",
              (REPO_ROOT / "scenarios" / "calib.cfg").read_text() + "cell_fail_prob = 1\n", 2,
              _NO_DILUTION),
    _scenario("calibrate-background-only", "calibrate",
              "pair_rate = 0\ndark_rate_signal = 1000\n", 2, _NO_DILUTION),
    # the events of a run, an oracle angle's 2.5e7 pairs (9.4e-3 accidentals)
    # included, and of a whole command are bounded
    _scenario("runaway-run", _SCAN, FAST_CFG.replace("2e3", "1e9").replace("= 0.2", "= 1"),
              2, f"config error: expected 1e+09 {_OVER_BUDGET}"),
    _scenario("runaway-oracle-angle", _ORACLE, _oracle_text(pair_rate="0.5", duration="5e7"), 2,
              f"config error: expected 2.5e+07 {_OVER_BUDGET}"),
    _scenario("runaway-scan", "calibrate", FAST_CFG.replace("= 9", "= 10000000000"), 2,
              "config error: expected 1.04e+14 events over the calibrate command exceed the "
              "budget of 1e+09; use fewer points, shorter runs or lower rates\n"),
    # files: absent, a directory, an output path under a file, not ASCII
    _Exit("absent-config", [*_SCAN.split(), "--config", "absent.cfg", "--out", "out"], {}, 2,
          "file error: [Errno 2] No such file or directory: 'absent.cfg'\n"),
    _Exit("absent-curve", ["analyze", "fit", "--curve", "absent.csv"], {}, 2,
          "file error: [Errno 2] No such file or directory: 'absent.csv'\n"),
    _Exit("directory-curve", ["analyze", "fit", "--curve", "."], {}, 2,
          "file error: not a regular file: '.'\n"),
    # ... a named pipe or a device, refused before a byte is read, and a file
    # past its cap, refused after cap + 1 bytes
    _Exit("fifo-config", [*_SCAN.split(), "--config", "run.cfg", "--out", "out"],
          {"run.cfg": _FIFO}, 2, "file error: not a regular file: 'run.cfg'\n"),
    _Exit("fifo-curve", ["analyze", "fit", "--curve", "curve.csv"], {"curve.csv": _FIFO}, 2,
          "file error: not a regular file: 'curve.csv'\n"),
    _Exit("device-curve", ["analyze", "fit", "--curve", "/dev/zero"], {}, 2,
          "file error: not a regular file: '/dev/zero'\n"),
    _scenario("oversized-config", _SCAN, cli._MAX_CONFIG_BYTES + 1, 2,
              f"config error: run.cfg: longer than {cli._MAX_CONFIG_BYTES} bytes\n"),
    _fit("oversized-curve", cli._MAX_CURVE_BYTES + 1, 4,
         f"analysis error: curve.csv: longer than {cli._MAX_CURVE_BYTES} bytes\n"),
    _Exit("unwritable-out", [*_SCAN.split(), "--config", "run.cfg", "--out", "plain/sub"],
          {"run.cfg": FAST_CFG, "plain": ""}, 2,
          "file error: [Errno 20] Not a directory: 'plain/sub'\n"),
    _scenario("non-ascii-config", _SCAN, "seed = 3\npair_rate = 1000 # \u00b5s\n", 2,
              "config error: run.cfg: line 2, byte 28 is not ASCII\n"),
    _fit("non-ascii-curve", _FIG2_CURVE + "# \u00b5\n", 4,
         "analysis error: curve.csv: line 41, byte 1810 is not ASCII\n"),
    # argparse's own exit: the removed --workers option
    _scenario("workers-option", _SCAN, FAST_CFG, 2, "usage: biphoton-sim", "--workers", "2"),
    # curve rows: short, non-numeric, non-finite, negative
    _fit("short-row", "0,1,1\n", 4, "analysis error: curve row must have 5 columns, got 3\n"),
    *(
        _fit(f"{name}-cell", f"{row}\n", 4, f"analysis error: curve row '{row}' has a {error}\n")
        for name, row, error in (
            ("non-numeric", "x,1,1,1,1", "non-numeric cell"),
            ("non-finite", "0.5,nan,1,1,1", "non-finite cell"),
            ("negative", "0.5,-1,1,1,1", "negative rate or sigma"),
        )
    ),
    # singles fits that fail: sigmas that overflow the weights (1e-160) or the
    # weighted residuals, and a delay curve, which has no harmonic model
    *(
        _fit(f"overflowing-{name}", _alternating_curve(peak, sigma), 4,
             f"analysis error: {error}; the sigmas are too small\n")
        for name, peak, sigma, error in (
            ("weights", 1.0, 1e-160, "the weighted normal equations overflow"),
            ("residuals", 1e100, 1e-100, "the weighted residuals overflow"),
        )
    ),
    _fit("delay-curve", _FIG4_CURVE, 4,
         "analysis error: delay-scan curves have no harmonic model to fit\n"),
    # a scan whose singles curve cannot be fitted writes no file
    *(
        _scenario(f"two-points-{kind}", _COMMANDS[kind], f"{FAST_RUN}scan_values = 0, 1\n", 4,
                  "analysis error: need at least 4 points, got 2\n")
        for kind in ("polarizer-scan", "calibrate")
    ),
    # draws nothing in 1e200 s: every sigma is 1e-200, so the weights overflow
    _scenario("overflowing-scan", _SCAN,
              "pair_rate = 0\nduration = 1e200\nscan_start = 0\nscan_stop = 1\nscan_points = 13\n",
              4, "analysis error: the weighted normal equations overflow"),
]

# the stderr prefixes of each exit code; argparse's own exit 2 prints its usage
_PREFIXES = {
    2: ("config error: ", "file error: ", "usage: "),
    3: ("simulation error: ",),
    4: ("analysis error: ",),
}


def _assert_exit(tmp_path, capsys, monkeypatch, row):
    """``row`` run in ``tmp_path`` exits with its code and stderr, prints nothing
    to stdout and writes no file; an exit 2 also draws nothing and makes no
    directory."""
    assert row.error.startswith(_PREFIXES[row.code])
    monkeypatch.chdir(tmp_path)
    for name, text in row.files.items():
        if text is _FIFO:
            os.mkfifo(name)
        elif isinstance(text, int):
            Path(name).touch()
            os.truncate(name, text)
        else:
            Path(name).write_text(text, encoding="utf-8")
    with _nothing_drawn() if row.code == 2 else contextlib.nullcontext():
        try:
            code = main(row.argv)
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    assert code == row.code
    assert captured.err.startswith(row.error), captured.err
    assert captured.out == ""
    left = {str(p.relative_to(tmp_path)): p.is_dir() for p in tmp_path.rglob("*")}
    assert [name for name, is_dir in left.items() if not is_dir and name not in row.files] == []
    if row.code == 2:
        assert [name for name, is_dir in left.items() if is_dir] == []


@pytest.mark.parametrize("row", _EXITS, ids=[row.id for row in _EXITS])
def test_cli_exit(tmp_path, capsys, monkeypatch, row):
    _assert_exit(tmp_path, capsys, monkeypatch, row)


def _invariant_violated(*args, **kwargs):
    raise SimulationError("invariant violated")


def _lowering_steps(config):
    # a step whose factor exceeds 1 would divide the visibility down
    return [*analysis.visibility_steps(config), ("v_lowered", 1.25, 0.0)]


def test_cli_exit_of_a_failed_scan(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("biphoton_feedforward.simulation.scan", _invariant_violated)
    _assert_exit(tmp_path, capsys, monkeypatch, _scenario(
        "scan-fails", _SCAN, FAST_CFG, 3, "simulation error: invariant violated\n"
    ))


def test_cli_calibrate_refuses_corrections_that_lower_visibility(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("biphoton_feedforward.cli.visibility_steps", _lowering_steps)
    _assert_exit(tmp_path, capsys, monkeypatch, _scenario(
        "lowering-correction", "calibrate", FAST_CFG, 4,
        "analysis error: v_lowered factor 1.25 is outside (0, 1]; "
        "steps must not decrease visibility\n",
    ))


@pytest.mark.parametrize(
    "overrides, message", _ORACLE_REFUSALS.values(), ids=list(_ORACLE_REFUSALS)
)
def test_cli_property_oracle_refuses_what_it_cannot_predict(
    tmp_path, capsys, monkeypatch, overrides, message
):
    # the command exits as every row of the table does, and sampling_soundness
    # itself refuses the same config with the same message
    text = _oracle_text(**overrides)
    _assert_exit(tmp_path, capsys, monkeypatch, _scenario(
        "oracle", _ORACLE, text, 2, f"config error: the property oracle {message}\n"
    ))
    config, _ = parse_config_text(text)
    with _nothing_drawn(), pytest.raises(ConfigError) as exc:
        simulation.sampling_soundness(config)
    assert str(exc.value) == f"the property oracle {message}"


def test_property_oracle_admits_accidentals_at_its_bound():
    # 1e3 x 1e3 clicks/s x 10 ns x 1 s is 0.01 accidentals exactly, the most it admits
    config = ExperimentConfig(
        pair_rate=2e3, duration=1.0, coincidence_window=1e-8, eta_idler=1.0,
        cell_fail_prob=1.0, seed=5,
    )
    assert analysis.accidental_coincidences(1e3, 1e3, 1e-8, 1.0) == 0.01
    assert simulation.sampling_soundness(config).p_value > 0.0


def test_an_input_file_of_exactly_its_cap_is_read(tmp_path):
    assert cli._read_ascii(_write_cfg(tmp_path), ConfigError, len(FAST_CFG)) == FAST_CFG


def test_cli_reads_engine_names_at_call_time(tmp_path, capsys, monkeypatch):
    # the CLI holds no copy of an engine name: a patch of the engine made
    # after a first run still reaches every runner
    cfg = _write_cfg(tmp_path)
    assert main(["simulate", "polarizer-scan", "--config", str(cfg),
                 "--out", str(tmp_path / "first")]) == 0

    def boom(*args, **kwargs):
        raise SimulationError("invariant violated")

    for name in ("scan", "sampling_soundness"):
        monkeypatch.setattr(simulation, name, boom)
    for kind, config in (
        ("polarizer-scan", _sweep_cfg(tmp_path, ["30 deg"], name="angle.cfg")),
        ("delay-scan", _sweep_cfg(tmp_path, ["50 ns"], name="delay.cfg")),
        ("property-oracle", _oracle_cfg(tmp_path, scan_values="30 deg")),
    ):
        assert main(["simulate", kind, "--config", str(config), "--out", str(tmp_path / kind)]) == 3
        assert "simulation error: invariant violated" in capsys.readouterr().err

    # the command budget finds the edge tolerance as the first call into the CLI
    args = "'delay-scan', simulation.ExperimentConfig(), 3, 1e-7"
    probe = f"from biphoton_feedforward import cli, simulation; print(cli._command_events({args}))"
    expected = cli._command_events("delay-scan", ExperimentConfig(), 3, 1e-7)
    assert _fresh_python(probe) == repr(expected)


# One command may draw 50 runs at the per-run limit; every run, an oracle
# angle included, also counts 1e4 events for its fixed cost.
COMMAND_BUDGET = 50 * simulation.MAX_EXPECTED_EVENTS
RUN_OVERHEAD = 1e4
EDGE_TOLERANCE = 0.5e-9


def _points(n):
    return {"scan_start": "0", "scan_stop": "1", "scan_points": str(n)}


def _values(*values):
    return {"scan_values": ", ".join(values)}


def test_command_budget_counts_every_run():
    # at the per-run limit a run counts 2e7 + 1e4 events, so 49 runs fit
    at_limit = ExperimentConfig(pair_rate=simulation.MAX_EXPECTED_EVENTS, duration=1.0)
    idle = ExperimentConfig(pair_rate=0.0)
    # an oracle run at the limit: 0.5 pairs/s expect 7.5e-3 accidentals in 4e7 s
    oracle_at_limit = ExperimentConfig(
        pair_rate=0.5, duration=4e7, eta_idler=1.0, cell_fail_prob=1.0
    )
    half_turn = {"scan_start": "0 deg", "scan_stop": "180 deg", "scan_points": "13"}
    gap = 2.0**45 * EDGE_TOLERANCE  # 45 halvings down to the tolerance
    wider = math.nextafter(gap, math.inf)  # 46
    cases = [
        # kind, config, extras within budget, then over it
        ("polarizer-scan", at_limit, _points(49), _points(50)),
        ("calibrate", at_limit, _points(48), _points(49)),  # + Klyshko
        # two delays: 2 scan runs, 2 bracket checks and the halvings
        ("delay-scan", at_limit, _values("0", repr(gap)), _values("0", repr(wider))),
        # one delay brackets nothing, so it counts no bisection runs
        ("delay-scan", at_limit, {**_points(1), "scan_stop": "1e300"},
         {**_points(2), "scan_stop": "1e300"}),
        ("property-oracle", oracle_at_limit, _points(49), _points(50)),
        # a run that draws nothing still counts its fixed cost
        ("polarizer-scan", idle, _points(10**5), _points(10**5 + 1)),
        ("polarizer-scan", idle, half_turn, _points(10**15)),
    ]
    # an input file may hold every point that the budget admits
    assert cli._MAX_POINTS * RUN_OVERHEAD >= COMMAND_BUDGET
    with _nothing_drawn():
        for kind, config, extras, over_extras in cases:
            build_scenario(kind, config, extras)
            with pytest.raises(ConfigError, match="exceed the budget"):
                build_scenario(kind, config, over_extras)


def test_sweep_wider_than_the_largest_float_is_refused():
    # neighbouring values 2e308 apart: the range step and the bisection
    # count would overflow
    config = ExperimentConfig()
    wide = {"scan_start": "-1e308", "scan_stop": "1e308", "scan_points": "2"}
    with _nothing_drawn():
        for kind, extras in (("polarizer-scan", wide), ("delay-scan", _values("-1e308", "1e308"))):
            with pytest.raises(ConfigError, match="largest float"):
                build_scenario(kind, config, extras)


def _command_events(kind, scenario, widest_gap):
    n = len(scenario.sweep)
    runs = n + (kind == "calibrate")
    if kind == "delay-scan" and n > 1:
        runs += 2
        while widest_gap > EDGE_TOLERANCE:
            widest_gap /= 2.0
            runs += 1
    c = scenario.config
    rate = c.pair_rate + c.dark_rate_idler + c.dark_rate_signal + c.background_rate_signal
    return runs * (rate * c.duration + RUN_OVERHEAD)


def _texts(table, low, high):
    """Value texts, one float draw each: a negative draw names an entry of
    ``table`` by its hash, any other is the free value ``low + draw``."""
    span = high - low
    return st.floats(-2.0 * span, span).map(
        lambda x: table[hash(x) % len(table)] if x < 0.0 else repr(low + x)
    )


_RATES = _texts(["0", "1e3", "2e5", "1e7", "2e7", "1e9", "-5", "nan", "inf", "x"], -1.0, 1e10)
_DURATIONS = _texts(["0", "1", "100 ms", "10 us", "1e300 s", "-1", "1 parsec"], 0.0, 1e3)
_SWEEP_VALUES = _texts(["0", "90 deg", "50 ns", "2 us", "1e300", "-1e308", "1e308"], -1e3, 1e3)
_COUNTS = st.integers(-3, 10**16).map(str) | st.sampled_from(["x", "1.5", "0x10", "2e7"])


_KINDS_AND_SWEEPS = st.sampled_from([
    (kind, sweep)
    for kind in ("polarizer-scan", "delay-scan", "calibrate", "property-oracle")
    for sweep in ("none", "range", "values")
])


@st.composite
def _command_texts(draw):
    """Config text with random rates, durations and sweep sizes for one command."""
    kind, sweep = draw(_KINDS_AND_SWEEPS)
    # the length of scan_values is its own draw, made first and always: a
    # list drawn after the rates came out empty in a fifth or more of them
    n_values = draw(st.integers(0, 30))
    # the oracle refuses a run with the cell on or a lossy trigger detector
    lines = ["eta_idler = 1", "cell_fail_prob = 1"] if kind == "property-oracle" else []
    for key in ("pair_rate", "dark_rate_idler", "dark_rate_signal", "background_rate_signal"):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(_RATES)}")
    if draw(st.booleans()):
        lines.append(f"duration = {draw(_DURATIONS)}")
    scan_range = None
    if sweep == "range":
        scan_range = (draw(_SWEEP_VALUES), draw(_SWEEP_VALUES), draw(_COUNTS))
        keys = ("scan_start", "scan_stop", "scan_points")
        lines += [f"{k} = {v}" for k, v in zip(keys, scan_range)]
    elif sweep == "values":
        lines.append("scan_values = " + ", ".join(draw(_SWEEP_VALUES) for _ in range(n_values)))
    return kind, "\n".join(lines) + "\n", sweep, scan_range


@settings(max_examples=300, deadline=None)
@given(_command_texts())
def test_every_command_builds_within_budget_or_is_refused(case):
    kind, text, sweep, scan_range = case
    with _nothing_drawn():
        try:
            config, extras = parse_config_text(text)
            scenario = build_scenario(kind, config, extras)
        except ConfigError:
            return
    assert sweep != "none", "a file without a sweep was accepted"
    # the swept field's rules are bounds: its configs at the sweep's extremes are valid
    field = "t_electronic" if kind == "delay-scan" else "polarizer_theta"
    for value in (min(scenario.sweep), max(scenario.sweep)):
        replace(config, **{field: value})
    if scan_range is None:
        values = scenario.sweep
        widest_gap = max((abs(b - a) for a, b in zip(values, values[1:])), default=0.0)
    else:
        parse = parse_time if kind == "delay-scan" else parse_angle
        widest_gap = abs(parse(scan_range[1]) - parse(scan_range[0])) / len(scenario.sweep)
    assert _command_events(kind, scenario, widest_gap) <= COMMAND_BUDGET


def _parse_report(text):
    """A report's header lines and its (section, [(key, text), ...]) blocks."""
    header, *blocks = text.rstrip("\n").split("\n\n")
    sections = []
    for block in blocks:
        title, *lines = block.split("\n")
        assert title.startswith("[") and title.endswith("]"), title
        sections.append((title[1:-1], [tuple(line.split(" = ", 1)) for line in lines]))
    return header.split("\n"), sections


@pytest.mark.parametrize("name", sorted(name for name, _ in GOLDEN_COMMANDS))
def test_every_report_is_one_table(name):
    text = (REPO_ROOT / "results" / name / "report.txt").read_text(encoding="ascii")
    header, sections = _parse_report(text)
    assert header[0].startswith("# ")
    assert all(" = " in line for line in header[1:])
    for section, rows in sections:
        assert all(len(row) == 2 for row in rows), section
        keys = [key for key, _ in rows]
        assert len(set(keys)) == len(keys), f"[{section}] repeats a key"
        # an error comes right after its value
        for before, key in zip(["", *keys], keys):
            if key.startswith("sigma_"):
                assert before == key[len("sigma_"):], (section, key)
    assert "\n".join([*header, "", *render_sections(sections)]) + "\n" == text


def test_reproduce_figures_script_matches_committed_results(tmp_path):
    # the end-to-end script writes all five scenarios; every file it writes
    # must equal the committed results/ byte for byte
    proc = _python("scripts/reproduce_figures.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    golden_root = REPO_ROOT / "results"
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(golden_root) for p in golden_root.rglob("*") if p.is_file())
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (golden_root / rel).read_bytes(), (
            f"{rel} differs from results/"
        )


def test_golden_commands_name_every_scenario_once():
    # the scripts and tests import cli.GOLDEN_COMMANDS; the benchmark keeps
    # its own copy, which must not drift from it
    names = [name for name, _ in GOLDEN_COMMANDS]
    assert sorted(names) == sorted(p.stem for p in (REPO_ROOT / "scenarios").glob("*.cfg"))
    assert sorted(names) == sorted(p.name for p in (REPO_ROOT / "results").iterdir() if p.is_dir())
    for name, (*verb, kind) in GOLDEN_COMMANDS:
        assert kind in cli._RUNNERS, name
        assert verb in ([], ["simulate"]), name
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.SCENARIOS == GOLDEN_COMMANDS


def test_mutant_table_resolves(monkeypatch):
    # the check scripts/mutants.py makes before any run: every hand row's
    # text occurs once in its file, and every EQUIVALENT entry names one
    # generated mutant, so a src/ edit that stales a row fails here
    monkeypatch.syspath_prepend(str(REPO_ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("mutants", REPO_ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    _, skipped, stale = mutants.resolve()
    assert stale == []
    assert skipped == len(mutants.EQUIVALENT)


def test_analyze_fit_ignores_row_order(tmp_path, capsys):
    # the fit sums its normal equations exactly rounded, so a curve's rows
    # may come in any order
    lines = (REPO_ROOT / "results" / "fig2" / "curve.csv").read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if not line.startswith("#")]
    shuffled = rows[:]
    random.Random(18).shuffle(shuffled)
    outputs = []
    for name, order in (("original", rows), ("reversed", rows[::-1]), ("shuffled", shuffled)):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(header + order) + "\n", encoding="ascii")
        assert main(["analyze", "fit", "--curve", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert shuffled != rows
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def _python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh ``python *argv`` on this package's source, run from the repo root."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )


def _fresh_python(probe: str) -> str:
    """The last stdout line of ``probe`` run in a fresh interpreter on this package."""
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _imported_modules(*args: str) -> set[str]:
    """Every module a fresh ``python -X importtime -m biphoton_feedforward *args`` imports."""
    proc = _python("-X", "importtime", "-m", "biphoton_feedforward", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }


def test_package_import_skips_scipy_and_process_pool(tmp_path):
    # start-up cost of every CLI call: importing the package must pull in
    # neither scipy nor process-pool machinery, which no run uses.  The
    # package is its modules: importing it loads none of them and binds no
    # name but its dunders, so each public name has one home
    probe = (
        "import sys, biphoton_feedforward as package; "
        "print(sorted(m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules), "
        "sorted(m for m in sys.modules if m.startswith('biphoton_feedforward.')), "
        "sorted(n for n in vars(package) if not n.startswith('__')))"
    )
    assert _fresh_python(probe) == "[] [] []"
    # analyze fit and --version need neither numpy nor the engine
    for args in (["analyze", "fit", "--curve", "results/fig2/curve.csv"], ["--version"]):
        modules = _imported_modules(*args)
        assert "biphoton_feedforward.cli" in modules
        engine = sorted(
            m for m in modules
            if m.split(".")[0] == "numpy" or m == "biphoton_feedforward.simulation"
        )
        assert engine == [], args
    # the engine takes Malus's law from math: only the property oracle loads
    # the density-matrix core, as its expectation
    core = "biphoton_feedforward.polarization"
    for kind, cfg, loads_core in (
        ("delay-scan", REPO_ROOT / "scenarios" / "fig4.cfg", False),
        ("property-oracle", _oracle_cfg(tmp_path, scan_values="0 deg"), True),
    ):
        modules = _imported_modules(
            "simulate", kind, "--config", str(cfg), "--out", str(tmp_path / kind)
        )
        assert "biphoton_feedforward.simulation" in modules, kind
        assert (core in modules) is loads_core, kind
    assert simulation.ConfigError is ConfigError
    assert simulation.SimulationError is SimulationError


def test_cli_version_runs_as_module():
    proc = _python("-m", "biphoton_feedforward", "--version")
    assert proc.returncode == 0
    assert "config schema 3" in proc.stdout


def test_process_entry_freezes_the_heap_on_every_exit():
    # run() runs main() with the collector off and ends every process through
    # gc.freeze(), so the final collection skips the module cycles; the atexit
    # hook sees the disabled collector and the frozen heap
    probe = (
        "import atexit, gc, sys\n"
        "from biphoton_feedforward import cli\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0 and not gc.isenabled()))\n"
        "{setup}\n"
        "cli.run()\n"
    )
    returned = _python("-c", probe.format(setup="cli.main = lambda: 3"))
    assert (returned.returncode, returned.stdout) == (3, "True\n"), returned.stderr
    # argparse's own exit, through the real parser
    version = _python("-c", probe.format(setup="sys.argv = ['biphoton-sim', '--version']"))
    assert version.returncode == 0, version.stderr
    assert version.stdout.splitlines()[-1] == "True"
    assert "config schema 3" in version.stdout


def test_main_leaves_the_heap_collectable(capsys):
    # tests, scripts/reproduce_figures.py and perfbench call main() in-process
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(["analyze", "fit", "--curve", str(REPO_ROOT / "results" / "fig2" / "curve.csv")]) == 0
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled() == enabled
    capsys.readouterr()


def test_runs_make_no_cyclic_garbage(tmp_path, capsys):
    # run() turns the collector off for a child's whole life, which holds
    # while a scan leaves no cycles and a command's leftovers do not grow
    # with its points
    config = ExperimentConfig(pair_rate=2e3, duration=0.05, cell_dead_time=102e-9, seed=5)
    # no D2 click lies 100 ms after a D1 click, so the coincidence fit fails
    offset_run = FAST_RUN + "coincidence_offset = 100 ms\n"

    def unreachable(n_points):
        # delays well past the rotation edge: no bracket, so no bisection runs
        points = [f"{300 + 100 * i} ns" for i in range(n_points)]
        cfg = _sweep_cfg(tmp_path, points, name=f"p{n_points}.cfg")
        out = str(tmp_path / f"p{n_points}")
        assert main(["simulate", "delay-scan", "--config", str(cfg), "--out", out]) == 0
        return gc.collect()

    def failed_coincidence_fit(n_points):
        points = [f"{180 * i / n_points} deg" for i in range(n_points)]
        cfg = _sweep_cfg(tmp_path, points, offset_run, f"f{n_points}.cfg")
        out = tmp_path / f"f{n_points}"
        assert main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text(encoding="ascii")
        assert "fit_error = fitted mean rate 0 is not positive" in report
        return gc.collect()

    enabled = gc.isenabled()
    gc.disable()
    try:
        unreachable(2)  # first-call imports and caches
        gc.collect()
        simulation.scan(config, "polarizer_theta", [0.0, 0.5, 1.0])
        assert gc.collect() == 0
        assert unreachable(2) == unreachable(6)
        failed_coincidence_fit(4)  # first-call imports and caches
        gc.collect()
        assert failed_coincidence_fit(4) == failed_coincidence_fit(12)
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_exit_codes_survive_the_process_entry(tmp_path):
    absent = _python("-m", "biphoton_feedforward", "simulate", "polarizer-scan",
                     "--config", "/absent.cfg", "--out", str(tmp_path / "out"))
    assert absent.returncode == 2
    assert "file error" in absent.stderr
    junk = tmp_path / "junk.csv"
    junk.write_text("0,1,1\n")
    fit = _python("-m", "biphoton_feedforward", "analyze", "fit", "--curve", str(junk))
    assert fit.returncode == 4
    assert "analysis error" in fit.stderr
    assert fit.stdout == ""


def test_console_script_calls_the_process_entry():
    # a text match: Python 3.10 has no tomllib
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.strip() == 'biphoton-sim = "biphoton_feedforward.cli:run"'
