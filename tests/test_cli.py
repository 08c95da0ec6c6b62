"""Config parsing, scenario execution, file formats and exit codes."""

import contextlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_feedforward import ConfigError, ExperimentConfig, SimulationError, simulation
from biphoton_feedforward.cli import (
    Scenario,
    build_scenario,
    expected_background_fraction,
    fmt,
    load_config_file,
    main,
    parse_angle,
    parse_config_text,
    parse_time,
    read_curve_file,
    run_klyshko,
    run_scenario,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_RUNS = {
    "fig2": ["simulate", "polarizer-scan"],
    "fig3": ["simulate", "polarizer-scan"],
    "fig4": ["simulate", "delay-scan"],
    "calib": ["calibrate"],
    "oracle": ["simulate", "property-oracle"],
}

FAST_CFG = """
pair_rate = 2e3
duration = 0.2
cell_dead_time = 102 ns
seed = 11
scan_start = 0 deg
scan_stop = 180 deg
scan_points = 9
"""


def _write_cfg(tmp_path, text=FAST_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


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
        "cell_enabled = false\n"
        "coincidence_offset = 250 ns\n"
        "seed = 0x10\n"
    )
    assert config.pair_rate == 1e4
    assert config.polarizer_theta == pytest.approx(math.pi / 4.0)
    assert config.cell_enabled is False
    assert config.coincidence_offset == pytest.approx(250e-9)
    assert config.seed == 16
    assert extras == {"angle_reference": "vertical"}


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
        parse_config_text("angle_reference = diagonal")
    with pytest.raises(ConfigError):
        parse_config_text("cell_enabled = maybe")
    with pytest.raises(ConfigError):
        parse_config_text("pair_rate = -5")  # rejected by the config itself


def test_horizontal_reference_translates_angles():
    config, extras = parse_config_text(
        "angle_reference = horizontal\npolarizer_theta = 90 deg\n"
    )
    # 90 degrees from horizontal is the vertical axis, i.e. internal theta 0
    assert config.polarizer_theta == pytest.approx(0.0, abs=1e-12)
    scenario = build_scenario(
        "polarizer-scan", config, extras, points=["0 deg", "90 deg"]
    )
    assert scenario.sweep[0] == pytest.approx(math.pi / 2.0)
    assert scenario.sweep[1] == pytest.approx(0.0, abs=1e-12)


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


def test_scan_values_list():
    config, extras = parse_config_text("scan_values = 0 deg, 45 deg, 90 deg\n")
    scenario = build_scenario("polarizer-scan", config, extras)
    assert scenario.sweep == pytest.approx((0.0, math.pi / 4.0, math.pi / 2.0))


def test_default_sweeps_per_kind():
    config, extras = parse_config_text("pair_rate = 1e3")
    assert len(build_scenario("polarizer-scan", config, extras).sweep) == 13
    assert len(build_scenario("delay-scan", config, extras).sweep) == 21
    assert len(build_scenario("property-oracle", config, extras).sweep) == 4


def test_delay_points_use_time_units():
    config, extras = parse_config_text("pair_rate = 1e3")
    scenario = build_scenario("delay-scan", config, extras, points=["50 ns", "0.2 us"])
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
    with pytest.raises(ConfigError):
        Scenario(kind="property-oracle", config=config, sweep=(0.0,), samples=0)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_floats_round_trip(x):
    assert float(fmt(x)) == x


# ---------------------------------------------------------------------------
# scenario execution and files


def test_polarizer_scan_writes_and_reruns_identically(tmp_path):
    config, extras = load_config_file(_write_cfg(tmp_path))
    first = run_scenario(
        build_scenario("polarizer-scan", config, extras, out_dir=tmp_path / "a")
    )
    second = run_scenario(
        build_scenario("polarizer-scan", config, extras, out_dir=tmp_path / "b")
    )
    curve_a = (tmp_path / "a" / "curve.csv").read_bytes()
    curve_b = (tmp_path / "b" / "curve.csv").read_bytes()
    assert curve_a == curve_b
    report_a = (tmp_path / "a" / "report.txt").read_bytes()
    report_b = (tmp_path / "b" / "report.txt").read_bytes()
    assert report_a == report_b

    meta, rows = read_curve_file(tmp_path / "a" / "curve.csv")
    assert meta["kind"] == "polarizer-scan"
    assert meta["x_unit"] == "rad"
    assert int(meta["seed"]) == config.seed
    points = first["points"]
    np.testing.assert_array_equal(rows[:, 0], [p.x for p in points])
    np.testing.assert_array_equal(rows[:, 1], [p.rate_d2 for p in points])
    np.testing.assert_array_equal(rows[:, 4], [p.sigma_coincidence for p in points])

    text = (tmp_path / "a" / "report.txt").read_text()
    assert "[fit_singles]" in text and "[fit_coincidences]" in text
    assert "[config]" in text


def test_delay_scan_report_has_edge(tmp_path):
    cfg_text = (
        "pair_rate = 2e3\nduration = 1\ncell_dead_time = 102 ns\nseed = 12\n"
        "scan_values = 0 ns, 50 ns, 90 ns, 110 ns, 150 ns\n"
    )
    config, extras = load_config_file(_write_cfg(tmp_path, cfg_text))
    artifacts = run_scenario(
        build_scenario("delay-scan", config, extras, out_dir=tmp_path / "d")
    )
    assert artifacts["edge"] == pytest.approx(98e-9, abs=2e-9)
    report = (tmp_path / "d" / "report.txt").read_text()
    assert "found = true" in report
    meta, rows = read_curve_file(tmp_path / "d" / "curve.csv")
    assert meta["x_unit"] == "s"
    assert rows.shape == (5, 5)


def test_delay_scan_without_crossing_reports_not_found(tmp_path):
    cfg_text = "pair_rate = 1e3\nduration = 0.2\nseed = 13\nscan_values = 150 ns, 200 ns\n"
    config, extras = load_config_file(_write_cfg(tmp_path, cfg_text))
    artifacts = run_scenario(
        build_scenario("delay-scan", config, extras, out_dir=tmp_path / "d")
    )
    assert artifacts["edge"] is None
    assert "found = false" in (tmp_path / "d" / "report.txt").read_text()


def test_property_oracle_report(tmp_path):
    cfg_text = "seed = 14\nsamples = 20000\nscan_values = 0 deg, 45 deg\n"
    config, extras = load_config_file(_write_cfg(tmp_path, cfg_text))
    artifacts = run_scenario(
        build_scenario("property-oracle", config, extras, out_dir=tmp_path / "o")
    )
    assert len(artifacts["checks"]) == 2
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "samples = 20000" in report
    assert "p_value_1 = " in report


def test_calibrate_report(tmp_path):
    cfg_text = (
        "pair_rate = 2e4\nduration = 1\ncell_dead_time = 102 ns\nseed = 15\n"
        "scan_points = 13\nscan_start = 0 deg\nscan_stop = 180 deg\n"
    )
    config, extras = load_config_file(_write_cfg(tmp_path, cfg_text))
    artifacts = run_scenario(
        build_scenario("calibrate", config, extras, out_dir=tmp_path / "c")
    )
    calibration = artifacts["calibration"]
    assert abs(calibration.eta_visibility.value - 0.476) < 0.03
    assert abs(calibration.eta_klyshko.value - 0.476) < 0.03
    # the two independent routes must agree within combined errors
    combined = math.hypot(calibration.eta_visibility.sigma, calibration.eta_klyshko.sigma)
    assert (
        abs(calibration.eta_visibility.value - calibration.eta_klyshko.value)
        <= 3.0 * combined
    )
    report = (tmp_path / "c" / "report.txt").read_text()
    for key in ("eta_visibility", "eta_klyshko", "klyshko_coincidences"):
        assert key in report


def test_run_klyshko_uses_conjugate_analyser():
    config = ExperimentConfig(pair_rate=2e4, duration=1.0, seed=16)
    result, accidentals, eta = run_klyshko(config)
    assert abs(eta.value - 0.476) < 5.0 * eta.sigma
    assert accidentals >= 0.0
    # cell disabled: no rotations happened during the calibration run
    assert result.signals_rotated == 0


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


def test_expected_background_fraction():
    assert expected_background_fraction(ExperimentConfig()) == 0.0
    config = ExperimentConfig(pair_rate=1e4, background_rate_signal=2.5e3)
    assert expected_background_fraction(config) == pytest.approx(0.2)
    # dark counts skip the polarizer coin and the efficiency factor
    dark = ExperimentConfig(pair_rate=1e4, eta_signal=0.5, dark_rate_signal=2.5e3)
    assert expected_background_fraction(dark) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# command-line entry point


def test_cli_simulate_and_analyze_round_trip(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()

    assert main(["analyze", "fit", "--curve", str(out / "curve.csv"),
                 "--out", str(tmp_path / "fit.txt")]) == 0
    stdout = capsys.readouterr().out
    report = (out / "report.txt").read_text()
    fit_sections = report[report.index("[fit_singles]"):].rstrip("\n")
    assert stdout.rstrip("\n") == fit_sections
    assert (tmp_path / "fit.txt").read_text().rstrip("\n") == fit_sections


def test_cli_seed_override_changes_output(tmp_path):
    cfg = _write_cfg(tmp_path)
    main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(tmp_path / "x")])
    main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(tmp_path / "y"),
          "--seed", "99"])
    assert (tmp_path / "x" / "curve.csv").read_bytes() != (tmp_path / "y" / "curve.csv").read_bytes()


def test_cli_points_override(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "pts"
    main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(out),
          "--points", "0 deg", "45 deg", "90 deg", "120 deg"])
    _, rows = read_curve_file(out / "curve.csv")
    assert rows.shape[0] == 4
    assert rows[2, 0] == pytest.approx(math.pi / 2.0)


def test_cli_calibrate(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        "pair_rate = 1e4\nduration = 1\ncell_dead_time = 102 ns\nseed = 17\n",
    )
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    stdout = capsys.readouterr().out
    assert "eta (visibility route)" in stdout
    assert "eta (coincidence route)" in stdout


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["simulate", "polarizer-scan", "--config", "/absent.cfg",
                 "--out", str(tmp_path)]) == 2
    bad = _write_cfg(tmp_path, "mystery = 1\n", name="bad.cfg")
    assert main(["simulate", "polarizer-scan", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2

    # a short row, a non-numeric, a non-finite and a negative cell
    for i, row in enumerate(["0,1,1", "x,1,1,1,1", "0.5,nan,1,1,1", "0.5,-1,1,1,1"]):
        junk = tmp_path / f"junk{i}.csv"
        junk.write_text(row + "\n")
        assert main(["analyze", "fit", "--curve", str(junk)]) == 4

    def boom(*args, **kwargs):
        raise SimulationError("invariant violated")

    monkeypatch.setattr("biphoton_feedforward.cli.polarizer_scan", boom)
    cfg = _write_cfg(tmp_path)
    assert main(["simulate", "polarizer-scan", "--config", str(cfg),
                 "--out", str(tmp_path / "z")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", [["simulate", "polarizer-scan"], ["calibrate"]])
def test_cli_rejects_nonpositive_workers(tmp_path, capsys, monkeypatch, command, workers):
    def no_scan(*args, **kwargs):
        raise AssertionError("events drawn despite an invalid --workers")

    monkeypatch.setattr("biphoton_feedforward.cli.polarizer_scan", no_scan)
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "w"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", str(cfg), "--out", str(out), "--workers", workers])
    assert exc.value.code == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra_cfg",
    [
        (["simulate", "polarizer-scan", "--points", "0 deg", "45 deg"], ""),
        (["calibrate"], "scan_values = 0 deg, 45 deg\n"),
    ],
    ids=["polarizer-scan", "calibrate"],
)
def test_cli_unfittable_singles_scan_writes_nothing(tmp_path, capsys, command, extra_cfg):
    # a singles curve of two points cannot be fitted: the command fails with
    # the analysis exit code and leaves its output directory empty
    cfg = _write_cfg(tmp_path, FAST_CFG.replace("scan_points = 9\n", "") + extra_cfg)
    out = tmp_path / "short"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 4
    assert "analysis error: need at least 4 points, got 2" in capsys.readouterr().err
    assert out.is_dir() and list(out.iterdir()) == []


@pytest.mark.parametrize("line", ["pulse_tail = 2 us", "idler_polarizer = V"])
def test_cli_rejects_removed_config_keys(tmp_path, capsys, monkeypatch, line):
    def no_draw(*args, **kwargs):
        raise AssertionError("events drawn for a refused config")

    monkeypatch.setattr("biphoton_feedforward.simulation._sample_poisson_times", no_draw)
    cfg = _write_cfg(tmp_path, FAST_CFG + line + "\n")
    out = tmp_path / "old"
    assert main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["polarizer-scan", "property-oracle"])
def test_cli_rejects_infinite_angles(tmp_path, capsys, monkeypatch, kind):
    # 1e999 overflows to inf: refused at parsing, before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("events drawn for a refused angle")

    for target in ("_sample_poisson_times", "sample_joint_outcomes"):
        monkeypatch.setattr(f"biphoton_feedforward.simulation.{target}", no_draw)
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "inf"
    argv = ["simulate", kind, "--config", str(cfg), "--out", str(out)]
    assert main([*argv, "--points", "1e999", "0", "1", "2"]) == 2
    assert "angle value '1e999' is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_runaway_event_count(tmp_path, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("events drawn for a refused config")

    monkeypatch.setattr("biphoton_feedforward.simulation._sample_poisson_times", no_draw)
    text = FAST_CFG.replace("pair_rate = 2e3", "pair_rate = 1e9").replace(
        "duration = 0.2", "duration = 1"
    )
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "big"
    assert main(["simulate", "polarizer-scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert "exceed the budget" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_refuses_runaway_sample_count(monkeypatch):
    # checked when the scenario is built; the refused count is never drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("samples drawn for a refused scenario")

    monkeypatch.setattr("biphoton_feedforward.simulation.sample_joint_outcomes", no_draw)
    config = ExperimentConfig()
    with pytest.raises(ConfigError, match="exceed the budget"):
        build_scenario("property-oracle", config, {"samples": "10000000000"})
    limit = int(simulation.MAX_EXPECTED_EVENTS)
    with pytest.raises(ConfigError, match="exceed the budget"):
        Scenario("property-oracle", config, (0.0,), samples=limit + 1)
    assert Scenario("property-oracle", config, (0.0,), samples=limit).samples == limit


# One command may draw 50 runs at the per-run limit; every run or oracle
# angle also counts 1e4 events for its fixed cost.
COMMAND_BUDGET = 50 * simulation.MAX_EXPECTED_EVENTS
RUN_OVERHEAD = 1e4
EDGE_TOLERANCE = 0.5e-9


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
        mock.patch.object(simulation, "sample_joint_outcomes", no_draw),
        mock.patch.object(np, "linspace", small_linspace),
    ):
        yield


def _points(n, samples="100000"):
    return {"scan_start": "0", "scan_stop": "1", "scan_points": str(n), "samples": samples}


def test_command_budget_counts_every_run():
    # at the per-run limit a run counts 2e7 + 1e4 events, so 49 runs fit
    at_limit = ExperimentConfig(pair_rate=simulation.MAX_EXPECTED_EVENTS, duration=1.0)
    idle = ExperimentConfig(pair_rate=0.0)
    limit = str(int(simulation.MAX_EXPECTED_EVENTS))  # oracle samples per angle
    gap = 2.0**45 * EDGE_TOLERANCE  # 45 halvings down to the tolerance
    wider = math.nextafter(gap, math.inf)  # 46
    cases = [
        # kind, config, build_scenario arguments within budget, then over it
        ("polarizer-scan", at_limit, (_points(49), None), (_points(50), None)),
        ("calibrate", at_limit, (_points(48), None), (_points(49), None)),  # + Klyshko
        # two delays: 2 scan runs, 2 bracket checks and the halvings
        ("delay-scan", at_limit, ({}, ["0", repr(gap)]), ({}, ["0", repr(wider)])),
        ("property-oracle", idle, (_points(49, limit), None), (_points(50, limit), None)),
        # a run that draws nothing still counts its fixed cost
        ("polarizer-scan", idle, (_points(10**5), None), (_points(10**5 + 1), None)),
        ("polarizer-scan", idle, ({}, None), (_points(10**15), None)),
    ]
    with _nothing_drawn():
        for kind, config, (extras, points), (over_extras, over_points) in cases:
            build_scenario(kind, config, extras, points=points)
            with pytest.raises(ConfigError, match="exceed the budget"):
                build_scenario(kind, config, over_extras, points=over_points)


def test_sweep_wider_than_the_largest_float_is_refused():
    # neighbouring values 2e308 apart: the range step and the bisection
    # count would overflow
    config = ExperimentConfig()
    wide = {"scan_start": "-1e308", "scan_stop": "1e308", "scan_points": "2"}
    with _nothing_drawn():
        for kind, extras, points in (
            ("polarizer-scan", wide, None),
            ("delay-scan", {}, ["-1e308", "1e308"]),
        ):
            with pytest.raises(ConfigError, match="largest float"):
                build_scenario(kind, config, extras, points=points)


def test_cli_refuses_runaway_scan_before_building_it(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, FAST_CFG.replace("scan_points = 9", "scan_points = 10000000000"))
    out = tmp_path / "many"
    with _nothing_drawn():
        assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "exceed the budget" in capsys.readouterr().err
    assert not out.exists()


def _command_events(kind, scenario, widest_gap):
    n = len(scenario.sweep)
    if kind == "property-oracle":
        return n * (scenario.samples + RUN_OVERHEAD)
    runs = n + (kind == "calibrate")
    if kind == "delay-scan" and n > 1:
        runs += 2
        while widest_gap > EDGE_TOLERANCE:
            widest_gap /= 2.0
            runs += 1
    c = scenario.config
    rate = c.pair_rate + c.dark_rate_idler + c.dark_rate_signal + c.background_rate_signal
    return runs * (rate * c.duration + RUN_OVERHEAD)


_RATES = st.sampled_from(["0", "1e3", "2e5", "1e7", "2e7", "1e9", "-5", "nan", "inf", "x"])
_DURATIONS = st.sampled_from(["0", "1", "100 ms", "10 us", "1e300 s", "-1", "1 parsec"])
_SWEEP_VALUES = st.sampled_from(["0", "90 deg", "50 ns", "2 us", "1e300", "-1e308", "1e308"])
_COUNTS = st.integers(-3, 10**16).map(str) | st.sampled_from(["x", "1.5", "0x10", "2e7"])


@st.composite
def _command_texts(draw):
    """Config text with random rates, durations and sweep sizes for one command."""
    lines = []
    for key in ("pair_rate", "dark_rate_idler", "dark_rate_signal", "background_rate_signal"):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(_RATES | st.floats(-1.0, 1e10).map(repr))}")
    if draw(st.booleans()):
        lines.append(f"duration = {draw(_DURATIONS | st.floats(0.0, 1e3).map(repr))}")
    sweep = draw(st.sampled_from(["default", "range", "values"]))
    value = _SWEEP_VALUES | st.floats(-1e3, 1e3).map(repr)
    scan_range = None
    if sweep == "range":
        scan_range = (draw(value), draw(value), draw(_COUNTS))
        keys = ("scan_start", "scan_stop", "scan_points")
        lines += [f"{k} = {v}" for k, v in zip(keys, scan_range)]
    elif sweep == "values":
        lines.append("scan_values = " + ", ".join(draw(st.lists(value, max_size=30))))
    if draw(st.booleans()):
        lines.append(f"samples = {draw(_COUNTS)}")
    kind = draw(st.sampled_from(["polarizer-scan", "delay-scan", "calibrate", "property-oracle"]))
    return kind, "\n".join(lines) + "\n", scan_range


@settings(max_examples=300, deadline=None)
@given(_command_texts())
def test_every_command_builds_within_budget_or_is_refused(case):
    kind, text, scan_range = case
    with _nothing_drawn():
        try:
            config, extras = parse_config_text(text)
            scenario = build_scenario(kind, config, extras)
        except ConfigError:
            return
    if scan_range is None:
        sweep = scenario.sweep
        widest_gap = max((abs(b - a) for a, b in zip(sweep, sweep[1:])), default=0.0)
    else:
        parse = parse_time if kind == "delay-scan" else parse_angle
        widest_gap = abs(parse(scan_range[1]) - parse(scan_range[0])) / len(scenario.sweep)
    assert _command_events(kind, scenario, widest_gap) <= COMMAND_BUDGET


def test_cli_reproduces_committed_results(tmp_path, capsys):
    # the committed results/ tree is the behaviour contract: fresh runs of
    # all five canned scenarios must reproduce every file byte for byte
    for name, command in GOLDEN_RUNS.items():
        out = tmp_path / name
        config = REPO_ROOT / "scenarios" / f"{name}.cfg"
        assert main([*command, "--config", str(config), "--out", str(out)]) == 0
        golden = REPO_ROOT / "results" / name
        produced = sorted(p.name for p in out.iterdir())
        assert produced == sorted(p.name for p in golden.iterdir())
        for file_name in produced:
            assert (out / file_name).read_bytes() == (golden / file_name).read_bytes(), (
                f"{name}/{file_name} differs from results/"
            )
    capsys.readouterr()


def test_reproduce_figures_script_matches_committed_results(tmp_path):
    # the end-to-end script writes all five scenarios; every file it writes
    # must equal the committed results/ byte for byte
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "reproduce_figures.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    golden_root = REPO_ROOT / "results"
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(golden_root) for p in golden_root.rglob("*") if p.is_file())
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (golden_root / rel).read_bytes(), (
            f"{rel} differs from results/"
        )


def test_cli_refuses_to_fit_delay_curves(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "pair_rate = 1e3\nduration = 0.2\nseed = 18\nscan_values = 0 ns, 50 ns, 100 ns, 150 ns\n"
    )
    out = tmp_path / "d"
    assert main(["simulate", "delay-scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["analyze", "fit", "--curve", str(out / "curve.csv")]) == 4
    capsys.readouterr()


def test_package_import_skips_scipy_and_process_pool():
    # start-up cost of every CLI call: importing the package must pull in
    # neither scipy nor the process-pool machinery that serial runs never use
    probe = (
        "import sys, biphoton_feedforward; "
        "print(sorted(m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_version_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "biphoton_feedforward", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "config schema 2" in proc.stdout
