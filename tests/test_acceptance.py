"""Acceptance gate: every headline behaviour asserted at its stated
tolerance, one printed pass/fail line per criterion (run with -s to see
them).  Configurations are frozen; all runs are deterministic.
"""

import contextlib
import io
import math
import time
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from biphoton_feedforward.analysis import (
    CurvePoint,
    cell_busy_time,
    correct_visibility,
    curve_rows,
    expected_counts,
    fit_visibility,
    trigger_share,
)
from biphoton_feedforward.cli import GOLDEN_COMMANDS, load_config_file, main, run_klyshko
from biphoton_feedforward.polarization import (
    conditional_feedforward_state,
    degree_of_polarization,
)
from biphoton_feedforward.simulation import (
    ExperimentConfig,
    derive_seed,
    find_rotation_edge,
    sampling_soundness,
    scan,
    simulate_run,
)

ETA = 0.476
THETAS_13 = [k * math.pi / 13.0 for k in range(13)]
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
RESULTS_DIR = SCENARIO_DIR.parent / "results"


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _singles_fit(config, thetas=THETAS_13):
    runs = scan(config, "polarizer_theta", list(thetas))
    rows = curve_rows(thetas, runs, config.duration)
    fit = fit_visibility([CurvePoint(x, rate, sigma) for x, rate, sigma, _, _ in rows])
    return fit, runs


def _coincidence_fit(config, thetas=THETAS_13):
    runs = scan(config, "polarizer_theta", list(thetas))
    rows = curve_rows(thetas, runs, config.duration)
    fit = fit_visibility([CurvePoint(x, rate, sigma) for x, _, _, rate, sigma in rows])
    return fit, runs


def _mod_pi_distance(a: float, b: float = 0.0) -> float:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def test_criterion_1_purification_law_exact():
    start = time.perf_counter()
    worst = 0.0
    for eta in np.linspace(0.0, 1.0, 11):
        state = conditional_feedforward_state(float(eta))
        worst = max(worst, abs(degree_of_polarization(state) - eta))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        1,
        ok,
        f"degree of polarization equals eta over the 0..1 grid, "
        f"max deviation {worst:.2e} (tol 1e-12), {elapsed:.2f} s",
    )


def test_criterion_2_singles_visibility_recovers_eta():
    start = time.perf_counter()
    config = ExperimentConfig(
        pair_rate=2e4, duration=45.0, cell_dead_time=102e-9, seed=1
    )
    fit, runs = _singles_fit(config)
    min_triggers = min(run.idler_detections for run in runs)
    theta0_dev = math.degrees(_mod_pi_distance(fit.phase_theta0))
    elapsed = time.perf_counter() - start
    ok = (
        min_triggers >= 2e5
        and abs(fit.visibility_v - ETA) <= 0.01
        and theta0_dev <= 1.0
        and elapsed < 60.0
    )
    _report(
        2,
        ok,
        f"fitted V = {fit.visibility_v:.4f} +/- {fit.sigma_visibility:.4f} "
        f"(target 0.476 +/- 0.01), theta0 off vertical by {theta0_dev:.3f} deg "
        f"(tol 1 deg), >= {min_triggers} triggers per point, {elapsed:.1f} s",
    )


def test_criterion_3_raw_and_corrected_visibility():
    start = time.perf_counter()
    background_fraction, failure_prob = 0.2, 0.15
    # residual trigger blocking tuned so the raw fringe lands at 0.30
    x = ETA * (1 - background_fraction) * (1 - failure_prob) / 0.30 - 1.0
    busy = cell_busy_time(ExperimentConfig())
    pair_rate = x / ((1 - failure_prob) * busy) / (0.5 * ETA)
    config = ExperimentConfig(
        pair_rate=pair_rate,
        background_rate_signal=pair_rate * background_fraction / (1 - background_fraction),
        cell_fail_prob=failure_prob,
        duration=1.0,
        seed=2026,
    )
    # the model's raw fringe of that config: eta rho (1 - b) = 0.30, less
    # eta c (1 - b) for the stray signals that the flat tops, c = 0.0034 of
    # the time, rotate both ways
    v, h = (
        expected_counts(replace(config, polarizer_theta=theta)).singles_d2
        for theta in (0.0, math.pi / 2)
    )
    assert abs((v - h) / (v + h) - 0.2987) <= 5e-5
    fit, _ = _singles_fit(config)
    steps = [("background", 1 - background_fraction), ("cell", 1 - failure_prob)]
    _, corrected = correct_visibility(fit.visibility_v, fit.sigma_visibility, steps)[-1]
    elapsed = time.perf_counter() - start
    ok = (
        abs(fit.visibility_v - 0.30) <= 0.02
        and abs(corrected.value - 0.44) <= 0.02
        and elapsed < 60.0
    )
    _report(
        3,
        ok,
        f"raw V = {fit.visibility_v:.4f} (target 0.30 +/- 0.02), corrected "
        f"V = {corrected.value:.4f} +/- {corrected.sigma:.4f} "
        f"(target 0.44 +/- 0.02) via factor (1-b)(1-f) = 0.68, {elapsed:.1f} s",
    )


def test_criterion_4_delay_scan_edge():
    start = time.perf_counter()
    config = ExperimentConfig(pair_rate=2e3, duration=5.0, seed=404)
    zero_run, late_run = scan(config, "t_electronic", [0.0, 150e-9])
    frac_zero = zero_run.rotated_fraction
    frac_late = late_run.rotated_fraction
    edge = find_rotation_edge(config, 50e-9, 150e-9)
    elapsed = time.perf_counter() - start
    ok = (
        frac_zero > 0.99
        and frac_late < 0.01
        and abs(edge - 98e-9) <= 5e-9
        and elapsed < 60.0
    )
    _report(
        4,
        ok,
        f"rotated fraction {frac_zero:.4f} at T=0 (> 0.99), {frac_late:.4f} at "
        f"T=150 ns (< 0.01), edge at {edge * 1e9:.2f} ns (target 98 +/- 5), "
        f"{elapsed:.1f} s",
    )


def test_criterion_5_coincidence_phase_shift_and_dead_time():
    start = time.perf_counter()
    # part one: low rate, cell on vs off
    base = ExperimentConfig(pair_rate=1000.0, duration=100.0, seed=505)
    fit_on, _ = _coincidence_fit(base)
    fit_off, _ = _coincidence_fit(replace(base, cell_fail_prob=1.0, seed=506))
    shift = math.degrees(_mod_pi_distance(fit_on.phase_theta0, fit_off.phase_theta0))

    # part two: the D1 rate r at which the default non-paralyzable cell
    # blocks 5% of triggers, 1 - trigger_share = 1 - 1 / (1 + r B) = 0.05
    r_oracle = (1.0 / 0.95 - 1.0) / cell_busy_time(base)
    assert abs(1.0 - trigger_share(base, r_oracle) - 0.05) <= 1e-12
    config_b = ExperimentConfig(pair_rate=r_oracle / (0.5 * ETA), duration=4.0, seed=507)
    fit_b, runs_b = _coincidence_fit(config_b)
    measured_failure = 1.0 - float(np.mean([run.rotated_fraction for run in runs_b]))
    elapsed = time.perf_counter() - start
    ok = (
        fit_on.visibility_v >= 0.99
        and fit_off.visibility_v >= 0.99
        and abs(shift - 90.0) <= 1.0
        and abs(measured_failure - 0.05) <= 0.015
        and abs(fit_b.visibility_v - 0.90) <= 0.02
        and elapsed < 120.0
    )
    _report(
        5,
        ok,
        f"V_on = {fit_on.visibility_v:.4f}, V_off = {fit_off.visibility_v:.4f} "
        f"(both >= 0.99), phase shift {shift:.2f} deg (target 90 +/- 1); at the "
        f"oracle rate {r_oracle:.0f}/s failures = {measured_failure:.4f} "
        f"(oracle 0.05) and V = {fit_b.visibility_v:.4f} (target 0.90 +/- 0.02), "
        f"{elapsed:.1f} s",
    )


def test_criterion_6_klyshko_calibration():
    start = time.perf_counter()
    estimates = []
    for i, eta_signal in enumerate((0.1, 0.3, 0.9)):
        config = ExperimentConfig(
            pair_rate=1e5, duration=10.0, eta_signal=eta_signal, seed=600 + i
        )
        _, eta = run_klyshko(config)
        estimates.append((eta_signal, eta))
    elapsed = time.perf_counter() - start
    worst = max(abs(eta.value - ETA) for _, eta in estimates)
    ok = worst <= 0.005 and elapsed < 60.0
    summary = ", ".join(
        f"eta_s={s}: {eta.value:.4f}+/-{eta.sigma:.4f}" for s, eta in estimates
    )
    _report(
        6,
        ok,
        f"Klyshko estimate of 0.476 from 1e6 pairs, max deviation {worst:.4f} "
        f"(tol 0.005), independent of signal efficiency [{summary}], {elapsed:.1f} s",
    )


def test_criterion_7_sampling_soundness():
    start = time.perf_counter()
    # the canned oracle's run, 1e5 expected pairs per angle, at the test's own seeds
    oracle, _ = load_config_file(SCENARIO_DIR / "oracle.cfg")
    worst_p = 1.0
    for i, theta in enumerate((0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 2.0)):
        config = replace(oracle, polarizer_theta=theta, seed=derive_seed(7, f"c7:{i}"))
        check = sampling_soundness(config)
        worst_p = min(worst_p, check.p_value)
    elapsed = time.perf_counter() - start
    ok = worst_p > 1e-3 and elapsed < 30.0
    _report(
        7,
        ok,
        f"joint outcome frequencies match enumerated probabilities at 4 angles, "
        f"N=1e5 each, worst chi-square p = {worst_p:.4f} (> 0.001), {elapsed:.1f} s",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    # the committed results/ tree is the behaviour contract: two fresh runs of
    # each canned scenario's command must both reproduce it byte for byte
    start = time.perf_counter()
    mismatches = []
    for name, command in GOLDEN_COMMANDS:
        golden = RESULTS_DIR / name
        expected = sorted(p.name for p in golden.iterdir())
        for run in ("a", "b"):
            out = tmp_path / run / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*command, "--config", str(SCENARIO_DIR / f"{name}.cfg"),
                             "--out", str(out)])
            written = sorted(p.name for p in out.iterdir()) if code == 0 else []
            if written != expected:
                mismatches.append(f"{run}/{name}: exit {code}, files {written}")
                continue
            mismatches += [
                f"{run}/{name}/{f}" for f in written
                if (out / f).read_bytes() != (golden / f).read_bytes()
            ]

    # in-memory double run of a full-noise configuration, all seven counts
    config = ExperimentConfig(
        pair_rate=1.8e5,
        background_rate_signal=4.5e4,
        cell_fail_prob=0.15,
        duration=0.5,
        seed=88,
    )
    if astuple(simulate_run(config)) != astuple(simulate_run(config)):
        mismatches.append("in-memory rerun")
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _report(
        8,
        ok,
        "all 5 canned scenarios rerun byte-identically to results/, twice"
        + (f" (mismatches: {mismatches})" if mismatches else "")
        + f", {elapsed:.1f} s",
    )
