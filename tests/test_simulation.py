"""Event-engine checks: statistics against closed-form oracles, timing
invariants, determinism, and the matcher against a brute-force reference.
"""

import hashlib
import importlib.util
import math
import re
import sys
import tracemalloc
import unittest.mock
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_feedforward import (
    CellTimeline,
    ConfigError,
    CurvePoint,
    DataError,
    ExperimentConfig,
    SimulationError,
    accidental_coincidences,
    cell_busy_time,
    coincidence_match,
    conditional_feedforward_state,
    delay_scan,
    derive_seed,
    find_rotation_edge,
    fit_visibility,
    poisson_count_sigma,
    polarizer_scan,
    project_polarizer,
    sample_joint_outcomes,
    sampling_soundness,
    simulate_run,
)
from biphoton_feedforward import simulation
from biphoton_feedforward.simulation import (
    _chi2_sf,
    _coins,
    _sample_poisson_times,
    _substreams,
)

ETA = 0.476


def _binomial_sigma(p, n):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def _sample_pairs(seed, rate, duration):
    """Emission times and branches as the pair substream of a run draws them."""
    rng = _substreams(seed)[0]
    times = _sample_poisson_times(rng, rate, duration)
    return times, _coins(rng, times.size, 0.5)


# ---------------------------------------------------------------------------
# reproducibility


def test_seed_derivation_frozen():
    # dual route: frozen literal plus an independent recomputation
    assert derive_seed(0, "x") == 17199247497253735899
    manual = int.from_bytes(hashlib.sha256(b"0:x").digest()[:8], "little")
    assert derive_seed(0, "x") == manual
    assert derive_seed(0, "x") != derive_seed(0, "y")
    assert derive_seed(0, "x") != derive_seed(1, "x")


def test_simulate_run_is_deterministic():
    cfg = ExperimentConfig(pair_rate=5e4, duration=1.0, seed=99)
    a = simulate_run(cfg)
    b = simulate_run(cfg)
    assert a.singles_d1 == b.singles_d1
    assert a.singles_d2 == b.singles_d2
    assert a.coincidences == b.coincidences
    assert a.rotated_fraction == b.rotated_fraction
    for name in ("pairs_emitted", "idler_detections", "triggers_accepted", "signals_rotated"):
        assert getattr(a, name) == getattr(b, name)


def test_different_seeds_differ():
    cfg = ExperimentConfig(pair_rate=5e4, duration=1.0, seed=1)
    other = simulate_run(replace(cfg, seed=2))
    assert simulate_run(cfg).singles_d2 != other.singles_d2


def test_scan_points_have_distinct_seeds():
    cfg = ExperimentConfig(pair_rate=1e4, duration=0.2, seed=8)
    points = polarizer_scan(cfg, [0.0, 0.3, 0.6, 0.9])
    seeds = [p.result.config.seed for p in points]
    assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize(
    "cell_fail_prob, cell_enabled, draws",
    [(0.15, True, True), (0.0, True, False), (1.0, True, False), (0.15, False, False)],
)
def test_trigger_substream_draws_one_coin_per_kept_d1_click(
    monkeypatch, cell_fail_prob, cell_enabled, draws
):
    # the trigger substream reads one double per D1 click after the D1 dead
    # time, and none when the failure coin is certain or the cell is off
    kept = []

    def keep(seed):
        kept.append(_substreams(seed))
        return kept[-1]

    monkeypatch.setattr(simulation, "_substreams", keep)
    config = ExperimentConfig(
        pair_rate=2e5, duration=1.0, dark_rate_idler=1e5, detector_dead_time_d1=1e-6,
        cell_fail_prob=cell_fail_prob, cell_enabled=cell_enabled, seed=1501,
    )
    result = simulate_run(config)
    assert result.pairs_emitted > 2 * simulation._COIN_BLOCK  # several blocks
    want = _substreams(config.seed)[2].bit_generator
    if draws:
        want.advance(result.singles_d1)
    (streams,) = kept
    assert streams[2].bit_generator.state == want.state


def test_scan_keeps_counts_not_arrays():
    # a finished point keeps its counts, not per-event or per-window arrays:
    # ~1 MB of cell-window times per point at this rate
    cfg = ExperimentConfig(pair_rate=2e5, duration=1.0, seed=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        points = polarizer_scan(cfg, [0.0, 0.4, 0.8, 1.2])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(points) == 4
    assert held < 64 * 1024


# ---------------------------------------------------------------------------
# block-wise run: the counts of the full-width engine, for any block size

_COUNT_FIELDS = (
    "pairs_emitted",
    "singles_d1",
    "singles_d2",
    "coincidences",
    "idler_detections",
    "triggers_accepted",
    "signals_rotated",
    "rotated_fraction",
)


def _counts(result):
    return tuple(getattr(result, name) for name in _COUNT_FIELDS)


_NOISE = dict(
    dark_rate_idler=1e3,
    dark_rate_signal=1e3,
    detector_dead_time_d1=50e-9,
    detector_dead_time_d2=50e-9,
)
_BENCH = dict(pair_rate=181479.0, duration=1.2, background_rate_signal=45e3, cell_fail_prob=0.15)
_SATURATED = dict(pair_rate=2e6, duration=0.11, background_rate_signal=0.8e6, cell_fail_prob=0.15)


# Counts of the engine that ran each step once over the whole run, before
# it ran in blocks; the last two rows are counts of the blocked engine from
# before a coin of probability 0 or 1 stopped drawing.  Every run spans at
# least three blocks of 2^16 pairs.
@pytest.mark.parametrize(
    "overrides, counts",
    [
        pytest.param(
            dict(**_BENCH, seed=1201),
            (217867, 52583, 176402, 40450, 51390, 41522, 40583, 0.7897061685152753),
            id="engine-bench",
        ),
        pytest.param(
            dict(**_SATURATED, dead_time_mode="paralyzable", seed=1202),
            (219679, 50922, 159504, 17074, 50818, 17672, 17689, 0.34808532409776066),
            id="saturated-paralyzable",
        ),
        pytest.param(
            dict(**_SATURATED, seed=1203),
            (219041, 51300, 163490, 22918, 51201, 23775, 23841, 0.46563543680787484),
            id="saturated-nonparalyzable",
        ),
        pytest.param(
            dict(pair_rate=2e5, duration=1.1, eta_signal=0.8, background_rate_signal=45e3,
                 seed=1204),
            (220123, 53178, 145758, 37564, 52069, 48275, 47272, 0.9078722464422209),
            id="eta-signal-0.8",
        ),
        pytest.param(
            dict(pair_rate=2e5, duration=1.1, cell_enabled=False, background_rate_signal=45e3,
                 seed=1205),
            (220370, 53231, 135253, 26, 52124, 0, 0, 0.0),
            id="cell-off",
        ),
        pytest.param(
            # 5 ms windows open 30 ms after their trigger, blocks later
            dict(pair_rate=1e6, duration=0.25, t_electronic=30e-3, pulse_flat=5e-3,
                 cell_dead_time=6e-3, seed=1206),
            (250060, 59140, 122093, 7924, 58895, 7, 7972, 0.13535953816113422),
            id="late-windows",
        ),
        pytest.param(
            dict(pair_rate=1e6, duration=0.22, background_rate_signal=2e5,
                 coincidence_window=1e-6, coincidence_offset=40e-6, seed=1207),
            (219788, 51714, 160128, 26166, 51514, 34488, 34365, 0.6671002057693054),
            id="off-peak",
        ),
        pytest.param(
            # signal photons reach D2 30 ms, about half a block, after their idlers
            dict(pair_rate=1e6, duration=0.22, t_fiber=30e-3, coincidence_window=1e-6,
                 background_rate_signal=2e5, seed=1208),
            (219544, 51561, 128273, 21620, 51371, 34563, 664, 0.012925580580483152),
            id="long-fiber",
        ),
        pytest.param(
            # polarizer coins still drawn
            dict(**_BENCH, polarizer_theta=0.7, seed=1209),
            (218216, 52651, 143580, 27977, 51421, 41493, 40524, 0.7880826899515762),
            id="engine-bench-theta-0.7",
        ),
        pytest.param(
            # idler coins certain
            dict(**_BENCH, eta_idler=1.0, seed=1210),
            (216845, 109013, 213758, 78907, 107833, 79801, 78983, 0.7324566691087144),
            id="engine-bench-eta-idler-1",
        ),
    ],
)
def test_counts_pinned_across_blocks(overrides, counts):
    result = simulate_run(ExperimentConfig(**{**_NOISE, **overrides}))
    assert result.pairs_emitted >= 3 * 2**16
    assert _counts(result) == counts


@st.composite
def _small_configs(draw):
    """Runs of ~10-300 pairs whose clicks, windows and clusters straddle block edges.

    At zero pair rate the longest noise stream alone sets the time grid.
    """

    def pick(*values):
        return draw(st.sampled_from(values))

    dead = pick(102e-9, 300e-9, 2e-6)
    return ExperimentConfig(
        pair_rate=pick(0.0, 3e6, 1e7, 3e7),
        duration=pick(2e-6, 5e-6, 1e-5),
        eta_idler=pick(0.476, 1.0),
        eta_signal=pick(1.0, 0.8),
        dark_rate_idler=pick(0.0, 3e6),
        dark_rate_signal=pick(0.0, 3e6),
        background_rate_signal=pick(0.0, 1e7),
        t_fiber=pick(0.0, 248e-9, 2e-6),
        t_electronic=pick(0.0, 150e-9, 1e-6),
        pulse_flat=pick(0.0, 50e-9, 100e-9),
        cell_dead_time=dead,
        cell_fail_prob=pick(0.0, 0.15, 0.5, 1.0),
        coincidence_window=pick(3e-9, 100e-9, 1e-6),
        coincidence_offset=pick(None, 0.0, 500e-9, -500e-9),
        polarizer_theta=pick(0.0, 0.7),
        cell_enabled=draw(st.booleans()),
        dead_time_mode=pick("nonparalyzable", "paralyzable"),
        detector_dead_time_d1=pick(0.0, 30e-9, 1e-6),
        detector_dead_time_d2=pick(0.0, 30e-9, 1e-6),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None)
@given(_small_configs(), st.integers(1, 7))
def test_counts_do_not_depend_on_block_size(config, block):
    want = _counts(simulate_run(config))
    with unittest.mock.patch.object(simulation, "_COIN_BLOCK", block):
        assert _counts(simulate_run(config)) == want


def test_run_memory_is_emission_times_plus_one_block():
    # Every idler detected at rare triggers, so half the pairs open a
    # window: a run holds its 8-byte emission times plus the working set of
    # one block, ~7 MB here (see MAX_EXPECTED_EVENTS).
    config = ExperimentConfig(pair_rate=1e4, duration=30.0, eta_idler=1.0, seed=6)
    tracemalloc.start()
    try:
        simulate_run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * config.expected_events + 10e6


@pytest.mark.parametrize("eta_signal", [1.0, 0.8])
def test_background_memory_is_its_times_plus_one_block(eta_signal):
    # The background's polarizer and eta_signal coins are read block by
    # block, so a background-dominated run holds its 8-byte times and one
    # block's coins, not full-width coin arrays and kept clicks.
    config = ExperimentConfig(
        pair_rate=1e3, background_rate_signal=2e6, duration=1.0, eta_signal=eta_signal, seed=8
    )
    tracemalloc.start()
    try:
        simulate_run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * config.expected_events + 4e6


# ---------------------------------------------------------------------------
# emission statistics


def test_pair_count_concentration():
    # the pair substream of a run with seed 1234
    times, signal_is_h = _sample_pairs(1234, 1e5, 1.0)
    n = times.size
    assert abs(n - 1e5) <= 5.0 * math.sqrt(1e5)
    assert np.all(np.diff(times) >= 0.0)
    assert times[0] >= 0.0 and times[-1] < 1.0
    h_fraction = np.mean(signal_is_h)
    assert abs(h_fraction - 0.5) <= 5.0 * _binomial_sigma(0.5, n)


def test_emission_times_uniform():
    times, _ = _sample_pairs(77, 2e5, 1.0)
    # quarters of the interval hold equal shares
    counts, _ = np.histogram(times, bins=4, range=(0.0, 1.0))
    expected = times.size / 4.0
    for c in counts:
        assert abs(c - expected) <= 5.0 * math.sqrt(expected)


def test_zero_rate_gives_empty_stream():
    times, signal_is_h = _sample_pairs(5, 0.0, 1.0)
    assert times.size == 0 and signal_is_h.size == 0


def test_zero_pair_run_counts_noise_only():
    # no pairs, but every noise channel and both dead times on: the empty
    # pair arrays must pass every stage, and the singles are noise alone
    tau, dark, bg = 50e-9, 1e3, 45e3
    cfg = ExperimentConfig(
        pair_rate=0.0,
        duration=1.0,
        dark_rate_idler=dark,
        dark_rate_signal=dark,
        background_rate_signal=bg,
        detector_dead_time_d1=tau,
        detector_dead_time_d2=tau,
        cell_fail_prob=0.15,
        seed=70,
    )
    result = simulate_run(cfg)
    assert result.pairs_emitted == 0
    assert result.idler_detections == 0 and result.signals_rotated == 0
    assert result.rotated_fraction == 0.0
    assert 0 < result.triggers_accepted <= result.singles_d1
    # dark clicks on D1; darks plus half the background on D2, each arm
    # thinned by its dead time
    for measured, rate in ((result.singles_d1, dark), (result.singles_d2, dark + bg / 2.0)):
        expected = rate / (1.0 + rate * tau) * cfg.duration
        assert abs(measured - expected) <= 5.0 * math.sqrt(expected)


# ---------------------------------------------------------------------------
# singles and feed-forward physics


def test_singles_rates_follow_fringe_law():
    cfg = ExperimentConfig(
        pair_rate=2e4, duration=2.0, cell_dead_time=102e-9, seed=404
    )
    for eta_signal in (1.0, 0.3):  # a lossy D2 detects that share of the photons
        for theta in np.linspace(0.0, math.pi, 9, endpoint=False):
            result = simulate_run(
                replace(cfg, polarizer_theta=float(theta), eta_signal=eta_signal)
            )
            law = (
                cfg.pair_rate * 0.5 * (1.0 + ETA * math.cos(2.0 * theta)) * cfg.duration
                * eta_signal
            )
            assert abs(result.singles_d2 - law) <= 5.0 * math.sqrt(law)


def test_idler_detection_rate():
    cfg = ExperimentConfig(pair_rate=1e5, duration=1.0, seed=3)
    result = simulate_run(cfg)
    expected = 1e5 * 0.5 * ETA
    assert abs(result.singles_d1 - expected) <= 5.0 * math.sqrt(expected)


def test_pass_frequency_matches_density_matrix_oracle():
    # Monte Carlo against the analytic chain: at low rate (every trigger
    # fires) the empirical D2 pass frequency per emitted pair must sit
    # within 5 binomial sigma of the feed-forward state's projection.
    cfg = ExperimentConfig(
        pair_rate=2e4, duration=10.0, cell_dead_time=102e-9, seed=909
    )
    oracle_state = conditional_feedforward_state(ETA)
    for theta in (0.0, math.pi / 6, 5.0 * math.pi / 8):
        result = simulate_run(replace(cfg, polarizer_theta=theta))
        n = result.pairs_emitted
        assert n >= 1e5
        p = project_polarizer(oracle_state, theta)
        freq = result.singles_d2 / n
        assert abs(freq - p) <= 5.0 * _binomial_sigma(p, n)


def test_fitted_visibility_tracks_configured_efficiency():
    # nothing in the chain may assume the nominal 0.476: at eta = 0.8 the
    # fitted singles visibility must recover 0.8 within 3 sigma
    cfg = ExperimentConfig(
        pair_rate=2e4, duration=1.0, eta_idler=0.8, cell_dead_time=102e-9, seed=911
    )
    points = []
    for sp in polarizer_scan(cfg, [k * math.pi / 13.0 for k in range(13)]):
        counts = sp.result.singles_d2
        points.append(
            CurvePoint(
                theta=sp.x,
                rate=counts / cfg.duration,
                sigma=poisson_count_sigma(counts) / cfg.duration,
            )
        )
    fit = fit_visibility(points)
    assert abs(fit.visibility_v - 0.8) <= 3.0 * fit.sigma_visibility


def test_cell_disabled_singles_curve_is_flat():
    # without feed-forward the signal marginal is maximally mixed, so a
    # fringe fit over the full half-turn finds no significant visibility
    cfg = ExperimentConfig(
        pair_rate=2e4, duration=1.0, eta_idler=1.0, cell_enabled=False, seed=910
    )
    thetas = np.linspace(0.0, math.pi, 9, endpoint=False)
    points = []
    for sp in polarizer_scan(cfg, list(thetas)):
        counts = sp.result.singles_d2
        points.append(
            CurvePoint(
                theta=sp.x,
                rate=counts / cfg.duration,
                sigma=poisson_count_sigma(counts) / cfg.duration,
            )
        )
    fit = fit_visibility(points)
    assert abs(fit.visibility_v) <= 3.0 * fit.sigma_visibility


def test_rotated_fraction_matches_renewal_model():
    for pair_rate in (2e4, 1e5, 3e5):
        cfg = ExperimentConfig(pair_rate=pair_rate, duration=2.0, seed=55)
        result = simulate_run(cfg)
        x = pair_rate * 0.5 * ETA * cell_busy_time(cfg)
        model = 1.0 / (1.0 + x)
        sigma = _binomial_sigma(model, result.idler_detections)
        assert abs(result.rotated_fraction - model) <= 5.0 * sigma


def test_coincidence_visibility_matches_renewal_model():
    # Heralded signals are rotated with probability g = 1/(1 + x), so the
    # coincidence fringe g cos^2 + (1 - g) sin^2 has visibility
    # 2g - 1 = (1 - x)/(1 + x), down to a third at x ~ 0.5.
    thetas = list(np.linspace(0.0, math.pi, 9, endpoint=False))
    for pair_rate, seed in ((5e5, 68), (1e6, 69)):
        cfg = ExperimentConfig(pair_rate=pair_rate, duration=0.1, seed=seed)
        x = pair_rate * 0.5 * ETA * cell_busy_time(cfg)
        points = polarizer_scan(cfg, thetas)
        fit = fit_visibility(
            [CurvePoint(p.x, p.rate_coincidence, p.sigma_coincidence) for p in points]
        )
        model = (1.0 - x) / (1.0 + x)
        assert abs(fit.visibility_v - model) <= 5.0 * fit.sigma_visibility


def test_rotated_fraction_decreases_with_rate():
    fractions = [
        simulate_run(
            ExperimentConfig(pair_rate=r, duration=2.0, seed=56)
        ).rotated_fraction
        for r in (1e4, 5e4, 2e5, 5e5)
    ]
    assert all(a > b for a, b in zip(fractions, fractions[1:]))


def test_cell_failure_coin():
    cfg = ExperimentConfig(pair_rate=2e3, duration=10.0, cell_fail_prob=0.3, seed=57)
    result = simulate_run(cfg)
    sigma = _binomial_sigma(0.7, result.idler_detections)
    assert abs(result.rotated_fraction - 0.7) <= 5.0 * sigma
    assert result.triggers_accepted <= result.idler_detections


def test_cell_disabled_rotates_nothing():
    cfg = ExperimentConfig(pair_rate=5e4, duration=1.0, cell_enabled=False, seed=58)
    result = simulate_run(cfg)
    assert result.rotated_fraction == 0.0
    assert result.signals_rotated == 0
    assert result.triggers_accepted == 0


# ---------------------------------------------------------------------------
# timing: delay scan and edge


def test_delay_scan_plateaus():
    cfg = ExperimentConfig(pair_rate=2e3, duration=5.0, seed=59)
    points = delay_scan(cfg, [0.0, 50e-9, 150e-9, 300e-9])
    fractions = [p.result.rotated_fraction for p in points]
    assert fractions[0] > 0.99 and fractions[1] > 0.99
    assert fractions[2] < 0.01 and fractions[3] < 0.01


def test_delay_scan_rate_levels_horizontal_selection():
    # theta = pi/2 selects H.  With the trigger in time the heralded signal
    # is rotated to V, so the per-pair D2 rate drops to (1 - eta) / 2; with
    # the trigger 150 ns late nothing rotates and the rate is 1/2.
    cfg = ExperimentConfig(
        pair_rate=2e3, duration=5.0, polarizer_theta=math.pi / 2, seed=64
    )
    points = delay_scan(cfg, [0.0, 150e-9])
    n = points[0].result.pairs_emitted
    early = points[0].result.singles_d2 / n
    late = points[1].result.singles_d2 / points[1].result.pairs_emitted
    assert abs(early - (1.0 - ETA) / 2.0) <= 5.0 * _binomial_sigma(0.262, n)
    assert abs(late - 0.5) <= 5.0 * _binomial_sigma(0.5, n)


def test_delay_scan_rate_levels_vertical_selection():
    # theta = 0 selects V: rotation raises the per-pair rate to (1 + eta) / 2.
    cfg = ExperimentConfig(pair_rate=2e3, duration=5.0, polarizer_theta=0.0, seed=65)
    points = delay_scan(cfg, [0.0, 150e-9])
    n = points[0].result.pairs_emitted
    early = points[0].result.singles_d2 / n
    late = points[1].result.singles_d2 / points[1].result.pairs_emitted
    assert abs(early - (1.0 + ETA) / 2.0) <= 5.0 * _binomial_sigma(0.738, n)
    assert abs(late - 0.5) <= 5.0 * _binomial_sigma(0.5, n)


def test_rotation_edge_position():
    cfg = ExperimentConfig(pair_rate=2e3, duration=5.0, seed=60)
    edge = find_rotation_edge(cfg, 50e-9, 150e-9)
    # fiber delay 248 ns minus internal latency 148 ns minus rise 2 ns
    assert abs(edge - 98e-9) <= 1.0e-9


def test_rotation_edge_requires_bracket():
    cfg = ExperimentConfig(pair_rate=2e3, duration=1.0, seed=61)
    with pytest.raises(DataError):
        find_rotation_edge(cfg, 150e-9, 300e-9)  # never rotated in this range


def test_delay_scan_rejects_negative_delay():
    cfg = ExperimentConfig(pair_rate=1e3, duration=0.5, seed=62)
    with pytest.raises(ConfigError):
        delay_scan(cfg, [-1e-9])


def test_paralyzable_mode_blocks_more():
    base = ExperimentConfig(pair_rate=4e5, duration=1.0, seed=64)
    nonpara = simulate_run(base)
    para = simulate_run(replace(base, dead_time_mode="paralyzable"))
    assert para.rotated_fraction < nonpara.rotated_fraction


# ---------------------------------------------------------------------------
# noiseless detectors


def test_noiseless_run_has_photon_records_only():
    # no dark clicks and no detector dead time: every D1 click is a
    # detected idler photon
    result = simulate_run(ExperimentConfig(pair_rate=1e4, duration=0.5, seed=67))
    assert result.singles_d1 == result.idler_detections


# ---------------------------------------------------------------------------
# coincidence matching


def _brute_force_greedy(a, b, window, offset):
    used = [False] * len(b)
    count = 0
    half = window / 2.0
    for t in a:
        for j, u in enumerate(b):
            if not used[j] and abs(u - (t + offset)) <= half:
                used[j] = True
                count += 1
                break
    return count


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), max_size=25).map(sorted),
    st.lists(st.floats(0.0, 1.0), max_size=25).map(sorted),
    st.floats(1e-6, 0.5),
    st.floats(-0.2, 0.2),
)
def test_matcher_equals_brute_force(a, b, window, offset):
    assert coincidence_match(a, b, window, offset) == _brute_force_greedy(
        a, b, window, offset
    )


def test_matcher_validates_inputs():
    with pytest.raises(ValueError):
        coincidence_match([2.0, 1.0], [0.0], 1e-9)
    with pytest.raises(ValueError):
        coincidence_match([0.0], [2.0, 1.0], 1e-9)
    with pytest.raises(ValueError):
        coincidence_match([0.0], [0.0], -1e-9)
    # NaN compares false both ways, so it passes a test for descending pairs
    for d1, d2, window, offset in [
        ([0.0], [0.0], math.nan, 0.0),
        ([0.0], [0.0], math.inf, 0.0),
        ([0.0], [0.0], 1e-9, math.nan),
        ([0.0, math.nan], [0.0], 1e-9, 0.0),
        ([0.0], [math.nan, 1.0], 1e-9, 0.0),
        ([math.nan], [0.0], 1e-9, 0.0),
        ([0.0], [0.0, math.inf], 1e-9, 0.0),
        ([-math.inf, 0.0], [0.0], 1e-9, 0.0),
    ]:
        with pytest.raises(ValueError):
            coincidence_match(d1, d2, window, offset)


def test_matcher_window_edges():
    # acceptance is |t2 - (t1 + offset)| <= window / 2
    assert coincidence_match([0.0], [1.5e-9], 3e-9) == 1
    assert coincidence_match([0.0], [1.6e-9], 3e-9) == 0


def test_matcher_identical_and_disjoint_trains():
    train = [0.0, 1e-6, 2e-6, 5e-6]
    assert coincidence_match(train, train, 3e-9) == len(train)
    shifted = [t + 1e-3 for t in train]
    assert coincidence_match(train, shifted, 3e-9) == 0
    assert coincidence_match([0.0], [100.0 + 1.5e-9], 3e-9, offset=100.0) == 1


def test_accidental_rate_oracle():
    rng = np.random.default_rng(4242)
    duration, r1, r2, window = 2.0, 5e4, 5e4, 4e-9
    t1 = np.sort(rng.uniform(0.0, duration, rng.poisson(r1 * duration)))
    t2 = np.sort(rng.uniform(0.0, duration, rng.poisson(r2 * duration)))
    matched = coincidence_match(t1, t2, window)
    expected = t1.size * t2.size * window / duration
    assert abs(matched - expected) <= 5.0 * math.sqrt(expected)


def test_offpeak_coincidences_follow_accidental_formula():
    # Cell off, signal analyser on H, and the window moved 10 us off the
    # true-pair lag: every coincidence is accidental.  The flat formula
    # r1 r2 w T holds while r2 w is small; at r2 w = 0.25 a D1 click often
    # finds its candidates taken, and the one-to-one count falls short.
    base = ExperimentConfig(cell_enabled=False, polarizer_theta=math.pi / 2, seed=7)
    offset = base.t_fiber + 10e-6
    for pair_rate, window, holds in [
        (1e5, 3e-9, True),  # r2 w = 1.5e-4
        (1e6, 3e-9, True),
        (3e6, 3e-9, True),
        (1e7, 3e-9, True),  # r2 w = 0.015
        (1e7, 50e-9, False),  # r2 w = 0.25
    ]:
        cfg = replace(
            base,
            pair_rate=pair_rate,
            duration=2e6 / pair_rate,
            coincidence_window=window,
            coincidence_offset=offset,
        )
        result = simulate_run(cfg)
        T = cfg.duration
        expected = accidental_coincidences(
            result.singles_d1 / T, result.singles_d2 / T, window, T
        )
        pull = (result.coincidences - expected) / math.sqrt(expected)
        if holds:
            assert abs(pull) <= 5.0, (pair_rate, window, pull)
        else:
            assert pull < -5.0, (pair_rate, window, pull)


def test_true_coincidences_dominate_when_noiseless():
    cfg = ExperimentConfig(pair_rate=1e4, duration=1.0, seed=68)
    result = simulate_run(cfg)
    # every matched pair comes from a real biphoton at this rate
    assert result.coincidences <= min(result.singles_d1, result.singles_d2)
    # clicked pairs whose signal was rotated to V all pass the theta=0 analyser
    x = 1e4 * 0.5 * ETA * cell_busy_time(cfg)
    expected = 1e4 * 0.5 * ETA / (1.0 + x)
    assert abs(result.coincidences - expected) <= 5.0 * math.sqrt(expected)


# ---------------------------------------------------------------------------
# joint-outcome sampling soundness


def test_sample_joint_outcomes_totals():
    counts = sample_joint_outcomes(math.pi / 4.0, 5000, seed=70)
    assert counts.shape == (2, 2)
    assert counts.sum() == 5000
    again = sample_joint_outcomes(math.pi / 4.0, 5000, seed=70)
    np.testing.assert_array_equal(counts, again)


def test_sampling_soundness_against_enumeration():
    for i, theta in enumerate((0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 2.0)):
        check = sampling_soundness(theta, 20000, seed=derive_seed(71, f"t:{i}"))
        assert check.p_value > 1e-3
        assert abs(check.expected.sum() - 20000) <= 1e-6


def test_chi2_sf_reference_points():
    for x in (0.0, 1e-6, 0.5, 2.0, 7.5, 40.0):
        assert _chi2_sf(x, 2) == math.exp(-x / 2.0)
    # 95% quantiles of chi-square with one and with three df
    assert _chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=0.0, abs=1e-12)
    assert _chi2_sf(7.814727903251179, 3) == pytest.approx(0.05, rel=0.0, abs=1e-12)
    for df in (1, 2, 3):
        assert _chi2_sf(0.0, df) == 1.0
    # the tails grow with df at fixed x
    assert _chi2_sf(2.0, 1) < _chi2_sf(2.0, 2) < _chi2_sf(2.0, 3)


@pytest.mark.parametrize("df", [0, 4])
def test_chi2_sf_rejects_unsupported_df(df):
    with pytest.raises(ValueError, match="df 1 to 3"):
        _chi2_sf(1.0, df)


def test_chi2_sf_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 3):
        for x in np.geomspace(1e-6, 50.0, 400):
            want = scipy_stats.chi2.sf(x, df)
            assert abs(_chi2_sf(float(x), df) - want) <= 1e-12 * want


def test_sampling_soundness_pearson_sum():
    check = sampling_soundness(math.pi / 4.0, 20000, seed=72)
    obs = check.counts.ravel().astype(float)
    exp = check.expected.ravel()
    assert check.chi2 == ((obs - exp) ** 2 / exp).sum()
    assert check.p_value == _chi2_sf(check.chi2, 3)


def test_sampling_soundness_rejects_mismatched_totals(monkeypatch):
    def one_pair_too_many(theta, n, seed):
        counts = sample_joint_outcomes(theta, n, seed)
        counts[0, 1] += 1
        return counts

    monkeypatch.setattr(simulation, "sample_joint_outcomes", one_pair_too_many)
    with pytest.raises(ValueError, match="differ by more than a relative"):
        sampling_soundness(math.pi / 4.0, 20000, seed=72)


# ---------------------------------------------------------------------------
# validation


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(pair_rate=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(eta_idler=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(pulse_flat=300e-9, cell_dead_time=102e-9)
    with pytest.raises(ConfigError):
        ExperimentConfig(dead_time_mode="sometimes")
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(duration=math.inf)
    # int() would silently turn these into integers
    for seed in (1.5, True, math.nan, np.float64(2.5)):
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=seed)
    assert ExperimentConfig(seed=2.0).seed == 2


def test_config_refuses_runaway_event_count(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("events drawn for a refused config")

    monkeypatch.setattr(simulation, "_sample_poisson_times", no_draw)
    with pytest.raises(ConfigError, match="exceed the budget"):
        ExperimentConfig(pair_rate=1e9, duration=1.0)
    # every rate counts towards the budget, and replace() re-checks it
    rate = simulation.MAX_EXPECTED_EVENTS / 4.0
    base = ExperimentConfig(pair_rate=rate, dark_rate_idler=rate, dark_rate_signal=rate)
    with pytest.raises(ConfigError, match="exceed the budget"):
        replace(base, background_rate_signal=1.01 * rate)
    with pytest.raises(ConfigError, match="exceed the budget"):
        replace(base, duration=1.5)


def test_result_invariant_rejects_impossible_counts():
    result = simulate_run(ExperimentConfig(pair_rate=1e3, duration=0.5, seed=72))
    with pytest.raises(SimulationError):
        replace(result, coincidences=result.singles_d1 + result.singles_d2 + 1)


def test_timeline_validation_catches_overlap():
    bad = CellTimeline(np.array([0.0, 1e-9]), 5e-9, 1.0)
    with pytest.raises(SimulationError):
        bad.validate(2e-6)
    unordered = CellTimeline(np.array([1e-6, 1e-6]), 5e-9, 1.0)
    with pytest.raises(SimulationError):
        unordered.validate(2e-6)
    # windows that do not overlap, from triggers 1 us apart at a 2 us dead time
    close = CellTimeline(np.array([0.0, 1e-6]), 100e-9, 1.0)
    with pytest.raises(SimulationError, match="closer than the cell dead time"):
        close.validate(2e-6)
    close.validate(1e-6)


def test_timeline_covers_semantics():
    timeline = CellTimeline(np.array([10.0, 20.0]), 2.0, 30.0)
    np.testing.assert_array_equal(
        timeline.covers_many(np.array([9.999, 10.0, 11.999, 12.0, 21.5])),
        [False, True, True, False, True],
    )
    np.testing.assert_array_equal(
        timeline.covers_many(np.array([9.0, 10.5, 12.5, 20.0, 22.5])),
        [False, True, False, True, False],
    )
    for times in ([math.nan], [10.5, math.nan], [math.nan, 10.5], [10.5, math.inf]):
        with pytest.raises(ValueError):
            timeline.covers_many(np.array(times))


def test_benchmark_stage_hooks_find_the_engine(monkeypatch):
    # perfbench/tracing.py wraps engine callables by name from outside; a
    # rename would silently zero the per-stage times that BENCH_*.json compare
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    hooks.install()
    try:
        simulation.simulate_run(ExperimentConfig(pair_rate=2e4, duration=0.05, seed=91))
    finally:
        hooks.uninstall()
    # _tail_probabilities left the engine with the tail hook
    assert set(hooks.absent) <= {"simulation:_tail_probabilities"}
    assert not tracer.counter_errors
    summary = tracing.summarize(tracer.spans)
    for stage in ("simulation.cell_drive", "simulation.signal_arm", "simulation.match"):
        assert summary[stage]["calls"] == 1
        assert summary[stage]["self_ns"] > 0


def test_each_block_calls_the_hooked_stages_in_order(monkeypatch):
    # perfbench/tracing.py tells the D1 and D2 dead-time filters apart by
    # their order in a run and reads _drive_cell's accepted count, so every
    # block must call the D1 filter, the cell drive, at most one
    # covers_many, the D2 filter and at most one coincidence_match, in
    # that order.  A short block makes 16 blocks of a noisy run.
    config = ExperimentConfig(
        pair_rate=1e6, duration=1e-3, dark_rate_idler=1e5, dark_rate_signal=1e5,
        background_rate_signal=2e5, detector_dead_time_d1=30e-9, detector_dead_time_d2=50e-9,
        cell_fail_prob=0.15, seed=17,
    )
    calls = []

    def spy(fn, label):
        def wrapper(*args, **kwargs):
            calls.append(label(args) if callable(label) else label)
            return fn(*args, **kwargs)

        return wrapper

    def d1_or_d2(args):
        return "1" if args[1] == config.detector_dead_time_d1 else "2"

    filter_spy = spy(simulation._dead_time_filter, d1_or_d2)
    monkeypatch.setattr(simulation, "_dead_time_filter", filter_spy)
    monkeypatch.setattr(simulation, "_drive_cell", spy(simulation._drive_cell, "d"))
    monkeypatch.setattr(CellTimeline, "covers_many", spy(CellTimeline.covers_many, "c"))
    monkeypatch.setattr(simulation, "coincidence_match", spy(simulation.coincidence_match, "m"))
    monkeypatch.setattr(simulation, "_COIN_BLOCK", 64)
    result = simulation.simulate_run(config)
    assert math.ceil(result.pairs_emitted / 64) == 16  # the pairs are the longest stream
    assert re.fullmatch("(1dc?2m?){16}", "".join(calls)), "".join(calls)
    assert calls.count("c") == calls.count("m") == 16


def test_cell_busy_time_is_the_trigger_lead_plus_the_dead_time():
    # one owner for the lead: the same left-to-right float sum, bit for bit
    for config in (
        ExperimentConfig(),
        ExperimentConfig(t_electronic=1e-7, t0_internal=1.48e-7, pulse_rise=3e-9),
        ExperimentConfig(t_electronic=0.1, t0_internal=0.0, pulse_rise=1e-9, cell_dead_time=1e-3),
    ):
        assert config.trigger_lead == config.t_electronic + config.t0_internal + config.pulse_rise
        assert cell_busy_time(config) == (
            config.t_electronic + config.t0_internal + config.pulse_rise + config.cell_dead_time
        )
