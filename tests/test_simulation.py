"""Event-engine checks: statistics against closed-form oracles, timing
invariants, determinism, and the matcher against a brute-force reference.
"""

import hashlib
import importlib.util
import math
import sys
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
    ExperimentConfig,
    SimulationError,
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
from biphoton_feedforward.simulation import _chi2_sf, _run_many, _sample_pairs, _substreams

ETA = 0.476


def _binomial_sigma(p, n):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


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
    np.testing.assert_array_equal(
        a.cell_timeline.window_starts, b.cell_timeline.window_starts
    )


def test_different_seeds_differ():
    cfg = ExperimentConfig(pair_rate=5e4, duration=1.0, seed=1)
    other = simulate_run(replace(cfg, seed=2))
    assert simulate_run(cfg).singles_d2 != other.singles_d2


def test_parallel_scan_equals_serial():
    cfg = ExperimentConfig(pair_rate=2e4, duration=0.5, seed=31)
    thetas = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    serial = polarizer_scan(cfg, thetas, n_workers=1)
    parallel = polarizer_scan(cfg, thetas, n_workers=2)
    for s, p in zip(serial, parallel):
        assert (s.x, s.rate_d2, s.rate_coincidence) == (p.x, p.rate_d2, p.rate_coincidence)


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that records its size and maps serially."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        return map(fn, items)


_WORKER_CAPS = [
    # (n_configs, n_workers, cpu_count(), size of the affinity set or None
    # where the OS has none, pool size or None when the run is serial)
    (3, 8, 4, None, 3),  # capped by the number of points
    (6, 8, 2, None, 2),  # capped by the number of CPUs
    (6, 2, 8, None, 2),  # the request itself binds
    (1, 4, 4, None, None),  # one point runs serially
    (6, 4, 1, None, None),  # one CPU runs serially
    (6, 4, None, None, None),  # unknown CPU count counts as one
    (6, 8, 8, 3, 3),  # capped by the CPUs this process may run on
    (6, 4, 8, 1, None),  # pinned to one CPU runs serially
    (6, 4, None, 2, 2),  # the affinity set binds without a CPU count
]


@pytest.mark.parametrize(
    "n_configs, n_workers, cpus, affinity, expected_pool",
    _WORKER_CAPS,
    ids=[
        f"{n}-{w}-{c}-{p}" + ("" if a is None else f"-affinity{a}")
        for n, w, c, a, p in _WORKER_CAPS
    ],
)
def test_run_many_caps_workers(
    monkeypatch, n_configs, n_workers, cpus, affinity, expected_pool
):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            simulation.os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False
        )
    configs = [
        ExperimentConfig(pair_rate=2e3, duration=0.05, seed=derive_seed(41, i))
        for i in range(n_configs)
    ]
    results = _run_many(configs, n_workers)
    assert _RecordingPool.sizes == ([] if expected_pool is None else [expected_pool])
    assert [r.config.seed for r in results] == [c.seed for c in configs]
    for got, config in zip(results, configs):
        want = simulate_run(config)
        assert (got.singles_d1, got.singles_d2, got.coincidences) == (
            want.singles_d1,
            want.singles_d2,
            want.coincidences,
        )


def test_scan_points_have_distinct_seeds():
    cfg = ExperimentConfig(pair_rate=1e4, duration=0.2, seed=8)
    points = polarizer_scan(cfg, [0.0, 0.3, 0.6, 0.9])
    seeds = [p.result.config.seed for p in points]
    assert len(set(seeds)) == len(seeds)


# ---------------------------------------------------------------------------
# emission statistics


def test_pair_count_concentration():
    # the pair substream of a run with seed 1234
    times, signal_is_h = _sample_pairs(_substreams(1234)[0], 1e5, 1.0)
    n = times.size
    assert abs(n - 1e5) <= 5.0 * math.sqrt(1e5)
    assert np.all(np.diff(times) >= 0.0)
    assert times[0] >= 0.0 and times[-1] < 1.0
    h_fraction = np.mean(signal_is_h)
    assert abs(h_fraction - 0.5) <= 5.0 * _binomial_sigma(0.5, n)


def test_emission_times_uniform():
    times, _ = _sample_pairs(_substreams(77)[0], 2e5, 1.0)
    # quarters of the interval hold equal shares
    counts, _ = np.histogram(times, bins=4, range=(0.0, 1.0))
    expected = times.size / 4.0
    for c in counts:
        assert abs(c - expected) <= 5.0 * math.sqrt(expected)


def test_zero_rate_gives_empty_stream():
    times, signal_is_h = _sample_pairs(_substreams(5)[0], 0.0, 1.0)
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
    assert result.cell_timeline.window_starts.size == 0


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
    edge = find_rotation_edge(cfg, 50e-9, 150e-9, tolerance=0.5e-9)
    # fiber delay 248 ns minus internal latency 148 ns minus rise 2 ns
    assert abs(edge - 98e-9) <= 1.0e-9


def test_rotation_edge_requires_bracket():
    cfg = ExperimentConfig(pair_rate=2e3, duration=1.0, seed=61)
    with pytest.raises(ValueError):
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
    bad = CellTimeline(
        np.array([0.0, 1e-9]), 5e-9, 1.0, np.array([0.0, 1e-9])
    )
    with pytest.raises(SimulationError):
        bad.validate(2e-6)
    unordered = CellTimeline(
        np.array([1e-6, 1e-6]), 5e-9, 1.0, np.array([0.0, 1e-6])
    )
    with pytest.raises(SimulationError):
        unordered.validate(2e-6)


def test_timeline_covers_semantics():
    timeline = CellTimeline(
        np.array([10.0, 20.0]), 2.0, 30.0, np.array([5.0, 15.0])
    )
    np.testing.assert_array_equal(
        timeline.covers_many(np.array([9.999, 10.0, 11.999, 12.0, 21.5])),
        [False, True, True, False, True],
    )
    np.testing.assert_array_equal(
        timeline.covers_many(np.array([9.0, 10.5, 12.5, 20.0, 22.5])),
        [False, True, False, True, False],
    )


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
