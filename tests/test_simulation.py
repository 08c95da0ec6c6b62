"""Event-engine checks: determinism, timing invariants, and the matcher and
whole runs against ``reference_bench``, the bench stated one event at a time.

The statistics of whole runs are one table, ``test_engine_meets_the_model``:
each row runs one config once, or a scan of it, and scores quantities of
its result against the package's model (``expected_counts``,
``trigger_share`` and ``accidental_coincidences``), a count within 5
Poisson sigma, a share within 5 binomial sigma, and a count the model puts
at 0 exactly.  A new loss channel's expectation is a new row.
"""

import ast
import hashlib
import importlib.util
import math
import re
import sys
import tracemalloc
import unittest.mock
from dataclasses import astuple, fields, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_feedforward import simulation
from biphoton_feedforward.analysis import (
    ConfigError,
    CurvePoint,
    DataError,
    SimulationError,
    accidental_coincidences,
    cell_busy_time,
    curve_rows,
    expected_counts,
    fit_visibility,
    trigger_lead,
    trigger_share,
)
from biphoton_feedforward.polarization import horizontal, project_polarizer, vertical
from biphoton_feedforward.simulation import (
    CellTimeline,
    ExperimentConfig,
    SimulationResult,
    _chi2_sf,
    _coins,
    _malus,
    _sample_poisson_times,
    _substreams,
    child_config,
    coincidence_match,
    derive_seed,
    find_rotation_edge,
    sampling_soundness,
    scan,
    simulate_run,
)

from reference_bench import _reference_run, greedy_matches


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


def test_scan_points_have_distinct_seeds(monkeypatch):
    seeds = []
    run = simulation.simulate_run

    def record(config):
        seeds.append(config.seed)
        return run(config)

    monkeypatch.setattr(simulation, "simulate_run", record)
    cfg = ExperimentConfig(pair_rate=1e4, duration=0.2, seed=8)
    scan(cfg, "polarizer_theta", [0.0, 0.3, 0.6, 0.9])
    assert len(seeds) == 4
    assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize(
    "field, values",
    [("polarizer_theta", [0.0, 0.3, 0.6]), ("t_electronic", [0.0, 50e-9, 150e-9])],
)
def test_scan_point_is_the_run_of_its_child_config(field, values):
    cfg = ExperimentConfig(pair_rate=1e4, duration=0.2, seed=8)
    runs = scan(cfg, field, values)
    expected = [simulate_run(child_config(cfg, i, **{field: x})) for i, x in enumerate(values)]
    assert [astuple(run) for run in runs] == [astuple(run) for run in expected]


def test_scan_refuses_before_any_draw(monkeypatch):
    def no_draw(config):
        raise AssertionError("scan ran a point before it had built every config")

    monkeypatch.setattr(simulation, "simulate_run", no_draw)
    cfg = ExperimentConfig(pair_rate=1e4, duration=0.2, seed=8)
    with pytest.raises(ConfigError):
        scan(cfg, "t_electronic", [0.0, -1e-9])
    with pytest.raises(TypeError):
        scan(cfg, "no_such_field", [0.0])


@pytest.mark.parametrize("cell_fail_prob, draws", [(0.15, True), (0.0, False), (1.0, False)])
def test_trigger_substream_draws_one_coin_per_kept_d1_click(monkeypatch, cell_fail_prob, draws):
    # the trigger substream reads one double per D1 click after the D1 dead
    # time, and none when the failure coin is certain, as for an idle cell
    kept = []

    def keep(seed):
        kept.append(_substreams(seed))
        return kept[-1]

    monkeypatch.setattr(simulation, "_substreams", keep)
    config = ExperimentConfig(
        pair_rate=2e5, duration=1.0, dark_rate_idler=1e5, detector_dead_time_d1=1e-6,
        cell_fail_prob=cell_fail_prob, seed=1501,
    )
    result = simulate_run(config)
    assert result.pairs_emitted > 2 * simulation._COIN_BLOCK  # several blocks
    want = _substreams(config.seed)[2].bit_generator
    if draws:
        want.advance(result.singles_d1)
    (streams,) = kept
    assert streams[2].bit_generator.state == want.state


def _bytes_held(config, thetas):
    """Traced bytes that the runs of a polarizer scan hold once it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runs = scan(config, "polarizer_theta", thetas)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(runs) == len(thetas)
    return held


def test_scan_keeps_counts_not_arrays():
    # numpy imports numpy.random at the first draw of a process, ~0.6 MB
    # that a scan would otherwise seem to hold when this test runs alone
    simulate_run(ExperimentConfig(pair_rate=0.0))
    # a finished point keeps its counts, not per-event or per-window arrays:
    # ~1 MB of cell-window times per point at this rate
    cfg = ExperimentConfig(pair_rate=2e5, duration=1.0, seed=3)
    assert _bytes_held(cfg, [0.0, 0.4, 0.8, 1.2]) < 64 * 1024
    # a point that draws nothing holds its seven counts and no config:
    # ~100 bytes, where a config copy alone took ~280
    idle = ExperimentConfig(pair_rate=0.0, duration=1.0, seed=3)
    assert _bytes_held(idle, [k * math.pi / 400.0 for k in range(400)]) < 200 * 400


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
# before a coin of probability 0 or 1 stopped drawing.  The eta-signal-0.8
# row was regenerated when the polarizer pass and the D2 efficiency folded
# into one coin per photon: its D2 singles and coincidences moved, its other
# six values held.  Every run spans at least three blocks of 2^16 pairs.
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
            (220123, 53178, 145992, 37669, 52069, 48275, 47272, 0.9078722464422209),
            id="eta-signal-0.8",
        ),
        pytest.param(
            dict(pair_rate=2e5, duration=1.1, cell_fail_prob=1.0, background_rate_signal=45e3,
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


def test_coin_draws_stay_within_one_block(monkeypatch):
    # _coins draws each call in one rng.random(n), so only the time blocks
    # of simulate_run bound what it holds: at the engine benchmark's rates
    # every call stays within 5 Poisson sigmas of one block
    config = ExperimentConfig(**{**_NOISE, **_BENCH, "duration": 1.0, "seed": 1211})
    want = _counts(simulate_run(config))
    draws = []

    def spy(rng, n, *args):
        draws.append(n)
        return _coins(rng, n, *args)

    monkeypatch.setattr(simulation, "_coins", spy)
    result = simulate_run(config)
    block = simulation._COIN_BLOCK
    assert math.ceil(result.pairs_emitted / block) >= 3  # the pairs are the longest stream
    assert _counts(result) == want
    assert max(draws) <= block + 5.0 * math.sqrt(block), max(draws)


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
        dead_time_mode=pick("nonparalyzable", "paralyzable"),
        detector_dead_time_d1=pick(0.0, 30e-9, 1e-6),
        detector_dead_time_d2=pick(0.0, 30e-9, 1e-6),
        seed=draw(st.integers(0, 2**32)),
    )


# ---------------------------------------------------------------------------
# whole-run reference: the bench one event at a time


@settings(max_examples=150, deadline=None)
@given(_small_configs(), st.sampled_from([*range(1, 8), simulation._COIN_BLOCK]))
def test_run_equals_the_reference_bench(config, block):
    # a small run is one block at the default size; a few values per block
    # put what crosses a block edge under the reference too.  The reference
    # has no blocks, so equality at every block size is block independence
    with unittest.mock.patch.object(simulation, "_COIN_BLOCK", block):
        assert _counts(simulate_run(config)) == _counts(_reference_run(config))


def test_reference_bench_imports_nothing_of_the_engine():
    # a reference that called engine code could share the engine's defect,
    # so the bench imports math, numpy and the result record, nothing else
    source = Path(__file__).with_name("reference_bench.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    assert imported
    assert imported <= {
        ("math", None), ("numpy", None), ("biphoton_feedforward.simulation", "SimulationResult")
    }, imported


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
    # The background's coins, one per photon for the polarizer and D2
    # together, are read block by block, so a background-dominated run holds
    # its 8-byte times and one block's coins, not full-width coin arrays and
    # kept clicks.  The one cursor left, the pair stream's idler pass, reads
    # block by block as well.
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


# ---------------------------------------------------------------------------
# the engine against the model: one run or scan per row, each quantity within its bound


def _count(name, observed, mu):
    # Poisson: a count that the model puts at 0 must be 0
    return name, observed, mu, 5.0 * math.sqrt(mu)


def _share(name, observed, p, n):
    return name, observed, p, 5.0 * _binomial_sigma(p, n)


# A read gives one quantity of a row's run, or of its scan's (point config,
# run) pairs: (name, observed, expected, bound on the difference), a count
# within 5 Poisson sigma and a share within 5 binomial sigma unless the
# read says otherwise.


def _pairs(config, result):
    return _count("pairs_emitted", result.pairs_emitted, config.pair_rate * config.duration)


def _expected(name):
    """The run's count ``name`` against the model's."""
    return lambda config, run: _count(
        name, getattr(run, name), getattr(expected_counts(config), name)
    )


def _d1_darks(config, result):
    model = expected_counts(config)
    darks = result.singles_d1 - result.idler_detections
    return _count("D1 dark clicks", darks, model.singles_d1 - model.idler_detections)


def _pass_share(config, result):
    # D2 clicks per emitted pair, in a run without D2 noise
    n, pairs = result.pairs_emitted, config.pair_rate * config.duration
    p = expected_counts(config).singles_d2 / pairs
    return _share("singles_d2 / pairs_emitted", result.singles_d2 / n, p, n)


def _triggers(config, result):
    # the cell accepts trigger_share of the D1 clicks at their measured rate
    rho = trigger_share(config, result.singles_d1 / config.duration)
    return _count("triggers_accepted", result.triggers_accepted, result.singles_d1 * rho)


def _rotated(config):
    """The model's rotated share of the heralded signals."""
    model = expected_counts(config)
    return model.signals_rotated / model.idler_detections


def _rotated_share(config, result):
    p, n = _rotated(config), result.idler_detections
    return _share("rotated_fraction", result.rotated_fraction, p, n)


def _accidentals(config, result):
    t = config.duration
    r1, r2 = result.singles_d1 / t, result.singles_d2 / t
    mu = accidental_coincidences(r1, r2, config.coincidence_window, t)
    return _count("coincidences", result.coincidences, mu)


def _fringe(column, sigmas, target=None):
    """The fitted visibility of a polarizer scan's singles (column 1) or
    coincidences (3), within ``sigmas`` of its sigma of ``target``, by
    default the model's: its counts at 0 and 90 deg."""

    def read(config, points):
        thetas, runs = zip(*((c.polarizer_theta, run) for c, run in points))
        rows = curve_rows(thetas, runs, config.duration)
        fit = fit_visibility([CurvePoint(row[0], row[column], row[column + 1]) for row in rows])
        v, h = (expected_counts(replace(config, polarizer_theta=t))[(column + 1) // 2]
                for t in (0.0, math.pi / 2))
        want = abs(v - h) / (v + h) if target is None else target
        return "visibility", fit.visibility_v, want, sigmas * fit.sigma_visibility

    return read


def _plateaus(config, points):
    # a trigger in time rotates every heralded signal, a late one none
    worst = max(abs(run.rotated_fraction - round(_rotated(c))) for c, run in points)
    return "largest |rotated_fraction - plateau|", worst, 0.0, 0.01


def _edge(t_low, t_high):
    def read(config, result):
        # a trigger's window stops meeting its signal once its lead passes t_fiber
        edge = find_rotation_edge(config, t_low, t_high)
        return "edge", edge, config.t_fiber - trigger_lead(config), 1e-9

    return read


def _offpeak(pair_rate, window):
    """2e6 pairs, cell off, analyser on H and the window 10 us off the pair
    lag: every coincidence is accidental."""
    return ExperimentConfig(
        pair_rate=pair_rate, duration=2e6 / pair_rate, cell_fail_prob=1.0,
        polarizer_theta=math.pi / 2, coincidence_window=window,
        coincidence_offset=ExperimentConfig().t_fiber + 10e-6, seed=7,
    )


def _renewal(mode, fail_prob, seed):
    """D1 clicks at r B = 1, so many triggers sit in conflict clusters."""
    base = ExperimentConfig(dead_time_mode=mode, cell_fail_prob=fail_prob, duration=0.2, seed=seed)
    return replace(base, pair_rate=1.0 / cell_busy_time(base) / (0.5 * base.eta_idler))


def _row(id, config, *reads, sweep=None):
    return pytest.param(config, sweep, reads, id=id)


_THETAS_9 = [float(theta) for theta in np.linspace(0.0, math.pi, 9, endpoint=False)]
_THETAS_13 = [k * math.pi / 13.0 for k in range(13)]
_COUNTS_EXPECTED = [_expected(name) for name in (
    "singles_d1", "singles_d2", "coincidences", "idler_detections", "signals_rotated"
)]
_FRINGE = ExperimentConfig(pair_rate=2e4, duration=2.0, cell_dead_time=102e-9, seed=404)
_ORACLE = replace(_FRINGE, duration=10.0, seed=909)
_BLOCKING = ExperimentConfig(pair_rate=4e5, duration=1.0, seed=64)
_H_SCAN = ExperimentConfig(pair_rate=2e3, duration=5.0, polarizer_theta=math.pi / 2, seed=64)
_V_SCAN = replace(_H_SCAN, polarizer_theta=0.0, seed=65)
# the flat tops cover c = 0.052 of the time, and the cell blocks 13% of the triggers
_COVERAGE = ExperimentConfig(pair_rate=2.5e6, duration=0.2, cell_dead_time=102e-9, seed=4106)
_FAILURES = ExperimentConfig(pair_rate=4e5, duration=0.5, cell_fail_prob=0.3, seed=4107)
# the signal reaches the cell at the first instant of its trigger's window
_AT_START = ExperimentConfig(
    pair_rate=2e4, duration=1.0, t_fiber=trigger_lead(ExperimentConfig()), seed=4109
)

_MODEL_ROWS = [
    # no pairs, every noise channel and both dead times on: the empty pair
    # arrays pass every stage, and the singles are noise alone
    *(
        _row(f"zero-pairs-eta-s-{eta_signal}", ExperimentConfig(
            pair_rate=0.0, duration=1.0, eta_signal=eta_signal, dark_rate_idler=1e3,
            dark_rate_signal=1e3, background_rate_signal=45e3, detector_dead_time_d1=50e-9,
            detector_dead_time_d2=50e-9, cell_fail_prob=0.15, seed=70,
        ), _pairs, *_COUNTS_EXPECTED, _d1_darks, _triggers)
        for eta_signal in (1.0, 0.8)
    ),
    # the fringe law; a lossy D2 detects its share of the photons
    *(
        _row(f"fringe-eta-s-{eta_signal}-theta-{k * 20}deg",
             replace(_FRINGE, polarizer_theta=theta, eta_signal=eta_signal),
             _expected("singles_d2"))
        for eta_signal in (1.0, 0.3)
        for k, theta in enumerate(_THETAS_9)
    ),
    # without darks every D1 click is an idler photon
    _row("idler-clicks", ExperimentConfig(pair_rate=1e5, duration=1.0, seed=3),
         _expected("idler_detections"), _d1_darks),
    _row("noiseless-d1", ExperimentConfig(pair_rate=1e4, duration=0.5, seed=67), _d1_darks),
    # at a low rate every trigger fires: the D2 pass share per emitted pair
    *(
        _row(f"pass-share-theta-{label}", replace(_ORACLE, polarizer_theta=theta),
             _pairs, _pass_share)
        for label, theta in (("0deg", 0.0), ("30deg", math.pi / 6), ("112.5deg", 5 * math.pi / 8))
    ),
    # a two-point delay scan: the trigger in time, then 150 ns late, when
    # nothing rotates; 90 deg selects H and 0 deg selects V
    *(
        _row(f"delay-{name}-{when}", child_config(cfg, i, t_electronic=delay), _pass_share)
        for name, cfg in (("H", _H_SCAN), ("V", _V_SCAN))
        for i, (when, delay) in enumerate((("early", 0.0), ("late", 150e-9)))
    ),
    # the rotated share is the renewal model's trigger share, down the rates
    *(
        _row(f"rotated-share-{pair_rate:g}-seed-{seed}",
             ExperimentConfig(pair_rate=pair_rate, duration=2.0, seed=seed), _rotated_share)
        for pair_rate, seed in (
            (2e4, 55), (1e5, 55), (3e5, 55), (1e4, 56), (5e4, 56), (2e5, 56), (5e5, 56)
        )
    ),
    _row("blocking-nonparalyzable", _BLOCKING, _rotated_share),
    _row("blocking-paralyzable", replace(_BLOCKING, dead_time_mode="paralyzable"), _rotated_share),
    # a window's start is inside it, in the engine and in the model
    _row("window-start", _AT_START, _rotated_share),
    _row("cell-failures-0.3",
         ExperimentConfig(pair_rate=2e3, duration=10.0, cell_fail_prob=0.3, seed=57),
         _rotated_share, _triggers),
    _row("cell-off", ExperimentConfig(pair_rate=5e4, duration=1.0, cell_fail_prob=1.0, seed=58),
         _rotated_share, _triggers, _expected("signals_rotated")),
    # the clustered path of the cell drive, with and without failure coins
    *(
        _row(f"cell-renewal-{mode}{suffix}", _renewal(mode, fail_prob, seed), _triggers)
        for mode, fail_prob, seed, suffix in (
            ("nonparalyzable", 0.15, 4104, ""),
            ("paralyzable", 0.15, 4104, ""),
            ("nonparalyzable", 0.0, 4105, "-no-failures"),
            ("paralyzable", 0.0, 4101, "-no-failures"),
        )
    ),
    # non-paralyzable detector recovery: r tau = 0.5 on both arms, then 1 on D2
    *(
        _row(f"dead-time-{tau1 * 1e6:g}us-{tau2 * 1e6:g}us", ExperimentConfig(
            pair_rate=0.0, dark_rate_idler=1e5, dark_rate_signal=1e5, detector_dead_time_d1=tau1,
            detector_dead_time_d2=tau2, duration=1.0, seed=seed,
        ), _d1_darks, _expected("singles_d2"))
        for tau1, tau2, seed in ((5e-6, 5e-6, 4102), (5e-6, 10e-6, 4103))
    ),
    # every matched pair of a noiseless run at a low rate is a true pair
    _row("heralded-coincidences", ExperimentConfig(pair_rate=1e4, duration=1.0, seed=68),
         _expected("coincidences")),
    # the flat r1 r2 w T while r2 w is small: 1.5e-4 to 0.015
    *(
        _row(f"accidentals-{pair_rate:g}", _offpeak(pair_rate, 3e-9), _accidentals)
        for pair_rate in (1e5, 1e6, 3e6, 1e7)
    ),
    # one stress row per channel of the model, every count of the run:
    # window coverage on V and on H, background with darks on both arms,
    # and cell failures in both modes
    *(
        _row(f"coverage-theta-{label}", replace(_COVERAGE, polarizer_theta=theta),
             *_COUNTS_EXPECTED)
        for label, theta in (("0deg", 0.0), ("90deg", math.pi / 2))
    ),
    _row("background", ExperimentConfig(
        pair_rate=1e5, duration=1.0, eta_signal=0.8, dark_rate_idler=1e4, dark_rate_signal=1e4,
        background_rate_signal=2e5, seed=4108,
    ), *_COUNTS_EXPECTED),
    *(
        _row(f"failures-{mode}", replace(_FAILURES, dead_time_mode=mode), *_COUNTS_EXPECTED)
        for mode in ("nonparalyzable", "paralyzable")
    ),
    # scans: the fitted visibility recovers the configured eta = 0.8 within
    # 3 sigma; without feed-forward the singles fringe is flat within 3 sigma;
    # the coincidence fringe is the model's, down to 2 rho - 1 ~ 1/3 at r B ~
    # 0.5, within 5 sigma; a delay scan's rotated fraction sits within 0.01
    # of its plateaus, and the bisected edge within 1 ns of the model's
    _row("fit-singles-eta-0.8", ExperimentConfig(
        pair_rate=2e4, duration=1.0, eta_idler=0.8, cell_dead_time=102e-9, seed=911
    ), _fringe(1, 3.0, target=0.8), sweep=("polarizer_theta", _THETAS_13)),
    _row("fit-singles-cell-off-flat", ExperimentConfig(
        pair_rate=2e4, duration=1.0, eta_idler=1.0, cell_fail_prob=1.0, seed=910
    ), _fringe(1, 3.0), sweep=("polarizer_theta", _THETAS_9)),
    *(
        _row(f"fit-coincidences-renewal-{pair_rate:g}",
             ExperimentConfig(pair_rate=pair_rate, duration=0.1, seed=seed),
             _fringe(3, 5.0), sweep=("polarizer_theta", _THETAS_9))
        for pair_rate, seed in ((5e5, 68), (1e6, 69))
    ),
    _row("delay-plateaus", ExperimentConfig(pair_rate=2e3, duration=5.0, seed=59), _plateaus,
         sweep=("t_electronic", [0.0, 50e-9, 150e-9, 300e-9])),
    _row("rotation-edge", ExperimentConfig(pair_rate=2e3, duration=5.0, seed=60),
         _edge(50e-9, 150e-9)),
]


@pytest.mark.parametrize("config, sweep, reads", _MODEL_ROWS)
def test_engine_meets_the_model(config, sweep, reads):
    if sweep is None:
        got = simulate_run(config)
    else:
        field, xs = sweep
        configs = [child_config(config, i, **{field: x}) for i, x in enumerate(xs)]
        got = list(zip(configs, scan(config, field, xs)))
    for read in reads:
        name, observed, expected, bound = read(config, got)
        assert abs(observed - expected) <= bound, (name, observed, expected, bound)


def test_flat_accidentals_fall_short_at_r2w_0_25():
    # at r2 w = 0.25 a D1 click often finds its candidates taken, and the
    # one-to-one count falls short of r1 r2 w T
    config = _offpeak(1e7, 50e-9)
    _, observed, expected, bound = _accidentals(config, simulate_run(config))
    assert observed - expected < -bound, (observed, expected, bound)


# ---------------------------------------------------------------------------
# singles and feed-forward physics


# whole degrees and multiples of pi/12 from -720 to 720 deg, the signed zeros and pi/2
_MALUS_GRID = (
    [math.radians(d) for d in range(-720, 721)]
    + [k * math.pi / 12.0 for k in range(-48, 49)]
    + [0.0, -0.0, math.pi / 2.0]
)


def _assert_malus_is_the_projection(thetas):
    # the engine's Malus pair is the density-matrix core's bit for bit, so
    # every polarizer coin, and so every golden byte, is the core's
    h, v = horizontal(), vertical()
    for theta in thetas:
        assert _malus(theta) == (project_polarizer(h, theta), project_polarizer(v, theta)), theta


def test_malus_pair_equals_the_projection_on_a_grid():
    _assert_malus_is_the_projection(_MALUS_GRID)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e6, 1e6))
def test_malus_pair_equals_the_projection(theta):
    _assert_malus_is_the_projection([theta])


# ---------------------------------------------------------------------------
# timing: delay scan and edge


def _half_until(edge):
    """A stand-in for simulate_run whose rotated fraction is exactly 1/2 up
    to the trigger delay ``edge`` and 0 after it."""
    def run(config):
        return SimulationResult(0, 0, 0, 0, 2, 0, int(config.t_electronic <= edge))

    return run


def test_rotation_edge_requires_bracket(monkeypatch):
    cfg = ExperimentConfig(pair_rate=2e3, duration=1.0, seed=61)
    with pytest.raises(DataError):
        find_rotation_edge(cfg, 150e-9, 300e-9)  # never rotated in this range
    with pytest.raises(ValueError, match="need t_low < t_high"):
        find_rotation_edge(cfg, 50e-9, 50e-9)  # an empty bracket
    # a fraction of exactly 1/2 at the late end has not fallen below 1/2
    monkeypatch.setattr(simulation, "simulate_run", _half_until(math.inf))
    with pytest.raises(DataError):
        find_rotation_edge(cfg, 50e-9, 150e-9)


def test_rotation_edge_counts_one_half_as_rotated(monkeypatch):
    # the early end and every bisection point at exactly 1/2 lie before the edge
    monkeypatch.setattr(simulation, "simulate_run", _half_until(100e-9))
    tolerance = simulation.EDGE_TOLERANCE
    edge = find_rotation_edge(ExperimentConfig(seed=61), 50e-9, 150e-9)
    assert abs(edge - 100e-9) <= tolerance
    # a bracket of 4 tolerances: its two ends, then two halvings to a bracket
    # of exactly one tolerance, the runs that the command budget counts
    configs = []
    half = _half_until(0.0)
    monkeypatch.setattr(simulation, "simulate_run", lambda c: configs.append(c) or half(c))
    edge = find_rotation_edge(ExperimentConfig(seed=61), 0.0, 4.0 * tolerance)
    assert (len(configs), edge) == (4, 0.5 * tolerance)


def test_delay_scan_rejects_negative_delay():
    cfg = ExperimentConfig(pair_rate=1e3, duration=0.5, seed=62)
    with pytest.raises(ConfigError):
        scan(cfg, "t_electronic", [-1e-9])


# ---------------------------------------------------------------------------
# coincidence matching


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), max_size=25).map(sorted),
    st.lists(st.floats(0.0, 1.0), max_size=25).map(sorted),
    st.floats(1e-6, 0.5),
    st.floats(-0.2, 0.2),
)
def test_matcher_equals_brute_force(a, b, window, offset):
    assert coincidence_match(a, b, window, offset) == greedy_matches(a, b, window, offset)


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
    # acceptance is |t2 - (t1 + offset)| <= window / 2, on both sides
    assert coincidence_match([0.0], [1.5e-9], 3e-9) == 1
    assert coincidence_match([0.0], [1.6e-9], 3e-9) == 0
    assert coincidence_match([0.0], [-1.5e-9], 3e-9) == 1
    assert coincidence_match([0.0], [-1.6e-9], 3e-9) == 0
    # the same edges where no time is negative
    assert coincidence_match([1.0], [1.0 + 1.5e-9], 3e-9) == 1
    assert coincidence_match([1.0], [1.0 - 1.5e-9], 3e-9) == 1
    assert coincidence_match([1.0], [math.nextafter(1.0 - 1.5e-9, 0.0)], 3e-9) == 0


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


# ---------------------------------------------------------------------------
# joint-outcome sampling soundness


def _oracle_config(theta, pairs, seed):
    """scenarios/oracle.cfg's run at ``pairs`` expected pairs: cell off, perfect
    detectors, no noise, 100 pairs/s."""
    return ExperimentConfig(
        pair_rate=100.0, duration=pairs / 100.0, eta_idler=1.0, cell_fail_prob=1.0,
        polarizer_theta=theta, seed=seed,
    )


def test_sampling_soundness_against_enumeration():
    for i, theta in enumerate((0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 2.0)):
        check = sampling_soundness(_oracle_config(theta, 20000, derive_seed(71, f"t:{i}")))
        assert check.p_value > 1e-3
        # the table holds every emitted pair, ~20000 of them
        assert abs(check.expected.sum() - check.counts.sum()) <= 1e-6
        assert abs(check.counts.sum() - 20000) <= 5.0 * math.sqrt(20000)


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


# chi-square tails P(X >= x) from scipy.stats.chi2.sf (scipy 1.17.1)
_CHI2_SF_PINNED = {
    1: (
        (1e-06, 0.9992021155721779),
        (0.0001, 0.9920212873707368),
        (0.01, 0.920344325445942),
        (0.1, 0.7518296340458492),
        (0.5, 0.47950012218695337),
        (1.0, 0.31731050786291115),
        (2.0, 0.15729920705028105),
        (5.0, 0.025347318677468325),
        (10.0, 0.001565402258002549),
        (20.0, 7.744216431044088e-06),
        (35.0, 3.2970532689972886e-09),
        (50.0, 1.537459794428033e-12),
    ),
    2: (
        (1e-06, 0.999999500000125),
        (0.0001, 0.9999500012499791),
        (0.01, 0.9950124791926823),
        (0.1, 0.951229424500714),
        (0.5, 0.7788007830714049),
        (1.0, 0.6065306597126334),
        (2.0, 0.36787944117144245),
        (5.0, 0.0820849986238988),
        (10.0, 0.006737946999085468),
        (20.0, 4.539992976248486e-05),
        (35.0, 2.51099915574398e-08),
        (50.0, 1.3887943864964e-11),
    ),
    3: (
        (1e-06, 0.9999999997340385),
        (0.0001, 0.9999997340464585),
        (0.01, 0.9997348349413444),
        (0.1, 0.9918374237318764),
        (0.5, 0.9188914116546758),
        (1.0, 0.8012519569012009),
        (2.0, 0.5724067044708798),
        (5.0, 0.1717971442967335),
        (10.0, 0.01856613546304325),
        (20.0, 0.00016974243555282632),
        (35.0, 1.218249697616333e-07),
        (50.0, 7.989179244951495e-11),
    ),
}


@pytest.mark.parametrize("df", [1, 2, 3])
def test_chi2_sf_matches_pinned_scipy_values(df):
    # runs without scipy, which the test extras do not install
    for x, want in _CHI2_SF_PINNED[df]:
        assert abs(_chi2_sf(x, df) - want) <= 1e-12 * want


def test_sampling_soundness_pearson_sum(theta=math.pi / 4.0, df=3):
    check = sampling_soundness(_oracle_config(theta, 20000, 72))
    obs = check.counts.ravel().astype(float)
    exp = check.expected.ravel()
    full = exp > 1e-6
    assert full.sum() == df + 1
    assert check.chi2 == ((obs[full] - exp[full]) ** 2 / exp[full]).sum()
    assert check.p_value == _chi2_sf(check.chi2, df)


@pytest.mark.parametrize(("theta", "df"), [(math.pi / 2.0, 1), (0.0, 1)])
def test_sampling_soundness_pearson_sum_skips_cells_that_cannot_fill(theta, df):
    # at 0 and 90 deg two cells cannot fill, though at 90 deg one of them
    # expects cos(pi/2)**2 N = 1e-28 from rounding, not 0
    test_sampling_soundness_pearson_sum(theta, df)


def test_sampling_soundness_rejects_mismatched_totals(monkeypatch):
    # the table is the engine's: a run whose clicked pairs outnumber its
    # emitted ones is an engine fault
    run = simulation.simulate_run

    def one_pair_too_few(config):
        result = run(config)
        clicked = result.singles_d1 + result.singles_d2 - result.coincidences
        return replace(result, pairs_emitted=clicked - 1)

    monkeypatch.setattr(simulation, "simulate_run", one_pair_too_few)
    with pytest.raises(SimulationError, match="pairs clicked, more than the"):
        sampling_soundness(_oracle_config(math.pi / 4.0, 20000, 72))


def test_sampling_soundness_refuses_a_run_without_pairs():
    # one expected pair, and seed 9 emits none: an empty table tests nothing
    with pytest.raises(DataError, match="no pair emitted"):
        sampling_soundness(_oracle_config(0.3, 1, 9))


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
    # a run of no time measures nothing, and replace() re-checks it
    with pytest.raises(ConfigError, match="positive duration"):
        ExperimentConfig(duration=0.0)
    with pytest.raises(ConfigError, match="positive duration"):
        replace(ExperimentConfig(), duration=0.0)
    # int() would silently turn these into integers, or fail on them with
    # another error; a seed is an integral number
    for seed in (
        1.5, True, math.nan, math.inf, np.float64(2.5), Fraction(3, 2), Decimal("1.5"), "12",
        None, 10**400,
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=seed)
    for seed in (2.0, Fraction(4, 2), np.uint64(2)):
        assert ExperimentConfig(seed=seed).seed == 2


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


def test_result_is_its_seven_counts():
    counts = dict(
        singles_d1=5, singles_d2=4, coincidences=3, pairs_emitted=9,
        idler_detections=3, triggers_accepted=3, signals_rotated=3,
    )
    assert [f.name for f in fields(SimulationResult)] == list(counts)
    assert not hasattr(SimulationResult(**counts), "__dict__")
    # every detected idler flipped: fraction 1; none detected: 0
    assert SimulationResult(**counts).rotated_fraction == 1.0
    idle = dict(counts, idler_detections=0, signals_rotated=0)
    assert SimulationResult(**idle).rotated_fraction == 0.0
    for impossible, match in (
        (dict(singles_d1=2), "more coincidences than singles"),
        (dict(singles_d2=2), "more coincidences than singles"),
        (dict(signals_rotated=4), "more signals rotated than idlers detected"),
    ):
        with pytest.raises(SimulationError, match=match):
            SimulationResult(**{**counts, **impossible})


def test_timeline_validation_catches_overlap():
    two = np.arange(2)
    bad = CellTimeline(np.array([0.0, 1e-9]), 5e-9, 1.0, two)
    with pytest.raises(SimulationError, match="cell windows overlap"):
        bad.validate(2e-6)
    # a gap of 0 also overlaps and breaks the dead time; the order check wins
    for starts in ([1e-6, 1e-6], [2e-6, 1e-6]):
        unordered = CellTimeline(np.array(starts), 5e-9, 1.0, two)
        with pytest.raises(SimulationError, match="cell windows are not strictly ordered"):
            unordered.validate(2e-6)
    # no gap to check
    for starts in ([], [1e-6]):
        CellTimeline(np.array(starts), 5e-9, 1.0, np.arange(len(starts))).validate(2e-6)
    # windows that do not overlap, from triggers 1 us apart at a 2 us dead time
    close = CellTimeline(np.array([0.0, 1e-6]), 100e-9, 1.0, two)
    with pytest.raises(SimulationError, match="closer than the cell dead time"):
        close.validate(2e-6)
    close.validate(1e-6)
    # a gap of exactly the window length, then the dead time, less the slack
    # of 1e-9 of the larger passes
    for length, dead_time in ((1.0, 0.5), (0.25, 0.5)):
        gap = max(length, dead_time) - 1e-9 * max(length, dead_time)
        CellTimeline(np.array([0.0, gap]), length, 1.0, two).validate(dead_time)


def test_timeline_covers_semantics():
    timeline = CellTimeline(np.array([10.0, 20.0]), 2.0, 30.0, np.arange(2))
    zero = np.zeros(2, dtype=np.int64)
    np.testing.assert_array_equal(
        timeline.covers_many(np.array([9.999, 10.0, 11.999, 12.0, 21.5]), zero),
        [False, True, True, False, True],
    )
    np.testing.assert_array_equal(
        timeline.covers_many(np.array([9.0, 10.5, 12.5, 20.0, 22.5]), zero),
        [False, True, False, True, False],
    )
    for times in ([math.nan], [10.5, math.nan], [math.nan, 10.5], [10.5, math.inf]):
        with pytest.raises(ValueError):
            timeline.covers_many(np.array(times), zero)


def test_benchmark_stage_hooks_find_the_engine(monkeypatch):
    # perfbench/tracing.py wraps engine callables by name from outside; a
    # rename would silently zero the per-stage times that BENCH_*.json compare,
    # and a changed argument or result would feed its counters wrong numbers
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    hooks.install()
    # D1 darks and dead time: D1 singles, accepted triggers and idlers all differ
    config = ExperimentConfig(
        pair_rate=2e4, duration=0.05, dark_rate_idler=1e4, detector_dead_time_d1=50e-9, seed=91
    )
    try:
        result = simulation.simulate_run(config)
    finally:
        hooks.uninstall()
    # _tail_probabilities left the engine with the tail hook
    assert set(hooks.absent) <= {"simulation:_tail_probabilities"}
    assert not tracer.counter_errors
    summary = tracing.summarize(tracer.spans)
    for stage in ("simulation.cell_drive", "simulation.signal_arm", "simulation.match"):
        assert summary[stage]["calls"] == 1
        assert summary[stage]["self_ns"] > 0
    assert summary["simulation.cell_drive"]["counts"] == {
        "triggers": result.singles_d1, "accepted": result.triggers_accepted,
    }
    assert summary["simulation.match"]["counts"]["coincidences"] == result.coincidences


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
