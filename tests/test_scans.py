"""The engine's event scans against the implementations they replace.

``_dead_time_filter`` and the non-paralyzable ``_drive_cell``, over the
requests whose failure coin held, share one greedy-acceptance kernel: it
settles isolated events and the first event of every conflict cluster
with numpy and replays only the second and later ones.
``coincidence_match`` settles isolated clicks with numpy and replays its
clusters in its own loop, and the paralyzable drive uses a closed form.
``CellTimeline.covers_many`` searches the windows in the sorted arrivals
instead of the arrivals in the windows, and it and the matcher search from
guessed indices through ``_search_from``, which must equal
``np.searchsorted`` for any guess.  ``_coins`` must read the stream
exactly as one ``rng.random(n)`` does, a cursor from ``_cursor_ahead`` must
read a second pass as a second ``rng.random(n)`` does, and
``_merge_dark_clicks`` must give the order of a stable sort.  The filter and
the drive carry their state from one block of clicks to the next, so a
stream split in two must give what the whole stream gives.  The
``_reference_*`` helpers below are the original implementations, kept
verbatim but for the detector's test, which takes the sum form ``t <
last + dead_time`` of the cell's ``t < busy_end`` (see
``test_dead_time_takes_the_sum_form``); the properties assert equal output
on random sorted streams built to hit dense clusters, exact ties and gaps
that sit exactly on (or one ulp beside) every edge the scans compare
against.  The analytic oracles at the end exercise the clustered path at
high occupancy.
"""

import itertools
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_feedforward import CellTimeline, ExperimentConfig, cell_busy_time, simulate_run
from biphoton_feedforward.simulation import (
    _COIN_BLOCK,
    _coins,
    _cursor_ahead,
    _dead_time_filter,
    _drive_cell,
    _merge_dark_clicks,
    _sample_poisson_times,
    _search_from,
    _substreams,
    coincidence_match,
)

# Dyadic time unit (~0.93 ns).  Times, dead times and windows drawn as small
# integer multiples of it add and subtract exactly, so generated gaps land
# exactly on the edges the scans compare against.
UNIT = 2.0**-30


# ---------------------------------------------------------------------------
# reference loops (the sequential implementations, verbatim)


def _reference_dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Non-paralyzable detector recovery: keep a click iff t >= last kept + dead_time."""
    keep = np.ones(times.size, dtype=bool)
    last = -math.inf
    for i, t in enumerate(times.tolist()):
        if t < last + dead_time:
            keep[i] = False
        else:
            last = t
    return keep


def _reference_drive_cell(
    click_times: np.ndarray, fails: np.ndarray, config: ExperimentConfig
) -> tuple[CellTimeline, int, np.ndarray]:
    """Process trigger requests in time order into accepted rotation windows.

    A request during the busy span is discarded; in paralyzable mode it
    additionally restarts the busy span.  A live request is accepted unless
    the explicit failure coin fires (``fails``), in which case neither a
    window opens nor a dead time starts.  The accepted click times come
    back beside the timeline and its count.
    """
    lead = config.t_electronic + config.t0_internal + config.pulse_rise
    paralyzable = config.dead_time_mode == "paralyzable"
    starts: list[float] = []
    accepted_clicks: list[float] = []
    busy_until = -math.inf
    for i, t in enumerate(click_times.tolist()):
        if t < busy_until:
            if paralyzable:
                busy_until = max(busy_until, t + lead + config.cell_dead_time)
            continue
        if fails[i]:
            continue
        start = t + lead
        starts.append(start)
        accepted_clicks.append(t)
        busy_until = start + config.cell_dead_time
    timeline = CellTimeline(np.asarray(starts, dtype=float), config.pulse_flat, busy_until)
    return timeline, len(starts), np.asarray(accepted_clicks, dtype=float)


def _fails(coins, config: ExperimentConfig) -> np.ndarray:
    """The failure mask of one coin per request, as simulate_run draws it."""
    return np.asarray(coins, dtype=float) < config.cell_fail_prob


def _reference_coincidence_match(
    d1_times: object, d2_times: object, window: float, offset: float = 0.0
) -> int:
    """Greedy earliest one-to-one coincidence count.

    Clicks t1, t2 coincide when |t2 - (t1 + offset)| <= window / 2.  Both
    input streams must be sorted; each click is consumed by at most one
    coincidence, earliest candidates first, which makes the count
    deterministic.
    """
    if window < 0.0:
        raise ValueError("coincidence window must be non-negative")
    a = np.asarray(d1_times, dtype=float)
    b = np.asarray(d2_times, dtype=float)
    if a.size > 1 and np.any(np.diff(a) < 0.0):
        raise ValueError("d1_times must be sorted")
    if b.size > 1 and np.any(np.diff(b) < 0.0):
        raise ValueError("d2_times must be sorted")
    half = window / 2.0
    b_list = b.tolist()
    n2 = len(b_list)
    count = 0
    j = 0
    for t in a.tolist():
        target = t + offset
        lo = target - half
        while j < n2 and b_list[j] < lo:
            j += 1
        if j < n2 and b_list[j] <= target + half:
            count += 1
            j += 1
    return count


def _reference_covers_many(self: CellTimeline, times: object) -> np.ndarray:
    """Boolean mask of arrival times inside any flat-top window."""
    times = np.asarray(times, dtype=float)
    inside = np.zeros(times.shape, dtype=bool)
    if self.window_starts.size == 0:
        return inside
    idx = np.searchsorted(self.window_starts, times, side="right") - 1
    found = idx >= 0
    inside[found] = times[found] < self.window_starts[idx[found]] + self.window_length
    return inside


def _assert_same_timeline(got, want, times):
    timeline, accepted = got
    ref_timeline, ref_accepted, ref_clicks = want
    assert accepted == ref_accepted
    np.testing.assert_array_equal(timeline.window_starts, ref_timeline.window_starts)
    np.testing.assert_array_equal(times[timeline.accepted_index], ref_clicks)
    assert timeline.window_starts.dtype == ref_timeline.window_starts.dtype
    assert timeline.window_length == ref_timeline.window_length
    assert timeline.busy_until == ref_timeline.busy_until


# ---------------------------------------------------------------------------
# stream strategies


def _edge_gaps(edges, grid):
    """Gaps of zero (ties), exactly on each edge and, off the grid, one ulp either side."""
    gaps = [0.0, *edges]
    if not grid:
        for e in edges:
            gaps += [math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]
    return [g for g in gaps if g >= 0.0]


@st.composite
def _stream(draw, edges, grid, max_size=50):
    """Sorted click times whose gaps cluster around ``edges``.

    On the grid every gap is a multiple of UNIT, so consecutive differences
    equal the edges exactly; off the grid the stream starts anywhere in
    [0, 10) s and rounding decides which side of an edge a gap falls.
    """
    span = max(2.0 * max(edges), 4.0 * UNIT)
    if grid:
        free_gap = st.integers(0, round(span / UNIT)).map(lambda k: k * UNIT)
        t = draw(st.integers(0, 2**20)) * UNIT
    else:
        free_gap = st.floats(0.0, span)
        t = draw(st.sampled_from([0.0, 0.7]) | st.floats(0.0, 10.0))
    gap = st.sampled_from(_edge_gaps(edges, grid)) | free_gap
    times = []
    for g in draw(st.lists(gap, max_size=max_size)):
        t += g
        times.append(t)
    return np.array(times, dtype=float)


def _duration(grid, draw, grid_max, values, upper):
    """A time constant: a multiple of UNIT on the grid, else a bench value or any float."""
    if grid:
        return draw(st.integers(0, grid_max)) * UNIT
    return draw(st.sampled_from(values) | st.floats(0.0, upper))


@st.composite
def _dead_time_cases(draw):
    grid = draw(st.booleans())
    dead_time = _duration(grid, draw, 64, [50e-9, 2e-6], 1e-5)
    return draw(_stream([dead_time], grid)), dead_time


@st.composite
def _cell_cases(draw):
    grid = draw(st.booleans())
    dead = _duration(grid, draw, 64, [102e-9, 2e-6], 3e-6)
    config = ExperimentConfig(
        t_electronic=_duration(grid, draw, 16, [0.0, 50e-9, 150e-9], 3e-7),
        t0_internal=_duration(grid, draw, 16, [148e-9], 3e-7),
        pulse_rise=min(_duration(grid, draw, 4, [2e-9], 5e-9), dead),
        pulse_flat=0.0,
        cell_dead_time=dead,
        cell_fail_prob=draw(st.sampled_from([0.0, 0.15, 1.0])),
        dead_time_mode=draw(st.sampled_from(["nonparalyzable", "paralyzable"])),
    )
    lead = config.t_electronic + config.t0_internal + config.pulse_rise
    times = draw(_stream([lead + dead, dead], grid))
    return times, config, draw(st.integers(0, 2**32))


@st.composite
def _match_cases(draw):
    grid = draw(st.booleans())
    half = _duration(grid, draw, 16, [1.5e-9, 50e-9], 1e-7)
    offset = _duration(grid, draw, 300, [0.0, 248e-9], 3e-7)
    a = draw(_stream([2.0 * half, half], grid, max_size=30))
    # D2 clicks on, one ulp beside and inside the D1 windows, plus strays
    b = []
    for t in a.tolist():
        target = t + offset
        lo, hi = target - half, target + half
        edges = [lo, hi, target]
        edges += [math.nextafter(e, d) for e in (lo, hi) for d in (-math.inf, math.inf)]
        b += draw(st.lists(st.sampled_from(edges), max_size=3))
    stray = st.integers(0, 2**21).map(lambda k: k * UNIT) if grid else st.floats(0.0, 10.0)
    b += draw(st.lists(stray, max_size=10))
    return a, np.sort(np.array(b, dtype=float)), 2.0 * half, offset


@st.composite
def _covers_cases(draw):
    """A timeline and sorted arrivals on, one ulp beside and between its window edges.

    Window starts are spaced by a window length, by a length minus the
    slack ``CellTimeline.validate`` tolerates (an overlap), or freely.
    """
    grid = draw(st.booleans())
    if grid:
        length = draw(st.integers(0, 16)) * UNIT
        t = draw(st.integers(0, 2**20)) * UNIT
        free_gap = st.integers(0, 64).map(lambda k: k * UNIT)
        stray = st.integers(0, 2**21).map(lambda k: k * UNIT)
    else:
        length = draw(st.sampled_from([100e-9, 0.0]) | st.floats(0.0, 1e-6))
        t = draw(st.sampled_from([0.0, 0.7]) | st.floats(0.0, 10.0))
        free_gap = st.floats(0.0, 4e-6)
        stray = st.floats(0.0, 11.0)
    slack = 1e-9 * max(length, 1e-12)  # validate's slack when the dead time equals the window
    gap = st.sampled_from([length, max(length - slack, 0.0)]) | free_gap
    starts = []
    for g in draw(st.lists(gap, max_size=20)):
        t += g
        starts.append(t)
    times = []
    for start in starts:
        end = start + length
        edges = [start, end]
        edges += [math.nextafter(e, d) for e in (start, end) for d in (-math.inf, math.inf)]
        times += draw(st.lists(st.sampled_from(edges), max_size=4))
    times += draw(st.lists(stray, max_size=10))
    starts = np.array(starts, dtype=float)
    timeline = CellTimeline(starts, length, -math.inf)
    times = np.sort(np.array(times, dtype=float))
    # per window: near its true lo, or anywhere (negative, past the end, far off)
    lo = np.searchsorted(times, starts, side="left")
    shift = st.sampled_from([0, -1, 1, -2, 2]) | st.integers(-(2**40), 2**40)
    shifts = draw(st.lists(shift, min_size=lo.size, max_size=lo.size))
    return timeline, times, lo + np.array(shifts, dtype=np.int64)


# ---------------------------------------------------------------------------
# equality with the reference loops


@settings(max_examples=400, deadline=None)
@given(_dead_time_cases())
def test_dead_time_filter_equals_reference(case):
    times, dead_time = case
    np.testing.assert_array_equal(
        _dead_time_filter(times, dead_time), _reference_dead_time_filter(times, dead_time)
    )


def test_dead_time_takes_the_sum_form():
    # A search over the nextafter neighbours of 0.7 + 2 us finds the click
    # that the sum and difference forms of the test disagree on: it sits
    # exactly at 0.7 + 2e-6 as rounded, a tie that the sum form keeps, but
    # its rounded gap to 0.7 falls short of the dead time.
    last, dead_time = 0.7, 2e-6
    t = last + dead_time
    assert t - last < dead_time and not t < last + dead_time
    times = np.array([last, t])
    np.testing.assert_array_equal(_reference_dead_time_filter(times, dead_time), [True, True])
    np.testing.assert_array_equal(_dead_time_filter(times, dead_time), [True, True])
    np.testing.assert_array_equal(_dead_time_filter(times[1:], dead_time, last), [True])


@settings(max_examples=400, deadline=None)
@given(_cell_cases())
def test_drive_cell_equals_reference(case):
    times, config, seed = case
    fails = _fails(np.random.default_rng(seed).random(times.size), config)
    got = _drive_cell(times, fails, config)
    _assert_same_timeline(got, _reference_drive_cell(times, fails, config), times)
    assert np.all(np.diff(got[0].accepted_index) > 0)


@settings(max_examples=400, deadline=None)
@given(_match_cases())
def test_coincidence_match_equals_reference(case):
    a, b, window, offset = case
    assert coincidence_match(a, b, window, offset) == _reference_coincidence_match(
        a, b, window, offset
    )


@st.composite
def _search_cases(draw):
    """Sorted values with ties and one-ulp neighbours, keys on and beside them, any guess."""
    values = []
    centre = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(-10.0, 10.0)
    for v in draw(st.lists(centre, max_size=12)):
        near = [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
        values += draw(st.lists(st.sampled_from(near), min_size=1, max_size=3))
    values = np.sort(np.array(values, dtype=float))
    edges = [math.nextafter(v, d) for v in values.tolist() for d in (-math.inf, math.inf)]
    key = st.floats(-11.0, 11.0)
    if values.size:
        key |= st.sampled_from(values.tolist() + edges)
    keys = np.array(draw(st.lists(key, max_size=20)), dtype=float)
    side = draw(st.sampled_from(["left", "right"]))
    # each guess is the exact answer, 0, len(values) or -3, moved a little or far
    base = draw(st.sampled_from([None, 0, values.size, -3]))
    start = np.searchsorted(values, keys, side=side) if base is None else np.full(keys.size, base)
    shift = st.sampled_from([0, -1, 1, 2]) | st.integers(-(2**40), 2**40)
    shifts = draw(st.lists(shift, min_size=keys.size, max_size=keys.size))
    return values, keys, start + np.array(shifts, dtype=np.int64), side


@settings(max_examples=200, deadline=None)
@given(_search_cases())
def test_search_from_equals_searchsorted(case):
    values, keys, guess, side = case
    before = guess.copy()
    np.testing.assert_array_equal(
        _search_from(values, keys, guess, side), np.searchsorted(values, keys, side=side)
    )
    np.testing.assert_array_equal(guess, before)  # the caller's guess is not written


@pytest.mark.parametrize("values", [[], [1.0], [1.0, 1.0], [1.0, 2.0]])
@pytest.mark.parametrize("side", ["left", "right"])
def test_search_from_small_arrays(values, side):
    values = np.array(values, dtype=float)
    keys = np.array([0.0, 1.0, math.nextafter(1.0, 2.0), 1.5, 2.0, 3.0])
    for g in (-5, 0, 1, 2, 3, 10**12):
        guess = np.full(keys.size, g, dtype=np.int64)
        np.testing.assert_array_equal(
            _search_from(values, keys, guess, side), np.searchsorted(values, keys, side=side)
        )


@settings(max_examples=400, deadline=None)
@given(_covers_cases())
def test_covers_many_equals_reference(case):
    timeline, times, guess = case
    want = _reference_covers_many(timeline, times)
    for got in (timeline.covers_many(times), timeline.covers_many(times, guess)):
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)


def test_covers_many_handles_empty_inputs():
    empty = CellTimeline(np.empty(0), 1.0, -math.inf)
    timeline = CellTimeline(np.array([1.0]), 1.0, 2.0)
    np.testing.assert_array_equal(empty.covers_many(np.array([0.0, 1.0])), [False, False])
    for t in (empty, timeline):
        got = t.covers_many(np.empty(0))
        assert got.shape == (0,) and got.dtype == bool


def test_covers_many_rejects_unsorted_times():
    timeline = CellTimeline(np.array([1.0]), 1.0, 2.0)
    with pytest.raises(ValueError, match="sorted"):
        timeline.covers_many(np.array([1.5, 1.0]))


@pytest.mark.parametrize(
    "n", [0, 1, _COIN_BLOCK - 1, _COIN_BLOCK, _COIN_BLOCK + 1, 3 * _COIN_BLOCK + 7]
)
def test_block_drawn_coins_equal_one_draw(n):
    # the same values and the same generator state as one rng.random(n)
    want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
    u = want_rng.random(n)
    np.testing.assert_array_equal(_coins(got_rng, n, 0.3), u < 0.3)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # two thresholds, chosen per value
    where = np.arange(n) % 3 == 0
    u = want_rng.random(n)
    np.testing.assert_array_equal(
        _coins(got_rng, n, 0.8, where, 0.1), np.where(where, u < 0.8, u < 0.1)
    )
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, _COIN_BLOCK + 1])
def test_certain_coins_draw_nothing(n):
    # doubles lie in [0, 1): u < 1 always holds and u < 0 never does
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    u = np.random.default_rng(9).random(n)
    where = np.arange(n) % 3 == 0
    for p in (0.0, 1.0):
        np.testing.assert_array_equal(_coins(rng, n, p), u < p)
        for p_else in (0.0, 1.0):
            np.testing.assert_array_equal(
                _coins(rng, n, p, where, p_else), np.where(where, u < p, u < p_else)
            )
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("duration", [0.0, 1e-6, 0.11, 0.9, 1.0, 1.2, 10.0, 3.7])
def test_poisson_times_equal_uniform_draw(duration):
    # rng.uniform(0.0, duration, n) is 0.0 + duration * u of the same doubles
    for rate in (0.0, 1e4 / max(duration, 1e-6)):
        want_rng, got_rng = np.random.default_rng(17), np.random.default_rng(17)
        want = want_rng.uniform(0.0, duration, int(want_rng.poisson(rate * duration)))
        want.sort()
        got = _sample_poisson_times(got_rng, rate, duration)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize(
    "n, block", [(0, 5), (1, 1), (10, 3), (10, 10), (3 * _COIN_BLOCK + 7, _COIN_BLOCK)]
)
def test_two_cursors_read_two_full_passes(n, block):
    # simulate_run reads the branch and idler passes over the pair stream,
    # the polarizer and eta_signal passes over the signal stream, and the
    # background's two passes over the D2 noise stream after its Poisson
    # times, block by block from two cursors: the same values, and the same
    # final state
    for stream in (0, 3, 5):
        want_rng, rng = _substreams(31)[stream], _substreams(31)[stream]
        if stream == 5:
            for r in (want_rng, rng):
                _sample_poisson_times(r, 40.0, 1.0)
        first, second = want_rng.random(n), want_rng.random(n)
        ahead = _cursor_ahead(rng, n)
        got_first, got_second = [np.empty(0, dtype=bool)], [np.empty(0)]
        for start in range(0, n, block):
            size = min(block, n - start)
            got_first.append(_coins(rng, size, 0.5))
            got_second.append(ahead.random(size))
        np.testing.assert_array_equal(np.concatenate(got_first), first < 0.5)
        np.testing.assert_array_equal(np.concatenate(got_second), second)
        assert ahead.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(_dead_time_cases(), st.integers(0, 50))
def test_dead_time_filter_carries_last_kept_click(case, split):
    # two calls, the second starting from the first's last kept click,
    # keep what one call over the whole stream keeps
    times, dead_time = case
    head, tail = times[:split], times[split:]
    keep_head = _dead_time_filter(head, dead_time)
    last = head[keep_head][-1] if keep_head.any() else -math.inf
    np.testing.assert_array_equal(
        np.concatenate([keep_head, _dead_time_filter(tail, dead_time, last)]),
        _reference_dead_time_filter(times, dead_time),
    )


@settings(max_examples=300, deadline=None)
@given(_cell_cases(), st.integers(0, 50))
def test_drive_cell_carries_busy_span(case, split):
    # two calls on one mask, the second starting from the span the first
    # left, accept what one call over all requests accepts
    times, config, seed = case
    fails = _fails(np.random.default_rng(seed).random(times.size), config)
    head, _ = _drive_cell(times[:split], fails[:split], config)
    tail, accepted = _drive_cell(times[split:], fails[split:], config, head.busy_until)
    want, want_accepted, want_clicks = _reference_drive_cell(times, fails, config)
    assert head.accepted_index.size + accepted == want_accepted
    np.testing.assert_array_equal(
        np.concatenate([times[:split][head.accepted_index], times[split:][tail.accepted_index]]),
        want_clicks,
    )
    np.testing.assert_array_equal(
        np.concatenate([head.window_starts, tail.window_starts]), want.window_starts
    )
    assert tail.busy_until == want.busy_until


@st.composite
def _merge_cases(draw):
    """Sorted photon and dark times on a coarse grid, so that they tie exactly."""
    grid = st.integers(0, 6).map(lambda k: k * 0.25)
    photons = np.sort(np.array(draw(st.lists(grid, max_size=12)), dtype=float))
    darks = np.sort(np.array(draw(st.lists(grid, max_size=12)), dtype=float))
    # increasing pair indices, as np.flatnonzero gives them
    gaps = draw(st.lists(st.integers(1, 3), min_size=photons.size, max_size=photons.size))
    return photons, np.cumsum(np.array(gaps, dtype=np.int64)), darks


@settings(max_examples=300, deadline=None)
@given(_merge_cases())
def test_merge_dark_clicks_equals_stable_sort(case):
    photons, pair_index, darks = case
    times = np.concatenate([photons, darks])
    index = np.concatenate([pair_index, np.full(darks.size, -1, dtype=np.int64)])
    order = np.argsort(times, kind="stable")
    got_times, got_index = _merge_dark_clicks(photons, pair_index, darks)
    np.testing.assert_array_equal(got_times, times[order])
    np.testing.assert_array_equal(got_index, index[order])
    assert got_index.dtype == np.int64


def test_scans_equal_reference_on_saturated_poisson_streams():
    # long runs of overlapping events at occupancy ~1, where clusters are
    # long and most events go through the sequential path
    rng = np.random.default_rng(2024)
    times = np.sort(rng.uniform(0.0, 0.05, 20000))  # 4e5 clicks/s
    for dead_time in (50e-9, 2.5e-6):
        np.testing.assert_array_equal(
            _dead_time_filter(times, dead_time), _reference_dead_time_filter(times, dead_time)
        )
    for mode in ("nonparalyzable", "paralyzable"):
        for fail in (0.0, 0.15, 1.0):
            config = ExperimentConfig(dead_time_mode=mode, cell_fail_prob=fail)
            fails = _fails(np.random.default_rng(7).random(times.size), config)
            timeline, accepted = _drive_cell(times, fails, config)
            _assert_same_timeline(
                (timeline, accepted), _reference_drive_cell(times, fails, config), times
            )
            arrivals = times + 248e-9
            want = _reference_covers_many(timeline, arrivals)
            np.testing.assert_array_equal(timeline.covers_many(arrivals), want)
            # each click is its own pair, so its index is the guess simulate_run passes
            np.testing.assert_array_equal(
                timeline.covers_many(arrivals, timeline.accepted_index), want
            )
    d2 = np.sort(np.concatenate([times + 248e-9, rng.uniform(0.0, 0.05, 20000)]))
    for window in (3e-9, 2e-6):
        assert coincidence_match(times, d2, window, 248e-9) == _reference_coincidence_match(
            times, d2, window, 248e-9
        )


def test_drive_cell_keeps_paralyzable_extension_after_last_acceptance():
    # blocked clicks extend the busy span, also after the last acceptance
    config = ExperimentConfig(
        t0_internal=0.0, pulse_rise=0.0, pulse_flat=0.0, cell_dead_time=1.0,
        dead_time_mode="paralyzable",
    )
    times = np.array([0.0, 0.5, 1.4, 5.0, 5.25])
    fails = np.zeros(times.size, dtype=bool)
    timeline, accepted = _drive_cell(times, fails, config)
    assert accepted == 2
    np.testing.assert_array_equal(times[timeline.accepted_index], [0.0, 5.0])
    assert timeline.busy_until == 6.25
    _assert_same_timeline(
        (timeline, accepted), _reference_drive_cell(times, fails, config), times
    )


@pytest.mark.parametrize(
    "mode, accepted_clicks, busy_until",
    [
        # every blocked request extends the span, the last (4.0) to 5.0
        ("paralyzable", [0.0, 2.0], 5.0),
        # blocked requests leave the span alone, so 3.25 is live
        ("nonparalyzable", [0.0, 2.0, 3.25], 4.25),
    ],
)
def test_drive_cell_hand_built_chain(mode, accepted_clicks, busy_until):
    # busy time 1 (no lead).  0.0 is accepted; 0.5 is blocked and, in
    # paralyzable mode, extends the span to exactly 1.5; 1.5 is then live
    # (not 1.5 < 1.5) but its coin fails, so it sets no span, and 2.0, inside
    # its would-be span [1.5, 2.5), is live and accepted.  Blocked requests
    # carry failing coins too: a blocked request extends the span whatever
    # its coin says.
    config = ExperimentConfig(
        t0_internal=0.0, pulse_rise=0.0, pulse_flat=0.0, cell_dead_time=1.0,
        cell_fail_prob=0.5, dead_time_mode=mode,
    )
    times = np.array([0.0, 0.5, 1.5, 2.0, 2.75, 3.25, 4.0])
    fails = _fails([0.9, 0.1, 0.1, 0.9, 0.1, 0.9, 0.1], config)
    timeline, accepted = _drive_cell(times, fails, config)
    assert accepted == len(accepted_clicks)
    np.testing.assert_array_equal(times[timeline.accepted_index], accepted_clicks)
    np.testing.assert_array_equal(timeline.window_starts, accepted_clicks)
    assert timeline.busy_until == busy_until
    _assert_same_timeline(
        (timeline, accepted), _reference_drive_cell(times, fails, config), times
    )


@pytest.mark.parametrize("length", [1, 2, 3])
def test_short_clusters_equal_reference(length):
    # Every cluster of 1 to 3 conflicts behind a free head, with every
    # pattern of coins (head included) and of gaps: a tie, or 0.4 or 0.7 of
    # the busy time 1 after the previous request.  Each cluster is repeated
    # with the coins reversed, so a cluster also starts right after another.
    config = ExperimentConfig(
        t0_internal=0.0, pulse_rise=0.0, pulse_flat=0.0, cell_dead_time=1.0,
        cell_fail_prob=0.5,
    )
    for gaps in itertools.product([0.0, 0.4, 0.7], repeat=length):
        cluster = np.cumsum([0.0, *gaps])
        times = np.concatenate([[0.0], 10.0 + cluster, 20.0 + cluster, [30.0]])
        np.testing.assert_array_equal(
            _dead_time_filter(times, 1.0), _reference_dead_time_filter(times, 1.0)
        )
        for pattern in itertools.product([0.1, 0.9], repeat=length + 1):  # 0.1 fails
            fails = _fails([0.9, *pattern, *pattern[::-1], 0.9], config)
            for mode in ("nonparalyzable", "paralyzable"):
                cfg = replace(config, dead_time_mode=mode)
                _assert_same_timeline(
                    _drive_cell(times, fails, cfg), _reference_drive_cell(times, fails, cfg), times
                )


# ---------------------------------------------------------------------------
# analytic oracles where the clustered path runs (5 Poisson sigma each)


def test_paralyzable_cell_accepts_exp_minus_x():
    # Poisson triggers at rate r with a paralyzable busy span: a trigger is
    # accepted iff the gap to the previous trigger is at least the busy
    # time, so the accepted fraction is exp(-r busy).  Here r busy ~ 1, and
    # about 63% of triggers sit in conflict clusters.
    base = ExperimentConfig(dead_time_mode="paralyzable", duration=0.2, seed=4101)
    busy = cell_busy_time(base)
    rate = 1.0 / busy  # D1 trigger rate
    result = simulate_run(replace(base, pair_rate=rate / (0.5 * base.eta_idler)))
    expected = result.singles_d1 * math.exp(-rate * busy)
    assert abs(result.triggers_accepted - expected) <= 5.0 * math.sqrt(expected)


@pytest.mark.parametrize("mode", ["nonparalyzable", "paralyzable"])
def test_cell_accepts_renewal_share_with_failures(mode):
    # Poisson triggers at the measured D1 rate r, busy time B (r B ~ 1) and
    # failure coin f = 0.15, q = 1 - f.  Non-paralyzable: an acceptance is
    # followed by B dead, then an exponential wait at rate q r, so the
    # accepted share is q / (1 + q r B).  Paralyzable: request i is live iff
    # its gap to request i - 1 is at least B, or shorter and i - 1 was a
    # live failure, so P(live) = e^(-rB) + (1 - e^(-rB)) f P(live) and the
    # share is q e^(-rB) / (1 - f (1 - e^(-rB))).
    base = ExperimentConfig(dead_time_mode=mode, cell_fail_prob=0.15, duration=0.2, seed=4104)
    busy = cell_busy_time(base)
    result = simulate_run(replace(base, pair_rate=1.0 / busy / (0.5 * base.eta_idler)))
    x = result.singles_d1 / base.duration * busy
    q = 1.0 - base.cell_fail_prob
    if mode == "nonparalyzable":
        share = q / (1.0 + q * x)
    else:
        share = q * math.exp(-x) / (1.0 - base.cell_fail_prob * (1.0 - math.exp(-x)))
    expected = result.singles_d1 * share
    assert abs(result.triggers_accepted - expected) <= 5.0 * math.sqrt(expected)


def test_detector_dead_time_keeps_r_over_one_plus_r_tau():
    # non-paralyzable detector recovery: the kept rate is r / (1 + r tau),
    # at r tau = 0.5 on both arms, then with each arm at its own tau
    # (r tau = 0.5 on D1, 1 on D2)
    rate, duration = 1e5, 1.0
    for tau1, tau2, seed in ((5e-6, 5e-6, 4102), (5e-6, 10e-6, 4103)):
        config = ExperimentConfig(
            pair_rate=0.0,
            dark_rate_idler=rate,
            dark_rate_signal=rate,
            detector_dead_time_d1=tau1,
            detector_dead_time_d2=tau2,
            duration=duration,
            seed=seed,
        )
        result = simulate_run(config)
        for kept, tau in ((result.singles_d1, tau1), (result.singles_d2, tau2)):
            expected = rate * duration / (1.0 + rate * tau)
            assert abs(kept - expected) <= 5.0 * math.sqrt(expected)


def test_a_failing_property_reports_its_example_and_the_run_goes_on(tmp_path):
    # The properties above must show their falsifying example when they
    # fail, under the repository's own warning filters, and must not stop
    # the tests after them.
    (tmp_path / "test_pair.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "@settings(database=None, max_examples=5)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
