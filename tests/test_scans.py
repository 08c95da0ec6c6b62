"""The engine's event scans against plain statements of the bench's stages.

``_dead_time_filter`` and the non-paralyzable ``_drive_cell``, over the
requests whose failure coin held, share one greedy-acceptance kernel: it
settles isolated events and the first event of every conflict cluster
with numpy and replays only the second and later ones.
``coincidence_match`` settles isolated clicks with numpy and replays its
clusters in its own loop, and the paralyzable drive uses a closed form.
``CellTimeline.covers_many`` searches the windows in the sorted arrivals
instead of the arrivals in the windows.  It first checks, per window, that
the arrival its guess names is the window's only one, and the matcher's
``_rank_right_from`` checks the first two candidates above the window
bottom; what fails a check is searched, so both must equal
``np.searchsorted`` for any guess.  The matcher ranks its window bottoms
with ``_rank_left``, a merge of bit patterns that must equal it too, and
the D2 arm merges its runs on their bits.  ``_coins`` must read the stream
exactly as one ``rng.random(n)`` does, a cursor from ``_cursor_ahead`` must
read a second pass as a second ``rng.random(n)`` does, and
``_merge_dark_clicks`` is the stable sort of ``reference_bench.merge_d1``,
whose order its test fixes on exact ties.  The filter and
the drive carry their state from one block of clicks to the next, so a
stream split in two must give what the whole stream gives, and
``_match_cut`` fed block by block must count what one
``coincidence_match`` counts.  The
references are the stages of ``reference_bench``, the bench stated one
event at a time over Python lists; its detector takes the sum form ``t >=
last + dead_time`` of the cell's ``t < busy_until`` (see
``test_dead_time_takes_the_sum_form``).  The properties assert equal
output on random sorted streams built to hit dense clusters, exact ties and
gaps that sit exactly on (or one ulp beside) every edge the scans compare
against.  Whole runs whose triggers sit in conflict clusters are scored
against the analytic model in ``test_simulation.py``'s table
``test_engine_meets_the_model`` (its ``cell-renewal`` rows).

The strategies hit ties, values on each edge and their one-ulp neighbours
through ``_near``, ``_edge_gaps``, ``_walk`` (a start plus gaps,
some completing the previous gap to a span's end), ``_pick``
(a negative draw names a table entry, any other is free; see ``_either``)
and ``_picks`` (clicks on window edges), one draw per choice and one list
per list, since drawing the examples is most of these tests' time.
"""

import itertools
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton_feedforward.simulation import (
    _COIN_BLOCK,
    CellTimeline,
    ExperimentConfig,
    _coins,
    _cursor_ahead,
    _dead_time_filter,
    _drive_cell,
    _match_cut,
    _merge_dark_clicks,
    _rank_left,
    _rank_right_from,
    _sample_poisson_times,
    _substreams,
    coincidence_match,
)

from reference_bench import (
    covered, dead_time_keeps, drive_cell, greedy_matches, merge_d1, trigger_lead,
)

# Dyadic time unit (~0.93 ns).  Times, dead times and windows drawn as small
# integer multiples of it add and subtract exactly, so generated gaps land
# exactly on the edges the scans compare against.
UNIT = 2.0**-30


# ---------------------------------------------------------------------------
# the engine's cell and the reference's


def _idle_cell(config: ExperimentConfig) -> CellTimeline:
    """The cell a run starts from: no window yet, never busy."""
    return CellTimeline(np.empty(0), config.pulse_flat, -math.inf, np.empty(0, dtype=np.int64))


def _drive(times: np.ndarray, fails: np.ndarray, config: ExperimentConfig):
    """``_drive_cell`` from the idle cell, each click its own pair, so that
    ``window_pairs`` is each window's position among the requests."""
    return _drive_cell(times, np.arange(times.size), fails, config, _idle_cell(config))


def _fails(coins, config: ExperimentConfig) -> np.ndarray:
    """The failure mask of one coin per request, as simulate_run draws it."""
    return np.asarray(coins, dtype=float) < config.cell_fail_prob


def _assert_same_timeline(got, times, fails, config):
    """The engine's cell and its count equal the reference cell's for the same requests."""
    timeline, accepted = got
    starts, openers, busy_until = drive_cell(times.tolist(), fails.tolist(), config)
    assert accepted == len(starts)
    np.testing.assert_array_equal(timeline.window_starts, starts)
    np.testing.assert_array_equal(times[timeline.window_pairs], times[openers])
    assert timeline.window_starts.dtype == np.float64
    assert timeline.window_length == config.pulse_flat
    assert timeline.busy_until == busy_until


def _covered(timeline: CellTimeline, times: np.ndarray) -> list[bool]:
    """The reference's coverage of ``times`` by ``timeline``'s windows."""
    return covered(times.tolist(), timeline.window_starts.tolist(), timeline.window_length)


# ---------------------------------------------------------------------------
# stream strategies


def _near(v):
    """``v`` and its two one-ulp neighbours."""
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def _draws(top, grid=False):
    """Draws for ``_pick``, most naming an entry: -3 ``top`` to ``top``, grid steps or floats."""
    return st.integers(-3 * round(top), round(top)) if grid else st.floats(-3 * top, top)


def _pick(table, x, scale=1.0, names=None):
    """The entry of ``table`` that ``x`` names by its hash if ``names`` (by
    default if ``x`` is negative), else the free value ``x * scale``."""
    named = x < 0 if names is None else names
    return table[hash(x) % len(table)] if named and table else x * scale + 0.0


def _either(draw, table, free, min_size=0, max_size=None):
    """Entries of ``table`` or draws of ``free``, whose two signs leave no negative
    half to name entries: each draw names one when its choice (three in four) says so."""
    choice = st.sampled_from((True, True, True, False))
    pairs = draw(st.lists(st.tuples(free, choice), min_size=min_size, max_size=max_size))
    return [_pick(table, x, names=names) for x, names in pairs]


def _picks(draw, groups, slots):
    """Up to ``slots`` entries of each group, as one list of slots, each empty or an entry."""
    slot = st.sampled_from((*range(len(groups[0]) if groups else 0), None))
    drawn = draw(st.lists(slot, min_size=slots * len(groups), max_size=slots * len(groups)))
    return [[g[i] for i in drawn[slots * k : slots * k + slots] if i is not None]
            for k, g in enumerate(groups)]


def _edge_gaps(edges, grid):
    """Gaps of zero (ties), exactly on each edge and, off the grid, one ulp either side."""
    gaps = [0.0, *(g for e in edges for g in ([e] if grid else _near(e)))]
    return [g for g in gaps if g >= 0.0]


def _walk(draw, grid, table, free_gap=None, max_size=50, end=None):
    """Sorted times: a start, then gaps (exact on the grid, rounded off it), each in
    ``table`` or free up to ``free_gap``, by default twice the largest entry.  ``end``
    maps a time to the end of the span it starts; with it, half the named gaps
    complete the previous one to that end: the time lands on the end of the span
    from the time before the last, or ties the last if that end lies before it."""
    free_gap, scale = free_gap or max(2 * max(table), 4 * UNIT), UNIT if grid else 1.0
    start = _duration(grid, draw, 2**20, (0.0, 0.7), 10.0)
    drawn = draw(st.lists(_draws(free_gap / scale, grid), max_size=max_size))
    table = [*table, *[None] * len(table)] if end else table
    times = [start, start]
    for gap in (_pick(table, x, scale) for x in drawn):
        times.append(times[-1] + gap if gap is not None else max(end(times[-2]), times[-1]))
    return np.array(times[2:], dtype=float)


def _strays(draw, grid, top):
    """Up to ten clicks anywhere: on the grid up to 2^21 UNIT, else up to ``top`` s."""
    if grid:
        return [k * UNIT for k in draw(st.lists(st.sampled_from(range(2**21 + 1)), max_size=10))]
    return draw(st.lists(st.floats(0.0, top), max_size=10))


def _duration(grid, draw, grid_max, values, upper):
    """A time: up to ``grid_max`` UNIT on the grid, else one of ``values`` or up to ``upper``."""
    if grid:
        return draw(st.sampled_from(range(grid_max + 1))) * UNIT
    return _pick(values, draw(_draws(upper)))


@st.composite
def _dead_time_cases(draw):
    grid = draw(st.booleans())
    dead_time = _duration(grid, draw, 64, (50e-9, 2e-6), 1e-5)
    times = _walk(draw, grid, _edge_gaps([dead_time], grid), end=lambda t: t + dead_time)
    return times, dead_time


@st.composite
def _cell_cases(draw):
    grid = draw(st.booleans())
    dead = _duration(grid, draw, 64, (102e-9, 2e-6), 3e-6)
    config = ExperimentConfig(
        t_electronic=_duration(grid, draw, 16, (0.0, 50e-9, 150e-9), 3e-7),
        t0_internal=_duration(grid, draw, 16, (148e-9,), 3e-7),
        pulse_rise=min(_duration(grid, draw, 4, (2e-9,), 5e-9), dead),
        pulse_flat=0.0,
        cell_dead_time=dead,
        cell_fail_prob=draw(st.sampled_from([0.0, 0.15, 1.0])),
        dead_time_mode=draw(st.sampled_from(["nonparalyzable", "paralyzable"])),
    )
    lead = trigger_lead(config)
    # the request's busy end, summed as the engine and the reference sum it
    times = _walk(draw, grid, _edge_gaps([lead + dead, dead], grid), end=lambda t: t + lead + dead)
    return times, config, draw(st.integers(0, 2**32))


@st.composite
def _match_cases(draw, grid=None, max_size=30, per_window=3):
    grid = draw(st.booleans()) if grid is None else grid
    half = _duration(grid, draw, 16, (1.5e-9, 50e-9), 1e-7)
    offset = _duration(grid, draw, 300, (0.0, 248e-9), 3e-7)
    a = _walk(draw, grid, _edge_gaps([2.0 * half, half], grid), max_size=max_size)
    # D2 clicks on, one ulp beside and inside the D1 windows, plus strays
    edges = [[*_near(t - half), t, *_near(t + half)] for t in (a + offset).tolist()]
    b = np.sort(np.array(sum(_picks(draw, edges, per_window), _strays(draw, grid, 10.0))))
    return a, b, 2.0 * half, offset


@st.composite
def _covers_cases(draw):
    """A timeline and sorted arrivals on, one ulp beside and between its window edges;
    starts are a window length apart, less the slack ``validate`` allows, or free."""
    grid = draw(st.booleans())
    length = _duration(grid, draw, 16, (100e-9, 0.0), 1e-6)
    free_gap = 64 * UNIT if grid else 4e-6
    slack = 1e-9 * max(length, 1e-12)  # validate's slack when the dead time equals the window
    starts = _walk(draw, grid, [length, max(length - slack, 0.0)], free_gap, 20)
    edges = [[*_near(s), *_near(s + length)] for s in starts.tolist()]
    times = np.sort(np.array(sum(_picks(draw, edges, 4), _strays(draw, grid, 11.0))))
    timeline = CellTimeline(starts, length, -math.inf, np.arange(starts.size))
    # per window: near its true lo, or anywhere (negative, past the end, far off)
    lo = np.searchsorted(times, starts, side="left")
    shifts = _either(draw, (0, -1, 1, -2, 2), st.integers(-(2**40), 2**40), lo.size, lo.size)
    return timeline, times, lo + np.array(shifts, dtype=np.int64)


@pytest.mark.parametrize("grid", [True, False])
def test_a_draw_reaches_every_entry_and_both_ends_of_the_free_range(grid):
    # negative draws over those of _draws name every gap of a grid and an
    # off-grid edge table; the draws 0 and top are the free range's ends
    top, scale = (16, UNIT) if grid else (4e-6, 1.0)
    table = _edge_gaps([3 * UNIT, 7 * UNIT] if grid else [50e-9, 2e-6], grid)
    draws = range(-3 * top, 0) if grid else [top * i / 64 for i in range(-192, 0)]
    assert {_pick(table, x, scale) for x in draws} == set(table)
    assert [_pick(table, x, scale) for x in (0, top)] == [0.0, top * scale]


# ---------------------------------------------------------------------------
# equality with the reference loops


@settings(max_examples=400, deadline=None)
@given(_dead_time_cases())
# the third click lands on the end of the first's dead time, after the second
# fell inside it: the replay of a conflict cluster keeps it
@example((np.array([0.0, 1.0, 2.0]), 2.0))
def test_dead_time_filter_equals_reference(case):
    times, dead_time = case
    np.testing.assert_array_equal(
        _dead_time_filter(times, dead_time), dead_time_keeps(times.tolist(), dead_time)
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
    np.testing.assert_array_equal(dead_time_keeps(times.tolist(), dead_time), [True, True])
    np.testing.assert_array_equal(_dead_time_filter(times, dead_time), [True, True])
    np.testing.assert_array_equal(_dead_time_filter(times[1:], dead_time, last), [True])


@settings(max_examples=400, deadline=None)
@given(_cell_cases())
def test_drive_cell_equals_reference(case):
    times, config, seed = case
    fails = _fails(np.random.default_rng(seed).random(times.size), config)
    got = _drive(times, fails, config)
    _assert_same_timeline(got, times, fails, config)
    assert np.all(np.diff(got[0].window_pairs) > 0)


@settings(max_examples=400, deadline=None)
@given(_match_cases())
def test_coincidence_match_equals_reference(case):
    a, b, window, offset = case
    assert coincidence_match(a, b, window, offset) == greedy_matches(
        a.tolist(), b.tolist(), window, offset
    )


def _match_by_blocks(a, b, window, offset, edges):
    """Coincidences counted by ``_match_cut`` over blocks that end at ``edges``.

    Each block feeds the D1 and D2 clicks before its edge, as the engine's
    arms do, into the state ``_match_cut`` reads; the last block runs on to
    infinity.
    """
    config = SimpleNamespace(coincidence_window=window, coincidence_offset=offset, t_fiber=0.0)
    run = SimpleNamespace(config=config, d1_wait=np.empty(0), d2_wait=np.empty(0), coincidences=0)
    fed_1 = fed_2 = 0
    for edge in [*edges, math.inf]:
        stop_1, stop_2 = int(np.searchsorted(a, edge)), int(np.searchsorted(b, edge))
        run.d1_wait = np.concatenate([run.d1_wait, a[fed_1:stop_1]])
        run.d2_wait = np.concatenate([run.d2_wait, b[fed_2:stop_2]])
        fed_1, fed_2 = stop_1, stop_2
        _match_cut(run, edge)
    assert run.d1_wait.size == 0
    return run.coincidences


@settings(max_examples=300, deadline=None)
@given(_match_cases(grid=True, max_size=12, per_window=1), st.data())
def test_match_cut_over_block_edges_equals_one_match(case, data):
    # The counts of the blocks sum to one match over the whole streams.
    # One edge on each window top or one grid step past it, where a window
    # that touches the next is ready while the next is not, and on each D1
    # click, which then waits for the next block; then several edges on
    # window bounds, D1 and D2 clicks, one grid step beside them, or
    # anywhere on the grid.
    a, b, window, offset = case
    whole = coincidence_match(a, b, window, offset)
    tops = a + offset + window / 2.0
    for edge in sorted({*tops.tolist(), *(tops + UNIT).tolist(), *a.tolist()}):
        assert _match_by_blocks(a, b, window, offset, [edge]) == whole, edge
    ties = np.concatenate([tops, tops - window, a, b]).tolist()
    beside = [t + d * UNIT for t in ties for d in (-1, 0, 1)]
    drawn = data.draw(st.lists(_draws(2**21, grid=True), max_size=6))
    edges = sorted({_pick(beside, x, UNIT) for x in drawn})
    assert _match_by_blocks(a, b, window, offset, edges) == whole


def test_match_cut_does_not_cut_between_touching_windows():
    # D1 windows [-1, 1] and [1, 3] share the D2 click at 1, and the edge at
    # 2.5 falls after the first window ends: a cut there would keep the
    # click for the second window and count it twice
    a, b = np.array([0.0, 2.0]), np.array([1.0])
    assert coincidence_match(a, b, 2.0) == 1
    assert _match_by_blocks(a, b, 2.0, 0.0, [2.5]) == 1


@st.composite
def _search_cases(draw):
    """Sorted values with ties and one-ulp neighbours, keys on and beside them, any
    guess; zeros come signed both ways, and values reach up to 1e3."""
    free = st.floats(-10.0, 10.0) | st.floats(2.0, 1e3)
    centres = _either(draw, (0.0, -0.0, 1.0, 2.5), free, max_size=12)
    values = np.sort(np.array(sum(_picks(draw, [_near(c) for c in centres], 3), []), dtype=float))
    on_and_beside = [k for v in values.tolist() for k in _near(v)]
    keys = np.array(_either(draw, on_and_beside, st.floats(-11.0, 11.0), max_size=20), dtype=float)
    side = draw(st.sampled_from(["left", "right"]))
    # each guess is the exact answer, 0, len(values) or -3, moved a little or far
    base = draw(st.sampled_from([None, 0, values.size, -3]))
    start = np.searchsorted(values, keys, side=side) if base is None else np.full(keys.size, base)
    shifts = _either(draw, (0, -1, 1, 2), st.integers(-(2**40), 2**40), keys.size, keys.size)
    return values, keys, start + np.array(shifts, dtype=np.int64), side


@settings(max_examples=200, deadline=None)
@given(_search_cases(), _draws(12.0).map(lambda x: _pick((0.0, 0.5, 1.0, 1.5), x)))
def test_covers_many_and_rank_right_from_equal_the_search(case, length):
    # Both lookups check a guessed index before they search.  "left":
    # covers_many, the values as arrivals and the keys as window starts of
    # the drawn length, each window's guess as drawn (0, n, -3 or exact,
    # moved by a little or by up to 2^40, so -1 as a dark click's guess and
    # negatives as a carried window's); "right": the matcher's hi from
    # each guess clipped to at most the answer, and from the rank of a
    # window bottom.
    values, keys, guess, side = case
    order = np.argsort(keys, kind="stable")
    keys, guess = keys[order], guess[order]
    before = guess.copy()
    if side == "left":
        timeline = CellTimeline(keys, length, -math.inf, guess)
        got = timeline.covers_many(values, guess)
        np.testing.assert_array_equal(got, _covered(timeline, values))
    else:
        right = np.searchsorted(values, keys, side="right")
        for lo in (np.clip(guess, 0, right), np.searchsorted(values, keys - length)):
            np.testing.assert_array_equal(_rank_right_from(values, keys, lo), right)
    np.testing.assert_array_equal(guess, before)  # the caller's guess is not written


@settings(max_examples=200, deadline=None)
@given(_search_cases())
def test_rank_left_equals_searchsorted(case):
    # as drawn, negative keys or values take the fallback; their
    # non-negative parts, -0.0 among them, take the merge
    values, keys, _, _ = case
    keys = np.sort(keys)
    for v, k in ((values, keys), (values[values >= 0.0], keys[keys >= 0.0])):
        np.testing.assert_array_equal(_rank_left(v, k), np.searchsorted(v, k, side="left"))


@st.composite
def _non_negative_runs(draw):
    """Up to three sorted runs of non-negative finite doubles, as a D2 block holds."""
    tiny = 2.2250738585072014e-308  # the smallest normal double
    table = [0.0, 5e-324, tiny, 1.0, 2.0, 1.7e308]
    count = draw(st.integers(1, 3))
    runs = draw(st.lists(st.lists(_draws(1e3), max_size=10), min_size=count, max_size=count))
    centres = [[_pick(table, x) for x in run] for run in runs]
    picks = iter(_picks(draw, [[max(v, 0.0) for v in _near(c)] for c in sum(centres, [])], 3))
    runs = [sum((next(picks) for _ in run), []) for run in centres]
    return np.concatenate([np.sort(np.array(run, dtype=float)) for run in runs])


@settings(max_examples=200, deadline=None)
@given(_non_negative_runs())
def test_uint64_view_sorts_non_negative_doubles_as_floats(times):
    # _d2_arm merges its sorted runs on their bits read as uint64
    assert not np.signbit(times).any()
    merged = times.copy()
    merged.view(np.uint64).sort(kind="stable")
    assert merged.tobytes() == np.sort(times, kind="stable").tobytes()


@pytest.mark.parametrize("values", [[], [1.0], [1.0, 2.0], [1.0, 1.5, 2.0]])
@pytest.mark.parametrize("side", ["left", "right"])
def test_covers_many_and_rank_right_from_small_arrays(values, side):
    # n = 0 to 3.  "left": covers_many, which searches every window below
    # three arrivals and clips every guess to index 1 at three; windows
    # start on and beside the arrivals and end on them (1.0 + 1.0, 1.5 +
    # 0.5).  "right": the matcher's hi over 0 to 3 candidates, the last
    # exactly at the window top, and from lo = n when every value is below.
    values = np.array(values, dtype=float)
    keys = np.array([0.0, 1.0, math.nextafter(1.0, 2.0), 1.5, 2.0, 3.0])
    right = np.searchsorted(values, keys, side="right")
    for g in (-5, -1, 0, 1, 2, 3, 10**12):
        guess = np.full(keys.size, g, dtype=np.int64)
        if side == "left":
            for length in (0.0, 0.5, 1.0):
                timeline = CellTimeline(keys, length, -math.inf, guess)
                np.testing.assert_array_equal(
                    timeline.covers_many(values, guess), _covered(timeline, values)
                )
        else:
            lo = np.clip(guess, 0, right)
            np.testing.assert_array_equal(_rank_right_from(values, keys, lo), right)


def test_covers_many_checks_edge_arrivals_without_a_search(monkeypatch):
    # The check makes searchsorted's own comparisons, so a window whose
    # only arrival sits exactly on its start, with the next arrival exactly
    # on its end, passes it.  Only the window of two arrivals and the
    # dark-click window (guess -1) are searched.
    times = np.array([0.0, 1.0, 1.5, 2.0, 3.0, 3.25, 4.0, 5.0])
    timeline = CellTimeline(
        np.array([1.0, 3.0, 4.5]), 0.5, -math.inf, np.array([1, 4, -1], dtype=np.int64)
    )
    searched = []
    searchsorted = np.searchsorted

    def spy(values, keys, side="left"):
        searched.append(np.array(keys, dtype=float))
        return searchsorted(values, keys, side=side)

    monkeypatch.setattr(np, "searchsorted", spy)
    got = timeline.covers_many(times, timeline.window_pairs)
    monkeypatch.undo()
    np.testing.assert_array_equal(got, _covered(timeline, times))
    np.testing.assert_array_equal(got, [0, 1, 0, 0, 1, 1, 0, 0])
    np.testing.assert_array_equal(np.concatenate(searched), [3.0, 4.5, 3.5, 5.0])


@settings(max_examples=400, deadline=None)
@given(_covers_cases())
def test_covers_many_equals_reference(case):
    # the opener guess and the zero guess, which leaves every lo to the search
    timeline, times, guess = case
    want = _covered(timeline, times)
    zero = np.zeros(timeline.window_starts.size, dtype=np.int64)
    for got in (timeline.covers_many(times, zero), timeline.covers_many(times, guess)):
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)


def test_covers_many_handles_empty_inputs():
    empty = CellTimeline(np.empty(0), 1.0, -math.inf, np.empty(0, dtype=np.int64))
    timeline = CellTimeline(np.array([1.0]), 1.0, 2.0, np.zeros(1, dtype=np.int64))
    no_guess = np.zeros(0, dtype=np.int64)
    np.testing.assert_array_equal(
        empty.covers_many(np.array([0.0, 1.0]), no_guess), [False, False]
    )
    for t in (empty, timeline):
        got = t.covers_many(np.empty(0), np.zeros(t.window_starts.size, dtype=np.int64))
        assert got.shape == (0,) and got.dtype == bool


def test_covers_many_rejects_unsorted_times():
    timeline = CellTimeline(np.array([1.0]), 1.0, 2.0, np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match="sorted"):
        timeline.covers_many(np.array([1.5, 1.0]), np.zeros(1, dtype=np.int64))


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
    # simulate_run reads the branch and idler passes over the pair stream
    # block by block, the idler pass from its cursor: the same values, and
    # the same final state.  The cursor reads two passes so on any stream,
    # here also the signal stream and the D2 noise stream after its Poisson
    # times.
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
        dead_time_keeps(times.tolist(), dead_time),
    )


@settings(max_examples=300, deadline=None)
@given(_cell_cases(), st.integers(0, 50))
def test_drive_cell_carries_busy_span(case, split):
    # two calls on one mask, the second advancing the cell the first left,
    # leave the cell (windows, their pairs, busy span) that one call over
    # all requests leaves
    times, config, seed = case
    fails = _fails(np.random.default_rng(seed).random(times.size), config)
    pairs = np.arange(times.size)
    head, head_accepted = _drive_cell(
        times[:split], pairs[:split], fails[:split], config, _idle_cell(config)
    )
    cell, tail_accepted = _drive_cell(times[split:], pairs[split:], fails[split:], config, head)
    whole, accepted = _drive(times, fails, config)
    assert head_accepted + tail_accepted == accepted
    np.testing.assert_array_equal(cell.window_starts, whole.window_starts)
    np.testing.assert_array_equal(cell.window_pairs, whole.window_pairs)
    assert cell.window_length == whole.window_length
    assert cell.busy_until == whole.busy_until


@st.composite
def _merge_cases(draw):
    """Sorted photon and dark times on a coarse grid, so that they tie exactly."""
    quarters = st.lists(st.integers(0, 6), max_size=12)
    photons = 0.25 * np.sort(np.array(draw(quarters), dtype=float))
    darks = 0.25 * np.sort(np.array(draw(quarters), dtype=float))
    # increasing pair indices, as np.flatnonzero gives them
    gaps = draw(st.lists(st.integers(1, 3), min_size=photons.size, max_size=photons.size))
    return photons, np.cumsum(np.array(gaps, dtype=np.int64)), darks


@settings(max_examples=300, deadline=None)
@given(_merge_cases())
def test_merge_dark_clicks_equals_stable_sort(case):
    photons, pair_index, darks = case
    times, index = merge_d1(photons.tolist(), pair_index.tolist(), darks.tolist())
    got_times, got_index = _merge_dark_clicks(photons, pair_index, darks)
    np.testing.assert_array_equal(got_times, times)
    np.testing.assert_array_equal(got_index, index)
    assert got_index.dtype == np.int64


def test_scans_equal_reference_on_saturated_poisson_streams():
    # long runs of overlapping events at occupancy ~1, where clusters are
    # long and most events go through the sequential path
    rng = np.random.default_rng(2024)
    times = np.sort(rng.uniform(0.0, 0.05, 20000))  # 4e5 clicks/s
    for dead_time in (50e-9, 2.5e-6):
        np.testing.assert_array_equal(
            _dead_time_filter(times, dead_time), dead_time_keeps(times.tolist(), dead_time)
        )
    for mode in ("nonparalyzable", "paralyzable"):
        for fail in (0.0, 0.15, 1.0):
            config = ExperimentConfig(dead_time_mode=mode, cell_fail_prob=fail)
            fails = _fails(np.random.default_rng(7).random(times.size), config)
            timeline, accepted = _drive(times, fails, config)
            _assert_same_timeline((timeline, accepted), times, fails, config)
            arrivals = times + 248e-9
            want = _covered(timeline, arrivals)
            zero = np.zeros(timeline.window_starts.size, dtype=np.int64)
            np.testing.assert_array_equal(timeline.covers_many(arrivals, zero), want)
            # each click is its own pair, so its index is the guess simulate_run passes
            np.testing.assert_array_equal(
                timeline.covers_many(arrivals, timeline.window_pairs), want
            )
    d2 = np.sort(np.concatenate([times + 248e-9, rng.uniform(0.0, 0.05, 20000)]))
    for window in (3e-9, 2e-6):
        assert coincidence_match(times, d2, window, 248e-9) == greedy_matches(
            times.tolist(), d2.tolist(), window, 248e-9
        )


def test_drive_cell_keeps_paralyzable_extension_after_last_acceptance():
    # blocked clicks extend the busy span, also after the last acceptance
    config = ExperimentConfig(
        t0_internal=0.0, pulse_rise=0.0, pulse_flat=0.0, cell_dead_time=1.0,
        dead_time_mode="paralyzable",
    )
    times = np.array([0.0, 0.5, 1.4, 5.0, 5.25])
    fails = np.zeros(times.size, dtype=bool)
    timeline, accepted = _drive(times, fails, config)
    assert accepted == 2
    np.testing.assert_array_equal(times[timeline.window_pairs], [0.0, 5.0])
    assert timeline.busy_until == 6.25
    _assert_same_timeline((timeline, accepted), times, fails, config)


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
    timeline, accepted = _drive(times, fails, config)
    assert accepted == len(accepted_clicks)
    np.testing.assert_array_equal(times[timeline.window_pairs], accepted_clicks)
    np.testing.assert_array_equal(timeline.window_starts, accepted_clicks)
    assert timeline.busy_until == busy_until
    _assert_same_timeline((timeline, accepted), times, fails, config)


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
            _dead_time_filter(times, 1.0), dead_time_keeps(times.tolist(), 1.0)
        )
        for pattern in itertools.product([0.1, 0.9], repeat=length + 1):  # 0.1 fails
            fails = _fails([0.9, *pattern, *pattern[::-1], 0.9], config)
            for mode in ("nonparalyzable", "paralyzable"):
                cfg = replace(config, dead_time_mode=mode)
                _assert_same_timeline(_drive(times, fails, cfg), times, fails, cfg)


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
