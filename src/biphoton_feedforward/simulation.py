"""Event-level Monte Carlo of the triggered polarization-rotation bench.

One run draws spontaneous pair emissions as a homogeneous Poisson process,
sends vertical idlers through the trigger arm onto detector D1, opens a
high-voltage flat-top window on the rotation cell for every accepted
trigger (electronic delay + internal latency + pulse front, followed by a
dead time), delays the signal photon through its fiber, flips its
polarization if it arrives inside an open flat-top, applies the signal
polarizer with the exact Malus probability from :mod:`.polarization`, and
finally counts D2 singles and D1/D2 coincidences.

Branch sampling note: the source emits an equal-weight classical mixture of
the |HV> and |VH> product branches and the idler is analysed in the H/V
basis, so drawing a definite branch per pair reproduces the full
density-matrix statistics exactly.  This shortcut is valid only because the
idler analyser is H/V; it is the only idler analyser modelled here.

Reproducibility contract: a run is a pure function of (config, seed).  The
seed spawns six fixed substreams (pairs, D1 dark counts, trigger coins,
signal-arm draws, an unused fifth stream, D2 noise), each consumed in a
documented order, so identical configs give bit-identical results on any
platform.  The fifth stream once fed a decaying-tail hook; it is still
spawned so that the D2 noise stream keeps its bytes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import DataError, poisson_count_sigma
from .polarization import (
    horizontal,
    joint_polarizer_probabilities,
    make_mixed_biphoton,
    project_polarizer,
    vertical,
)


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any event is drawn."""


class SimulationError(RuntimeError):
    """An internal invariant of the event engine was violated."""


_DEAD_TIME_MODES = ("nonparalyzable", "paralyzable")

# Largest expected number of drawn events (pairs, dark clicks and background
# photons) per run, and of property-oracle samples per angle.  At its peak a
# run holds ~20-25 bytes per event at the benchmark rates, and up to ~63 when
# half the pairs open a cell window (every idler detected, rare triggers);
# the oracle holds ~18 bytes per sample (tracemalloc).  This keeps either
# below ~1.3 GB; the canned scenarios and benchmark workloads draw at most
# ~2.5 M.
MAX_EXPECTED_EVENTS = 2e7

# Per-event coin flips are drawn and compared this many at a time, so a run
# holds one bool per event instead of a float64 draw.
_COIN_BLOCK = 2**16

# Width at which find_rotation_edge stops halving its delay bracket.
EDGE_TOLERANCE = 0.5e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated run.  All values in SI units.

    Defaults describe the nominal bench: 248 ns signal fiber, 148 ns
    internal trigger latency, 2 ns pulse front, 100 ns flat-top, 2 us cell
    dead time, and the measured trigger-detector efficiency 0.476.
    """

    pair_rate: float = 1e5  # emitted pairs per second
    duration: float = 1.0  # simulated time per run, seconds
    eta_idler: float = 0.476  # trigger (D1) detector quantum efficiency
    eta_signal: float = 1.0  # signal (D2) detector quantum efficiency
    dark_rate_idler: float = 0.0  # D1 dark clicks per second
    dark_rate_signal: float = 0.0  # D2 dark clicks per second
    background_rate_signal: float = 0.0  # unpolarized stray photons/s at the signal polarizer
    t_fiber: float = 248e-9  # signal fiber delay
    t_electronic: float = 0.0  # adjustable trigger delay T
    t0_internal: float = 148e-9  # fixed trigger-chain latency
    pulse_rise: float = 2e-9  # high-voltage pulse front
    pulse_flat: float = 100e-9  # flat-top length (full rotation)
    cell_dead_time: float = 2e-6  # recharge time after an accepted trigger
    cell_fail_prob: float = 0.0  # chance an otherwise accepted trigger fires no pulse
    coincidence_window: float = 3e-9
    coincidence_offset: float | None = None  # None: t_fiber, true pairs at zero lag
    polarizer_theta: float = 0.0  # signal polarizer angle from vertical, radians
    cell_enabled: bool = True
    dead_time_mode: str = "nonparalyzable"
    detector_dead_time_d1: float = 0.0  # optional detector recovery times
    detector_dead_time_d2: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        nonnegative = (
            "pair_rate",
            "duration",
            "dark_rate_idler",
            "dark_rate_signal",
            "background_rate_signal",
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
        for name in nonnegative:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        for name in ("eta_idler", "eta_signal", "cell_fail_prob"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if not math.isfinite(self.polarizer_theta):
            raise ConfigError("polarizer_theta must be finite")
        if self.coincidence_offset is not None and not math.isfinite(self.coincidence_offset):
            raise ConfigError("coincidence_offset must be finite or None")
        if self.expected_events > MAX_EXPECTED_EVENTS:
            raise ConfigError(
                f"expected {self.expected_events:.3g} events per run exceed "
                f"the budget of {MAX_EXPECTED_EVENTS:.3g}; shorten duration or lower the rates"
            )
        # Relative slack absorbs 1-ulp noise from unit conversion (e.g. a
        # "100 ns" input parsing to 1.0000000000000001e-07).
        window_span = self.pulse_rise + self.pulse_flat
        if window_span > self.cell_dead_time * (1.0 + 1e-9):
            raise ConfigError(
                "pulse_rise + pulse_flat must not exceed cell_dead_time "
                f"({window_span} > {self.cell_dead_time})"
            )
        if self.dead_time_mode not in _DEAD_TIME_MODES:
            raise ConfigError(f"dead_time_mode must be one of {_DEAD_TIME_MODES}")
        object.__setattr__(self, "seed", int(self.seed))
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit non-negative integer")

    @property
    def expected_events(self) -> float:
        """Expected pairs, dark clicks and background photons drawn in one run."""
        rate = (
            self.pair_rate
            + self.dark_rate_idler
            + self.dark_rate_signal
            + self.background_rate_signal
        )
        return rate * self.duration


def _search_from(
    values: np.ndarray, keys: np.ndarray, guess: np.ndarray, side: str
) -> np.ndarray:
    """``np.searchsorted(values, keys, side)``, checking a guessed index first.

    For sorted ``values``, ``g`` is the left insertion index of ``key`` iff
    ``values[g-1] < key <= values[g]`` (the right one iff ``values[g-1] <=
    key < values[g]``): exactly ``g`` values lie below ``key``.  A guess
    that passes this test is kept, and only the keys whose guess fails it
    are searched, so the result is exact for any guess; a good guess only
    saves the search.  Guesses are clipped to ``[1, len(values) - 1]``, so
    an answer of 0 or ``len(values)`` always goes to the search, and so do
    all keys when ``values`` has fewer than two elements.
    """
    if values.size < 2:
        return np.searchsorted(values, keys, side=side)
    index = np.clip(guess, 1, values.size - 1)
    below = values[index - 1]
    above = values[index]
    if side == "left":
        hit = (below < keys) & (keys <= above)
    else:
        hit = (below <= keys) & (keys < above)
    miss = np.flatnonzero(~hit)
    index[miss] = np.searchsorted(values, keys[miss], side=side)
    return index


@dataclass(frozen=True, eq=False)
class CellTimeline:
    """Accepted rotation windows of one run.

    Flat-top windows are [start, start + window_length); the cell rotates
    only during a flat-top, so the decaying pulse tail after a window
    rotates nothing.  ``accepted_index`` holds the position of each
    accepted request among the requests :func:`_drive_cell` processed, or
    ``None`` for a timeline built by hand.
    """

    window_starts: np.ndarray
    window_length: float
    busy_until: float
    accepted_click_times: np.ndarray
    accepted_index: np.ndarray | None = None

    def covers_many(self, times: object, guess: object = None) -> np.ndarray:
        """Boolean mask of sorted arrival times inside any flat-top window.

        The arrivals with ``start <= t < start + window_length`` of one
        window are the index range ``[lo, hi)`` that ``searchsorted`` on the
        sorted ``times`` gives for ``start`` and ``start + window_length``
        (both ``side="left"``), so marking those ranges is exact.  It
        searches the windows in the arrivals, which are usually many more.

        The searches go through :func:`_search_from`, which is exact for
        any guess.  ``guess`` is, per window, the index of an arrival that
        should sit at the window start, such as the signal photon of the
        pair whose idler opened it; ``lo`` is guessed as that index, plus
        one when the window starts after that arrival.  Without ``guess``,
        ``lo`` is searched outright.  ``hi`` is guessed as ``lo + 1``: one
        arrival per window.
        """
        times = np.asarray(times, dtype=float)
        if times.size > 1 and np.any(times[1:] < times[:-1]):
            raise ValueError("times must be sorted")
        inside = np.zeros(times.shape, dtype=bool)
        starts = self.window_starts
        if guess is None or times.size == 0:
            lo = np.searchsorted(times, starts, side="left")
        else:
            k = np.clip(np.asarray(guess, dtype=np.int64), 0, times.size - 1)
            k += starts > times[k]
            lo = _search_from(times, starts, k, "left")
        hi = _search_from(times, starts + self.window_length, lo + 1, "left")
        lengths = np.subtract(hi, lo, out=hi)
        # index k of range r is lo[r] + (k - first k of range r)
        offsets = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        inside[np.arange(offsets.size) + offsets] = True
        return inside

    def validate(self, cell_dead_time: float) -> None:
        # The slack covers rounding differences between the accept test in
        # _drive_cell and the re-derived spacings checked here.
        slack = 1e-9 * max(cell_dead_time, self.window_length, 1e-12)
        starts = self.window_starts
        if np.any(np.diff(starts) <= 0):
            raise SimulationError("cell windows are not strictly ordered")
        if np.any(np.diff(starts) < self.window_length - slack):
            raise SimulationError("cell windows overlap")
        if np.any(np.diff(self.accepted_click_times) < cell_dead_time - slack):
            raise SimulationError("accepted triggers closer than the cell dead time")


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Counts and diagnostics of one run.

    ``rotated_fraction`` is the fraction of pairs with a detected idler
    whose signal photon was actually flipped at the cell; it is 0.0 when no
    idler was detected.
    """

    singles_d1: int
    singles_d2: int
    coincidences: int
    rotated_fraction: float
    config: ExperimentConfig
    pairs_emitted: int
    idler_detections: int
    triggers_accepted: int
    signals_rotated: int

    def __post_init__(self) -> None:
        if self.coincidences > min(self.singles_d1, self.singles_d2):
            raise SimulationError("more coincidences than singles on one arm")
        if not (0.0 <= self.rotated_fraction <= 1.0):
            raise SimulationError("rotated_fraction outside [0, 1]")


@dataclass(frozen=True, eq=False)
class ScanPoint:
    """One scan point: abscissa (angle or delay), rates and Poisson errors."""

    x: float
    rate_d2: float
    sigma_d2: float
    rate_coincidence: float
    sigma_coincidence: float
    result: SimulationResult


@dataclass(frozen=True, eq=False)
class JointSample:
    """Joint polarizer-outcome counts against their analytic expectation."""

    theta: float
    counts: np.ndarray  # (2, 2), indexed [idler_passes, signal_passes]
    expected: np.ndarray
    chi2: float
    p_value: float


def derive_seed(master_seed: int, label: int | str) -> int:
    """Stable 64-bit child seed for scan point or helper-run ``label``."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def _substreams(seed: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(6)
    return [np.random.default_rng(child) for child in children]


def _sample_poisson_times(
    rng: np.random.Generator, rate: float, duration: float
) -> np.ndarray:
    """Sorted arrival times of a homogeneous Poisson process on [0, duration)."""
    n = int(rng.poisson(rate * duration))
    times = rng.uniform(0.0, duration, n)
    times.sort()
    return times


def _coins(
    rng: np.random.Generator,
    n: int,
    p: float,
    where: np.ndarray | None = None,
    p_else: float = 0.0,
) -> np.ndarray:
    """``rng.random(n) < p``, drawn in blocks of ``_COIN_BLOCK`` values.

    With a boolean ``where``, value i is compared with ``p`` where
    ``where[i]`` holds and with ``p_else`` elsewhere, the comparisons of
    ``np.where(where, u < p, u < p_else)``.  For PCG64, ``Generator.random``
    turns one 64-bit output into one double, so the blocks read exactly the
    values one call of ``rng.random(n)`` reads and leave the generator in
    the same state; only the full-width float64 array is never made.
    """
    out = np.empty(n, dtype=bool)
    buffer = np.empty(min(n, _COIN_BLOCK))
    for start in range(0, n, _COIN_BLOCK):
        stop = min(start + _COIN_BLOCK, n)
        u = rng.random(out=buffer[: stop - start])
        if where is None:
            np.less(u, p, out=out[start:stop])
        else:
            # without a branch on a random condition
            pick = where[start:stop]
            out[start:stop] = ((u < p) & pick) | ((u < p_else) & ~pick)
    return out


def _sample_pairs(
    rng: np.random.Generator, rate: float, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    times = _sample_poisson_times(rng, rate, duration)
    signal_is_h = _coins(rng, times.size, 0.5)
    return times, signal_is_h


def _merge_dark_clicks(
    photon_times: np.ndarray, pair_index: np.ndarray, dark_times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted dark clicks into sorted photon clicks, and their pair indices.

    Dark clicks get pair index -1.  Each dark click is inserted after the
    photon clicks at its time and after the dark clicks drawn before it,
    which is the order a stable sort of the photons followed by the darks
    gives, without the sort and its gathers.
    """
    slots = np.searchsorted(photon_times, dark_times, side="right")
    return np.insert(photon_times, slots, dark_times), np.insert(pair_index, slots, -1)


def _dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Non-paralyzable detector recovery: drop clicks within dead_time of the last kept one.

    ``times`` must be sorted.  A click whose gap to the previous click
    satisfies ``t[i] - t[i-1] >= dead_time`` is kept unconditionally: the
    last kept click is never later than ``t[i-1]`` and float subtraction is
    monotone, so the sequential test ``t[i] - last < dead_time`` fails too.
    Those free clicks are settled at once.  The other clicks form clusters
    that each follow a kept free head.  The first click of a cluster is
    always dropped: the head is the last kept click, and the first click's
    gap to it is the very ``t[i] - t[i-1] < dead_time`` that made it a
    conflict.  Only the second and later clicks are scanned one by one,
    each cluster starting from its head as the last kept click.
    """
    keep = np.ones(times.size, dtype=bool)
    conflicts = np.flatnonzero(np.diff(times) < dead_time) + 1
    keep[conflicts] = False
    later = conflicts[1:][conflicts[1:] == conflicts[:-1] + 1]
    kept = []
    previous = -2
    for i, head, t in zip(later.tolist(), times[later - 2].tolist(), times[later].tolist()):
        if i != previous + 1:
            last = head  # a second click: the head was kept, the first click dropped
        previous = i
        if t - last < dead_time:
            continue
        kept.append(i)
        last = t
    keep[kept] = True
    return keep


def _drive_cell(
    click_times: np.ndarray, config: ExperimentConfig, rng: np.random.Generator
) -> tuple[CellTimeline, int]:
    """Process trigger requests in time order into accepted rotation windows.

    A request during the busy span is discarded; in paralyzable mode it
    additionally restarts the busy span.  A live request is accepted unless
    the explicit failure coin fires, in which case neither a window opens
    nor a dead time starts.  One coin per request is drawn up front.

    ``click_times`` must be sorted.  The busy span is always ``busy_ends[j]
    = (t[j] + lead) + cell_dead_time`` of some earlier request j, and float
    addition is monotone, so a request with ``not t[i] < busy_ends[i-1]``
    is *free*: live whatever came before.

    Paralyzable mode has a closed form.  Every request that is not a live
    coin failure sets the busy span to its own ``busy_ends[i]``: an
    acceptance does so by definition, and a blocked request takes
    ``max(busy, busy_ends[i]) = busy_ends[i]``, because the span it finds
    is ``busy_ends[j]`` of an earlier j.  A live failure leaves the span at
    or below its own time, so the next request is live.  Request i is
    therefore live iff every request from the last free one up to i - 1
    failed its coin, which two running maxima (last free index, last index
    whose coin did not fail) decide.  The final span is ``busy_ends`` of the
    last request that is not a live failure.

    Non-paralyzable mode has no closed form, because a blocked request does
    not move the span.  Free requests are settled at once.  The other
    requests form clusters that each follow a free head, which leaves its
    own busy span if it was accepted and none if its coin fired, because a
    live request lies after every busy span set before it.  The first
    request of a cluster is therefore blocked by an accepted head (it is a
    conflict because ``t[i] < busy_ends[i-1]``) and live after a failed
    one, so it is accepted iff the head's coin fired and its own did not.
    Only the second and later requests are scanned one by one, starting
    from the span the head and the first request left.
    """
    lead = config.t_electronic + config.t0_internal + config.pulse_rise
    coins = rng.random(click_times.size)
    fails = coins < config.cell_fail_prob
    busy_ends = (click_times + lead) + config.cell_dead_time
    conflicts = np.flatnonzero(click_times[1:] < busy_ends[:-1]) + 1
    if config.dead_time_mode == "paralyzable":
        index = np.arange(click_times.size)
        free_index = index.copy()
        free_index[conflicts] = 0  # request 0 is always free, so 0 is a safe filler
        last_free = np.maximum.accumulate(free_index)
        last_kept_coin = np.maximum.accumulate(np.where(fails, -1, index))
        live = np.ones(click_times.size, dtype=bool)
        live[1:] = last_kept_coin[:-1] < last_free[1:]
        accepted = live & ~fails
        span_setters = np.flatnonzero(~(live & fails))
    else:
        accepted = ~fails
        is_later = np.zeros(conflicts.size, dtype=bool)
        is_later[1:] = conflicts[1:] == conflicts[:-1] + 1
        first, later = conflicts[~is_later], conflicts[is_later]
        accepted[first] = fails[first - 1] & ~fails[first]
        accepted[later] = False
        # the span left before a cluster's second request: the first
        # request's if it was accepted, else the head's, else none
        reset_busy = np.where(
            accepted[later - 1],
            busy_ends[later - 1],
            np.where(accepted[later - 2], busy_ends[later - 2], -math.inf),
        )
        cluster_accepted = []
        previous = -2
        for i, t, end, failed, reset in zip(
            later.tolist(),
            click_times[later].tolist(),
            busy_ends[later].tolist(),
            fails[later].tolist(),
            reset_busy.tolist(),
        ):
            if i != previous + 1:
                busy_until = reset
            previous = i
            if t < busy_until or failed:
                continue
            cluster_accepted.append(i)
            busy_until = end
        accepted[cluster_accepted] = True
        span_setters = np.flatnonzero(accepted)
    accepted_index = np.flatnonzero(accepted)
    busy_until = float(busy_ends[span_setters[-1]]) if span_setters.size else -math.inf
    timeline = CellTimeline(
        click_times[accepted_index] + lead,
        config.pulse_flat,
        busy_until,
        click_times[accepted_index],
        accepted_index,
    )
    return timeline, int(accepted_index.size)


def coincidence_match(
    d1_times: object, d2_times: object, window: float, offset: float = 0.0
) -> int:
    """Greedy earliest one-to-one coincidence count.

    Clicks t1, t2 coincide when |t2 - (t1 + offset)| <= window / 2.  Both
    input streams must be sorted; each click is consumed by at most one
    coincidence, earliest candidates first, which makes the count
    deterministic.

    With ``lo[i]`` the number of D2 clicks below ``(t1[i] + offset) -
    window / 2`` and ``hi[i]`` the number at or below ``(t1[i] + offset) +
    window / 2``, the greedy pointer leaves D1 click i-1 at most at
    ``hi[i-1]``.  A D1 click with ``hi[i-1] <= lo[i]`` therefore finds the
    pointer at ``lo[i]`` whatever came before, and matches iff ``lo[i] <
    hi[i]``.  Those free clicks are settled at once; the clusters of D1
    clicks whose windows share candidates with the previous one are
    replayed one by one on the indices, starting from their free head.

    ``hi`` is found by :func:`_search_from`, exact for any guess, from the
    guess ``lo`` when ``b[lo]`` lies past the window (no candidate) and
    ``lo + 1`` otherwise (one candidate).  ``lo`` is searched outright.
    """
    if window < 0.0:
        raise ValueError("coincidence window must be non-negative")
    a = np.asarray(d1_times, dtype=float)
    b = np.asarray(d2_times, dtype=float)
    if a.size > 1 and np.any(a[1:] < a[:-1]):
        raise ValueError("d1_times must be sorted")
    if b.size > 1 and np.any(b[1:] < b[:-1]):
        raise ValueError("d2_times must be sorted")
    if b.size == 0:
        return 0
    half = window / 2.0
    target = a + offset
    lo = np.searchsorted(b, target - half, side="left")
    top = np.add(target, half, out=target)
    # no candidate in the window (hi = lo) or one (hi = lo + 1)
    hi = _search_from(b, top, lo + (b[np.minimum(lo, b.size - 1)] <= top), "right")
    matched = lo < hi
    conflicts = np.flatnonzero(hi[:-1] > lo[1:]) + 1
    heads = conflicts - 1
    head_next = lo[heads] + matched[heads]
    count = int(np.count_nonzero(matched)) - int(np.count_nonzero(matched[conflicts]))
    previous = -2
    for i, first, last, reset in zip(
        conflicts.tolist(), lo[conflicts].tolist(), hi[conflicts].tolist(), head_next.tolist()
    ):
        if i != previous + 1:
            j = reset  # the pointer a free head left
        previous = i
        j = max(j, first)
        if j < last:
            count += 1
            j += 1
    return count


def simulate_run(config: ExperimentConfig) -> SimulationResult:
    """Run one configured measurement interval and count clicks."""
    # the fifth substream is spawned but unused, see the module docstring
    rng_pairs, rng_d1_dark, rng_trigger, rng_signal, _, rng_d2_noise = _substreams(
        config.seed
    )

    # pair emission and trigger-arm detection; full-width arrays are
    # deleted once used, which keeps the peak memory of a run down
    t_emit, signal_is_h = _sample_pairs(rng_pairs, config.pair_rate, config.duration)
    n_pairs = t_emit.size
    idler_detected = _coins(rng_pairs, n_pairs, config.eta_idler)
    idler_detected &= signal_is_h
    idler_index = np.flatnonzero(idler_detected)
    del idler_detected

    dark1 = _sample_poisson_times(rng_d1_dark, config.dark_rate_idler, config.duration)
    d1_times, d1_pair_index = _merge_dark_clicks(t_emit[idler_index], idler_index, dark1)
    del idler_index, dark1
    if config.detector_dead_time_d1 > 0.0:
        keep = _dead_time_filter(d1_times, config.detector_dead_time_d1)
        d1_times = d1_times[keep]
        d1_pair_index = d1_pair_index[keep]

    # The emission times have no later use, so they become the signal
    # photons' arrival times at the cell in place.
    t_arrive = np.add(t_emit, config.t_fiber, out=t_emit)
    del t_emit

    # trigger electronics, cell timeline and conditional flip; a disabled
    # cell receives no drive
    if config.cell_enabled:
        timeline, triggers_accepted = _drive_cell(d1_times, config, rng_trigger)
        timeline.validate(config.cell_dead_time)
        # a window opened by pair k's idler starts near pair k's arrival
        flipped = timeline.covers_many(t_arrive, d1_pair_index[timeline.accepted_index])
    else:
        triggers_accepted = 0
        flipped = np.zeros(n_pairs, dtype=bool)
    pair_clicks = d1_pair_index[d1_pair_index >= 0]
    del d1_pair_index
    idler_detections = int(pair_clicks.size)
    signals_rotated = int(np.count_nonzero(flipped[pair_clicks]))
    del pair_clicks
    # signal arm: polarizer and detection; a flip swaps H and V
    final_is_h = np.logical_xor(signal_is_h, flipped, out=flipped)
    del signal_is_h

    p_pass_v = project_polarizer(vertical(), config.polarizer_theta)
    p_pass_h = project_polarizer(horizontal(), config.polarizer_theta)
    detected = _coins(rng_signal, n_pairs, p_pass_h, final_is_h, p_pass_v)
    del final_is_h
    # random() < 1.0 always holds and nothing draws from rng_signal later,
    # so a perfect detector skips its draw without changing any byte
    if config.eta_signal < 1.0:
        detected &= _coins(rng_signal, n_pairs, config.eta_signal)
    # an index array gathers several times faster than a random boolean mask
    d2_photon = t_arrive[np.flatnonzero(detected)]
    del t_arrive, detected

    # signal-arm noise: dark clicks plus unpolarized background light
    dark2 = _sample_poisson_times(rng_d2_noise, config.dark_rate_signal, config.duration)
    bg_times = _sample_poisson_times(
        rng_d2_noise, config.background_rate_signal, config.duration
    )
    bg_detected = _coins(rng_d2_noise, bg_times.size, 0.5)
    bg_detected &= _coins(rng_d2_noise, bg_times.size, config.eta_signal)
    bg_clicks = bg_times[np.flatnonzero(bg_detected)]
    del bg_times, bg_detected

    # the three runs are each sorted, which the stable sort (timsort) merges
    d2_times = np.concatenate([d2_photon, dark2, bg_clicks])
    del d2_photon, dark2, bg_clicks
    d2_times.sort(kind="stable")
    if config.detector_dead_time_d2 > 0.0:
        d2_times = d2_times[_dead_time_filter(d2_times, config.detector_dead_time_d2)]

    offset = config.t_fiber if config.coincidence_offset is None else config.coincidence_offset
    coincidences = coincidence_match(
        d1_times, d2_times, config.coincidence_window, offset
    )
    rotated_fraction = (
        signals_rotated / idler_detections if idler_detections > 0 else 0.0
    )

    return SimulationResult(
        singles_d1=int(d1_times.size),
        singles_d2=int(d2_times.size),
        coincidences=int(coincidences),
        rotated_fraction=rotated_fraction,
        config=config,
        pairs_emitted=int(n_pairs),
        idler_detections=idler_detections,
        triggers_accepted=int(triggers_accepted),
        signals_rotated=signals_rotated,
    )


def _scan_point(x: float, result: SimulationResult) -> ScanPoint:
    d = result.config.duration
    return ScanPoint(
        x=x,
        rate_d2=result.singles_d2 / d,
        sigma_d2=poisson_count_sigma(result.singles_d2) / d,
        rate_coincidence=result.coincidences / d,
        sigma_coincidence=poisson_count_sigma(result.coincidences) / d,
        result=result,
    )


def polarizer_scan(config: ExperimentConfig, thetas: list[float]) -> list[ScanPoint]:
    """Measure the D2 singles and coincidence curve over polarizer angles.

    Every point runs with an independent seed derived from the master
    ``config.seed`` and the point index, so the scan is reproducible.  The
    points run in order, and each keeps only the counts of its run.
    """
    if config.duration <= 0.0:
        raise ConfigError("a scan requires a positive per-point duration")
    values = [float(t) for t in thetas]
    configs = [
        replace(config, polarizer_theta=v, seed=derive_seed(config.seed, i))
        for i, v in enumerate(values)
    ]
    return [_scan_point(v, simulate_run(c)) for v, c in zip(values, configs)]


def delay_scan(config: ExperimentConfig, delays: list[float]) -> list[ScanPoint]:
    """Measure D2 rates against the adjustable trigger delay.

    The signal polarizer stays at ``config.polarizer_theta`` for the whole
    scan.  Per-point seeds follow the same derivation as
    :func:`polarizer_scan`.
    """
    if config.duration <= 0.0:
        raise ConfigError("a scan requires a positive per-point duration")
    values = [float(d) for d in delays]
    # the configs refuse a negative or non-finite delay before any draw
    configs = [
        replace(config, t_electronic=v, seed=derive_seed(config.seed, i))
        for i, v in enumerate(values)
    ]
    return [_scan_point(v, simulate_run(c)) for v, c in zip(values, configs)]


def find_rotation_edge(config: ExperimentConfig, t_low: float, t_high: float) -> float:
    """Bisect the trigger delay at which the rotated fraction crosses 1/2.

    Requires the effect to be present at ``t_low`` and absent at ``t_high``,
    and halves the bracket down to ``EDGE_TOLERANCE``.  Every evaluation
    runs a fresh simulation with a seed derived from the master seed and
    the evaluation index, so the estimate is reproducible.  Raises
    :class:`DataError` when those fresh runs at the bracket ends do not
    confirm the crossing, as noisy runs near a fraction of 1/2 may not.
    """

    def fraction(delay: float, index: int) -> float:
        cfg = replace(
            config,
            t_electronic=float(delay),
            seed=derive_seed(config.seed, f"edge:{index}"),
        )
        return simulate_run(cfg).rotated_fraction

    if not t_low < t_high:
        raise ValueError("need t_low < t_high to bracket the edge")
    if fraction(t_low, 0) < 0.5 or fraction(t_high, 1) >= 0.5:
        raise DataError("rotated fraction does not cross 1/2 inside the bracket")
    lo, hi = float(t_low), float(t_high)
    index = 2
    while hi - lo > EDGE_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if fraction(mid, index) >= 0.5:
            lo = mid
        else:
            hi = mid
        index += 1
    return 0.5 * (lo + hi)


def cell_busy_time(config: ExperimentConfig) -> float:
    """Span after an accepted trigger click during which new triggers are blocked."""
    return (
        config.t_electronic
        + config.t0_internal
        + config.pulse_rise
        + config.cell_dead_time
    )


def sample_joint_outcomes(theta: float, n: int, seed: int) -> np.ndarray:
    """Monte Carlo joint polarizer outcomes for the phase-averaged source.

    Draws ``n`` pairs, sends the idler through the vertical analyser and the
    signal through a polarizer at ``theta`` (no feed-forward, no detector
    losses) and tallies a (2, 2) table indexed [idler_passes,
    signal_passes].
    """
    if n <= 0:
        raise ValueError("n must be positive")
    # before any draw, so that a non-finite angle is refused first
    p_pass_h = project_polarizer(horizontal(), theta)
    p_pass_v = project_polarizer(vertical(), theta)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    signal_is_h = _coins(rng, n, 0.5)
    # A vertical idler accompanies a horizontal signal and always passes the
    # vertical analyser; the horizontal idler of the other branch never does.
    idler_passes = signal_is_h
    signal_passes = _coins(rng, n, p_pass_h, signal_is_h, p_pass_v)
    flat = 2 * idler_passes.astype(np.int64) + signal_passes.astype(np.int64)
    return np.bincount(flat, minlength=4).reshape(2, 2)


# Observed and expected chi-square totals may differ by rounding only.
_SUM_RTOL = math.sqrt(np.finfo(float).eps)


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X >= x) for 1, 2 or 3 degrees of freedom.

    Closed forms for integer df: erfc(sqrt(x/2)) for df 1, exp(-x/2) for
    df 2, and the df-1 tail plus sqrt(2x/pi) exp(-x/2) for df 3.
    """
    if df == 2:
        return math.exp(-0.5 * x)
    if df not in (1, 3):
        raise ValueError(f"chi-square tail implemented for df 1 to 3, got {df}")
    tail = math.erfc(math.sqrt(0.5 * x))
    if df == 3:
        tail += math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)
    return tail


def sampling_soundness(theta: float, n: int, seed: int) -> JointSample:
    """Chi-square comparison of sampled joint outcomes to their exact probabilities.

    The expectation is enumerated by brute-force projector algebra on the
    phase-averaged two-photon state, independently of the sampling shortcut
    used by the event engine.  The statistic is Pearson's sum over the
    cells with non-zero expectation, with one degree of freedom fewer than
    those cells; the observed and expected totals must agree to a relative
    sqrt(machine epsilon).
    """
    theta = float(theta)
    counts = sample_joint_outcomes(theta, n, seed)
    expected = joint_polarizer_probabilities(make_mixed_biphoton(), theta) * n
    obs = counts.ravel().astype(float)
    exp = expected.ravel()
    empty = exp <= 0.0
    if np.any(obs[empty] > 0.0):
        chi2, p_value = math.inf, 0.0
    else:
        obs, exp = obs[~empty], exp[~empty]
        obs_sum, exp_sum = obs.sum(), exp.sum()
        if abs(obs_sum - exp_sum) / min(obs_sum, exp_sum) > _SUM_RTOL:
            raise ValueError(
                f"observed total {obs_sum} and expected total {exp_sum} differ "
                f"by more than a relative {_SUM_RTOL:.3g}"
            )
        chi2 = ((obs - exp) ** 2 / exp).sum()
        p_value = _chi2_sf(float(chi2), obs.size - 1)
    return JointSample(theta, counts, expected, float(chi2), float(p_value))
