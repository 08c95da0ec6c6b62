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
spawned so that the D2 noise stream keeps its bytes.  With n pairs drawn:

- pairs: the Poisson count and n uniform emission times, sorted; then one
  double per pair for its branch (H signal below 1/2) and, n doubles
  further on, one per pair for idler detection (below ``eta_idler``);
- D1 darks: the Poisson count and the uniform dark-click times;
- trigger coins: one double per D1 click that reaches an enabled cell,
  after the D1 dead time, in click order (the failure coin, below
  ``cell_fail_prob``); none when ``cell_fail_prob`` is 0 or 1;
- signal-arm draws: one double per pair for the polarizer (below the
  Malus probability of its polarization after the cell) and, n doubles
  further on, one per pair for detection (below ``eta_signal``);
- D2 noise: the Poisson count and times of the dark clicks, then of the m
  background photons, sorted; then one double per photon for the
  polarizer (below 1/2) and, m doubles further on, one per photon for
  detection (below ``eta_signal``).

A coin of probability 0 or 1 draws nothing.  Its outcome is certain, the
other coins of its pass are then certain too, and each second pass reads
from a cursor made before the first, so nothing reads the values it would
have drawn.  That covers the polarizer pass at ``polarizer_theta = 0``
(probabilities 0 and 1), the idler pass at ``eta_idler`` 0 or 1, the
detection passes at ``eta_signal = 1`` and the trigger coins at
``cell_fail_prob`` 0 or 1.

:func:`simulate_run` cuts the run into time blocks and runs four stages
on each, over one carry record (``_Run``): ``_trigger_arm`` (idler
detection, D1 darks and dead time, cell drive), ``_signal_arm`` (flip,
polarizer, detection), ``_d2_arm`` (D2 noise and dead time) and
``_match_cut`` (coincidences).  They read the per-pair and per-photon
doubles block by block in time order.  Each second pass runs on its own
cursor, a copy of the stream's generator advanced by n (or m) outputs
(``PCG64.advance``), so both passes read exactly the values that two
full-width passes read.
"""

from __future__ import annotations

import array
import hashlib
import math
from dataclasses import dataclass, field, replace

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
# photons) per run, and of property-oracle samples per angle.  A run holds
# its sorted emission, dark and background times, 8 bytes per event, plus
# the working set of one block (see simulate_run): ~4-7 MB at the benchmark
# rates and when every idler opens a window, up to ~30 MB when a block's
# triggers sit in conflict clusters.  At peak (tracemalloc) that was ~8.5-9
# bytes per event on 2 M background photons, ~9.5 on the benchmark workloads
# and ~11.4 on 2 M events with every idler detected at rare triggers.  The
# oracle holds ~18 bytes per sample, so either stays below ~0.4 GB; the
# canned scenarios and benchmark workloads draw at most ~2.5 M.
MAX_EXPECTED_EVENTS = 2e7

# Per-event coin flips are drawn and compared this many at a time, so a run
# holds one bool per event instead of a float64 draw, and simulate_run cuts
# its run into blocks of about this many values (Poisson spread) of its
# longest event stream.
_COIN_BLOCK = 2**16

# Width at which find_rotation_edge stops halving its delay bracket.
EDGE_TOLERANCE = 0.5e-9

# The config fields by kind: times and rates must be finite and
# non-negative, probabilities lie in [0, 1].  Config files give times with
# a unit and the others as bare numbers.
_TIME_FIELDS = (
    "duration",
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
_RATE_FIELDS = ("pair_rate", "dark_rate_idler", "dark_rate_signal", "background_rate_signal")
_PROBABILITY_FIELDS = ("eta_idler", "eta_signal", "cell_fail_prob")


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
        for name in _RATE_FIELDS + _TIME_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        for name in _PROBABILITY_FIELDS:
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
        # int() would truncate 1.5 to 1 and take True as 1
        if isinstance(self.seed, (bool, np.bool_)) or (
            isinstance(self.seed, (float, np.floating)) and not float(self.seed).is_integer()
        ):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit non-negative integer")

    @property
    def expected_events(self) -> float:
        """Expected pairs, dark clicks and background photons drawn in one run."""
        return sum(getattr(self, name) for name in _RATE_FIELDS) * self.duration

    @property
    def trigger_lead(self) -> float:
        """Delay from a trigger click to the start of the window it opens."""
        return self.t_electronic + self.t0_internal + self.pulse_rise


def _check_sorted(times: np.ndarray, name: str) -> None:
    """Refuse ``times`` unless they are sorted and finite, in one pass.

    ``t[i + 1] >= t[i]`` is false when either value is NaN, so the sortedness
    test fails on any NaN among two or more values; a sorted array whose
    first and last values are finite holds no infinity.
    """
    if times.size and not (
        (times[1:] >= times[:-1]).all() and math.isfinite(times[0]) and math.isfinite(times[-1])
    ):
        raise ValueError(f"{name} must be sorted and finite")


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
    index = np.maximum(guess, 1)
    np.minimum(index, values.size - 1, out=index)
    below = values[index - 1]
    above = values[index]
    if side == "left":
        hit = (below < keys) & (keys <= above)
    else:
        hit = (below <= keys) & (keys < above)
    miss = np.flatnonzero(~hit)
    if miss.size:
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
        _check_sorted(times, "times")
        inside = np.zeros(times.shape, dtype=bool)
        starts = self.window_starts
        if guess is None or times.size == 0:
            lo = np.searchsorted(times, starts, side="left")
        else:
            k = np.maximum(np.asarray(guess, dtype=np.int64), 0)
            np.minimum(k, times.size - 1, out=k)
            k += starts > times[k]
            lo = _search_from(times, starts, k, "left")
        hi = _search_from(times, starts + self.window_length, lo + 1, "left")
        lengths = np.subtract(hi, lo, out=hi)
        # index k of range r is lo[r] + (k - first k of range r)
        offsets = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        inside[np.arange(offsets.size) + offsets] = True
        return inside

    def validate(self, cell_dead_time: float) -> None:
        # Window starts are the accepted clicks plus one common lead, so
        # their gaps are the click gaps up to rounding.  The slack covers
        # that and the rounding of the accept test in _drive_cell.
        slack = 1e-9 * max(cell_dead_time, self.window_length, 1e-12)
        gaps = np.diff(self.window_starts)
        if np.any(gaps <= 0):
            raise SimulationError("cell windows are not strictly ordered")
        if np.any(gaps < self.window_length - slack):
            raise SimulationError("cell windows overlap")
        if np.any(gaps < cell_dead_time - slack):
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
    # rng.uniform(0.0, duration, n) computes 0.0 + duration * u from the
    # same doubles u: the same values and state, from a faster loop
    times = rng.random(n)
    times *= duration
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

    When ``p`` and ``p_else`` are each 0 or 1, nothing is drawn and ``rng``
    is left as it was: doubles lie in [0, 1), so ``u < 1`` always holds and
    ``u < 0`` never does.  The outcomes are still exact, but the stream
    position is not, so the caller must not read ``rng`` afterwards except
    through further calls whose coins are certain too.
    """
    if p in (0.0, 1.0) and p_else in (0.0, 1.0):
        if where is None or p == p_else:
            return np.full(n, p == 1.0)
        # one threshold is 1 and the other 0: the outcome is ``where`` or its negation
        return np.logical_xor(where, p_else == 1.0)
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


def _cursor_ahead(rng: np.random.Generator, n: int) -> np.random.Generator:
    """A copy of ``rng`` that starts ``n`` doubles further along its stream.

    ``PCG64.advance(n)`` moves the state as if ``n`` 64-bit outputs had been
    drawn, and ``Generator.random`` turns one output into one double, so a
    second pass of ``n`` values over one stream can be read block by block
    beside the first pass: the cursor reads exactly what the second pass
    would, and ends in the state the two passes leave.
    """
    ahead = rng.bit_generator.jumped(0)  # zero jumps: a copy of the state
    ahead.advance(n)
    return np.random.Generator(ahead)


def _merge_dark_clicks(
    photon_times: np.ndarray, pair_index: np.ndarray, dark_times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted dark clicks into sorted photon clicks, and their pair indices.

    Dark clicks get pair index -1.  Each dark click is inserted after the
    photon clicks at its time and after the dark clicks drawn before it,
    which is the order a stable sort of the photons followed by the darks
    gives, without the sort and its gathers.
    """
    if not dark_times.size:
        return photon_times, pair_index
    # dark click k lands after the photons at or before it and the k darks before it
    at = np.searchsorted(photon_times, dark_times, side="right")
    at += np.arange(at.size)
    photon = np.ones(photon_times.size + at.size, dtype=bool)
    photon[at] = False
    times = np.empty(photon.size)
    times[at] = dark_times
    times[photon] = photon_times
    index = np.full(photon.size, -1, dtype=np.int64)
    index[photon] = pair_index
    return times, index


def _accept_greedy(times: np.ndarray, ends: np.ndarray, carried_end: float) -> np.ndarray:
    """Non-paralyzable dead time: keep event i iff ``times[i] >= ends[j]``, j the last kept.

    Event i, once kept, holds off every later event before ``ends[i]``
    (J. W. Muller, Nucl. Instrum. Methods 112, 47 (1973)); ``carried_end``
    stands in for the last event kept before ``times[0]``.  ``times`` must
    be sorted, and ``ends`` must be non-decreasing and not below
    ``carried_end``.  The last kept event is then never past event i - 1,
    so an event with ``times[i] >= ends[i-1]`` is kept whatever came
    before: these free events are settled at once.  The other events form
    clusters that each follow a kept head, free or carried.  The first
    event of a cluster is dropped, because the head is the last kept event
    and ``times[i] < ends[i-1]`` made it a conflict.  Only the second and
    later events are replayed one by one, each cluster from its head's end.
    """
    keep = np.ones(times.size, dtype=bool)
    conflicts = np.flatnonzero(times[1:] < ends[:-1]) + 1
    if times.size and times[0] < carried_end:
        conflicts = np.concatenate([[0], conflicts])
    keep[conflicts] = False
    later = conflicts[1:][conflicts[1:] == conflicts[:-1] + 1]
    # the head's end of each cluster, read at its second event; a head before event 0 is carried
    second = np.ones(later.size, dtype=bool)
    np.not_equal(later[1:], later[:-1] + 1, out=second[1:])
    heads = iter(np.where(later[second] >= 2, ends[later[second] - 2], carried_end).tolist())
    kept = array.array("q")
    previous = -2
    for i, t, end in zip(later.tolist(), times[later].tolist(), ends[later].tolist()):
        if i != previous + 1:
            busy = next(heads)
        previous = i
        if t >= busy:
            kept.append(i)
            busy = end
    keep[np.frombuffer(kept, dtype=np.int64)] = True
    return keep


def _dead_time_filter(
    times: np.ndarray, dead_time: float, last: float = -math.inf
) -> np.ndarray:
    """Non-paralyzable detector recovery: keep a click iff ``t >= last kept + dead_time``.

    ``times`` must be sorted, and ``last`` is the last click kept before
    ``times[0]``.  Each kept click ends its dead time at ``t + dead_time``;
    :func:`_accept_greedy` settles the clicks.
    """
    return _accept_greedy(times, times + dead_time, last + dead_time)


def _drive_cell(
    click_times: np.ndarray,
    fails: np.ndarray,
    config: ExperimentConfig,
    busy_until: float = -math.inf,
) -> tuple[CellTimeline, int]:
    """Process trigger requests in time order into accepted rotation windows.

    A request during the busy span is discarded; in paralyzable mode it
    additionally restarts the busy span.  A live request is accepted unless
    its failure coin fired (``fails``, one per request), in which case
    neither a window opens nor a dead time starts.

    ``busy_until`` is the span that earlier requests left.  It enters as
    request 0 below, a free request that set its span and did not fail;
    the real requests are 1 to n.  ``click_times`` must be sorted and must
    not lie before the requests that left ``busy_until``.  The busy span is
    always ``busy_ends[j] = (t[j] + lead) + cell_dead_time`` of some earlier
    request j, and float addition is monotone, so a request with ``not t[i]
    < busy_ends[i-1]`` is *free*: live whatever came before.

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

    In non-paralyzable mode a failed request never moves the span, blocked
    or live, so :func:`_accept_greedy` settles the requests whose coin held
    against their busy ends, and the last accepted one sets the span.
    """
    lead = config.trigger_lead
    busy_ends = np.empty(click_times.size + 1)
    busy_ends[0] = busy_until
    np.add(click_times + lead, config.cell_dead_time, out=busy_ends[1:])
    if config.dead_time_mode == "paralyzable":
        failed = np.zeros(busy_ends.size, dtype=bool)
        failed[1:] = fails
        index = np.arange(busy_ends.size)
        free_index = index.copy()
        # request 0 is always free, so 0 is a safe filler
        free_index[np.flatnonzero(click_times < busy_ends[:-1]) + 1] = 0
        last_free = np.maximum.accumulate(free_index)
        last_kept_coin = np.maximum.accumulate(np.where(failed, -1, index))
        live = np.ones(busy_ends.size, dtype=bool)
        live[1:] = last_kept_coin[:-1] < last_free[1:]
        accepted = np.flatnonzero(live[1:] & ~fails)
        # request 0 sets a span, so there is always a last one
        span_setter = np.flatnonzero(~(live & failed))[-1]
    else:
        held = np.flatnonzero(~fails)
        accepted = held[_accept_greedy(click_times[held], busy_ends[held + 1], busy_until)]
        span_setter = accepted[-1] + 1 if accepted.size else 0
    timeline = CellTimeline(
        click_times[accepted] + lead, config.pulse_flat, float(busy_ends[span_setter]), accepted
    )
    return timeline, int(accepted.size)


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
    if not (math.isfinite(window) and window >= 0.0):
        raise ValueError("coincidence window must be finite and non-negative")
    if not math.isfinite(offset):
        raise ValueError("coincidence offset must be finite")
    a = np.asarray(d1_times, dtype=float)
    b = np.asarray(d2_times, dtype=float)
    _check_sorted(a, "d1_times")
    _check_sorted(b, "d2_times")
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


def _append(carried: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``carried`` followed by ``new``, without a copy when nothing was carried."""
    return np.concatenate([carried, new]) if carried.size else new


def _empty(dtype: type = float):
    """An empty array as a field default, made afresh for each record."""
    return field(default_factory=lambda: np.empty(0, dtype=dtype))


@dataclass(slots=True, eq=False)
class _Run:
    """One run's inputs and the state its blocks carry from one edge to the next."""

    config: ExperimentConfig
    rng_pairs: np.random.Generator  # branch coins
    idler_rng: np.random.Generator  # idler detection coins, a cursor on rng_pairs
    rng_trigger: np.random.Generator  # cell failure coins
    rng_signal: np.random.Generator  # signal polarizer coins
    eta_rng: np.random.Generator  # signal detection coins, a cursor on rng_signal
    rng_d2_noise: np.random.Generator  # background polarizer coins
    bg_eta_rng: np.random.Generator  # background detection coins, a cursor on rng_d2_noise
    t_emit: np.ndarray  # sorted emission times, turned into cell arrivals up to pair_at
    dark1: np.ndarray  # sorted D1 dark clicks not yet merged
    dark2: np.ndarray  # sorted D2 dark clicks not yet merged
    background: np.ndarray  # sorted background photons not yet through the polarizer
    p_pass_h: float  # Malus probabilities of the signal polarizer for H and V
    p_pass_v: float
    pair_at: int = 0  # pairs through the trigger arm
    settled: int = 0  # pairs through the signal arm
    singles_d1: int = 0
    singles_d2: int = 0
    coincidences: int = 0
    idler_detections: int = 0
    triggers_accepted: int = 0
    signals_rotated: int = 0
    last_d1: float = -math.inf  # the last kept D1 and D2 clicks, for the detector dead times
    last_d2: float = -math.inf
    busy_until: float = -math.inf  # the cell's busy span
    window_starts: np.ndarray = _empty()  # windows a later arrival may still meet
    window_pairs: np.ndarray = _empty(np.int64)  # each one's opening pair, -1 for a dark click
    waiting_h: np.ndarray = _empty(bool)  # branches of the pairs from `settled` on
    rotatable: np.ndarray = _empty(np.int64)  # pairs from `settled` on with a kept D1 click
    photons: np.ndarray = _empty()  # detected signal photons not yet merged into D2
    d1_wait: np.ndarray = _empty()  # kept D1 clicks not yet matched
    d2_wait: np.ndarray = _empty()  # kept D2 clicks that a D1 window may still reach

    def windows(self) -> CellTimeline:
        """The carried windows, for ``covers_many`` and ``validate``."""
        return CellTimeline(self.window_starts, self.config.pulse_flat, self.busy_until)


def _trigger_arm(run: _Run, edge: float) -> np.ndarray:
    """Idler detection, D1 darks and dead time, and the cell drive, up to ``edge``.

    Returns the arrivals at the cell that the signal arm can settle: a later
    trigger opens its window at or after ``edge`` plus the trigger lead.
    """
    config, start = run.config, run.pair_at
    stop = start + int(np.searchsorted(run.t_emit[start:], edge))
    signal_is_h = _coins(run.rng_pairs, stop - start, 0.5)
    idler_detected = _coins(run.idler_rng, stop - start, config.eta_idler)
    idler_detected &= signal_is_h
    idler_index = np.flatnonzero(idler_detected) + start
    dark_stop = int(np.searchsorted(run.dark1, edge))
    d1_times, d1_pairs = _merge_dark_clicks(
        run.t_emit[idler_index], idler_index, run.dark1[:dark_stop]
    )
    run.dark1 = run.dark1[dark_stop:]
    if config.detector_dead_time_d1 > 0.0:
        keep = _dead_time_filter(d1_times, config.detector_dead_time_d1, run.last_d1)
        d1_times, d1_pairs = d1_times[keep], d1_pairs[keep]
        run.last_d1 = d1_times[-1] if d1_times.size else run.last_d1
    photon_pairs = d1_pairs[d1_pairs >= 0]
    run.singles_d1 += d1_times.size
    run.idler_detections += photon_pairs.size
    run.rotatable = _append(run.rotatable, photon_pairs)
    run.waiting_h = _append(run.waiting_h, signal_is_h)
    run.d1_wait = _append(run.d1_wait, d1_times)
    # The block's emission times have no later use, so they become the
    # signal photons' arrival times at the cell in place.
    np.add(run.t_emit[start:stop], config.t_fiber, out=run.t_emit[start:stop])
    run.pair_at = stop
    # a disabled cell receives no drive and opens no window
    if config.cell_enabled:
        fails = _coins(run.rng_trigger, d1_times.size, config.cell_fail_prob)
        timeline, accepted = _drive_cell(d1_times, fails, config, run.busy_until)
        run.triggers_accepted += accepted
        run.busy_until = timeline.busy_until
        run.window_starts = _append(run.window_starts, timeline.window_starts)
        run.window_pairs = _append(run.window_pairs, d1_pairs[timeline.accepted_index])
        run.windows().validate(config.cell_dead_time)
    arrivals = run.t_emit[run.settled : stop]
    return arrivals[: np.searchsorted(arrivals, edge + config.trigger_lead)]


def _signal_arm(run: _Run, arrivals: np.ndarray) -> None:
    """Conditional flip, polarizer and detection of the next ``arrivals`` at the cell."""
    if not arrivals.size:
        return
    settled, ready = run.settled, run.settled + arrivals.size
    # a window opened by pair k's idler starts near pair k's arrival
    flipped = run.windows().covers_many(arrivals, run.window_pairs - settled)
    done = np.searchsorted(run.rotatable, ready)
    run.signals_rotated += int(np.count_nonzero(flipped[run.rotatable[:done] - settled]))
    run.rotatable = run.rotatable[done:]
    # a flip swaps H and V
    final_is_h = np.logical_xor(run.waiting_h[: arrivals.size], flipped, out=flipped)
    run.waiting_h = run.waiting_h[arrivals.size :]
    detected = _coins(run.rng_signal, arrivals.size, run.p_pass_h, final_is_h, run.p_pass_v)
    detected &= _coins(run.eta_rng, arrivals.size, run.config.eta_signal)
    # an index array gathers several times faster than a random boolean mask
    run.photons = _append(run.photons, arrivals[np.flatnonzero(detected)])
    # a window that ends by the last arrival meets no later one; the last
    # window stays for validate's spacing check
    ends = run.window_starts + run.config.pulse_flat
    gone = min(int(np.searchsorted(ends, arrivals[-1], side="right")), ends.size - 1)
    if gone > 0:
        run.window_starts = run.window_starts[gone:]
        run.window_pairs = run.window_pairs[gone:]
    run.settled = ready


def _d2_arm(run: _Run, edge: float) -> None:
    """D2 clicks before ``edge``; pairs not through the signal arm arrive at or after it."""
    config = run.config
    photon_stop = int(np.searchsorted(run.photons, edge))
    dark_stop = int(np.searchsorted(run.dark2, edge))
    bg_stop = int(np.searchsorted(run.background, edge))
    # unpolarized light: half of it passes the polarizer
    bg_detected = _coins(run.rng_d2_noise, bg_stop, 0.5)
    bg_detected &= _coins(run.bg_eta_rng, bg_stop, config.eta_signal)
    bg_clicks = run.background[np.flatnonzero(bg_detected)]
    d2_times = np.concatenate([run.photons[:photon_stop], run.dark2[:dark_stop], bg_clicks])
    run.photons = run.photons[photon_stop:]
    run.dark2, run.background = run.dark2[dark_stop:], run.background[bg_stop:]
    # the three runs are each sorted, which the stable sort (timsort) merges
    d2_times.sort(kind="stable")
    if config.detector_dead_time_d2 > 0.0:
        d2_times = d2_times[_dead_time_filter(d2_times, config.detector_dead_time_d2, run.last_d2)]
        run.last_d2 = d2_times[-1] if d2_times.size else run.last_d2
    run.singles_d2 += d2_times.size
    run.d2_wait = _append(run.d2_wait, d2_times)


def _match_cut(run: _Run, edge: float) -> None:
    """Count the coincidences of the D1 clicks up to the last cut before ``edge``.

    A cut lies where one D1 click's window ends before the next one's
    starts.  No D2 click lies in both, so the pointer the matcher leaves
    never matters past the cut; only D1 windows that end before ``edge``
    are matched.  The appended bottom bounds every later D1 window.
    """
    config = run.config
    offset = config.t_fiber if config.coincidence_offset is None else config.coincidence_offset
    half = config.coincidence_window / 2.0
    targets = run.d1_wait + offset
    bottoms = np.empty(targets.size + 1)
    np.subtract(targets, half, out=bottoms[:-1])
    bottoms[-1] = (edge + offset) - half
    tops = np.add(targets, half, out=targets)
    ready = int(np.searchsorted(tops, edge))
    cuts = np.flatnonzero(bottoms[1 : ready + 1] > tops[:ready])
    cut = int(cuts[-1]) + 1 if cuts.size else 0
    if cut:
        run.coincidences += coincidence_match(
            run.d1_wait[:cut], run.d2_wait, config.coincidence_window, offset
        )
        run.d1_wait = run.d1_wait[cut:]
    run.d2_wait = run.d2_wait[np.searchsorted(run.d2_wait, bottoms[cut]) :]


def simulate_run(config: ExperimentConfig) -> SimulationResult:
    """Run one configured measurement interval and count clicks.

    The emission, dark and background times are drawn and sorted at full
    width.  The rest runs in blocks on a fixed time grid of equal spans,
    each holding about ``_COIN_BLOCK`` values of the longest stream; the
    last runs on to infinity and flushes all carried state.  Each block
    runs the four stages on one :class:`_Run`, each stage in the order of
    the full-width run, so the counts do not depend on the block size.
    """
    # the fifth substream is spawned but unused, see the module docstring
    rng_pairs, rng_d1_dark, rng_trigger, rng_signal, _, rng_d2_noise = _substreams(config.seed)
    t_emit = _sample_poisson_times(rng_pairs, config.pair_rate, config.duration)
    idler_rng = _cursor_ahead(rng_pairs, t_emit.size)
    eta_rng = _cursor_ahead(rng_signal, t_emit.size)
    dark1 = _sample_poisson_times(rng_d1_dark, config.dark_rate_idler, config.duration)
    dark2 = _sample_poisson_times(rng_d2_noise, config.dark_rate_signal, config.duration)
    background = _sample_poisson_times(
        rng_d2_noise, config.background_rate_signal, config.duration
    )
    bg_eta_rng = _cursor_ahead(rng_d2_noise, background.size)
    run = _Run(
        config, rng_pairs, idler_rng, rng_trigger, rng_signal, eta_rng, rng_d2_noise, bg_eta_rng,
        t_emit, dark1, dark2, background,
        p_pass_h=project_polarizer(horizontal(), config.polarizer_theta),
        p_pass_v=project_polarizer(vertical(), config.polarizer_theta),
    )
    longest = max(t_emit.size, dark1.size, dark2.size, background.size)
    blocks = math.ceil(longest / _COIN_BLOCK)  # none in a run without events
    for i in range(1, blocks + 1):
        edge = config.duration * i / blocks if i < blocks else math.inf
        _signal_arm(run, _trigger_arm(run, edge))
        _d2_arm(run, edge)
        _match_cut(run, edge)
    # no idler detected means no signal rotated: 0 / 1
    return SimulationResult(
        singles_d1=run.singles_d1, singles_d2=run.singles_d2, coincidences=run.coincidences,
        rotated_fraction=run.signals_rotated / max(run.idler_detections, 1), config=config,
        pairs_emitted=t_emit.size, idler_detections=run.idler_detections,
        triggers_accepted=run.triggers_accepted, signals_rotated=run.signals_rotated,
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


def _scan(config: ExperimentConfig, field: str, xs: list[float]) -> list[ScanPoint]:
    """Run one point per value of ``field``, each with seed ``derive_seed(seed, i)``."""
    if config.duration <= 0.0:
        raise ConfigError("a scan requires a positive per-point duration")
    values = [float(x) for x in xs]
    # every config is built, and a bad value refused, before any draw
    configs = [
        replace(config, **{field: v}, seed=derive_seed(config.seed, i))
        for i, v in enumerate(values)
    ]
    return [_scan_point(v, simulate_run(c)) for v, c in zip(values, configs)]


def polarizer_scan(config: ExperimentConfig, thetas: list[float]) -> list[ScanPoint]:
    """Measure the D2 singles and coincidence curve over polarizer angles.

    Every point runs with an independent seed derived from the master
    ``config.seed`` and the point index, so the scan is reproducible.  The
    points run in order, and each keeps only the counts of its run.
    """
    return _scan(config, "polarizer_theta", thetas)


def delay_scan(config: ExperimentConfig, delays: list[float]) -> list[ScanPoint]:
    """Measure D2 rates against the adjustable trigger delay.

    The signal polarizer stays at ``config.polarizer_theta`` for the whole
    scan.  Per-point seeds follow the same derivation as
    :func:`polarizer_scan`.
    """
    return _scan(config, "t_electronic", delays)


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
    return config.trigger_lead + config.cell_dead_time


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
