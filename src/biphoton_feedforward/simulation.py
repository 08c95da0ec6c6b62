"""Event-level Monte Carlo of the triggered polarization-rotation bench.

One run draws spontaneous pair emissions as a homogeneous Poisson process,
sends vertical idlers through the trigger arm onto detector D1, opens a
high-voltage flat-top window on the rotation cell for every accepted trigger
(electronic delay + internal latency + pulse front, then a dead time), delays
the signal photon through its fiber, flips its polarization if it arrives in
an open flat-top, passes the definite H or V photon through the polarizer by
Malus's law (:func:`_malus`, bit for bit :mod:`.polarization`'s projection),
and finally counts D2 singles and D1/D2 coincidences.

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
- trigger coins: one double per D1 click, after the D1 dead time, in
  click order (the failure coin, below ``cell_fail_prob``); none when
  ``cell_fail_prob`` is 0 or 1;
- signal-arm draws: one double per pair, for the polarizer and D2 together
  (below the Malus probability of its polarization after the cell times
  ``eta_signal``: the two events are independent);
- D2 noise: the Poisson count and times of the dark clicks, then of the
  background photons, sorted; then one double per photon, for the
  polarizer and D2 together (below ``0.5 * eta_signal``).

A coin of probability 0 or 1 draws nothing.  Its outcome is certain, the
other coins of its pass are then certain too, and the idler pass reads
from a cursor made before the branch pass, so nothing reads the values it
would have drawn.  That covers the signal coins at ``polarizer_theta = 0``
and ``eta_signal = 1`` (probabilities 0 and 1), the idler pass at
``eta_idler`` 0 or 1, the signal and background coins at ``eta_signal =
0`` and the trigger coins at ``cell_fail_prob`` 0 or 1.

:func:`simulate_run` cuts the run into time blocks and runs four stages
on each, over one carry record (``_Run``): ``_trigger_arm`` (idler
detection, D1 darks and dead time, cell drive), ``_signal_arm`` (flip,
polarizer, detection), ``_d2_arm`` (D2 noise and dead time) and
``_match_cut`` (coincidences).  Every stage of a block takes the events
before its edge: only in-flight arrivals, unmatched D1 clicks, the D2
clicks a D1 window may still reach, the cell record (windows, openers,
busy span), the counts and the last kept clicks cross it.  The stages
read the per-pair and per-photon doubles block by block in time order.
The idler pass runs on its own cursor, a copy of the pair stream's
generator advanced by n outputs (``PCG64.advance``), so the branch and
idler passes read exactly the values that two full-width passes read.
"""

from __future__ import annotations

import array
import hashlib
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

# ConfigError and SimulationError live beside the other error classes, so
# that code which only catches them need not import the engine.
from .analysis import ConfigError, DataError, SimulationError
from .analysis import accidental_coincidences, trigger_lead


_DEAD_TIME_MODES = ("nonparalyzable", "paralyzable")

# Largest expected number of drawn events (pairs, dark clicks and background
# photons) per run, a property-oracle angle included.  A run holds
# its sorted emission, dark and background times, 8 bytes per event, plus
# the working set of one block (see simulate_run): ~4-7 MB at the benchmark
# rates and when every idler opens a window, up to ~30 MB when a block's
# triggers sit in conflict clusters.  At peak (tracemalloc) that was ~8.5-9
# bytes per event on 2 M background photons, ~9.5 on the benchmark workloads,
# ~9.8 on a 2 M-pair oracle angle and ~11.4 on 2 M events with every idler
# detected at rare triggers, so a run stays below ~0.35 GB; the canned
# scenarios and benchmark workloads draw at most ~2.5 M.
MAX_EXPECTED_EVENTS = 2e7

# simulate_run cuts its run into blocks of about this many values (Poisson
# spread) of its longest event stream, so each call of _coins draws at most
# about this many doubles and a run never holds a float64 draw per event.
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
    cell_fail_prob: float = 0.0  # chance an accepted trigger fires no pulse; 1 idles the cell
    coincidence_window: float = 3e-9
    coincidence_offset: float | None = None  # None: t_fiber, true pairs at zero lag
    polarizer_theta: float = 0.0  # signal polarizer angle from vertical, radians
    dead_time_mode: str = "nonparalyzable"
    detector_dead_time_d1: float = 0.0  # optional detector recovery times
    detector_dead_time_d2: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS + _TIME_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if self.duration <= 0.0:
            raise ConfigError("a run needs a positive duration")
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
        # int() would truncate 1.5, Fraction(3, 2) and Decimal("1.5") to 1, and
        # take True as 1 and "12" as 12
        if not _is_integral(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit non-negative integer")

    @property
    def expected_events(self) -> float:
        """Expected pairs, dark clicks and background photons drawn in one run."""
        return sum(getattr(self, name) for name in _RATE_FIELDS) * self.duration


def _is_integral(value: object) -> bool:
    """Whether ``value`` is an integral number: an Integral other than bool, or a whole real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(value, numbers.Integral):
        return True
    try:
        return math.floor(value) == value
    except (ValueError, OverflowError):  # NaN and the infinities
        return False


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


def _rank_right_from(values: np.ndarray, keys: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``np.searchsorted(values, keys, side="right")`` for ``lo`` at or below it.

    No value below ``lo`` may exceed its key, so the answer is ``lo`` when
    ``values[lo]`` exceeds the key and ``lo + 1`` when ``values[lo + 1]``
    does; the other keys are searched.  ``np.take`` clips an index past the
    end to the last value, which then lies at or below the key.
    """
    if not values.size:
        return np.zeros_like(lo)
    below = np.take(values, lo, mode="clip") <= keys
    rank = lo + below
    below &= np.take(values, rank, mode="clip") <= keys
    two = np.flatnonzero(below)
    if two.size:
        rank[two] = np.searchsorted(values, keys[two], side="right")
    return rank


def _rank_left(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(values, keys, side="left")`` for sorted ``values`` and ``keys``.

    The bits of non-negative doubles, read as ``uint64``, sort as the
    values do.  Shifted left by one, with the low bit set on the values, a
    key sorts before a value equal to it, so one stable sort (timsort) of
    the two sorted runs merges them in linear time, and a key's rank is its
    place in the merge less its own index.  The shift also drops the sign
    bit of ``-0.0``, which then ranks as ``+0.0``.  A negative key or value
    would sort out of order, and goes to ``np.searchsorted``.
    """
    if not (keys.size and values.size) or keys[0] < 0.0 or values[0] < 0.0:
        return np.searchsorted(values, keys, side="left")
    bits = np.concatenate([keys, values]).view(np.uint64)
    bits <<= 1
    bits[keys.size :] |= 1
    bits.sort(kind="stable")
    bits &= 1
    rank = np.flatnonzero(bits == 0)
    rank -= np.arange(keys.size)
    return rank


@dataclass(frozen=True, eq=False)
class CellTimeline:
    """Accepted rotation windows of one run.

    Flat-top windows are [start, start + window_length); the cell rotates
    only during a flat-top, so the decaying pulse tail after a window
    rotates nothing.  ``window_pairs`` holds, per window, the pair whose
    idler opened it, or -1 for a dark click.
    """

    window_starts: np.ndarray
    window_length: float
    busy_until: float
    window_pairs: np.ndarray

    def covers_many(self, times: object, guess: object) -> np.ndarray:
        """Boolean mask of sorted arrival times inside any flat-top window.

        ``guess`` is, per window, the index ``k`` of the arrival that should
        be its only one, such as the signal photon of the pair whose idler
        opened it.  One pass checks ``times[k-1] < start <= times[k] < end
        <= times[k+1]``, with ``end = start + window_length``, and marks the
        arrivals that pass.  Indices clipped to the array compare an arrival
        with itself, so a ``k`` outside ``[1, len(times) - 2]`` fails.  The
        other windows (dark clicks, no or several arrivals) mark the index
        range ``[lo, hi)`` that ``searchsorted`` gives for ``start`` and
        ``end`` (both ``side="left"``).  Both look the windows up in the
        arrivals, which are usually many more.
        """
        times = np.asarray(times, dtype=float)
        _check_sorted(times, "times")
        inside = np.zeros(times.shape, dtype=bool)
        starts = self.window_starts
        ends = starts + self.window_length
        if times.size >= 3:
            k = np.asarray(guess, dtype=np.int64)
            a1 = np.take(times, k, mode="clip")
            sole = np.take(times, k - 1, mode="clip") < starts
            sole &= starts <= a1
            sole &= a1 < ends
            sole &= ends <= np.take(times, k + 1, mode="clip")
            inside[k[sole]] = True
            rest = np.flatnonzero(~sole)
            starts, ends = starts[rest], ends[rest]
        lo = np.searchsorted(times, starts, side="left")
        hi = np.searchsorted(times, ends, side="left")
        lengths = np.subtract(hi, lo, out=hi)
        # index k of range r is lo[r] + (k - first k of range r)
        offsets = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        inside[np.arange(offsets.size) + offsets] = True
        return inside

    def validate(self, cell_dead_time: float) -> None:
        if self.window_starts.size < 2:
            return
        # Window starts are the accepted clicks plus one common lead, so
        # their gaps are the click gaps up to rounding.  The slack covers
        # that and the rounding of the accept test in _drive_cell.
        slack = 1e-9 * max(cell_dead_time, self.window_length, 1e-12)
        closest = np.diff(self.window_starts).min()
        if closest <= 0:
            raise SimulationError("cell windows are not strictly ordered")
        if closest < self.window_length - slack:
            raise SimulationError("cell windows overlap")
        if closest < cell_dead_time - slack:
            raise SimulationError("accepted triggers closer than the cell dead time")


@dataclass(frozen=True, eq=False, slots=True)
class SimulationResult:
    """The seven counts of one run.

    The caller keeps the config of each run it made, so a finished scan
    point holds only its counts, whatever its number of events.
    """

    singles_d1: int
    singles_d2: int
    coincidences: int
    pairs_emitted: int
    idler_detections: int
    triggers_accepted: int
    signals_rotated: int

    def __post_init__(self) -> None:
        if self.coincidences > min(self.singles_d1, self.singles_d2):
            raise SimulationError("more coincidences than singles on one arm")
        if not (0 <= self.signals_rotated <= self.idler_detections):
            raise SimulationError("more signals rotated than idlers detected")

    @property
    def rotated_fraction(self) -> float:
        """Share of the detected idlers whose signal the cell flipped; 0.0 without one."""
        return self.signals_rotated / max(self.idler_detections, 1)


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


def child_config(
    config: ExperimentConfig, label: int | str, **changes: object
) -> ExperimentConfig:
    """``config`` with ``changes`` and the seed ``derive_seed(config.seed, label)``.

    Every run of a command comes from here: a scan point (label ``i``), a
    step of the edge bisection (``"edge:k"``), the Klyshko run
    (``"klyshko"``) and an oracle angle (``"oracle:i"``).
    """
    return replace(config, **changes, seed=derive_seed(config.seed, label))


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
    """``rng.random(n) < p``, from one draw of ``n`` values.

    With a boolean ``where``, value i is compared with ``p`` where
    ``where[i]`` holds and with ``p_else`` elsewhere, the comparisons of
    ``np.where(where, u < p, u < p_else)``.  The time blocks of
    :func:`simulate_run` keep ``n`` near ``_COIN_BLOCK``, so the draw stays
    small.

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
    u = rng.random(n)
    if where is None:
        return u < p
    # without a branch on a random condition
    return ((u < p) & where) | ((u < p_else) & ~where)


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
    click_pairs: np.ndarray,
    fails: np.ndarray,
    config: ExperimentConfig,
    cell: CellTimeline,
) -> tuple[CellTimeline, int]:
    """Advance ``cell`` by trigger requests in time order, and count the accepted ones.

    A request during the busy span is discarded; in paralyzable mode it
    additionally restarts the busy span.  A live request is accepted unless
    its failure coin fired (``fails``, one per request), in which case
    neither a window opens nor a dead time starts.  An accepted request
    appends its window and its entry of ``click_pairs`` to the cell's.

    ``cell.busy_until`` is the span that earlier requests left.  It enters
    as request 0 below, a free request that set its span and did not fail;
    the real requests are 1 to n.  ``click_times`` must be sorted and must
    not lie before the requests that left the span.  The busy span is
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
    lead = trigger_lead(config)
    if config.dead_time_mode == "paralyzable":
        busy_ends = np.empty(click_times.size + 1)
        busy_ends[0] = cell.busy_until
        np.add(click_times + lead, config.cell_dead_time, out=busy_ends[1:])
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
        new_starts = click_times[accepted] + lead
        busy = float(busy_ends[span_setter])
    else:
        held = np.flatnonzero(~fails)
        held_starts = click_times[held] + lead
        held_ends = held_starts + config.cell_dead_time
        kept = np.flatnonzero(_accept_greedy(click_times[held], held_ends, cell.busy_until))
        accepted, new_starts = held[kept], held_starts[kept]
        busy = float(held_ends[kept[-1]]) if kept.size else cell.busy_until
    starts = _append(cell.window_starts, new_starts)
    pairs = _append(cell.window_pairs, click_pairs[accepted])
    return replace(cell, window_starts=starts, window_pairs=pairs, busy_until=busy), accepted.size


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

    ``lo`` is :func:`_rank_left`, one merge of the window bottoms with the
    D2 clicks.  ``lo`` is exact, so :func:`_rank_right_from` finds ``hi``
    by testing the first two candidates: ``lo`` when ``b[lo]`` lies past
    the window top, ``lo + 1`` when ``b[lo + 1]`` does, and only a window
    with two or more candidates is searched.
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
    lo = _rank_left(b, target - half)
    top = np.add(target, half, out=target)
    hi = _rank_right_from(b, top, lo)
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
    rng_signal: np.random.Generator  # signal coins: polarizer and D2 efficiency in one
    rng_d2_noise: np.random.Generator  # background coins: polarizer and D2 efficiency in one
    t_emit: np.ndarray  # sorted emission times, turned into cell arrivals up to pair_at
    dark1: np.ndarray  # sorted D1 dark clicks not yet merged
    dark2: np.ndarray  # sorted D2 dark clicks not yet merged
    background: np.ndarray  # sorted background photons not yet through the polarizer
    p_click_h: float  # D2 click chances of an H and a V signal photon: Malus times eta_signal
    p_click_v: float
    cell: CellTimeline  # the busy span, and the windows (and openers) a later arrival may meet
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
    waiting_h: np.ndarray = _empty(bool)  # branches of the pairs from `settled` on
    rotatable: np.ndarray = _empty(np.int64)  # pairs from `settled` on with a kept D1 click
    d1_wait: np.ndarray = _empty()  # kept D1 clicks not yet matched
    d2_wait: np.ndarray = _empty()  # kept D2 clicks that a D1 window may still reach


def _trigger_arm(run: _Run, edge: float) -> np.ndarray:
    """Idler detection, D1 darks and dead time, and the cell drive, before ``edge``.

    Returns the arrivals at the cell before ``edge``, which no later trigger
    can flip: it clicks at or after ``edge``.  Later ones stay in flight.
    """
    config, start = run.config, run.pair_at
    stop = start + int(np.searchsorted(run.t_emit[start:], edge))
    signal_is_h = _coins(run.rng_pairs, stop - start, 0.5)
    idler_detected = _coins(run.idler_rng, stop - start, config.eta_idler)
    idler_detected &= signal_is_h
    idler_index = np.flatnonzero(idler_detected) + start
    dark_stop = int(np.searchsorted(run.dark1, edge))
    darks, run.dark1 = run.dark1[:dark_stop], run.dark1[dark_stop:]
    d1_times, d1_pairs = _merge_dark_clicks(run.t_emit[idler_index], idler_index, darks)
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
    fails = _coins(run.rng_trigger, d1_times.size, config.cell_fail_prob)
    run.cell, accepted = _drive_cell(d1_times, d1_pairs, fails, config, run.cell)
    run.triggers_accepted += accepted
    run.cell.validate(config.cell_dead_time)
    arrivals = run.t_emit[run.settled : stop]
    return arrivals[: np.searchsorted(arrivals, edge)]


def _signal_arm(run: _Run, arrivals: np.ndarray) -> np.ndarray:
    """Flip, polarizer and detection of the next ``arrivals`` at the cell; returns the detected."""
    if not arrivals.size:
        return arrivals
    settled, ready = run.settled, run.settled + arrivals.size
    # a window opened by pair k's idler starts near pair k's arrival
    flipped = run.cell.covers_many(arrivals, run.cell.window_pairs - settled)
    done = np.searchsorted(run.rotatable, ready)
    run.signals_rotated += int(np.count_nonzero(flipped[run.rotatable[:done] - settled]))
    run.rotatable = run.rotatable[done:]
    # a flip swaps H and V
    final_is_h = np.logical_xor(run.waiting_h[: arrivals.size], flipped, out=flipped)
    run.waiting_h = run.waiting_h[arrivals.size :]
    detected = _coins(run.rng_signal, arrivals.size, run.p_click_h, final_is_h, run.p_click_v)
    # a window that ends by the last arrival meets no later one; the last
    # window stays for validate's spacing check
    ends = run.cell.window_starts + run.cell.window_length
    gone = min(int(np.searchsorted(ends, arrivals[-1], side="right")), ends.size - 1)
    if gone > 0:
        starts, pairs = run.cell.window_starts[gone:], run.cell.window_pairs[gone:]
        run.cell = replace(run.cell, window_starts=starts, window_pairs=pairs)
    run.settled = ready
    # an index array gathers several times faster than a random boolean mask
    return arrivals[np.flatnonzero(detected)]


def _d2_arm(run: _Run, edge: float, photons: np.ndarray) -> None:
    """D2 clicks before ``edge``: the signal arm's ``photons``, dark clicks and background.

    Only the kept clicks that a D1 window may still reach cross ``edge``.
    """
    config = run.config
    dark_stop = int(np.searchsorted(run.dark2, edge))
    bg_stop = int(np.searchsorted(run.background, edge))
    # unpolarized light: half of it passes the polarizer, and D2 detects that
    bg_detected = _coins(run.rng_d2_noise, bg_stop, 0.5 * config.eta_signal)
    bg_clicks = run.background[np.flatnonzero(bg_detected)]
    d2_times = np.concatenate([photons, run.dark2[:dark_stop], bg_clicks])
    run.dark2, run.background = run.dark2[dark_stop:], run.background[bg_stop:]
    # The three runs are each sorted, which the stable sort (timsort)
    # merges.  Every D2 time is a non-negative double and none is -0.0, so
    # its bits read as uint64 sort as its value, and an integer merge is
    # faster than a float one.
    d2_times.view(np.uint64).sort(kind="stable")
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


def _malus(theta: float) -> tuple[float, float]:
    """Transmissions (H, V) of a polarizer at ``theta`` from vertical: sin**2, cos**2."""
    s, c = math.sin(theta), math.cos(theta)
    return s * s, c * c


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
    dark1 = _sample_poisson_times(rng_d1_dark, config.dark_rate_idler, config.duration)
    dark2 = _sample_poisson_times(rng_d2_noise, config.dark_rate_signal, config.duration)
    background = _sample_poisson_times(
        rng_d2_noise, config.background_rate_signal, config.duration
    )
    run = _Run(
        config, rng_pairs, idler_rng, rng_trigger, rng_signal, rng_d2_noise,
        t_emit, dark1, dark2, background,
        *(p * config.eta_signal for p in _malus(config.polarizer_theta)),
        cell=CellTimeline(np.empty(0), config.pulse_flat, -math.inf, np.empty(0, dtype=np.int64)),
    )
    longest = max(t_emit.size, dark1.size, dark2.size, background.size)
    blocks = math.ceil(longest / _COIN_BLOCK)  # none in a run without events
    for i in range(1, blocks + 1):
        edge = config.duration * i / blocks if i < blocks else math.inf
        _d2_arm(run, edge, _signal_arm(run, _trigger_arm(run, edge)))
        _match_cut(run, edge)
    return SimulationResult(
        singles_d1=run.singles_d1, singles_d2=run.singles_d2, coincidences=run.coincidences,
        pairs_emitted=t_emit.size, idler_detections=run.idler_detections,
        triggers_accepted=run.triggers_accepted, signals_rotated=run.signals_rotated,
    )


def scan(config: ExperimentConfig, field: str, xs: list[float]) -> list[SimulationResult]:
    """The runs of a scan of the config ``field``, one per value of ``xs``, in order.

    Point i runs ``child_config(config, i, **{field: x})``: its seed derives
    from the master ``config.seed`` and the point index, so the scan is
    reproducible.  A finished point is its run's counts, which
    :func:`.analysis.curve_rows` turns into the singles and coincidence
    curve.
    """
    # every config is built, and a bad value refused, before any draw
    configs = [child_config(config, i, **{field: float(x)}) for i, x in enumerate(xs)]
    return [simulate_run(c) for c in configs]


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
        cfg = child_config(config, f"edge:{index}", t_electronic=float(delay))
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


# The oracle's enumeration predicts a run's table when every click is a pair
# photon's, so these fields must hold these values and accidentals be rare: at
# 0 and 90 deg one accidental in a cell that expects none gives p = 0.
_ORACLE_FIELDS = {
    "cell_fail_prob": 1.0, "eta_idler": 1.0, "eta_signal": 1.0,
    "dark_rate_idler": 0.0, "dark_rate_signal": 0.0, "background_rate_signal": 0.0,
    "detector_dead_time_d1": 0.0, "detector_dead_time_d2": 0.0, "coincidence_offset": None,
}


def _check_enumerable(config: ExperimentConfig) -> None:
    """Refuse, naming the field, a config whose joint table the oracle cannot predict."""
    for name, wanted in _ORACLE_FIELDS.items():
        value = getattr(config, name)
        if value != wanted:
            raise ConfigError(f"the property oracle needs {name} = {wanted}, not {value}")
    if config.pair_rate == 0.0:
        raise ConfigError("the property oracle needs pairs: pair_rate above 0")
    half = 0.5 * config.pair_rate
    accidentals = accidental_coincidences(half, half, config.coincidence_window, config.duration)
    if accidentals > 0.01:
        raise ConfigError(
            f"the property oracle expects {accidentals:.3g} accidentals per angle, above "
            "0.01; lower pair_rate or duration"
        )


def sampling_soundness(config: ExperimentConfig) -> JointSample:
    """Chi-square comparison of the engine's joint clicks to their exact probabilities.

    One :func:`simulate_run` of ``config``, which :func:`_check_enumerable`
    admits: cell idle, perfect detectors, no noise, negligible accidentals.
    Its N pairs fill the table [idler_passes, signal_passes] as n11 = C,
    n10 = S1 - C, n01 = S2 - C, n00 = N - S1 - S2 + C.  The expectation,
    enumerated by projector algebra on the phase-averaged two-photon state,
    is independent of the engine's branch sampling.  Pearson's statistic
    runs over the cells whose probability exceeds ``ATOL``, with one degree
    of freedom fewer than those cells: a cell at rounding level, as
    cos(pi/2)**2 = 3.7e-33, cannot fill.
    """
    from .polarization import ATOL, joint_polarizer_probabilities, make_mixed_biphoton

    _check_enumerable(config)
    theta = float(config.polarizer_theta)
    result = simulate_run(config)
    pairs, c = result.pairs_emitted, result.coincidences
    s1, s2 = result.singles_d1, result.singles_d2
    if pairs == 0:
        raise DataError(f"no pair emitted in a run of {config.expected_events:.3g} expected pairs")
    if s1 + s2 - c > pairs:
        raise SimulationError(f"{s1 + s2 - c} pairs clicked, more than the {pairs} emitted")
    counts = np.array([[pairs - s1 - s2 + c, s2 - c], [s1 - c, c]])
    probs = joint_polarizer_probabilities(make_mixed_biphoton(), theta)
    expected = probs * pairs
    obs = counts.ravel().astype(float)
    exp = expected.ravel()
    empty = probs.ravel() <= ATOL
    if np.any(obs[empty] > 0.0):
        chi2, p_value = math.inf, 0.0
    else:
        obs, exp = obs[~empty], exp[~empty]
        chi2 = ((obs - exp) ** 2 / exp).sum()
        p_value = _chi2_sf(float(chi2), obs.size - 1)
    return JointSample(theta, counts, expected, float(chi2), float(p_value))
