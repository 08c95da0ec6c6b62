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
import os
from dataclasses import dataclass, replace

import numpy as np

from .analysis import poisson_count_sigma
from .polarization import (
    PolarizerAngle,
    _angle_value,
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
# photons) per run.  A run holds roughly 60 bytes per event at its peak, so
# this keeps one run near 1.2 GB; the canned scenarios and benchmark
# workloads draw at most ~2.5 M.
MAX_EXPECTED_EVENTS = 2e7


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
        event_rate = (
            self.pair_rate
            + self.dark_rate_idler
            + self.dark_rate_signal
            + self.background_rate_signal
        )
        if event_rate * self.duration > MAX_EXPECTED_EVENTS:
            raise ConfigError(
                f"expected {event_rate * self.duration:.3g} events per run exceed "
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


@dataclass(frozen=True)
class DetectionRecord:
    """One detector click with its physical origin."""

    detector: str  # "D1" or "D2"
    t: float
    origin: str  # "photon", "dark" or "background"

    def __post_init__(self) -> None:
        if self.detector not in ("D1", "D2"):
            raise ValueError(f"detector must be 'D1' or 'D2', got {self.detector!r}")
        if self.origin not in ("photon", "dark", "background"):
            raise ValueError(f"unknown click origin {self.origin!r}")


@dataclass(frozen=True, eq=False)
class CellTimeline:
    """Accepted rotation windows of one run.

    Flat-top windows are [start, start + window_length); the cell rotates
    only during a flat-top, so the decaying pulse tail after a window
    rotates nothing.
    """

    window_starts: np.ndarray
    window_length: float
    busy_until: float
    accepted_click_times: np.ndarray

    def covers_many(self, times: object) -> np.ndarray:
        """Boolean mask of sorted arrival times inside any flat-top window.

        The arrivals with ``start <= t < start + window_length`` of one
        window are the index range ``[lo, hi)`` that ``searchsorted`` on the
        sorted ``times`` gives for ``start`` and ``start + window_length``
        (both ``side="left"``), so marking those ranges is exact.  It
        searches the windows in the arrivals, which are usually many more.
        """
        times = np.asarray(times, dtype=float)
        if times.size > 1 and np.any(times[1:] < times[:-1]):
            raise ValueError("times must be sorted")
        inside = np.zeros(times.shape, dtype=bool)
        starts = self.window_starts
        lo = np.searchsorted(times, starts, side="left")
        hi = np.searchsorted(times, starts + self.window_length, side="left")
        lengths = hi - lo
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
    duration: float
    config: ExperimentConfig
    seed: int
    pairs_emitted: int
    idler_detections: int
    triggers_accepted: int
    signals_rotated: int
    cell_timeline: CellTimeline
    d1_records: tuple[DetectionRecord, ...] | None = None
    d2_records: tuple[DetectionRecord, ...] | None = None

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
    return np.sort(rng.uniform(0.0, duration, n))


def _sample_pairs(
    rng: np.random.Generator, rate: float, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    times = _sample_poisson_times(rng, rate, duration)
    signal_is_h = rng.random(times.size) < 0.5
    return times, signal_is_h


def _dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    """Non-paralyzable detector recovery: drop clicks within dead_time of the last kept one.

    ``times`` must be sorted.  A click whose gap to the previous click
    satisfies ``t[i] - t[i-1] >= dead_time`` is kept unconditionally: the
    last kept click is never later than ``t[i-1]`` and float subtraction is
    monotone, so the sequential test ``t[i] - last < dead_time`` fails too.
    Those free clicks are settled at once; only the clusters of clicks that
    follow a free click more closely are scanned one by one, each starting
    from its free head as the last kept click.
    """
    keep = np.ones(times.size, dtype=bool)
    conflicts = np.flatnonzero(np.diff(times) < dead_time) + 1
    dropped = []
    previous = -2
    for i, head, t in zip(
        conflicts.tolist(), times[conflicts - 1].tolist(), times[conflicts].tolist()
    ):
        if i != previous + 1:
            last = head  # a free click starts the cluster and was kept
        previous = i
        if t - last < dead_time:
            dropped.append(i)
        else:
            last = t
    keep[dropped] = False
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
    not move the span.  Free requests are settled at once; the clusters of
    requests that follow a free one more closely are scanned one by one,
    starting from the busy span their free head left: its own if it was
    accepted, and none if its coin fired, because a live request lies after
    every busy span set before it.
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
        accepted[conflicts] = False
        heads = conflicts - 1
        head_busy = np.where(accepted[heads], busy_ends[heads], -math.inf)
        cluster_accepted = []
        previous = -2
        for i, t, end, failed, reset in zip(
            conflicts.tolist(),
            click_times[conflicts].tolist(),
            busy_ends[conflicts].tolist(),
            fails[conflicts].tolist(),
            head_busy.tolist(),
        ):
            if i != previous + 1:
                busy_until = reset  # the busy span a free head left
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
    target = a + offset
    lo = np.searchsorted(b, target - half, side="left")
    hi = np.searchsorted(b, target + half, side="right")
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


def simulate_run(
    config: ExperimentConfig, *, collect_records: bool = False
) -> SimulationResult:
    """Run one configured measurement interval and count clicks.

    ``collect_records`` attaches per-click :class:`DetectionRecord` tuples
    for inspection (memory-heavy on large runs).
    """
    # the fifth substream is spawned but unused, see the module docstring
    rng_pairs, rng_d1_dark, rng_trigger, rng_signal, _, rng_d2_noise = _substreams(
        config.seed
    )

    # pair emission and trigger-arm detection
    t_emit, signal_is_h = _sample_pairs(rng_pairs, config.pair_rate, config.duration)
    n_pairs = t_emit.size
    idler_detected = signal_is_h & (rng_pairs.random(n_pairs) < config.eta_idler)

    dark1 = _sample_poisson_times(rng_d1_dark, config.dark_rate_idler, config.duration)
    d1_times = np.concatenate([t_emit[idler_detected], dark1])
    d1_pair_index = np.concatenate(
        [np.nonzero(idler_detected)[0], np.full(dark1.size, -1, dtype=np.int64)]
    )
    order = np.argsort(d1_times, kind="stable")
    d1_times = d1_times[order]
    d1_pair_index = d1_pair_index[order]
    if config.detector_dead_time_d1 > 0.0:
        keep = _dead_time_filter(d1_times, config.detector_dead_time_d1)
        d1_times = d1_times[keep]
        d1_pair_index = d1_pair_index[keep]

    # trigger electronics and cell timeline; a disabled cell receives no drive
    if config.cell_enabled:
        timeline, triggers_accepted = _drive_cell(d1_times, config, rng_trigger)
    else:
        timeline = CellTimeline(
            np.empty(0, dtype=float), config.pulse_flat, -math.inf, np.empty(0, dtype=float)
        )
        triggers_accepted = 0

    # signal arm: conditional flip, polarizer, detection
    t_arrive = t_emit + config.t_fiber
    if config.cell_enabled:
        flipped = timeline.covers_many(t_arrive)
    else:
        flipped = np.zeros(n_pairs, dtype=bool)
    final_is_v = np.logical_xor(~signal_is_h, flipped)

    p_pass_v = project_polarizer(vertical(), config.polarizer_theta)
    p_pass_h = project_polarizer(horizontal(), config.polarizer_theta)
    p_pass = np.where(final_is_v, p_pass_v, p_pass_h)
    passed = rng_signal.random(n_pairs) < p_pass
    detected = passed & (rng_signal.random(n_pairs) < config.eta_signal)
    d2_photon = t_arrive[detected]

    # signal-arm noise: dark clicks plus unpolarized background light
    dark2 = _sample_poisson_times(rng_d2_noise, config.dark_rate_signal, config.duration)
    bg_times = _sample_poisson_times(
        rng_d2_noise, config.background_rate_signal, config.duration
    )
    bg_passed = rng_d2_noise.random(bg_times.size) < 0.5
    bg_detected = bg_passed & (rng_d2_noise.random(bg_times.size) < config.eta_signal)
    bg_clicks = bg_times[bg_detected]

    d2_times = np.concatenate([d2_photon, dark2, bg_clicks])
    d2_origin = np.concatenate(
        [
            np.zeros(d2_photon.size, dtype=np.int8),
            np.ones(dark2.size, dtype=np.int8),
            np.full(bg_clicks.size, 2, dtype=np.int8),
        ]
    )
    order2 = np.argsort(d2_times, kind="stable")
    d2_times = d2_times[order2]
    d2_origin = d2_origin[order2]
    if config.detector_dead_time_d2 > 0.0:
        keep2 = _dead_time_filter(d2_times, config.detector_dead_time_d2)
        d2_times = d2_times[keep2]
        d2_origin = d2_origin[keep2]

    offset = config.t_fiber if config.coincidence_offset is None else config.coincidence_offset
    coincidences = coincidence_match(
        d1_times, d2_times, config.coincidence_window, offset
    )

    pair_clicks = d1_pair_index[d1_pair_index >= 0]
    idler_detections = int(pair_clicks.size)
    signals_rotated = int(np.count_nonzero(flipped[pair_clicks]))
    rotated_fraction = (
        signals_rotated / idler_detections if idler_detections > 0 else 0.0
    )

    timeline.validate(config.cell_dead_time)

    d1_records = d2_records = None
    if collect_records:
        d1_records = tuple(
            DetectionRecord("D1", float(t), "photon" if p >= 0 else "dark")
            for t, p in zip(d1_times, d1_pair_index)
        )
        origin_names = ("photon", "dark", "background")
        d2_records = tuple(
            DetectionRecord("D2", float(t), origin_names[o])
            for t, o in zip(d2_times, d2_origin)
        )

    return SimulationResult(
        singles_d1=int(d1_times.size),
        singles_d2=int(d2_times.size),
        coincidences=int(coincidences),
        rotated_fraction=rotated_fraction,
        duration=config.duration,
        config=config,
        seed=config.seed,
        pairs_emitted=int(n_pairs),
        idler_detections=idler_detections,
        triggers_accepted=int(triggers_accepted),
        signals_rotated=signals_rotated,
        cell_timeline=timeline,
        d1_records=d1_records,
        d2_records=d2_records,
    )


def _run_many(configs: list[ExperimentConfig], n_workers: int) -> list[SimulationResult]:
    """Run independent point configs, in point order regardless of scheduling.

    At most one worker per config and per usable CPU is started; when that
    leaves one, the configs run serially in this process.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        cpus = os.cpu_count() or 1
    n_workers = min(n_workers, len(configs), cpus)
    if n_workers <= 1:
        return [simulate_run(c) for c in configs]
    # Imported here: the process pool costs start-up time that serial runs
    # never need.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(simulate_run, configs))


def _scan_point(x: float, result: SimulationResult) -> ScanPoint:
    d = result.duration
    return ScanPoint(
        x=x,
        rate_d2=result.singles_d2 / d,
        sigma_d2=poisson_count_sigma(result.singles_d2) / d,
        rate_coincidence=result.coincidences / d,
        sigma_coincidence=poisson_count_sigma(result.coincidences) / d,
        result=result,
    )


def polarizer_scan(
    config: ExperimentConfig,
    thetas: list[PolarizerAngle | float],
    *,
    n_workers: int = 1,
) -> list[ScanPoint]:
    """Measure the D2 singles and coincidence curve over polarizer angles.

    Every point runs with an independent seed derived from the master
    ``config.seed`` and the point index, so the scan is reproducible and
    parallelizes over points (``n_workers``).
    """
    if config.duration <= 0.0:
        raise ConfigError("a scan requires a positive per-point duration")
    values = [_angle_value(t) for t in thetas]
    configs = [
        replace(config, polarizer_theta=v, seed=derive_seed(config.seed, i))
        for i, v in enumerate(values)
    ]
    results = _run_many(configs, n_workers)
    return [_scan_point(v, r) for v, r in zip(values, results)]


def delay_scan(
    config: ExperimentConfig, delays: list[float], *, n_workers: int = 1
) -> list[ScanPoint]:
    """Measure D2 rates against the adjustable trigger delay.

    The signal polarizer stays at ``config.polarizer_theta`` for the whole
    scan.  Per-point seeds follow the same derivation as
    :func:`polarizer_scan`.
    """
    if config.duration <= 0.0:
        raise ConfigError("a scan requires a positive per-point duration")
    for delay in delays:
        if not math.isfinite(delay) or delay < 0.0:
            raise ConfigError(f"trigger delays must be non-negative, got {delay}")
    configs = [
        replace(config, t_electronic=float(delay), seed=derive_seed(config.seed, i))
        for i, delay in enumerate(delays)
    ]
    results = _run_many(configs, n_workers)
    return [_scan_point(float(d), r) for d, r in zip(delays, results)]


def find_rotation_edge(
    config: ExperimentConfig,
    t_low: float,
    t_high: float,
    *,
    tolerance: float = 0.5e-9,
) -> float:
    """Bisect the trigger delay at which the rotated fraction crosses 1/2.

    Requires the effect to be present at ``t_low`` and absent at ``t_high``.
    Every evaluation runs a fresh simulation with a seed derived from the
    master seed and the evaluation index, so the estimate is reproducible.
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
        raise ValueError("rotated fraction does not cross 1/2 inside the bracket")
    lo, hi = float(t_low), float(t_high)
    index = 2
    while hi - lo > tolerance:
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


def trigger_rate_for_failure_fraction(
    fraction: float, busy_time: float, accept_prob: float = 1.0
) -> float:
    """Poisson trigger rate whose steady-state blocked share equals ``fraction``.

    With non-paralyzable blocking, requests at rate r and acceptance
    probability q for live requests leave a live-time share 1/(1 + x) with
    x = r q busy_time, so the blocked share is x / (1 + x).
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError("fraction must lie in [0, 1)")
    if busy_time <= 0.0 or not (0.0 < accept_prob <= 1.0):
        raise ValueError("busy_time must be positive and accept_prob in (0, 1]")
    x = fraction / (1.0 - fraction)
    return x / (busy_time * accept_prob)


def sample_joint_outcomes(
    theta: PolarizerAngle | float, n: int, seed: int
) -> np.ndarray:
    """Monte Carlo joint polarizer outcomes for the phase-averaged source.

    Draws ``n`` pairs, sends the idler through the vertical analyser and the
    signal through a polarizer at ``theta`` (no feed-forward, no detector
    losses) and tallies a (2, 2) table indexed [idler_passes,
    signal_passes].
    """
    if n <= 0:
        raise ValueError("n must be positive")
    theta_value = _angle_value(theta)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    signal_is_h = rng.random(n) < 0.5
    # A vertical idler accompanies a horizontal signal and always passes the
    # vertical analyser; the horizontal idler of the other branch never does.
    idler_passes = signal_is_h
    p_pass = np.where(
        signal_is_h,
        project_polarizer(horizontal(), theta_value),
        project_polarizer(vertical(), theta_value),
    )
    signal_passes = rng.random(n) < p_pass
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


def sampling_soundness(
    theta: PolarizerAngle | float, n: int, seed: int
) -> JointSample:
    """Chi-square comparison of sampled joint outcomes to their exact probabilities.

    The expectation is enumerated by brute-force projector algebra on the
    phase-averaged two-photon state, independently of the sampling shortcut
    used by the event engine.  The statistic is Pearson's sum over the
    cells with non-zero expectation, with one degree of freedom fewer than
    those cells; the observed and expected totals must agree to a relative
    sqrt(machine epsilon).
    """
    theta_value = _angle_value(theta)
    counts = sample_joint_outcomes(theta_value, n, seed)
    expected = joint_polarizer_probabilities(make_mixed_biphoton(), theta_value) * n
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
    return JointSample(theta_value, counts, expected, float(chi2), float(p_value))
