"""The bench stated one event at a time: the tests' reference.

One plain function per stage of the bench, each a sweep over sorted Python
lists with the engine's float expressions, and ``_reference_run``, the
seven counts of a whole run composed from them.  The stage properties of
``test_scans.py`` and the whole-run and matcher properties of
``test_simulation.py`` check the engine against these statements.  The
module imports nothing of the engine but the ``SimulationResult`` record,
so that a defect of the engine cannot reach its own reference.
"""

import math

import numpy as np

from biphoton_feedforward.simulation import SimulationResult


def merge_d1(photons, pairs, darks):
    """D1's clicks in time order, as ``(times, pairs)``: the photon clicks,
    each with its pair index, and the dark clicks, of pair -1.

    Python's sort is stable, so at equal times the photons come first.
    """
    clicks = sorted(zip(photons + darks, pairs + [-1] * len(darks)), key=lambda c: c[0])
    return [t for t, _ in clicks], [pair for _, pair in clicks]


def dead_time_keeps(times, dead_time):
    """Per click, whether a non-paralyzable detector keeps it: ``t >= last kept + dead_time``."""
    keeps, last = [], -math.inf
    for t in times:
        keeps.append(t >= last + dead_time)
        if keeps[-1]:
            last = t
    return keeps


def trigger_lead(config):
    """The time from a trigger request to its window's flat top."""
    return config.t_electronic + config.t0_internal + config.pulse_rise


def drive_cell(times, fails, config):
    """The cell's windows from its trigger requests, as ``(starts, openers, busy_until)``.

    A request during the busy span is discarded; in paralyzable mode it
    also restarts the span.  A live request whose failure coin fired
    (``fails``) opens no window and starts no dead time.  ``openers`` are
    the indices of the requests that opened the windows.
    """
    lead = trigger_lead(config)
    starts, openers, busy = [], [], -math.inf
    for i, (t, fail) in enumerate(zip(times, fails)):
        if t < busy:
            if config.dead_time_mode == "paralyzable":
                busy = max(busy, t + lead + config.cell_dead_time)
        elif not fail:
            starts.append(t + lead)
            openers.append(i)
            busy = starts[-1] + config.cell_dead_time
    return starts, openers, busy


def covered(arrivals, starts, length):
    """Per arrival, whether a flat-top window ``[start, start + length)`` holds it.

    Both lists are sorted.  The windows' ends rise with their starts, so of
    the windows open by an arrival the last holds it if any does; a pointer
    follows that window.
    """
    inside, k = [], -1
    for t in arrivals:
        while k + 1 < len(starts) and starts[k + 1] <= t:
            k += 1
        inside.append(k >= 0 and t < starts[k] + length)
    return inside


def greedy_matches(d1, d2, window, offset):
    """Coincidences of sorted D1 and D2 clicks, each click in at most one.

    Each D1 click in turn takes the earliest D2 click not yet taken in
    ``[t + offset - window / 2, t + offset + window / 2]``.  The bottoms of
    these windows rise with the D1 clicks, so a D2 click below one window is
    below every later one; a pointer passes it once.
    """
    half = window / 2.0
    count = j = 0
    for t in d1:
        target = t + offset
        while j < len(d2) and d2[j] < target - half:
            j += 1
        if j < len(d2) and d2[j] <= target + half:
            count += 1
            j += 1
    return count


def _reference_run(config):
    """The seven counts of a run, from a plain statement of the bench.

    Every substream is drawn at full width in the order of the module
    docstring of :mod:`.simulation`.  A coin of probability 0 or 1 draws
    here too: its outcome is the same, and nothing reads its stream after
    it.  Then the bench runs one event at a time, with the engine's float
    expressions: D1 clicks, their dead time and the cell, then each signal
    photon, then the D2 clicks, their dead time and the greedy matcher.
    """
    c = config
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(c.seed).spawn(6)]
    pairs, d1_dark, trigger, signal, _, d2_noise = rngs

    def uniforms(rng, n):
        return rng.random(n).tolist()

    def poisson_times(rng, rate):
        return sorted(u * c.duration for u in uniforms(rng, int(rng.poisson(rate * c.duration))))

    emitted = poisson_times(pairs, c.pair_rate)
    n = len(emitted)
    signal_is_h = [u < 0.5 for u in uniforms(pairs, n)]
    idler_detected = [u < c.eta_idler for u in uniforms(pairs, n)]
    d1_darks = poisson_times(d1_dark, c.dark_rate_idler)
    signal_u = uniforms(signal, n)
    d2_darks = poisson_times(d2_noise, c.dark_rate_signal)
    background = poisson_times(d2_noise, c.background_rate_signal)
    # half the background passes the polarizer, and D2 detects that share
    bg_u = uniforms(d2_noise, len(background))
    bg_clicks = [t for t, u in zip(background, bg_u) if u < 0.5 * c.eta_signal]

    # D1: the V idler of an H signal, then the dark clicks, then the
    # detector dead time
    idlers = [i for i in range(n) if signal_is_h[i] and idler_detected[i]]
    times, owners = merge_d1([emitted[i] for i in idlers], idlers, d1_darks)
    keeps = dead_time_keeps(times, c.detector_dead_time_d1)
    d1 = [t for t, keep in zip(times, keeps) if keep]
    heralded = {pair for pair, keep in zip(owners, keeps) if keep and pair >= 0}

    # the cell: one failure coin per D1 click
    fails = [u < c.cell_fail_prob for u in uniforms(trigger, len(d1))]
    windows, _, _ = drive_cell(d1, fails, c)

    # each signal photon at the cell, through the polarizer to D2: one coin
    # at the product of the independent pass and detection chances
    s, co = math.sin(c.polarizer_theta), math.cos(c.polarizer_theta)
    p_pass_h, p_pass_v = s * s, co * co
    arrivals = [t + c.t_fiber for t in emitted]
    d2, rotated = [], 0
    for i, flipped in enumerate(covered(arrivals, windows, c.pulse_flat)):
        rotated += flipped and i in heralded
        p_pass = p_pass_h if signal_is_h[i] != flipped else p_pass_v
        if signal_u[i] < p_pass * c.eta_signal:
            d2.append(arrivals[i])
    d2 = sorted(d2 + d2_darks + bg_clicks)
    d2 = [t for t, keep in zip(d2, dead_time_keeps(d2, c.detector_dead_time_d2)) if keep]

    offset = c.t_fiber if c.coincidence_offset is None else c.coincidence_offset
    coincidences = greedy_matches(d1, d2, c.coincidence_window, offset)
    return SimulationResult(
        singles_d1=len(d1), singles_d2=len(d2), coincidences=coincidences, pairs_emitted=n,
        idler_detections=len(heralded), triggers_accepted=len(windows), signals_rotated=rotated,
    )
