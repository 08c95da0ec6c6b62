#!/usr/bin/env python3
"""Mutation check of the test suite; not part of the Tier-1 suite.

A hand row of ``MUTANTS`` names a file, a text that occurs exactly once in
it, the text that replaces it and the tests that must then fail.  The
generated rows flip each ``<``, ``<=``, ``>`` and ``>=`` that one ``ast``
pass finds in the package to its boundary partner (``<`` and ``<=``, ``>``
and ``>=``), one operator token at a time with every other byte kept, and
all of Tier-1 must then fail: a change that adds a comparison to ``src/``
gets its mutant for free.  ``EQUIVALENT`` names, by file, enclosing
function and source text, each generated mutant that no input tells apart
from the original, with its reason; those are not run.

Each row runs on its own copy of the repository, with a fixed hypothesis
seed and the ``mutants`` profile of ``tests/conftest.py`` (no shrinking),
after all of Tier-1 passes once on an unchanged copy.  pytest stops at the
first failure, and one pytest cache outside the copies, kept for the whole
run, lets ``--ff`` run the tests that failed at earlier rows first: a
mutant is mostly killed by a test that killed its neighbour.  Every run
deselects ``test_mutant_table_resolves``: it compares the table with the
tree, which ``resolve()`` has done before any row runs, and it fails on any
mutant that edits a hand row's text, so it would count such a mutant as
killed with no behavioural test failing.  Prints a line per row with the
first failing test that pytest reports, then the kill ratio, the number
skipped as equivalent and the time.
Exits 1 on a survivor or when pytest cannot run, and before any run when a
hand row's text does not occur exactly once or an ``EQUIVALENT`` entry
names no mutant or several.  A survivor needs a test that fails at it,
never a looser check.

Usage: python3 scripts/mutants.py
"""

import ast
import bisect
import itertools
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from compare import COPY_IGNORE, _env

ROOT = Path(__file__).resolve().parent.parent
HYPOTHESIS_SEED = 0
TIMEOUT_S = 300

SIM = "src/biphoton_feedforward/simulation.py"
MODEL = "src/biphoton_feedforward/analysis.py"
CLI = "src/biphoton_feedforward/cli.py"
POL = "src/biphoton_feedforward/polarization.py"
PACKAGE = "src/biphoton_feedforward"
T_SIM = "tests/test_simulation.py"
T_SCANS = "tests/test_scans.py"
T_MODEL = "tests/test_analysis.py"
T_ACCEPT = "tests/test_acceptance.py"
T_CLI = "tests/test_cli.py"
T_POL = "tests/test_polarization.py"
TABLE_TEST = f"{T_CLI}::test_mutant_table_resolves"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # dead-time filter and the two detector stages
    Mutant(
        "_trigger_arm: D1 dead time not carried across blocks",
        SIM,
        "keep = _dead_time_filter(d1_times, config.detector_dead_time_d1, run.last_d1)",
        "keep = _dead_time_filter(d1_times, config.detector_dead_time_d1)",
        (f"{T_SIM}::test_run_equals_the_reference_bench",),
    ),
    Mutant(
        "_d2_arm: D2 dead time not carried across blocks",
        SIM,
        "_dead_time_filter(d2_times, config.detector_dead_time_d2, run.last_d2)",
        "_dead_time_filter(d2_times, config.detector_dead_time_d2)",
        (f"{T_SIM}::test_run_equals_the_reference_bench",),
    ),
    Mutant(
        "_merge_dark_clicks: a dark click goes before a photon at its time",
        SIM,
        'at = np.searchsorted(photon_times, dark_times, side="right")',
        'at = np.searchsorted(photon_times, dark_times, side="left")',
        (f"{T_SCANS}::test_merge_dark_clicks_equals_stable_sort",),
    ),
    Mutant(
        "_d2_arm: the background coin skips the D2 efficiency",
        SIM,
        "_coins(run.rng_d2_noise, bg_stop, 0.5 * config.eta_signal)",
        "_coins(run.rng_d2_noise, bg_stop, 0.5)",
        (f"{T_SIM}::test_engine_meets_the_model[zero-pairs-eta-s-0.8]",),
    ),
    # the cell drive, both modes
    Mutant(
        "_drive_cell, non-paralyzable: the dead time runs from the click, not the window start",
        SIM,
        "held_ends = held_starts + config.cell_dead_time",
        "held_ends = click_times[held] + config.cell_dead_time",
        (f"{T_SCANS}::test_drive_cell_equals_reference",),
    ),
    Mutant(
        "_drive_cell, non-paralyzable: the span is set by the request before the last accepted",
        SIM,
        "busy = float(held_ends[kept[-1]]) if kept.size",
        "busy = float(held_ends[kept[-1] - 1]) if kept.size",
        (f"{T_SCANS}::test_drive_cell_hand_built_chain",),
    ),
    # the signal arm: the cell windows' arrivals, the Malus pair and the D2 efficiency
    Mutant(
        "covers_many: the windows that fail the check are not searched",
        SIM,
        "starts, ends = starts[rest], ends[rest]",
        "starts, ends = starts[:0], ends[:0]",
        (f"{T_SCANS}::test_covers_many_equals_reference",),
    ),
    Mutant(
        "_signal_arm: the H and V click chances swapped",
        SIM,
        "run.p_click_h, final_is_h, run.p_click_v)",
        "run.p_click_v, final_is_h, run.p_click_h)",
        (f"{T_SIM}::test_engine_meets_the_model[fringe-eta-s-1.0-theta-0deg]",),
    ),
    Mutant(
        "simulate_run: the signal coin skips the D2 efficiency",
        SIM,
        "*(p * config.eta_signal for p in _malus(config.polarizer_theta)),",
        "*_malus(config.polarizer_theta),",
        (f"{T_SIM}::test_engine_meets_the_model[fringe-eta-s-0.3-theta-0deg]",),
    ),
    Mutant(
        "_coins: the second threshold applies where the first does",
        SIM,
        "((u < p_else) & ~where)",
        "((u < p_else) & where)",
        (f"{T_SCANS}::test_block_drawn_coins_equal_one_draw",),
    ),
    Mutant(
        "_malus: sin and cos swapped",
        SIM,
        "return s * s, c * c",
        "return c * c, s * s",
        (f"{T_SIM}::test_malus_pair_equals_the_projection_on_a_grid",),
    ),
    Mutant(
        "_malus: V transmission as s * c",
        SIM,
        "return s * s, c * c",
        "return s * s, s * c",
        (f"{T_SIM}::test_malus_pair_equals_the_projection_on_a_grid",),
    ),
    Mutant(
        "_trigger_arm: the idler of an H signal is H, not V",
        SIM,
        "idler_detected &= signal_is_h",
        "idler_detected &= ~signal_is_h",
        (f"{T_SIM}::test_engine_meets_the_model[fringe-eta-s-1.0-theta-0deg]",),
    ),
    # the matcher and its cut
    Mutant(
        "coincidence_match: a cluster click may take a D2 click already matched",
        SIM,
        "j = max(j, first)",
        "j = first",
        (f"{T_SCANS}::test_coincidence_match_equals_reference",),
    ),
    Mutant(
        "coincidence_match: the window's lower bound excluded (_rank_left: values sort before equal keys)",
        SIM,
        "bits[keys.size :] |= 1\n    bits.sort(kind=\"stable\")\n    bits &= 1\n"
        "    rank = np.flatnonzero(bits == 0)",
        "bits[: keys.size] |= 1\n    bits.sort(kind=\"stable\")\n    bits &= 1\n"
        "    rank = np.flatnonzero(bits == 1)",
        (f"{T_SIM}::test_matcher_window_edges", f"{T_SCANS}::test_rank_left_equals_searchsorted"),
    ),
    Mutant(
        "coincidence_match: hi takes lo + 1 without checking the second candidate",
        SIM,
        'below &= np.take(values, rank, mode="clip") <= keys',
        "below &= False",
        (f"{T_SCANS}::test_covers_many_and_rank_right_from_equal_the_search",),
    ),
    Mutant(
        "_rank_left shifts the int64 view",
        SIM,
        "bits = np.concatenate([keys, values]).view(np.uint64)",
        "bits = np.concatenate([keys, values]).view(np.int64)",
        (f"{T_SCANS}::test_rank_left_equals_searchsorted",),
    ),
    Mutant(
        "_rank_left merges negative keys",
        SIM,
        "or keys[0] < 0.0 or values[0] < 0.0:",
        "or values[0] < 0.0:",
        (f"{T_SCANS}::test_rank_left_equals_searchsorted",),
    ),
    # the analytic model
    Mutant(
        "cell_busy_time: the trigger lead is dropped",
        MODEL,
        "return trigger_lead(config) + config.cell_dead_time",
        "return config.cell_dead_time",
        (f"{T_MODEL}::test_cell_busy_time_is_the_trigger_lead_plus_the_dead_time",),
    ),
    Mutant(
        "trigger_share, non-paralyzable: q / (1 + x), not q / (1 + q x)",
        MODEL,
        "return (1.0 - f) / (1.0 + (1.0 - f) * x)",
        "return (1.0 - f) / (1.0 + x)",
        (f"{T_ACCEPT}::test_criterion_3_raw_and_corrected_visibility",),
    ),
    Mutant(
        "trigger_share, paralyzable: failed requests do not restart the span",
        MODEL,
        "return (1.0 - f) * math.exp(-x) / (1.0 - f * (1.0 - math.exp(-x)))",
        "return (1.0 - f) * math.exp(-x)",
        (f"{T_MODEL}::test_paralyzable_trigger_share_by_hand",),
    ),
    Mutant(
        "detector_survival: 1 - r tau, not 1 / (1 + r tau)",
        MODEL,
        "return 1.0 / (1.0 + rate * dead_time)",
        "return 1.0 - rate * dead_time",
        (f"{T_SIM}::test_engine_meets_the_model[dead-time-5us-5us]",),
    ),
    Mutant(
        "_d2_noise_rate: background passes the polarizer with 1, not 1/2",
        MODEL,
        "+ config.background_rate_signal * 0.5 * config.eta_signal",
        "+ config.background_rate_signal * 1.0 * config.eta_signal",
        (f"{T_ACCEPT}::test_criterion_3_raw_and_corrected_visibility",),
    ),
    # expected_counts, one channel dropped at a time
    Mutant(
        "expected_counts: no trigger blocking",
        MODEL,
        "rho = trigger_share(config, m1)",
        "rho = trigger_share(config, 0.0)",
        (f"{T_MODEL}::test_committed_curves_meet_the_model[fig2]",),
    ),
    Mutant(
        "expected_counts: the flat tops cover no stray signal",
        MODEL,
        "c = m1 * rho * config.pulse_flat",
        "c = 0.0",
        (f"{T_SIM}::test_engine_meets_the_model[coverage-theta-0deg]",),
    ),
    Mutant(
        "_d2_noise_rate: no background",
        MODEL,
        "+ config.background_rate_signal * 0.5 * config.eta_signal",
        "",
        (
            f"{T_MODEL}::test_committed_curves_meet_the_model[fig2]",
            f"{T_SIM}::test_engine_meets_the_model[background]",
        ),
    ),
    Mutant(
        "trigger_share, non-paralyzable: a failed trigger still rotates",
        MODEL,
        "return (1.0 - f) / (1.0 + (1.0 - f) * x)",
        "return 1.0 / (1.0 + (1.0 - f) * x)",
        (f"{T_SIM}::test_engine_meets_the_model[failures-nonparalyzable]",),
    ),
    Mutant(
        "trigger_share, paralyzable: a failed trigger still rotates",
        MODEL,
        "return (1.0 - f) * math.exp(-x) / (",
        "return math.exp(-x) / (",
        (f"{T_SIM}::test_engine_meets_the_model[failures-paralyzable]",),
    ),
    Mutant(
        "visibility_steps: the cell step forgets the failures",
        MODEL,
        '("v_cell_corrected", 1.0 - config.cell_fail_prob, 0.0)',
        '("v_cell_corrected", 1.0, 0.0)',
        (f"{T_MODEL}::test_visibility_steps_are_the_model_factors",),
    ),
    Mutant(
        "correct_visibility: factor sigmas add linearly, not in quadrature",
        MODEL,
        "relative += (factor_sigma / factor) ** 2",
        "relative += factor_sigma / factor",
        (f"{T_MODEL}::test_factor_sigmas_widen_the_corrected_sigma_in_quadrature",),
    ),
    # the scan's curve rows
    Mutant(
        "curve_rows: the singles sigma from the coincidence count",
        MODEL,
        "poisson_count_sigma(run.singles_d2) / d",
        "poisson_count_sigma(run.coincidences) / d",
        (f"{T_MODEL}::test_curve_rows_are_rates_and_poisson_sigmas",),
    ),
    Mutant(
        "curve_rows: the coincidence rate not divided by the duration",
        MODEL,
        "run.coincidences / d,",
        "run.coincidences,",
        (f"{T_MODEL}::test_curve_rows_are_rates_and_poisson_sigmas",),
    ),
    # the cell timeline's check, a run's counts, the seed check, a command's seeds
    # and its scan
    Mutant(
        "CellTimeline.validate drops the dead-time bound",
        SIM,
        "if closest < cell_dead_time - slack:",
        "if False:",
        (f"{T_SIM}::test_timeline_validation_catches_overlap",),
    ),
    Mutant(
        "CellTimeline.validate drops the fewer-than-two-windows return",
        SIM,
        "if self.window_starts.size < 2:\n            return\n",
        "",
        (f"{T_SIM}::test_timeline_validation_catches_overlap",),
    ),
    Mutant(
        "SimulationResult.rotated_fraction: no detected idler divides by zero",
        SIM,
        "max(self.idler_detections, 1)",
        "max(self.idler_detections, 0)",
        (f"{T_SIM}::test_result_is_its_seven_counts",),
    ),
    Mutant(
        "ExperimentConfig: the seed check refuses only bools and fractional floats, as before",
        SIM,
        "if not _is_integral(self.seed):",
        "if isinstance(self.seed, (bool, np.bool_)) or (\n"
        "            isinstance(self.seed, (float, np.floating)) and not float(self.seed).is_integer()\n"
        "        ):",
        (f"{T_SIM}::test_config_validation",),
    ),
    Mutant(
        "child_config: every run of a command takes the command's seed",
        SIM,
        "seed=derive_seed(config.seed, label))",
        "seed=config.seed)",
        (f"{T_SIM}::test_scan_points_have_distinct_seeds",),
    ),
    Mutant(
        "scan: point i takes the seed of point i + 1",
        SIM,
        "child_config(config, i, **{field: float(x)})",
        "child_config(config, i + 1, **{field: float(x)})",
        (f"{T_SIM}::test_scan_point_is_the_run_of_its_child_config",),
    ),
    Mutant(
        "scan builds each config only as its point runs",
        SIM,
        "configs = [child_config(config, i, **{field: float(x)}) for i, x in enumerate(xs)]",
        "configs = (child_config(config, i, **{field: float(x)}) for i, x in enumerate(xs))",
        (f"{T_SIM}::test_scan_refuses_before_any_draw",),
    ),
    # the fit
    Mutant(
        "fit_visibility: the phase is the full atan2 angle",
        MODEL,
        "theta0 = 0.5 * math.atan2(c, b)",
        "theta0 = math.atan2(c, b)",
        (f"{T_MODEL}::test_exact_recovery_of_noiseless_curve",),
    ),
    Mutant(
        "fit_visibility: reduced chi-square over n - 2 degrees of freedom",
        MODEL,
        "return CurveFit(a, visibility, theta0, covariance, chi2 / (len(points) - 3))",
        "return CurveFit(a, visibility, theta0, covariance, chi2 / (len(points) - 2))",
        (f"{T_MODEL}::test_fit_matches_numpy_least_squares",),
    ),
    Mutant(
        "fit_visibility: the normal equations' overflow guard removed",
        MODEL,
        "    except (OverflowError, ValueError):\n"
        "        finite = False\n"
        "    if not finite:\n"
        '        raise FitError("the weighted normal equations overflow; the sigmas are too small")\n',
        "    except ZeroDivisionError:\n"
        "        pass\n",
        (
            f"{T_CLI}::test_cli_exit[overflowing-scan]",
            f"{T_CLI}::test_cli_exit[overflowing-weights]",
        ),
    ),
    Mutant(
        "fit_visibility: an overflowing chi-square is not caught",
        MODEL,
        "    except OverflowError:\n        raise FitError(\"the weighted residuals",
        "    except ZeroDivisionError:\n        raise FitError(\"the weighted residuals",
        (f"{T_CLI}::test_cli_exit[overflowing-residuals]",),
    ),
    Mutant(
        "_cmd_analyze_fit: the fit sections printed before a failed singles fit exits 4",
        CLI,
        "    if isinstance(singles, FitError):\n"
        "        raise singles\n"
        '    print("\\n".join(render_sections(sections)))\n',
        '    print("\\n".join(render_sections(sections)))\n'
        "    if isinstance(singles, FitError):\n"
        "        raise singles\n",
        (
            f"{T_CLI}::test_cli_exit[overflowing-weights]",
            f"{T_CLI}::test_cli_exit[overflowing-residuals]",
        ),
    ),
    # the property oracle
    Mutant(
        "_chi2_sf: the df-3 tail adds sqrt(x / pi) exp(-x / 2)",
        SIM,
        "tail += math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)",
        "tail += math.sqrt(x / math.pi) * math.exp(-0.5 * x)",
        (f"{T_SIM}::test_chi2_sf_reference_points",),
    ),
    Mutant(
        "sampling_soundness: a cell at rounding level counts as one that can fill",
        SIM,
        "empty = probs.ravel() <= ATOL",
        "empty = probs.ravel() <= 0.0",
        (f"{T_SIM}::test_sampling_soundness_pearson_sum_skips_cells_that_cannot_fill",),
    ),
    # the density-matrix core: the feed-forward channel, the degree of polarization
    # and the oracle's table
    Mutant(
        "feedforward: a V idler that D1 misses drops out of the signal",
        POL,
        "blocked + missed + eta * p_v * rotated.matrix",
        "blocked + eta * p_v * rotated.matrix",
        (
            f"{T_POL}::test_feedforward_state_frozen_matrix",
            f"{T_ACCEPT}::test_criterion_1_purification_law_exact",
        ),
    ),
    Mutant(
        "feedforward: the cell rotates by pi/4, not pi/2",
        POL,
        "rotated = apply_rotation(given_v, math.pi / 2.0)",
        "rotated = apply_rotation(given_v, math.pi / 4.0)",
        (f"{T_POL}::test_feedforward_state_frozen_matrix",),
    ),
    Mutant(
        "degree_of_polarization drops the H-V coherence",
        POL,
        "return math.sqrt(s1**2 + s2**2 + s3**2)",
        "return math.sqrt(s1**2)",
        (f"{T_POL}::test_degree_of_polarization_is_the_eigenvalue_gap",),
    ),
    Mutant(
        "joint_polarizer_probabilities: the idler analyser passes H",
        POL,
        "idler_pass = np.diag([0.0, 1.0]).astype(np.complex128)",
        "idler_pass = np.diag([1.0, 0.0]).astype(np.complex128)",
        (f"{T_POL}::test_joint_probabilities_frozen_at_30_degrees",),
    ),
    # the wiring between the stages: what each stage hands the next, which
    # no kernel test sees; the whole-run reference bench must catch it
    Mutant(
        "_signal_arm: the cell windows meet the emission time, not the arrival",
        SIM,
        "flipped = run.cell.covers_many(arrivals, run.cell.window_pairs - settled)",
        "flipped = run.cell.covers_many(\n"
        "        arrivals - run.config.t_fiber, run.cell.window_pairs - settled\n    )",
        (f"{T_SIM}::test_run_equals_the_reference_bench",),
    ),
    Mutant(
        "_match_cut: the matcher's offset ignores coincidence_offset",
        SIM,
        "offset = config.t_fiber if config.coincidence_offset is None else config.coincidence_offset",
        "offset = config.t_fiber",
        (f"{T_SIM}::test_run_equals_the_reference_bench",),
    ),
    Mutant(
        "_trigger_arm: D1 dark clicks do not reach the cell",
        SIM,
        "run.cell, accepted = _drive_cell(d1_times, d1_pairs, fails, config, run.cell)",
        "photon = d1_pairs >= 0\n"
        "    run.cell, accepted = _drive_cell(\n"
        "        d1_times[photon], d1_pairs[photon], fails[photon], config, run.cell\n    )",
        (f"{T_SIM}::test_run_equals_the_reference_bench",),
    ),
    Mutant(
        "_match_cut: the D2 clicks kept past a block edge ignore the offset",
        SIM,
        "bottoms[-1] = (edge + offset) - half",
        "bottoms[-1] = edge - half",
        (f"{T_SIM}::test_run_equals_the_reference_bench",),
    ),
    Mutant(
        "_signal_arm: every flipped signal counts as rotated, heralded or not",
        SIM,
        "run.signals_rotated += int(np.count_nonzero(flipped[run.rotatable[:done] - settled]))",
        "run.signals_rotated += int(np.count_nonzero(flipped))",
        (f"{T_SIM}::test_run_equals_the_reference_bench",),
    ),
    # an idle cell is cell_fail_prob = 1, the one config the oracle enumerates
    Mutant(
        "_check_enumerable accepts a cell_fail_prob below 1",
        SIM,
        '"cell_fail_prob": 1.0, ',
        "",
        (f"{T_CLI}::test_cli_property_oracle_refuses_what_it_cannot_predict[cell]",),
    ),
    # a scenario's sweep: scan_values or a complete range, stated once
    Mutant(
        "build_scenario: scan_values wins over a scan range beside it",
        CLI,
        "range_keys = [k for k in _RANGE_KEYS if k in extras]",
        "range_keys = []",
        (
            f"{T_CLI}::test_cli_exit[two-sweeps-full-range]",
            f"{T_CLI}::test_cli_exit[two-sweeps-partial-range]",
        ),
    ),
    Mutant(
        "build_scenario: a file without a sweep gets a default range",
        CLI,
        "        if missing:\n",
        "        if not range_keys:\n"
        '            extras = {**extras, "scan_start": "0", "scan_stop": "1", "scan_points": "13"}\n'
        "        elif missing:\n",
        (
            f"{T_CLI}::test_cli_exit[no-sweep-polarizer-scan]",
            f"{T_CLI}::test_cli_exit[no-sweep-delay-scan]",
            f"{T_CLI}::test_cli_exit[no-sweep-calibrate]",
            f"{T_CLI}::test_cli_exit[no-sweep-property-oracle]",
        ),
    ),
    Mutant(
        "build_scenario: the sweep's values reach the scan unchecked",
        CLI,
        "    for value in (min(sweep), max(sweep)):\n"
        "        replace(config, **{field: value})\n",
        "",
        (
            f"{T_CLI}::test_cli_exit[negative-delay-values]",
            f"{T_CLI}::test_cli_exit[negative-delay-range]",
        ),
    ),
    # an input file that is not a bounded regular file
    Mutant(
        "_read_ascii reads a FIFO or a device",
        CLI,
        "        if not stat.S_ISREG(os.fstat(fd).st_mode):\n",
        "        if False:\n",
        (f"{T_CLI}::test_cli_exit[fifo-config]", f"{T_CLI}::test_cli_exit[device-curve]"),
    ),
    # the canned scenarios
    Mutant(
        "GOLDEN_COMMANDS drops the oracle",
        CLI,
        '    ("oracle", ("simulate", "property-oracle")),\n',
        "",
        (
            f"{T_CLI}::test_golden_commands_name_every_scenario_once",
            f"{T_CLI}::test_reproduce_figures_script_matches_committed_results",
        ),
    ),
    Mutant(
        "fig4.cfg reads its analyser from horizontal, as before its reference line went",
        "scenarios/fig4.cfg",
        "polarizer_theta = 0 deg",
        "polarizer_theta = 90 deg",
        (f"{T_ACCEPT}::test_criterion_8_byte_identical_reruns",),
    ),
)


# The generated rows: each `<`, `<=`, `>` and `>=` of the package flipped in turn
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


class Row(NamedTuple):
    name: str
    path: str
    mutated: str
    tests: tuple[str, ...]  # a generated row's are empty: all of Tier-1


class Equivalent(NamedTuple):
    """A generated mutant not run, and why; ``line`` (stripped) only where ``text`` recurs."""

    path: str
    function: str
    text: str
    reason: str
    line: str = ""


_COIN = "u == p, for a fractional p, has probability 2**-53 per draw of rng.random"
_NO_DEAD_TIME = "a zero dead time keeps every click of a sorted stream, filtered or not"
_FIRST_ZERO = "a first element of 0.0 goes to np.searchsorted, which ranks as the merge does"
EQUIVALENT = (
    Equivalent(SIM, "_coins", "u < p", _COIN, "return u < p"),
    Equivalent(SIM, "_coins", "u < p", _COIN, "return ((u < p) & where) | ((u < p_else) & ~where)"),
    Equivalent(SIM, "_coins", "u < p_else", _COIN),
    Equivalent(SIM, "_trigger_arm", "config.detector_dead_time_d1 > 0.0", _NO_DEAD_TIME),
    Equivalent(SIM, "_d2_arm", "config.detector_dead_time_d2 > 0.0", _NO_DEAD_TIME),
    Equivalent(SIM, "_rank_left", "keys[0] < 0.0", _FIRST_ZERO),
    Equivalent(SIM, "_rank_left", "values[0] < 0.0", _FIRST_ZERO),
    Equivalent(SIM, "CellTimeline.covers_many", "times.size >= 3",
               "three arrivals skip the sole-arrival pass; the search marks the same ones"),
    Equivalent(SIM, "coincidence_match", "hi[:-1] > lo[1:]",
               "a click with hi[i-1] == lo[i] is replayed, and finds the pointer at lo[i] anyway"),
    Equivalent(SIM, "_signal_arm", "gone > 0", "gone = 0 keeps the timeline's windows as they are"),
    # rounding tolerances, met exactly only by an input tuned to a platform's last bit
    Equivalent(SIM, "sampling_soundness", "probs.ravel() <= ATOL",
               "a joint probability is 1e-12 exactly only at an angle tuned to cos's last bit"),
    Equivalent(MODEL, "fit_visibility", "high / low <= 1e12",
               "a design's eigenvalue ratio is 1e12 exactly only for angles tuned to the last bit"),
    Equivalent(POL, "_DensityMatrix.__post_init__", "abs(trace - 1.0) > dim * ATOL",
               "dim * ATOL is no multiple of 2**-53: only a trace tuned through hypot meets it"),
)


def _generated(path: str) -> list[tuple[tuple[str, str, str, str], Row]]:
    """Each flip in ``path`` as a row, keyed by (path, function, text, line)."""
    source = (ROOT / path).read_bytes()
    starts = [0, *itertools.accumulate(map(len, source.splitlines(keepends=True)))]
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) not in FLIPS:
                    continue
                old, new = FLIPS[type(op)]
                first, last = (starts[left.lineno - 1] + left.col_offset,
                               starts[right.end_lineno - 1] + right.end_col_offset)
                # the token lies between the operands, among spaces and parentheses
                at = source.index(old.encode(), starts[left.end_lineno - 1] + left.end_col_offset,
                                  starts[right.lineno - 1] + right.col_offset)
                text = " ".join(source[first:last].decode().split())
                lineno = bisect.bisect(starts, at)
                name = f"{Path(path).name}:{lineno} {scope}: {text}, {old} -> {new}"
                mutated = source[:at] + new.encode() + source[at + len(old) :]
                line = source[starts[lineno - 1] : starts[lineno]].decode().strip()
                found.append(((path, scope, text, line), Row(name, path, mutated.decode(), ())))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def resolve() -> tuple[list[Row], int, list[str]]:
    """The rows to run, the number of generated mutants skipped as equivalent,
    and each stale entry: a hand row whose text does not occur exactly once,
    an ``EQUIVALENT`` entry that names no generated mutant or several."""
    rows, stale = [], []
    for m in MUTANTS:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        if (count := text.count(m.old)) != 1:
            stale.append(f"{m.name}: its text occurs {count} times in {m.path}, not once")
        rows.append(Row(m.name, m.path, text.replace(m.old, m.new), m.tests))
    paths = sorted(f"{PACKAGE}/{p.name}" for p in (ROOT / PACKAGE).glob("*.py"))
    sites = [site for path in paths for site in _generated(path)]
    skipped = set()
    for e in EQUIVALENT:
        named = {i for i, (k, _) in enumerate(sites) if k[:3] == e[:3] and e.line in ("", k[3])}
        if len(named) != 1:
            stale.append(f"EQUIVALENT {e.function}: {e.text!r} names {len(named)} mutants, not one")
        skipped |= named
    rows += [row for i, (_, row) in enumerate(sites) if i not in skipped]
    return rows, len(skipped), stale


def _copy(dest: Path) -> Path:
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
    return tree


def _pytest(tree: Path, tests: tuple[str, ...], cache: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "--ff", "-o", f"cache_dir={cache}",
         f"--deselect={TABLE_TEST}", "--continue-on-collection-errors",
         f"--hypothesis-seed={HYPOTHESIS_SEED}", "--hypothesis-profile=mutants", *tests],
        cwd=tree, env=_env(tree), capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def _run(row: Row, cache: Path) -> tuple[str, str]:
    """'killed', 'survived' or 'error', and the first test pytest reports failing,
    for one row on its own copy."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = _copy(Path(tmp))
        (tree / row.path).write_text(row.mutated, encoding="utf-8")
        try:
            proc = _pytest(tree, row.tests, cache)
        except subprocess.TimeoutExpired:
            return "error", "timeout"
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    # pytest exits 1 when a test failed; other codes mean it could not run them
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), (failed or [""])[0]


def main() -> int:
    rows, skipped, stale = resolve()
    if stale:
        print("\n".join(stale))
        return 1
    start = time.perf_counter()
    # one pytest cache for the whole run, so --ff runs the last killers first
    with tempfile.TemporaryDirectory() as cache:
        with tempfile.TemporaryDirectory() as tmp:
            proc = _pytest(_copy(Path(tmp)), (), Path(cache))
        if proc.returncode != 0:
            print("Tier-1 fails on the unchanged tree:\n" + proc.stdout[-3000:])
            return 1
        print(f"baseline: Tier-1 passes unchanged ({time.perf_counter() - start:.1f} s)")
        outcomes = []
        for row in rows:
            began = time.perf_counter()
            outcome, first = _run(row, Path(cache))
            outcomes.append(outcome)
            print(f"{outcome:8} {time.perf_counter() - began:5.1f} s  {row.name}  [{first}]",
                  flush=True)
    killed = outcomes.count("killed")
    print(f"kill ratio {killed}/{len(rows)}, {skipped} generated mutants skipped as equivalent, "
          f"in {time.perf_counter() - start:.0f} s (hypothesis seed {HYPOTHESIS_SEED})")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
