"""Fit, correction and calibration arithmetic checks.

The harmonic fitter is validated against noiseless closed-form curves
(recovery to 1e-10), against frozen hand-computed corrections, and with a
statistical coverage test on Poisson-noised data.
"""

import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biphoton_feedforward.analysis import (
    ETA_BRACKET,
    ConfigError,
    CurveFit,
    CurvePoint,
    DataError,
    FitError,
    InconsistencyError,
    ValueWithError,
    _symmetric_eigenvalues,
    accidental_coincidences,
    cell_busy_time,
    check_model_rises,
    correct_visibility,
    curve_rows,
    detector_survival,
    expected_background_fraction,
    expected_counts,
    fit_visibility,
    invert_eta,
    klyshko_efficiency,
    klyshko_ratio,
    pearson_chi2,
    poisson_count_sigma,
    singles_visibility,
    trigger_lead,
    trigger_share,
    visibility_steps,
)
from biphoton_feedforward.cli import load_config_file, read_curve_file
from biphoton_feedforward.simulation import ExperimentConfig


def _curve(a, v, theta0, thetas, sigma=1.0):
    return [
        CurvePoint(t, a * (1.0 + v * math.cos(2.0 * (t - theta0))), sigma)
        for t in thetas
    ]


THETAS_13 = [k * math.pi / 13.0 for k in range(13)]
ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# exact recovery and frozen oracles


def test_exact_recovery_of_noiseless_curve():
    fit = fit_visibility(_curve(1000.0, 0.476, 0.2, THETAS_13))
    assert abs(fit.mean_a - 1000.0) <= 1e-9
    assert abs(fit.visibility_v - 0.476) <= 1e-10
    assert abs(fit.phase_theta0 - 0.2) <= 1e-10
    assert fit.chi2_reduced <= 1e-12


def test_exact_recovery_flat_curve():
    fit = fit_visibility(_curve(500.0, 0.0, 0.0, THETAS_13))
    assert abs(fit.mean_a - 500.0) <= 1e-9
    assert abs(fit.visibility_v) <= 1e-12
    assert fit.sigma_visibility > 0.0


def test_reparameterization_invariance():
    base = fit_visibility(_curve(800.0, 0.3, 0.1, THETAS_13))
    shift = 0.37
    shifted = fit_visibility(
        _curve(800.0, 0.3, 0.1 + shift, [t + shift for t in THETAS_13])
    )
    assert abs(shifted.mean_a - base.mean_a) <= 1e-8
    assert abs(shifted.visibility_v - base.visibility_v) <= 1e-10
    d = (shifted.phase_theta0 - base.phase_theta0 - shift) % math.pi
    assert min(d, math.pi - d) <= 1e-10


def test_fit_scale_invariance():
    # multiplying every rate and sigma by k scales A by k and leaves the
    # dimensionless V and theta0 untouched
    base = fit_visibility(_curve(1000.0, 0.476, 0.2, THETAS_13, sigma=2.0))
    k = 7.5
    scaled = fit_visibility(
        [CurvePoint(p.theta, k * p.rate, k * p.sigma) for p in
         _curve(1000.0, 0.476, 0.2, THETAS_13, sigma=2.0)]
    )
    assert abs(scaled.mean_a - k * base.mean_a) <= 1e-6
    assert abs(scaled.visibility_v - base.visibility_v) <= 1e-12
    assert abs(scaled.phase_theta0 - base.phase_theta0) <= 1e-12
    assert abs(scaled.sigma_visibility - base.sigma_visibility) <= 1e-12


def _dilutions(b, f):
    """The two steps of :func:`visibility_steps` for a background share b and a failure share f."""
    return [("v_background_corrected", 1.0 - b), ("v_cell_corrected", 1.0 - f)]


def _corrected(v_raw, sigma_raw, b, f):
    """The last row of the fold: V / ((1 - b)(1 - f))."""
    return correct_visibility(v_raw, sigma_raw, _dilutions(b, f))[-1][1]


def test_visibility_correction_frozen_value():
    # 0.30 / ((1 - 0.2) * (1 - 0.15)) = 0.30 / 0.68 = 0.44117647058823529
    corrected = _corrected(0.30, 0.0, 0.2, 0.15)
    assert abs(corrected.value - 0.44117647058823529) <= 1e-15
    assert corrected.sigma == 0.0


def test_correction_rejects_unphysical_result():
    with pytest.raises(InconsistencyError):
        _corrected(0.9, 0.001, 0.2, 0.15)  # 0.9 / 0.68 = 1.32


def test_correction_rows_follow_the_steps():
    # each row divides by the running product: 0.30 / 0.8, then 0.30 / 0.68
    rows = correct_visibility(0.30, 0.012, _dilutions(0.2, 0.15))
    assert [name for name, _ in rows] == ["v_background_corrected", "v_cell_corrected"]
    assert rows[0][1] == ValueWithError(0.30 / 0.8, 0.012 / 0.8)
    assert rows[1][1] == ValueWithError(0.30 / (0.8 * 0.85), 0.012 / (0.8 * 0.85))
    assert correct_visibility(0.30, 0.012, []) == []


@pytest.mark.parametrize("factor", [1.25, 1.0 + 2.0**-52, 0.0, -0.5])
def test_correction_refuses_a_factor_outside_zero_to_one(factor):
    # a factor above 1 would lower the visibility; one at or below 0 cannot divide
    steps = [("v_background_corrected", 0.9), ("v_step", factor)]
    with pytest.raises(InconsistencyError, match="v_step"):
        correct_visibility(0.30, 0.01, steps)


def test_visibility_steps_are_the_model_factors():
    # fig2: background 20% of the mean D2 counts, 15% cell failures
    config = ExperimentConfig(pair_rate=1e4, background_rate_signal=2.5e3, cell_fail_prob=0.15)
    (bg_name, bg), (cell_name, cell) = visibility_steps(config)
    assert (bg_name, cell_name) == ("v_background_corrected", "v_cell_corrected")
    assert bg == 1.0 - expected_background_fraction(config) == pytest.approx(0.8)
    assert cell == 1.0 - 0.15
    # a noiseless bench divides by exactly 1, so calib keeps its bytes
    assert [factor for _, factor in visibility_steps(ExperimentConfig())] == [1.0, 1.0]


def test_klyshko_frozen_arithmetic():
    result = klyshko_efficiency(4760, 10000)
    assert result.value == 0.476
    # conditional binomial error on p = C / S2
    var = 0.476 * (1.0 - 0.476) / 10000
    assert abs(result.sigma - math.sqrt(var)) <= 1e-15


def test_klyshko_simple_ratios():
    zero = klyshko_efficiency(0, 1000)
    assert zero.value == 0.0
    assert zero.sigma > 0.0  # one count of error keeps it finite at p = 0
    assert klyshko_efficiency(1000, 1000).sigma > 0.0  # and at p = 1


def test_klyshko_error_paths():
    with pytest.raises(DataError):
        klyshko_efficiency(10, 0)
    with pytest.raises(DataError):
        klyshko_efficiency(0, 0)  # no singles, no ratio
    with pytest.raises(DataError):
        klyshko_efficiency(101, 100)  # more coincidences than singles


def test_accidental_coincidences_formula():
    assert accidental_coincidences(1000.0, 2000.0, 3e-9, 10.0) == pytest.approx(
        0.06, abs=1e-15
    )
    # a silent arm makes no accidentals
    assert accidental_coincidences(0.0, 2000.0, 3e-9, 10.0) == 0.0
    with pytest.raises(DataError):
        accidental_coincidences(-1.0, 1.0, 1e-9, 1.0)


# ---------------------------------------------------------------------------
# analytic model of the bench, each formula pinned to a number worked by hand


def _scenario(name):
    return load_config_file(ROOT / "scenarios" / f"{name}.cfg")[0]


def test_fig2_budget_closes_at_0_30():
    # D1 rate r = 181479 / 2 x 0.476 = 43192/s, B = 148 + 2 ns + 2 us =
    # 2.15 us, q r B = 0.85 x 43192 x 2.15e-6 = 0.07893, background 20%:
    # eta rho (1 - b) = 0.476 x 0.85 / 1.07893 x 0.8 = 0.3000.  The flat tops
    # also cover c = r rho 100 ns = 0.0034 of the time, where they rotate
    # stray signals both ways: the raw singles visibility (its D2 counts at
    # 0 and 90 deg) is eta (rho - c) (1 - b) = 0.2987
    v, h = (expected_counts(replace(_scenario("fig2"), polarizer_theta=theta)).singles_d2
            for theta in (0.0, math.pi / 2))
    assert abs((v - h) / (v + h) - 0.2987) <= 5e-5
    # the fringe is harmonic, so the model's fit at the scan's angles reads it too
    points = [CurvePoint(theta, 0.0, 1.0) for theta in THETAS_13]
    assert singles_visibility(_scenario("fig2"), points) == pytest.approx((v - h) / (v + h),
                                                                          abs=1e-12)


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "calib"])
def test_committed_curves_meet_the_model(name):
    # each point's D2 singles and coincidences, and a delay scan's rotated
    # fractions as (rotated, not rotated) rows of each point's detected
    # idlers, against the model of the point's config: Pearson's chi-square
    # at p > 1e-3
    config = _scenario(name)
    meta, rows = read_curve_file(ROOT / "results" / name / "curve.csv")
    field = "t_electronic" if meta["kind"] == "delay-scan" else "polarizer_theta"
    models = [expected_counts(replace(config, **{field: row[0]})) for row in rows]
    tests = {
        count: ([row[column] * config.duration for row in rows],
                [getattr(model, count) for model in models], 0)
        for column, count in ((1, "singles_d2"), (3, "coincidences"))
    }
    if field == "t_electronic":
        report = (ROOT / "results" / name / "report.txt").read_text(encoding="ascii")
        line = next(line for line in report.splitlines() if line.startswith("rotated_fractions"))
        fractions = [float(v) for v in line.split(" = ")[1].split(",")]
        observed, expected = [], []
        for fraction, model in zip(fractions, models, strict=True):
            p, n = model.signals_rotated / model.idler_detections, model.idler_detections
            observed += [fraction * n, (1.0 - fraction) * n]
            expected += [p * n, (1.0 - p) * n]
        tests["rotated_fractions"] = (observed, expected, len(rows))
    for label, (observed, expected, used) in tests.items():
        chi2, df, p_value = pearson_chi2(observed, expected, [e > 0.0 for e in expected], used)
        assert df == len(rows)
        assert p_value > 1e-3, (label, chi2)


def test_paralyzable_trigger_share_by_hand():
    # B = 3 us + 2 us, r B = 1e5 x 5 us = 0.5, e^-0.5 = 0.60653066, f = 0.2:
    # 0.8 x 0.60653066 / (1 - 0.2 x 0.39346934) = 0.48522453 / 0.92130613
    config = ExperimentConfig(
        t0_internal=3e-6, pulse_rise=0.0, cell_fail_prob=0.2, dead_time_mode="paralyzable"
    )
    assert trigger_share(config, 1e5) == pytest.approx(0.52667025, abs=1e-8)


def test_detector_survival_by_hand():
    # r tau = 1e5 x 5 us = 0.5: 1 / 1.5
    assert detector_survival(1e5, 5e-6) == 2.0 / 3.0


@pytest.mark.parametrize("mode", ["nonparalyzable", "paralyzable"])
def test_a_cell_that_always_fails_accepts_no_trigger(mode):
    # at r = 1e8/s and B = 2.15 us, 1 - e^(-rB) rounds to 1, so the
    # paralyzable denominator 1 - f (1 - e^(-rB)) is 0 at f = 1
    config = ExperimentConfig(cell_fail_prob=1.0, dead_time_mode=mode)
    for rate in (0.0, 1e5, 1e8):
        assert trigger_share(config, rate) == 0.0


def test_expected_background_fraction():
    assert expected_background_fraction(ExperimentConfig()) == 0.0
    # no D2 light at all: no share, not a division by zero
    assert expected_background_fraction(ExperimentConfig(pair_rate=0.0)) == 0.0
    config = ExperimentConfig(pair_rate=1e4, background_rate_signal=2.5e3)
    assert expected_background_fraction(config) == pytest.approx(0.2)
    # dark counts skip the polarizer coin and the efficiency factor
    dark = ExperimentConfig(pair_rate=1e4, eta_signal=0.5, dark_rate_signal=2.5e3)
    assert expected_background_fraction(dark) == pytest.approx(0.5)


def test_cell_busy_time_is_the_trigger_lead_plus_the_dead_time():
    # the engine's lead and the model's busy time: the same left-to-right
    # float sum, bit for bit
    for config in (
        ExperimentConfig(),
        ExperimentConfig(t_electronic=1e-7, t0_internal=1.48e-7, pulse_rise=3e-9),
        ExperimentConfig(t_electronic=0.1, t0_internal=0.0, pulse_rise=1e-9, cell_dead_time=1e-3),
    ):
        assert trigger_lead(config) == config.t_electronic + config.t0_internal + config.pulse_rise
        assert cell_busy_time(config) == (
            config.t_electronic + config.t0_internal + config.pulse_rise + config.cell_dead_time
        )


def test_expected_counts_window_edges_are_the_engines():
    # the cell's flat top is [start, end), as covers_many's windows are, and
    # the coincidence window is closed, as coincidence_match's is; the pair
    # lag and the window are powers of two, so t_fiber +- w/2 is exact
    base = ExperimentConfig(
        pair_rate=2e4, duration=1.0, t_fiber=2.0**-22, coincidence_window=2.0**-28
    )
    lead = trigger_lead(base)

    def rotated(t_fiber):
        return expected_counts(replace(base, t_fiber=t_fiber)).signals_rotated

    assert rotated(lead + base.pulse_flat) == rotated(1e-6) < rotated(lead)

    def coincidences(offset):
        return expected_counts(replace(base, coincidence_offset=offset)).coincidences

    half = 2.0**-29
    assert coincidences(base.t_fiber - half) == coincidences(base.t_fiber + half)
    assert coincidences(base.t_fiber + half) == coincidences(None)
    assert coincidences(base.t_fiber + 2.0 * half) < coincidences(None)


def test_poisson_count_sigma_convention():
    assert poisson_count_sigma(0) == 1.0
    assert poisson_count_sigma(4) == 2.0


def test_curve_rows_are_rates_and_poisson_sigmas():
    # each count over the scan's per-point duration, with its Poisson sigma
    # over the same duration; any object with the two count fields serves
    runs = [
        SimpleNamespace(singles_d2=9, coincidences=4),
        SimpleNamespace(singles_d2=16, coincidences=0),
    ]
    rows = curve_rows([0, np.float64(0.25)], runs, 0.5)
    assert rows == [(0.0, 18.0, 6.0, 8.0, 4.0), (0.25, 32.0, 8.0, 0.0, 2.0)]
    assert {type(v) for row in rows for v in row} == {float}
    with pytest.raises(ValueError):
        curve_rows([0.0], runs, 0.5)  # one abscissa per run


# ---------------------------------------------------------------------------
# eta read by inverting the model


def _line(config):
    return 0.5 * config.eta_idler + config.offset


def test_invert_eta_of_a_line():
    # 0.5 eta + 0.1 = 0.4 at eta = 0.6, and the slope 0.5 doubles the sigma;
    # every other field is read as given
    eta = invert_eta(_line, SimpleNamespace(eta_idler=0.3, offset=0.1), ValueWithError(0.4, 0.01))
    assert abs(eta.value - 0.6) <= 1e-12
    assert eta.sigma == pytest.approx(0.02, rel=1e-9)


def test_invert_eta_admits_the_ends_of_the_model_range_and_nothing_past_them():
    config = SimpleNamespace(eta_idler=0.3, offset=0.0)
    lo, hi = ETA_BRACKET
    for end in (lo, hi):
        eta = invert_eta(_line, config, ValueWithError(_line(SimpleNamespace(eta_idler=end,
                                                                              offset=0.0)), 0.01))
        assert abs(eta.value - end) <= 1e-12
    for past in (math.nextafter(0.0, -1.0), math.nextafter(0.5 * hi, 2.0)):
        with pytest.raises(InconsistencyError, match="outside the model's range"):
            invert_eta(_line, config, ValueWithError(past, 0.01))


@pytest.mark.parametrize("name, eta", [("fig2", 0.476), ("calib", 1.003)])
def test_singles_visibility_inverts_back_to_its_eta(name, eta):
    # past eta = 1 the model's fringe dips below zero at H and its V exceeds
    # 1: the arithmetic goes on, so a visibility above 1 within its noise
    # still reads as an eta
    config, points = _scenario(name), [CurvePoint(theta, 0.0, 1.0) for theta in THETAS_13]
    def model(c):
        return singles_visibility(c, points)
    v = model(SimpleNamespace(**{**vars(config), "eta_idler": eta}))
    assert (v > 1.0) == (eta > 1.0)
    assert abs(invert_eta(model, config, ValueWithError(v, 0.002)).value - eta) <= 1e-9


def test_klyshko_ratio_is_eta_plus_the_accidentals_share():
    # calib's Klyshko run: S2 = 5000/s, m1 = 2380/s, so C / S2 = eta + m1 w
    config = replace(_scenario("calib"), cell_fail_prob=1.0, polarizer_theta=math.pi / 2)
    assert klyshko_ratio(config) == pytest.approx(0.476 + 2380.0 * 3e-9, rel=1e-12)


@pytest.mark.parametrize("model, config", [
    pytest.param(lambda c: 0.3, SimpleNamespace(eta_idler=0.5), id="flat"),
    pytest.param(lambda c: -c.eta_idler, SimpleNamespace(eta_idler=0.5), id="falling"),
    # a paralyzable cell past its peak, eta rho at most near eta = 0.93
    pytest.param(
        lambda c: singles_visibility(c, [CurvePoint(t, 0.0, 1.0) for t in THETAS_13]),
        ExperimentConfig(pair_rate=1e6, dead_time_mode="paralyzable"), id="past-the-peak",
    ),
    # no D2 click to divide by
    pytest.param(klyshko_ratio, ExperimentConfig(pair_rate=0.0), id="no-clicks"),
])
def test_check_model_rises_refuses(model, config):
    with pytest.raises(ConfigError, match="calibrate needs a test route whose model rises"):
        check_model_rises(model, config, "test")


# ---------------------------------------------------------------------------
# error paths of the fitter


def test_fit_needs_enough_points():
    with pytest.raises(FitError):
        fit_visibility(_curve(100.0, 0.3, 0.0, THETAS_13[:3]))


def test_fit_needs_distinct_angles():
    points = [CurvePoint(0.1, 100.0, 1.0)] * 3 + [CurvePoint(0.1 + math.pi, 100.0, 1.0)]
    with pytest.raises(FitError):
        fit_visibility(points)
    # three angles 1 nrad apart: cos(2 theta) rounds to 1 at each, so the
    # design's first two columns are equal and its smallest eigenvalue is 0
    points = [CurvePoint(theta, 100.0, 1.0) for theta in (0.0, 0.0, 1e-9, 2e-9)]
    with pytest.raises(FitError, match="degenerate design matrix"):
        fit_visibility(points)


def test_fit_rejects_nonpositive_sigma():
    points = _curve(100.0, 0.3, 0.0, THETAS_13)
    bad = points[:-1] + [CurvePoint(points[-1].theta, points[-1].rate, 0.0)]
    with pytest.raises(FitError):
        fit_visibility(bad)


def test_fit_rejects_all_zero_rates():
    points = [CurvePoint(t, 0.0, 1.0) for t in THETAS_13]
    with pytest.raises(FitError):
        fit_visibility(points)


def test_curve_point_validation():
    with pytest.raises(ValueError):
        CurvePoint(0.0, -5.0, 1.0)
    with pytest.raises(ValueError):
        CurvePoint(float("nan"), 5.0, 1.0)


def test_value_with_error_validation_and_str():
    v = ValueWithError(0.476, 0.005)
    assert "0.476" in str(v)
    with pytest.raises(ValueError):
        ValueWithError(0.1, -0.001)


# ---------------------------------------------------------------------------
# statistical behaviour


def test_coverage_of_fit_errors():
    """|V_hat - V| < 3 sigma_V in at least 95 of 100 Poisson-noised trials."""
    rng = np.random.default_rng(12345)
    a, v, theta0 = 2000.0, 0.476, 0.0
    covered = 0
    for _ in range(100):
        points = []
        for t in THETAS_13:
            mean = a * (1.0 + v * math.cos(2.0 * (t - theta0)))
            n = rng.poisson(mean)
            points.append(CurvePoint(t, float(n), float(poisson_count_sigma(n))))
        fit = fit_visibility(points)
        if abs(fit.visibility_v - v) < 3.0 * fit.sigma_visibility:
            covered += 1
    assert covered >= 95


def test_chi2_reduced_near_one_for_poisson_noise():
    rng = np.random.default_rng(777)
    values = []
    for _ in range(50):
        points = []
        for t in THETAS_13:
            mean = 5000.0 * (1.0 + 0.3 * math.cos(2.0 * t))
            n = rng.poisson(mean)
            points.append(CurvePoint(t, float(n), float(poisson_count_sigma(n))))
        values.append(fit_visibility(points).chi2_reduced)
    mean_chi2 = float(np.mean(values))
    # mean of chi2/dof over 50 fits concentrates near 1 (sd ~ sqrt(2/10/50))
    assert 0.75 <= mean_chi2 <= 1.25


@settings(max_examples=100, deadline=None)
@given(
    st.floats(10.0, 1e6),
    st.floats(0.0, 0.99),
    st.floats(-1.5, 1.5),
)
def test_exact_recovery_property(a, v, theta0):
    fit = fit_visibility(_curve(a, v, theta0, THETAS_13))
    assert abs(fit.mean_a - a) <= 1e-6 * a
    assert abs(fit.visibility_v - v) <= 1e-8
    if v > 1e-6:
        d = (fit.phase_theta0 - theta0) % math.pi
        assert min(d, math.pi - d) <= 1e-6


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 0.9), st.floats(0.0, 0.5), st.floats(0.0, 0.5))
@example(0.476, 0.0, 0.0)  # a noiseless bench corrects nothing
def test_correction_monotone_property(v_raw, b, f):
    assume(v_raw <= (1.0 - b) * (1.0 - f))  # keep the corrected value physical
    corrected = _corrected(v_raw, 0.0, b, f)
    assert corrected.value >= v_raw - 1e-15
    assert corrected.value == pytest.approx(v_raw / ((1 - b) * (1 - f)), rel=1e-12)


# ---------------------------------------------------------------------------
# the pure-Python fitter against a numpy least-squares reference


def _lstsq_fit(points):
    """(A, V, theta0, chi2_reduced, variances) by ``np.linalg.lstsq`` on the
    weighted design, propagated with the fitter's delta-method Jacobian."""
    theta = np.array([p.theta for p in points])
    rate = np.array([p.rate for p in points])
    sigma = np.array([p.sigma for p in points])
    design = np.column_stack([np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta)])
    weighted = design / sigma[:, None]
    coeffs = np.linalg.lstsq(weighted, rate / sigma, rcond=None)[0]
    a, b, c = coeffs
    amplitude = math.hypot(b, c)
    jacobian = np.array([
        (1.0, 0.0, 0.0),
        (-amplitude / a**2, b / (a * amplitude), c / (a * amplitude)),
        (0.0, -c / (2.0 * amplitude**2), b / (2.0 * amplitude**2)),
    ])
    covariance = jacobian @ np.linalg.inv(weighted.T @ weighted) @ jacobian.T
    residuals = (rate - design @ coeffs) / sigma
    chi2 = float(residuals @ residuals) / (len(points) - 3)
    return a, amplitude / a, 0.5 * math.atan2(c, b), chi2, np.diag(covariance)


@st.composite
def _noisy_curves(draw):
    """4-40 points spread over a half turn with sigmas from 1e-3 to 1e3.

    The mean sits 10^0.5-10^3 sigmas above zero and each rate is off the
    model by up to 2 sigmas, so the design is well conditioned (cond < ~150)
    and chi2 stays of order 1.
    """
    n = draw(st.integers(4, 40))
    scale = 10.0 ** draw(st.floats(-2.5, 2.5))
    a = scale * 10.0 ** draw(st.floats(1.0, 2.5))
    v = draw(st.floats(0.05, 0.95))
    theta0 = draw(st.floats(-1.5, 1.5))
    jitters, decades, pulls = (
        draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n)) for bound in (0.4, 0.5, 2.0)
    )
    points = []
    for k, (jitter, decade, pull) in enumerate(zip(jitters, decades, pulls)):
        theta = (k + jitter) * math.pi / n
        sigma = scale * 10.0 ** decade
        model = a * (1.0 + v * math.cos(2.0 * (theta - theta0)))
        points.append(CurvePoint(theta, max(model + pull * sigma, 0.0), sigma))
    return points


@settings(max_examples=200, deadline=None)
@given(_noisy_curves())
def test_fit_matches_numpy_least_squares(points):
    fit = fit_visibility(points)
    a, v, theta0, chi2, variances = _lstsq_fit(points)
    assert math.isclose(fit.mean_a, a, rel_tol=1e-12)
    assert math.isclose(fit.visibility_v, v, rel_tol=1e-12)
    # the phase and chi2 may lie near 0, where 1e-12 absolute is the scale
    assert math.isclose(fit.phase_theta0, theta0, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(fit.chi2_reduced, chi2, rel_tol=1e-12, abs_tol=1e-12)
    for i in range(3):
        assert math.isclose(fit.covariance[i][i], variances[i], rel_tol=1e-12)


_THRESHOLD = 1e12  # largest condition number of the weighted normal equations
# np.linalg.cond and the fitter each err by ~ulp x cond near the threshold,
# a few 1e-4 relative (see test_fit_refuses_what_numpy_refused), so inputs
# within this band of it may fall either way
_COND_BAND = 1e-2


def _numpy_refusal(points):
    """The FitError message of the numpy fitter's checks, and the condition number."""
    if len(points) < 4:
        return f"need at least 4 points, got {len(points)}", None
    theta = np.array([p.theta for p in points])
    sigma = np.array([p.sigma for p in points])
    if np.any(sigma <= 0.0):
        return "all point sigmas must be positive", None
    distinct = len(set(np.round(theta % math.pi, 9).tolist()))
    if distinct < 3:
        return f"need at least 3 distinct angles modulo pi, got {distinct}", None
    design = np.column_stack([np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta)])
    weighted = design / sigma[:, None]
    cond = float(np.linalg.cond(weighted.T @ weighted))
    if cond > _THRESHOLD:
        return "degenerate design matrix; angles do not constrain the fit", cond
    return None, cond


@st.composite
def _refusable_inputs(draw):
    """1-16 points on a pool of 1-6 angles in a cluster 10^-5 to 1 rad wide
    (the condition number spans ~1 to ~1e20), each angle shifted by -pi, 0
    or pi; in about one curve of four one sigma is 0."""
    n = draw(st.integers(1, 16))
    base = draw(st.floats(0.0, 2.0 * math.pi))
    width = 10.0 ** -draw(st.floats(0.0, 5.0))
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    zero = draw(st.integers(0, 4 * n))  # the point whose sigma is 0, if below n
    angles = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    turns = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    sigmas = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    rates = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    return [
        CurvePoint(base + width * angle + math.pi * turn, rate, 0.0 if i == zero else sigma)
        for i, (angle, turn, sigma, rate) in enumerate(zip(angles, turns, sigmas, rates))
    ]


@settings(max_examples=300, deadline=None)
@given(_refusable_inputs())
def test_fit_refuses_what_numpy_refused(points):
    expected, cond = _numpy_refusal(points)
    assume(cond is None or abs(cond / _THRESHOLD - 1.0) > _COND_BAND)
    try:
        fit_visibility(points)
        message = None
    except FitError as exc:
        message = str(exc)
    refusals = ("need at least", "all point sigmas", "degenerate design")
    if message is not None and not message.startswith(refusals):
        message = None  # a later check (mean, visibility) refused the solved fit
    assert message == expected


def test_exactly_flat_curve_keeps_cos_convention():
    # +-t1 and +-t2 with cos 2 t2 = -cos 2 t1: the weighted sums of cos, sin
    # and cos sin are exactly 0, so the fit finds b = c = 0 exactly and
    # fixes the modulation direction on cos 2 theta
    t1, t2 = 0.1003, 1.4704963267948967
    thetas = (t1, -t1, t2, -t2)
    assert math.cos(2.0 * t2) == -math.cos(2.0 * t1)
    fit = fit_visibility([CurvePoint(t, 500.0, 2.0) for t in thetas])
    assert (fit.mean_a, fit.visibility_v, fit.phase_theta0) == (500.0, 0.0, 0.0)
    # sigma_V = sigma_b / A with sigma_b^2 = 1 / sum(cos^2 2 theta / sigma^2)
    gram_bb = math.fsum((math.cos(2.0 * t) / 2.0) ** 2 for t in thetas)
    assert fit.sigma_visibility == pytest.approx(1.0 / math.sqrt(gram_bb) / 500.0, rel=1e-14)
    assert fit.sigma_theta0 == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-8.0, 6.0)), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_symmetric_eigenvalues_match_numpy(eigenvalues, seed):
    # eigenvalues of either sign spread over 14 decades, each to a few ulps
    # of the largest
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    diagonal = np.array([sign * 10.0**exponent for sign, exponent in eigenvalues])
    matrix = (rotation * diagonal) @ rotation.T
    matrix = (matrix + matrix.T) / 2.0
    got = _symmetric_eigenvalues(matrix.tolist())
    assert list(got) == sorted(got)
    np.testing.assert_allclose(got, np.linalg.eigvalsh(matrix), rtol=0, atol=1e-14 * np.abs(matrix).max())


def test_curve_fit_admits_its_bounds():
    # a smallest covariance eigenvalue of exactly -1e-9 of the largest entry
    # is rounding, and a noiseless visibility of exactly 1 is physical
    covariance = ((4.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, -4e-9))
    assert CurveFit(1000.0, 1.0, 0.1, covariance, 1.0).visibility_v == 1.0


def test_covariance_with_one_dominant_variance_is_positive():
    # a fit covariance whose variance of A dwarfs the others: its two small
    # eigenvalues nearly coincide on the scale of the largest, where the
    # trigonometric closed form returned -1.3e-4 and refused the fit
    covariance = (
        (44964.9046517024, -0.08806782966999084, -0.005035640537745564),
        (-0.08806782966999084, 4.201106046436252e-07, -1.6809400422900833e-08),
        (-0.005035640537745564, -1.6809400422900833e-08, 1.8929326444182115e-07),
    )
    low, _, high = _symmetric_eigenvalues(covariance)
    assert low == pytest.approx(1.7844540796e-07, rel=1e-8)
    assert high == pytest.approx(44964.904651875, rel=1e-12)
    assert CurveFit(1000.0, 0.5, 0.1, covariance, 1.0).covariance == covariance
