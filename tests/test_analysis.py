"""Fit, correction and calibration arithmetic checks.

The harmonic fitter is validated against noiseless closed-form curves
(recovery to 1e-10), against frozen hand-computed corrections, and with a
statistical coverage test on Poisson-noised data.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biphoton_feedforward import (
    CurvePoint,
    DataError,
    FitError,
    InconsistencyError,
    ValueWithError,
    accidental_coincidences,
    correct_visibility,
    fit_visibility,
    klyshko_efficiency,
    poisson_count_sigma,
)


def _curve(a, v, theta0, thetas, sigma=1.0):
    return [
        CurvePoint(t, a * (1.0 + v * math.cos(2.0 * (t - theta0))), sigma)
        for t in thetas
    ]


THETAS_13 = [k * math.pi / 13.0 for k in range(13)]


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


def test_visibility_correction_frozen_value():
    # 0.30 / ((1 - 0.2) * (1 - 0.15)) = 0.30 / 0.68 = 0.44117647058823529
    corrected = correct_visibility(0.30, 0.0, 0.2, 0.15)
    assert abs(corrected.value - 0.44117647058823529) <= 1e-15
    assert corrected.sigma == 0.0


def test_visibility_correction_error_propagation():
    corrected = correct_visibility(0.30, 0.012, 0.2, 0.15)
    # pure scale factor on the raw error when b and f carry no uncertainty
    assert abs(corrected.sigma - 0.012 / 0.68) <= 1e-15


def test_correction_identity_when_noiseless():
    corrected = correct_visibility(0.476, 0.001, 0.0, 0.0)
    assert corrected.value == pytest.approx(0.476, abs=1e-15)


def test_correction_rejects_unphysical_result():
    with pytest.raises(InconsistencyError):
        correct_visibility(0.9, 0.001, 0.2, 0.15)  # 0.9 / 0.68 = 1.32


def test_klyshko_frozen_arithmetic():
    result = klyshko_efficiency(4760, 10000, 10.0)
    assert abs(result.value - 0.475) <= 1e-15
    # conditional binomial error on p = C / S2, accidentals held fixed
    var = 0.476 * (1.0 - 0.476) / 10000
    assert abs(result.sigma - math.sqrt(var)) <= 1e-15


def test_klyshko_simple_ratios():
    assert klyshko_efficiency(476, 1000).value == pytest.approx(0.476, abs=1e-15)
    zero = klyshko_efficiency(0, 1000)
    assert zero.value == 0.0
    assert zero.sigma > 0.0  # one count of error keeps it finite at p = 0
    assert klyshko_efficiency(1000, 1000).sigma > 0.0  # and at p = 1


def test_klyshko_error_paths():
    with pytest.raises(DataError):
        klyshko_efficiency(10, 0)
    with pytest.raises(DataError):
        klyshko_efficiency(5, 100, accidentals=10.0)  # net negative
    with pytest.raises(DataError):
        klyshko_efficiency(101, 100)  # more coincidences than singles


def test_accidental_coincidences_formula():
    assert accidental_coincidences(1000.0, 2000.0, 3e-9, 10.0) == pytest.approx(
        0.06, abs=1e-15
    )
    with pytest.raises(DataError):
        accidental_coincidences(-1.0, 1.0, 1e-9, 1.0)


def test_poisson_count_sigma_convention():
    assert poisson_count_sigma(0) == 1.0
    assert poisson_count_sigma(4) == 2.0
    np.testing.assert_allclose(poisson_count_sigma(np.array([0, 9])), [1.0, 3.0])


# ---------------------------------------------------------------------------
# error paths of the fitter


def test_fit_needs_enough_points():
    with pytest.raises(FitError):
        fit_visibility(_curve(100.0, 0.3, 0.0, THETAS_13[:3]))


def test_fit_needs_distinct_angles():
    points = [CurvePoint(0.1, 100.0, 1.0)] * 3 + [CurvePoint(0.1 + math.pi, 100.0, 1.0)]
    with pytest.raises(FitError):
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
def test_correction_monotone_property(v_raw, b, f):
    assume(v_raw <= (1.0 - b) * (1.0 - f))  # keep the corrected value physical
    corrected = correct_visibility(v_raw, 0.0, b, f)
    assert corrected.value >= v_raw - 1e-15
    assert corrected.value == pytest.approx(v_raw / ((1 - b) * (1 - f)), rel=1e-12)
