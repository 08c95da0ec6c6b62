"""Curve fitting and calibration estimators.

The measured singles and coincidence curves follow R(theta) =
A (1 + V cos 2(theta - theta0)), which is linear in the coefficients of
(1, cos 2 theta, sin 2 theta).  Fits therefore use weighted linear least
squares in that basis; visibility and phase come out of the coefficients
with delta-method error propagation, avoiding any iterative optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class FitError(RuntimeError):
    """Fit could not be performed or produced an unphysical result."""


class DataError(ValueError):
    """Count data violate the assumptions of an estimator."""


class InconsistencyError(ValueError):
    """A corrected quantity contradicts its physical bound."""


def poisson_count_sigma(counts):
    """Poisson standard deviation, 1.0 for empty bins (scalar or array).

    Zero-count bins would otherwise get zero uncertainty and an infinite
    weight in the fit.
    """
    arr = np.asarray(counts, dtype=float)
    if np.any(arr < 0):
        raise DataError(f"counts must be non-negative, got {counts}")
    sigma = np.where(arr > 0, np.sqrt(arr), 1.0)
    return float(sigma) if np.isscalar(counts) or arr.ndim == 0 else sigma


@dataclass(frozen=True)
class ValueWithError:
    """A scalar estimate with a one-sigma statistical uncertainty."""

    value: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or not math.isfinite(self.sigma):
            raise ValueError("value and sigma must be finite")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")

    def __str__(self) -> str:
        return f"{self.value:.6g} +/- {self.sigma:.3g}"


@dataclass(frozen=True)
class CurvePoint:
    """One measured point of a rate curve: abscissa, rate and its sigma."""

    theta: float
    rate: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("theta", "rate", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.rate < 0.0:
            raise ValueError("rate must be non-negative")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")


@dataclass(frozen=True, eq=False)
class CurveFit:
    """Harmonic fit R(theta) = A (1 + V cos 2(theta - theta0)).

    ``covariance`` is the 3x3 delta-method covariance of (A, V, theta0).
    """

    mean_a: float
    visibility_v: float
    phase_theta0: float
    covariance: np.ndarray
    chi2_reduced: float

    def __post_init__(self) -> None:
        cov = np.array(self.covariance, dtype=float)
        if cov.shape != (3, 3):
            raise FitError(f"covariance must be 3x3, got {cov.shape}")
        cov = (cov + cov.T) / 2.0
        scale = max(float(np.abs(cov).max()), 1.0)
        if np.linalg.eigvalsh(cov).min() < -1e-9 * scale:
            raise FitError("covariance is not positive semidefinite")
        cov.flags.writeable = False
        object.__setattr__(self, "covariance", cov)
        if self.visibility_v < 0.0:
            raise FitError("visibility cannot be negative")
        if self.visibility_v > 1.0 + 3.0 * self.sigma_visibility:
            raise FitError(
                f"visibility {self.visibility_v:.4f} exceeds 1 by more than "
                "3 sigma; the curve is not a physical rate curve"
            )

    @property
    def sigma_mean(self) -> float:
        return math.sqrt(self.covariance[0, 0])

    @property
    def sigma_visibility(self) -> float:
        return math.sqrt(self.covariance[1, 1])

    @property
    def sigma_theta0(self) -> float:
        return math.sqrt(self.covariance[2, 2])


@dataclass(frozen=True)
class CalibrationReport:
    """Trigger-efficiency estimates from the two independent routes.

    The visibility route corrects the raw fitted visibility first for the
    unpolarized background fraction, then for the explicit cell failure
    probability; both steps are reported separately.  The coincidence
    (absolute) route divides accidental-corrected coincidences by the
    signal-arm singles and does not depend on the signal-arm efficiency.
    """

    v_raw: ValueWithError
    v_background_corrected: ValueWithError
    v_cell_corrected: ValueWithError
    eta_visibility: ValueWithError
    eta_klyshko: ValueWithError
    inputs: dict

    def __post_init__(self) -> None:
        if not (
            self.v_raw.value
            <= self.v_background_corrected.value + 1e-12
            <= self.v_cell_corrected.value + 2e-12
        ):
            raise InconsistencyError("correction steps must not decrease visibility")


def fit_visibility(points: list[CurvePoint]) -> CurveFit:
    """Weighted linear least-squares harmonic fit of a rate curve.

    Requires at least 4 points covering at least 3 distinct angles modulo
    pi, and strictly positive sigmas (zero-count bins should carry the
    sqrt(n + 1) convention, see :func:`poisson_count_sigma`).
    """
    if len(points) < 4:
        raise FitError(f"need at least 4 points, got {len(points)}")
    theta = np.array([p.theta for p in points], dtype=float)
    rate = np.array([p.rate for p in points], dtype=float)
    sigma = np.array([p.sigma for p in points], dtype=float)
    if np.any(sigma <= 0.0):
        raise FitError("all point sigmas must be positive")
    distinct = np.unique(np.round(theta % math.pi, 9))
    if distinct.size < 3:
        raise FitError(
            f"need at least 3 distinct angles modulo pi, got {distinct.size}"
        )

    design = np.column_stack(
        [np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta)]
    )
    weighted = design / sigma[:, None]
    gram = weighted.T @ weighted
    if np.linalg.cond(gram) > 1e12:
        raise FitError("degenerate design matrix; angles do not constrain the fit")
    coeffs = np.linalg.solve(gram, weighted.T @ (rate / sigma))
    cov_coeffs = np.linalg.inv(gram)

    a, b, c = coeffs
    if a <= 0.0:
        raise FitError(f"fitted mean rate {a:.6g} is not positive")
    amplitude = math.hypot(b, c)
    visibility = amplitude / a
    theta0 = 0.5 * math.atan2(c, b)

    jacobian = np.zeros((3, 3))
    jacobian[0, 0] = 1.0
    if amplitude > 0.0:
        jacobian[1] = (-visibility / a, b / (a * amplitude), c / (a * amplitude))
        jacobian[2] = (0.0, -c / (2.0 * amplitude**2), b / (2.0 * amplitude**2))
    else:
        # Exactly flat curve: the modulation direction is undefined, fix the
        # cos-2-theta direction by convention so sigma_V stays meaningful.
        jacobian[1] = (0.0, 1.0 / a, 0.0)
    covariance = jacobian @ cov_coeffs @ jacobian.T

    residuals = (rate - design @ coeffs) / sigma
    chi2_reduced = float(residuals @ residuals) / (len(points) - 3)
    return CurveFit(float(a), float(visibility), float(theta0), covariance, chi2_reduced)


def correct_visibility(
    v_raw: float,
    sigma_raw: float,
    background_fraction: float = 0.0,
    cell_failure_prob: float = 0.0,
    sigma_background: float = 0.0,
    sigma_failure: float = 0.0,
) -> ValueWithError:
    """Undo the linear visibility dilutions V_corr = V / ((1-b)(1-f)).

    ``background_fraction`` is the unpolarized share b of the mean counts
    and ``cell_failure_prob`` the probability f that a trigger produced no
    rotation.  Raises InconsistencyError when the corrected visibility
    exceeds 1 by more than 3 of its own sigma.
    """
    for name, value in (
        ("background_fraction", background_fraction),
        ("cell_failure_prob", cell_failure_prob),
    ):
        if not (0.0 <= value < 1.0):
            raise ValueError(f"{name} must lie in [0, 1), got {value}")
    if v_raw < 0.0 or sigma_raw < 0.0:
        raise ValueError("raw visibility and sigma must be non-negative")
    scale = (1.0 - background_fraction) * (1.0 - cell_failure_prob)
    value = v_raw / scale
    variance = (sigma_raw / scale) ** 2
    variance += (value * sigma_background / (1.0 - background_fraction)) ** 2
    variance += (value * sigma_failure / (1.0 - cell_failure_prob)) ** 2
    corrected = ValueWithError(value, math.sqrt(variance))
    if corrected.value > 1.0 + 3.0 * corrected.sigma:
        raise InconsistencyError(
            f"corrected visibility {corrected.value:.4f} exceeds 1 by more "
            "than 3 sigma; correction factors are inconsistent with the data"
        )
    return corrected


def accidental_coincidences(
    rate_1: float, rate_2: float, window: float, duration: float
) -> float:
    """Expected accidental coincidences of two uncorrelated click streams.

    Flat-correlation estimate rate_1 * rate_2 * window * duration, valid
    while both rates times the window are small.
    """
    for name, value in (
        ("rate_1", rate_1),
        ("rate_2", rate_2),
        ("window", window),
        ("duration", duration),
    ):
        if value < 0.0:
            raise DataError(f"{name} must be non-negative")
    return rate_1 * rate_2 * window * duration


def klyshko_efficiency(
    coincidences: float, singles_other: float, accidentals: float = 0.0
) -> ValueWithError:
    """Absolute trigger-detector efficiency from coincidence counting.

    eta = (coincidences - accidentals) / singles_other, where
    ``singles_other`` are the singles of the opposite (signal) arm with its
    polarizer selecting the trigger-conjugate polarization.  The estimate is
    independent of the signal-arm efficiency, which cancels in the ratio
    (D. N. Klyshko, Sov. J. Quantum Electron. 10, 1112 (1980); A. Migdall,
    Phys. Today 52(1), 41 (1999)).

    Every coincidence is also one of the ``singles_other`` clicks, so given
    those clicks the coincidences are binomial, C ~ Bin(S2, p) with
    p = C / S2, and the uncertainty is the conditional binomial one,
    sqrt(p (1 - p) / S2), with the accidentals held fixed.  At p = 0 or 1
    that vanishes; one count, 1 / S2, keeps it finite, as
    :func:`poisson_count_sigma` does for an empty bin.
    """
    if singles_other <= 0:
        raise DataError("singles_other must be positive")
    if accidentals < 0:
        raise DataError("accidentals must be non-negative")
    if coincidences > singles_other:
        raise DataError(
            f"{coincidences} coincidences exceed the {singles_other} singles they are part of"
        )
    net = coincidences - accidentals
    if net < 0:
        raise DataError(
            f"accidental estimate {accidentals} exceeds the coincidence "
            f"count {coincidences}"
        )
    p = coincidences / singles_other
    if 0 < coincidences < singles_other:
        sigma = math.sqrt(p * (1.0 - p) / singles_other)
    else:
        sigma = 1.0 / singles_other
    return ValueWithError(net / singles_other, sigma)
