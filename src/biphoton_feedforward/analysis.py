"""Curve fitting, calibration estimators, the bench's analytic model and the
package's error classes.

The measured singles and coincidence curves follow R(theta) =
A (1 + V cos 2(theta - theta0)), which is linear in the coefficients of
(1, cos 2 theta, sin 2 theta).  Fits therefore use weighted linear least
squares in that basis; visibility and phase come out of the coefficients
with delta-method error propagation, avoiding any iterative optimizer.

The bench's analytic model is :func:`expected_counts`, the one statement
of what a run of a config should count, built from each loss channel's
function below it.

The module needs only the standard library, so ``analyze fit`` starts
without the engine's array stack.  The fit sums its 3x3 normal equations
with :func:`math.fsum`, which rounds each sum once (J. R. Shewchuk,
Discrete Comput. Geom. 18, 305 (1997)), so a fit does not depend on the
order of its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any event is drawn."""


class SimulationError(RuntimeError):
    """An internal invariant of the event engine was violated."""


class FitError(RuntimeError):
    """Fit could not be performed or produced an unphysical result."""


class DataError(ValueError):
    """Count data violate the assumptions of an estimator."""


class InconsistencyError(ValueError):
    """A corrected quantity contradicts its physical bound."""


def poisson_count_sigma(counts):
    """Poisson standard deviation, 1.0 for empty bins.

    Zero-count bins would otherwise get zero uncertainty and an infinite
    weight in the fit.
    """
    if counts < 0:
        raise DataError(f"counts must be non-negative, got {counts}")
    return math.sqrt(counts) if counts > 0 else 1.0


def curve_rows(xs, runs, d) -> list[tuple[float, float, float, float, float]]:
    """The curve rows (x, rate_d2, sigma_d2, rate_coincidence, sigma_coincidence) of a scan.

    One row per run, in order: the run's D2 singles and coincidences over
    the scan's per-point duration ``d``, each with its
    :func:`poisson_count_sigma` over ``d``.  Like the analytic model below,
    it reads ``singles_d2`` and ``coincidences`` by name.
    """
    rows = []
    for x, run in zip(xs, runs, strict=True):
        rows.append((
            float(x),
            run.singles_d2 / d,
            poisson_count_sigma(run.singles_d2) / d,
            run.coincidences / d,
            poisson_count_sigma(run.coincidences) / d,
        ))
    return rows


def _symmetric_eigenvalues(m) -> tuple[float, float, float]:
    """Eigenvalues of a symmetric 3x3 matrix, ascending.

    Cyclic Jacobi rotations with Rutishauser's update (W. H. Press et al.,
    Numerical Recipes, section 11.1); each eigenvalue carries an absolute
    error of a few ulps of the largest.  The trigonometric closed form loses
    ~sqrt(ulp) of the largest when the two smaller ones nearly coincide, as
    they do in a covariance whose first variance dwarfs the others.
    """
    a = [[float(v) for v in row] for row in m]
    for _ in range(50):  # converges quadratically: a few sweeps zero the off-diagonal
        if a[0][1] == a[0][2] == a[1][2] == 0.0:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p][q]
            if apq == 0.0:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            r = 3 - p - q
            arp, arq = a[r][p], a[r][q]
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
    low, mid, high = sorted((a[0][0], a[1][1], a[2][2]))
    return low, mid, high


def _cholesky_solver(gram):
    """Solve ``gram x = b`` for a symmetric positive definite 3x3 ``gram``.

    Returns the solver of its Cholesky factor L (L L^T = gram): forward then
    back substitution, every sum by :func:`math.fsum`.
    """
    low = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1):
            s = math.fsum([gram[i][j], *(-low[i][k] * low[j][k] for k in range(j))])
            low[i][j] = math.sqrt(s) if i == j else s / low[j][j]

    def solve(b) -> list[float]:
        y: list[float] = []
        for i in range(3):
            y.append(math.fsum([b[i], *(-low[i][k] * y[k] for k in range(i))]) / low[i][i])
        x = [0.0] * 3
        for i in reversed(range(3)):
            x[i] = math.fsum([y[i], *(-low[k][i] * x[k] for k in range(i + 1, 3))]) / low[i][i]
        return x

    return solve


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

    ``covariance`` is the 3x3 delta-method covariance of (A, V, theta0), as
    a tuple of rows.
    """

    mean_a: float
    visibility_v: float
    phase_theta0: float
    covariance: tuple[tuple[float, float, float], ...]
    chi2_reduced: float

    def __post_init__(self) -> None:
        cov = self.covariance
        shape = [len(row) for row in cov]
        if shape != [3, 3, 3]:
            raise FitError(f"covariance must be 3x3, got rows of lengths {shape}")
        cov = tuple(
            tuple((float(cov[i][j]) + float(cov[j][i])) / 2.0 for j in range(3)) for i in range(3)
        )
        scale = max(max(abs(v) for row in cov for v in row), 1.0)
        if _symmetric_eigenvalues(cov)[0] < -1e-9 * scale:
            raise FitError("covariance is not positive semidefinite")
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
        return math.sqrt(self.covariance[0][0])

    @property
    def sigma_visibility(self) -> float:
        return math.sqrt(self.covariance[1][1])

    @property
    def sigma_theta0(self) -> float:
        return math.sqrt(self.covariance[2][2])


def fit_visibility(points: list[CurvePoint]) -> CurveFit:
    """Weighted linear least-squares harmonic fit of a rate curve.

    Requires at least 4 points covering at least 3 distinct angles modulo
    pi, and strictly positive sigmas (zero-count bins should carry the
    sqrt(n + 1) convention, see :func:`poisson_count_sigma`).  The normal
    equations are summed exactly rounded and solved by Cholesky, so the
    result does not depend on the order of ``points``.
    """
    if len(points) < 4:
        raise FitError(f"need at least 4 points, got {len(points)}")
    if any(p.sigma <= 0.0 for p in points):
        raise FitError("all point sigmas must be positive")
    # angles modulo pi rounded to 9 decimals, kept as integer multiples of 1e-9
    distinct = len({round(p.theta % math.pi * 1e9) for p in points})
    if distinct < 3:
        raise FitError(f"need at least 3 distinct angles modulo pi, got {distinct}")

    basis = [(1.0, math.cos(2.0 * p.theta), math.sin(2.0 * p.theta)) for p in points]
    weighted = [[f / p.sigma for f in row] for row, p in zip(basis, points)]
    targets = [p.rate / p.sigma for p in points]
    try:  # fsum raises on inf - inf and on a finite sum past the largest float
        gram = [[math.fsum(w[j] * w[k] for w in weighted) for k in range(3)] for j in range(3)]
        rhs = [math.fsum(w[j] * t for w, t in zip(weighted, targets)) for j in range(3)]
        finite = all(math.isfinite(v) for v in (*gram[0], *gram[1], *gram[2], *rhs))
    except (OverflowError, ValueError):
        finite = False
    if not finite:
        raise FitError("the weighted normal equations overflow; the sigmas are too small")
    low, _, high = _symmetric_eigenvalues(gram)
    if not (low > 0.0 and high / low <= 1e12):
        raise FitError("degenerate design matrix; angles do not constrain the fit")
    solve = _cholesky_solver(gram)
    a, b, c = solve(rhs)
    # the inverse's columns; it is symmetric, so they are also its rows
    cov_coeffs = [solve([float(i == j) for i in range(3)]) for j in range(3)]

    if a <= 0.0:
        raise FitError(f"fitted mean rate {a:.6g} is not positive")
    amplitude = math.hypot(b, c)
    visibility = amplitude / a
    theta0 = 0.5 * math.atan2(c, b)

    if amplitude > 0.0:
        jacobian = (
            (1.0, 0.0, 0.0),
            (-visibility / a, b / (a * amplitude), c / (a * amplitude)),
            (0.0, -c / (2.0 * amplitude**2), b / (2.0 * amplitude**2)),
        )
    else:
        # Exactly flat curve: the modulation direction is undefined, fix the
        # cos-2-theta direction by convention so sigma_V stays meaningful.
        jacobian = ((1.0, 0.0, 0.0), (0.0, 1.0 / a, 0.0), (0.0, 0.0, 0.0))
    jc = [[math.fsum(j[k] * cov_coeffs[k][m] for k in range(3)) for m in range(3)] for j in jacobian]
    covariance = tuple(
        tuple(math.fsum(row[m] * j[m] for m in range(3)) for j in jacobian) for row in jc
    )

    try:  # a float's ** 2 raises past the largest float, as fsum does
        chi2 = math.fsum(
            ((p.rate - (a + b * cos2 + c * sin2)) / p.sigma) ** 2
            for (_, cos2, sin2), p in zip(basis, points)
        )
    except OverflowError:
        raise FitError("the weighted residuals overflow; the sigmas are too small") from None
    return CurveFit(a, visibility, theta0, covariance, chi2 / (len(points) - 3))


def correct_visibility(
    v_raw: float, sigma_raw: float, steps: list[tuple[str, float, float]]
) -> list[tuple[str, ValueWithError]]:
    """Undo the dilutions ``steps`` of :func:`visibility_steps`, one row per step.

    Row i divides the raw V and sigma by the product P_i of the factors so
    far, whose relative errors add in quadrature:
    sigma_i = hypot(sigma_raw, V sqrt(sum (s_k / F_k)^2)) / P_i.  Raises
    InconsistencyError for a factor outside (0, 1] (above 1 it would lower
    the visibility) and for a row above 1 by more than 3 of its own sigma.
    """
    if v_raw < 0.0 or sigma_raw < 0.0:
        raise ValueError("raw visibility and sigma must be non-negative")
    rows, product, relative = [], 1.0, 0.0
    for name, factor, factor_sigma in steps:
        if not 0.0 < factor <= 1.0:
            raise InconsistencyError(
                f"{name} factor {factor} is outside (0, 1]; steps must not decrease visibility"
            )
        product *= factor
        relative += (factor_sigma / factor) ** 2
        value = v_raw / product
        sigma = math.hypot(sigma_raw, v_raw * math.sqrt(relative)) / product
        if value > 1.0 + 3.0 * sigma:
            raise InconsistencyError(
                f"corrected visibility {value:.4f} exceeds 1 by more "
                "than 3 sigma; correction factors are inconsistent with the data"
            )
        rows.append((name, ValueWithError(value, sigma)))
    return rows


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


# ---------------------------------------------------------------------------
# analytic model of the bench: each function reads the config fields it needs
# by name, so any object with those fields serves and no engine is loaded


def trigger_lead(config) -> float:
    """Delay from a trigger click to the start of the window it opens."""
    return config.t_electronic + config.t0_internal + config.pulse_rise


def cell_busy_time(config) -> float:
    """Span after an accepted trigger click during which new triggers are blocked."""
    return trigger_lead(config) + config.cell_dead_time


def trigger_share(config, d1_rate: float) -> float:
    """Share rho of Poisson D1 clicks at rate r = ``d1_rate`` that the cell accepts.

    With f = ``cell_fail_prob``, q = 1 - f and B = :func:`cell_busy_time`:
    q / (1 + q r B) when non-paralyzable, q e^(-rB) / (1 - f (1 - e^(-rB)))
    when paralyzable (J. W. Muller, Nucl. Instrum. Methods 112, 47 (1973)).
    A cell that always fails (f = 1) accepts none, even where the
    paralyzable denominator 1 - (1 - e^(-rB)) rounds to 0.
    """
    f, x = config.cell_fail_prob, d1_rate * cell_busy_time(config)
    if f == 1.0:
        return 0.0
    if config.dead_time_mode == "paralyzable":
        return (1.0 - f) * math.exp(-x) / (1.0 - f * (1.0 - math.exp(-x)))
    return (1.0 - f) / (1.0 + (1.0 - f) * x)


def detector_survival(rate: float, dead_time: float) -> float:
    """Kept share 1 / (1 + r tau) of Poisson clicks at ``rate`` behind a
    non-paralyzable detector dead time ``dead_time`` (Muller 1973)."""
    return 1.0 / (1.0 + rate * dead_time)


def _d2_noise_rate(config) -> float:
    """D2 clicks per second that no pair photon makes: the darks, and the
    unpolarized background that passes the analyser half the time and clicks."""
    return config.dark_rate_signal + config.background_rate_signal * 0.5 * config.eta_signal


class ExpectedCounts(NamedTuple):
    """The expected counts of one run, each named as the run's count in
    :class:`.simulation.SimulationResult`."""

    singles_d1: float
    singles_d2: float
    coincidences: float
    idler_detections: float
    signals_rotated: float


def expected_counts(config) -> ExpectedCounts:
    """The bench's model: the expected counts of one run of ``config``.

    D1 clicks at r1 = eta pair_rate / 2 + ``dark_rate_idler`` (half the
    pairs carry a V idler) and keeps m1 = r1 s1 (:func:`detector_survival`).
    The cell accepts rho = :func:`trigger_share` of those clicks, and its flat
    tops cover c = m1 rho ``pulse_flat`` of the time.  A heralded signal is
    rotated with p = rho if its own trigger's window meets it, else with c;
    a blocked trigger's signal comes after the blocking window has ended.
    Any other signal is rotated with c.  So with e = eta s1, a signal
    reaches the analyser as V with p_V = [e p + (1 - e) c] / 2 + (1 - c) / 2,
    and passes it with cos^2 as V and sin^2 as H.  D2 adds
    :func:`_d2_noise_rate` and keeps s2 of its clicks.  A heralded signal's
    click coincides with its trigger when the pair lag lies in the window,
    and the accidentals are :func:`accidental_coincidences`.
    """
    duration, eta = config.duration, config.eta_idler
    idler_rate = 0.5 * eta * config.pair_rate
    r1 = idler_rate + config.dark_rate_idler
    s1 = detector_survival(r1, config.detector_dead_time_d1)
    m1 = r1 * s1
    rho = trigger_share(config, m1)
    c = m1 * rho * config.pulse_flat
    lead = trigger_lead(config)
    p = rho if lead <= config.t_fiber < lead + config.pulse_flat else c
    e = eta * s1
    p_v = 0.5 * (e * p + (1.0 - e) * c) + 0.5 * (1.0 - c)
    sin, cos = math.sin(config.polarizer_theta), math.cos(config.polarizer_theta)
    pass_h, pass_v = sin * sin, cos * cos
    r2 = config.pair_rate * config.eta_signal * (p_v * pass_v + (1.0 - p_v) * pass_h)
    r2 += _d2_noise_rate(config)
    s2 = detector_survival(r2, config.detector_dead_time_d2)
    m2 = r2 * s2
    idlers = idler_rate * s1 * duration
    offset = config.t_fiber if config.coincidence_offset is None else config.coincidence_offset
    heralded = 0.0
    if abs(offset - config.t_fiber) <= config.coincidence_window / 2.0:
        heralded = idlers * config.eta_signal * s2 * (p * pass_v + (1.0 - p) * pass_h)
    accidentals = accidental_coincidences(m1, m2, config.coincidence_window, duration)
    return ExpectedCounts(
        m1 * duration, m2 * duration, heralded + accidentals, idlers, idlers * p
    )


def expected_background_fraction(config) -> float:
    """Analytic unpolarized share of the mean D2 counts for this config.

    The mean pair-photon click rate over a uniform angle scan is
    pair_rate / 2 times the detector efficiency; dark counts enter directly
    and background light passes the polarizer half the time.
    """
    signal_rate = config.pair_rate * 0.5 * config.eta_signal
    noise_rate = _d2_noise_rate(config)
    total = signal_rate + noise_rate
    return noise_rate / total if total > 0.0 else 0.0


def visibility_steps(config) -> list[tuple[str, float, float]]:
    """The visibility route's steps (report row, factor F, sigma of F), in order.

    One model function gives each factor: the polarized share 1 - b of the
    mean D2 counts, then the share 1 - f of accepted triggers that rotate.
    Raises ConfigError, before any draw, for a factor that is not positive.
    """
    steps = [
        ("v_background_corrected", 1.0 - expected_background_fraction(config), 0.0),
        ("v_cell_corrected", 1.0 - config.cell_fail_prob, 0.0),
    ]
    if not all(factor > 0.0 for _, factor, _ in steps):
        raise ConfigError(
            "calibrate needs an expected background fraction and a cell_fail_prob below 1"
        )
    return steps


def accidental_coincidences(
    rate_1: float, rate_2: float, window: float, duration: float
) -> float:
    """Expected accidental coincidences of two uncorrelated click streams.

    Flat-correlation estimate rate_1 * rate_2 * window * duration, valid
    while both rates times the window are small.  The engine's greedy
    one-to-one matcher falls short of it by a relative ~rate_2 * window / 2
    or more (at 2e6 pairs per run: 2% at rate_2 * window = 0.025, 4% at
    0.05, 6% at 0.075, 16% at 0.25), which exceeds 5 Poisson sigmas of
    ~1e4 accidentals from rate_2 * window ~ 0.05 on.
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
