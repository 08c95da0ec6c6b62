"""Exact polarization algebra for the feed-forward purification bench.

Conventions, used consistently across the package:

* single-photon basis order is (H, V): index 0 = horizontal, 1 = vertical;
* two-photon basis order is (HH, HV, VH, VV) with the signal photon in the
  first slot and the idler (trigger) photon in the second;
* polarizer angles are measured from the vertical transmission axis, so a
  polarizer at theta = 0 transmits |V> and one at theta = pi/2 transmits
  |H>.  Inputs labelled from the horizontal axis can be translated at the
  I/O boundary (see :mod:`.cli`);
* Stokes sign convention: s1 > 0 for vertical polarization, so the
  conditionally rotated signal state maps onto (N, eta * N, 0, 0).

All operations are pure functions over immutable values.  Every returned
state is validated on construction (Hermitian, unit trace, positive
semidefinite within ``ATOL``), so invalid states cannot propagate through
a computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for the exact-algebra layer.  Validation, idempotence
# and round-trip guarantees all hold at this level.
ATOL = 1e-12

# Relative slack on the Stokes cone constraint s1^2+s2^2+s3^2 <= s0^2, so
# that vectors computed from valid states never fail validation by rounding.
STOKES_SLACK = 1e-9


def _as_density_matrix(matrix: object, dim: int) -> np.ndarray:
    """Validate and freeze a density matrix of the given dimension."""
    m = np.array(matrix, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("density matrix has non-finite entries")
    if not np.allclose(m, m.conj().T, rtol=0.0, atol=ATOL):
        raise ValueError("density matrix is not Hermitian")
    trace = m.trace()
    if abs(trace - 1.0) > dim * ATOL:
        raise ValueError(f"density matrix trace {trace} is not 1")
    eigenvalues = np.linalg.eigvalsh(m)
    if eigenvalues.min() < -ATOL:
        raise ValueError(
            f"density matrix has negative eigenvalue {eigenvalues.min():.3e}"
        )
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class PolarizationState:
    """Single-photon polarization density matrix, 2x2 over (H, V)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _as_density_matrix(self.matrix, 2))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True, eq=False)
class TwoPhotonState:
    """Two-photon polarization density matrix, 4x4 over (HH, HV, VH, VV)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _as_density_matrix(self.matrix, 4))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class StokesVector:
    """Stokes 4-vector (s0, s1, s2, s3) in counts or count rate units.

    s1 > 0 means predominantly vertical; the (s2, s3) pair encodes the
    real and imaginary parts of the H-V coherence.
    """

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self) -> None:
        values = (self.s0, self.s1, self.s2, self.s3)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("Stokes components must be finite")
        if self.s0 < 0.0:
            raise ValueError("s0 must be non-negative")
        norm = self.s1**2 + self.s2**2 + self.s3**2
        bound = self.s0**2 * (1.0 + STOKES_SLACK) + STOKES_SLACK
        if norm > bound:
            raise ValueError(
                "polarized part exceeds total intensity: "
                f"s1^2+s2^2+s3^2 = {norm} > s0^2 = {self.s0**2}"
            )


# ---------------------------------------------------------------------------
# constructors


def horizontal() -> PolarizationState:
    """|H><H|."""
    return PolarizationState(np.diag([1.0, 0.0]))


def vertical() -> PolarizationState:
    """|V><V|."""
    return PolarizationState(np.diag([0.0, 1.0]))


def maximally_mixed() -> PolarizationState:
    """Unpolarized single-photon state I/2."""
    return PolarizationState(np.eye(2) / 2.0)


def pure_state(amplitude_h: complex, amplitude_v: complex) -> PolarizationState:
    """Pure state a_H |H> + a_V |V>, normalized from the given amplitudes."""
    ket = np.array([amplitude_h, amplitude_v], dtype=np.complex128)
    norm = float(np.linalg.norm(ket))
    if norm <= 0.0 or not math.isfinite(norm):
        raise ValueError("amplitudes must have positive finite norm")
    ket = ket / norm
    return PolarizationState(np.outer(ket, ket.conj()))


def polarizer_ket(angle: float) -> np.ndarray:
    """Transmission-axis ket cos(theta)|V> + sin(theta)|H> in (H, V) order."""
    theta = float(angle)
    if not math.isfinite(theta):
        raise ValueError("polarizer angle must be finite")
    return np.array([math.sin(theta), math.cos(theta)], dtype=np.complex128)


def two_photon_pure(amplitudes: object) -> TwoPhotonState:
    """Pure two-photon state from 4 amplitudes in (HH, HV, VH, VV) order."""
    ket = np.asarray(amplitudes, dtype=np.complex128).reshape(4)
    norm = float(np.linalg.norm(ket))
    if norm <= 0.0 or not math.isfinite(norm):
        raise ValueError("amplitudes must have positive finite norm")
    ket = ket / norm
    return TwoPhotonState(np.outer(ket, ket.conj()))


def make_pure_biphoton(phase: float) -> TwoPhotonState:
    """Pure source state (|HV> + e^{i phase} |VH>) / sqrt(2).

    The signal photon occupies the first slot, so |HV> means a horizontal
    signal paired with a vertical idler.
    """
    if not math.isfinite(phase):
        raise ValueError("phase must be finite")
    return two_photon_pure([0.0, 1.0, np.exp(1j * phase), 0.0])


def make_mixed_biphoton() -> TwoPhotonState:
    """Phase-averaged source state (|HV><HV| + |VH><VH|) / 2."""
    return TwoPhotonState(np.diag([0.0, 0.5, 0.5, 0.0]))


# ---------------------------------------------------------------------------
# operations


def partial_trace(state: TwoPhotonState, keep: str) -> PolarizationState:
    """Reduced single-photon state, keeping the ``"signal"`` or ``"idler"`` slot."""
    m = state.matrix.reshape(2, 2, 2, 2)
    if keep == "signal":
        reduced = np.einsum("abcb->ac", m)
    elif keep == "idler":
        reduced = np.einsum("abac->bc", m)
    else:
        raise ValueError(f"keep must be 'signal' or 'idler', got {keep!r}")
    return PolarizationState(reduced)


def apply_rotation(state: PolarizationState, alpha: float) -> PolarizationState:
    """Rotate the polarization plane by alpha: R(pi/2) maps H onto V."""
    if not math.isfinite(alpha):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(alpha), math.sin(alpha)
    r = np.array([[c, -s], [s, c]], dtype=np.complex128)
    return PolarizationState(r @ state.matrix @ r.conj().T)


def project_polarizer(state: PolarizationState, angle: float) -> float:
    """Malus-law transmission probability through a polarizer at ``angle``.

    The angle is measured from vertical, so theta = 0 gives the |V>
    transmission probability.  The result is clipped to [0, 1] against
    rounding at the ``ATOL`` level.
    """
    ket = polarizer_ket(angle)
    p = float(np.real(ket.conj() @ state.matrix @ ket))
    return min(max(p, 0.0), 1.0)


def condition_on_idler_V(state: TwoPhotonState) -> tuple[float, PolarizationState]:
    """Project the idler onto |V> and return (probability, signal state).

    Raises ValueError when the outcome probability vanishes (within ATOL),
    since the conditional state is undefined there.
    """
    m = state.matrix.reshape(2, 2, 2, 2)
    # Only idler index V (=1) survives the projector on both sides.
    unnormalized = m[:, 1, :, 1]
    probability = float(np.real(unnormalized[0, 0] + unnormalized[1, 1]))
    if probability <= ATOL:
        raise ValueError("cannot condition on a zero-probability idler outcome")
    return probability, PolarizationState(unnormalized / probability)


def conditional_feedforward_state(eta: float) -> PolarizationState:
    """Signal state after the triggered rotation, for trigger efficiency eta.

    A detected vertical idler (probability eta per vertical idler) flips the
    paired horizontal signal onto V; an undetected one leaves it on H.  The
    resulting ensemble is diag((1-eta)/2, (1+eta)/2) over (H, V), i.e. a
    partially polarized state with polarization degree exactly eta.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return PolarizationState(np.diag([(1.0 - eta) / 2.0, (1.0 + eta) / 2.0]))


def stokes_from_state(state: PolarizationState, total: float = 1.0) -> StokesVector:
    """Stokes vector of ``state`` scaled to total intensity ``total``."""
    if not math.isfinite(total) or total < 0.0:
        raise ValueError("total intensity must be finite and non-negative")
    m = state.matrix
    s1 = float(np.real(m[1, 1] - m[0, 0]))
    s2 = 2.0 * float(np.real(m[0, 1]))
    s3 = 2.0 * float(np.imag(m[0, 1]))
    return StokesVector(total, total * s1, total * s2, total * s3)


def state_from_stokes(stokes: StokesVector) -> PolarizationState:
    """Density matrix for a Stokes vector with s0 > 0.

    Polarization degrees above one by more than the representable slack are
    rejected; tiny overshoots from rounding are renormalized onto the unit
    Bloch sphere so that pure states survive round trips.
    """
    if stokes.s0 <= 0.0:
        raise ValueError("s0 must be positive to normalize a state")
    q = np.array([stokes.s1, stokes.s2, stokes.s3]) / stokes.s0
    degree = float(np.linalg.norm(q))
    if degree > 1.0 + STOKES_SLACK:
        raise ValueError(f"polarization degree {degree} exceeds 1")
    if degree > 1.0:
        q = q / degree
    q1, q2, q3 = q
    m = 0.5 * np.array(
        [[1.0 - q1, q2 + 1j * q3], [q2 - 1j * q3, 1.0 + q1]],
        dtype=np.complex128,
    )
    return PolarizationState(m)


def degree_of_polarization(stokes: StokesVector) -> float:
    """P = sqrt(s1^2 + s2^2 + s3^2) / s0; requires s0 > 0."""
    if stokes.s0 <= 0.0:
        raise ValueError("degree of polarization requires s0 > 0")
    return math.sqrt(stokes.s1**2 + stokes.s2**2 + stokes.s3**2) / stokes.s0


def joint_polarizer_probabilities(state: TwoPhotonState, signal_angle: float) -> np.ndarray:
    """Joint pass/block probabilities behind the two polarizers.

    The idler arm holds the fixed vertical polarizer, the signal arm one at
    ``signal_angle``.  Returns a (2, 2) array indexed
    ``[idler_passes, signal_passes]`` with 0 = blocked, 1 = passed, computed
    by brute-force projector expectation values on the 4x4 matrix.
    """
    identity = np.eye(2, dtype=np.complex128)
    sig_ket = polarizer_ket(signal_angle)
    sig_pass = np.outer(sig_ket, sig_ket.conj())
    idler_pass = np.diag([0.0, 1.0]).astype(np.complex128)
    probabilities = np.empty((2, 2))
    for i, idler_op in enumerate((identity - idler_pass, idler_pass)):
        for j, signal_op in enumerate((identity - sig_pass, sig_pass)):
            joint = np.kron(signal_op, idler_op)  # signal slot first
            probabilities[i, j] = float(np.real(np.trace(state.matrix @ joint)))
    return np.clip(probabilities, 0.0, 1.0)
