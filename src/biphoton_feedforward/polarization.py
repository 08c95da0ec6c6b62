"""Exact polarization algebra for the feed-forward purification bench.

Conventions, used consistently across the package:

* single-photon basis order is (H, V): index 0 = horizontal, 1 = vertical;
* two-photon basis order is (HH, HV, VH, VV) with the signal photon in the
  first slot and the idler (trigger) photon in the second;
* polarizer angles are measured from the vertical transmission axis, so a
  polarizer at theta = 0 transmits |V> and one at theta = pi/2 transmits
  |H>;
* the feed-forward signal state is diag((1 - eta)/2, (1 + eta)/2) over
  (H, V), whose degree of polarization is eta.

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


@dataclass(frozen=True, eq=False)
class _DensityMatrix:
    """A validated, read-only density matrix; each subclass sets its dimension ``_dim``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = self._dim
        m = np.array(self.matrix, dtype=np.complex128)
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
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class PolarizationState(_DensityMatrix):
    """Single-photon polarization density matrix, 2x2 over (H, V)."""

    _dim = 2


@dataclass(frozen=True, eq=False)
class TwoPhotonState(_DensityMatrix):
    """Two-photon polarization density matrix, 4x4 over (HH, HV, VH, VV)."""

    _dim = 4


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


def polarizer_ket(angle: float) -> np.ndarray:
    """Transmission-axis ket cos(theta)|V> + sin(theta)|H> in (H, V) order."""
    theta = float(angle)
    if not math.isfinite(theta):
        raise ValueError("polarizer angle must be finite")
    return np.array([math.sin(theta), math.cos(theta)], dtype=np.complex128)


def make_pure_biphoton(phase: float) -> TwoPhotonState:
    """Pure source state (|HV> + e^{i phase} |VH>) / sqrt(2).

    The signal photon occupies the first slot, so |HV> means a horizontal
    signal paired with a vertical idler.
    """
    if not math.isfinite(phase):
        raise ValueError("phase must be finite")
    ket = np.array([0.0, 1.0, np.exp(1j * phase), 0.0]) / math.sqrt(2.0)
    return TwoPhotonState(np.outer(ket, ket.conj()))


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


def feedforward(state: TwoPhotonState, eta: float) -> PolarizationState:
    """Signal state behind the bench's feed-forward, for D1 efficiency eta.

    The idler meets the vertical analyser and then D1, which splits the
    pairs into three branches:

    * the idler passes V and D1 clicks (weight eta): the cell rotates the
      paired signal by pi/2;
    * the idler passes V and D1 misses it: the signal is left alone;
    * the idler is H and the analyser blocks it: the signal is left alone.

    Tracing out the idler sums the branches.  A state whose idler is never V
    has only the last one, so its signal marginal passes unchanged.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    marginal = partial_trace(state, "signal")
    try:
        p_v, given_v = condition_on_idler_V(state)
    except ValueError:
        return marginal
    rotated = apply_rotation(given_v, math.pi / 2.0)
    blocked = marginal.matrix - p_v * given_v.matrix
    missed = (1.0 - eta) * p_v * given_v.matrix
    return PolarizationState(blocked + missed + eta * p_v * rotated.matrix)


def conditional_feedforward_state(eta: float) -> PolarizationState:
    """Signal state after the feed-forward on the phase-averaged source.

    The ensemble is diag((1-eta)/2, (1+eta)/2) over (H, V), a partially
    polarized state with polarization degree exactly eta.
    """
    return feedforward(make_mixed_biphoton(), eta)


def degree_of_polarization(state: PolarizationState) -> float:
    """P = sqrt(s1^2 + s2^2 + s3^2) with the Stokes components of the matrix.

    s1 = rho_VV - rho_HH and s2 + i s3 = 2 rho_HV, so P is the gap between
    the two eigenvalues: 1 for a pure state, 0 for I/2.
    """
    m = state.matrix
    s1 = float(np.real(m[1, 1] - m[0, 0]))
    s2 = 2.0 * float(np.real(m[0, 1]))
    s3 = 2.0 * float(np.imag(m[0, 1]))
    return math.sqrt(s1**2 + s2**2 + s3**2)


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
