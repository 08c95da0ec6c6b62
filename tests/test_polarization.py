"""Exact-algebra checks for the polarization layer.

Frozen oracles are computed independently of the library (closed forms
written out by hand); property tests assert structural identities that hold
for every valid input.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_feedforward.analysis import expected_counts
from biphoton_feedforward.polarization import (
    ATOL,
    PolarizationState,
    TwoPhotonState,
    apply_rotation,
    condition_on_idler_V,
    conditional_feedforward_state,
    degree_of_polarization,
    feedforward,
    horizontal,
    joint_polarizer_probabilities,
    make_mixed_biphoton,
    make_pure_biphoton,
    maximally_mixed,
    partial_trace,
    polarizer_ket,
    project_polarizer,
    vertical,
)
from biphoton_feedforward.simulation import ExperimentConfig

ETA = 0.476


# ---------------------------------------------------------------------------
# frozen oracles


def test_feedforward_state_frozen_matrix():
    # (1 - 0.476) / 2 = 0.262, (1 + 0.476) / 2 = 0.738, no coherences.
    expected = np.array([[0.262, 0.0], [0.0, 0.738]], dtype=complex)
    np.testing.assert_allclose(
        conditional_feedforward_state(ETA).matrix, expected, atol=1e-15
    )


def test_purification_degree_equals_eta_on_grid():
    for eta in np.linspace(0.0, 1.0, 11):
        state = conditional_feedforward_state(float(eta))
        assert abs(degree_of_polarization(state) - eta) <= 1e-12


def test_phase_average_of_pure_biphoton_is_mixed_state():
    # Averaging exp(i*phase) over a uniform grid of 8 phases cancels the
    # off-diagonal coherence exactly, leaving the classical mixture.
    acc = np.zeros((4, 4), dtype=complex)
    for k in range(8):
        acc += make_pure_biphoton(2.0 * math.pi * k / 8.0).matrix
    np.testing.assert_allclose(acc / 8.0, make_mixed_biphoton().matrix, atol=1e-12)


def test_conditioning_then_rotation_builds_feedforward_state():
    prob, conditioned = condition_on_idler_V(make_mixed_biphoton())
    assert abs(prob - 0.5) <= 1e-12
    np.testing.assert_allclose(conditioned.matrix, horizontal().matrix, atol=1e-12)
    rotated = apply_rotation(conditioned, math.pi / 2.0)
    np.testing.assert_allclose(rotated.matrix, vertical().matrix, atol=1e-12)
    # eta of triggered pairs rotated to V, the rest stay maximally mixed
    blended = PolarizationState(
        ETA * rotated.matrix + (1.0 - ETA) * maximally_mixed().matrix
    )
    np.testing.assert_allclose(
        blended.matrix, conditional_feedforward_state(ETA).matrix, atol=1e-15
    )


def test_joint_probabilities_frozen_at_30_degrees():
    # Mixed biphoton: half (signal H, idler V), half (signal V, idler H).
    # Idler analyser passes only the idler-V branch; a horizontal signal
    # passes a 30-degrees-from-vertical analyser with sin^2(30deg) = 1/4.
    joint = joint_polarizer_probabilities(make_mixed_biphoton(), math.pi / 6.0)
    expected = np.array([[0.125, 0.375], [0.375, 0.125]])
    np.testing.assert_allclose(joint, expected, atol=1e-12)
    assert abs(joint.sum() - 1.0) <= 1e-12


def test_singles_law_from_feedforward_state():
    state = conditional_feedforward_state(ETA)
    for theta in np.linspace(0.0, math.pi, 7):
        law = 0.5 * (1.0 + ETA * math.cos(2.0 * theta))
        assert abs(project_polarizer(state, float(theta)) - law) <= 1e-12


@pytest.mark.parametrize("eta", [0.0, ETA, 1.0])
def test_model_fringe_is_the_feedforward_projection(eta):
    # at a vanishing pair rate the cell blocks no trigger and its flat tops
    # meet no stray signal, so the model's D2 clicks per pair are the
    # projection of the feed-forward state; a trigger 150 ns late rotates
    # nothing and leaves the signal maximally mixed
    for theta in np.linspace(0.0, math.pi, 7):
        config = ExperimentConfig(pair_rate=1e-6, eta_idler=eta, polarizer_theta=float(theta))
        for delay, state in ((0.0, conditional_feedforward_state(eta)), (150e-9, maximally_mixed())):
            per_pair = expected_counts(replace(config, t_electronic=delay)).singles_d2 / 1e-6
            assert abs(per_pair - project_polarizer(state, float(theta))) <= 1e-9


def test_polarizer_ket_convention():
    np.testing.assert_allclose(polarizer_ket(0.0), [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(polarizer_ket(math.pi / 2.0), [1.0, 0.0], atol=1e-12)
    for angle in (math.nan, math.inf):
        with pytest.raises(ValueError, match="polarizer angle must be finite"):
            polarizer_ket(angle)


def test_partial_traces_of_mixed_biphoton():
    mixed = make_mixed_biphoton()
    np.testing.assert_allclose(
        partial_trace(mixed, "signal").matrix, maximally_mixed().matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(mixed, "idler").matrix, maximally_mixed().matrix, atol=1e-12
    )


def test_partial_trace_of_product_state():
    # |V>_signal |H>_idler: diagonal ordered HH, HV, VH, VV (signal first)
    product = TwoPhotonState(np.diag([0.0, 0.0, 1.0, 0.0]))
    np.testing.assert_allclose(
        partial_trace(product, "signal").matrix, vertical().matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(product, "idler").matrix, horizontal().matrix, atol=1e-12
    )


# ---------------------------------------------------------------------------
# validation and error paths


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        PolarizationState(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        PolarizationState(np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
    with pytest.raises(ValueError):
        PolarizationState(np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD
    # an eigenvalue of exactly -ATOL is rounding, and passes
    assert PolarizationState(np.diag([1.0 + ATOL, -ATOL])).matrix[1, 1] == -ATOL
    with pytest.raises(ValueError):
        TwoPhotonState(np.eye(3) / 3.0)  # wrong dimension


def test_state_matrices_are_frozen():
    state = vertical()
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 1.0


def test_conditioning_on_impossible_outcome_raises():
    # signal V, idler H: the idler never passes a vertical analyser
    product = TwoPhotonState(np.diag([0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        condition_on_idler_V(product)
    # a probability of exactly ATOL counts as zero
    with pytest.raises(ValueError):
        condition_on_idler_V(TwoPhotonState(np.diag([1.0 - ATOL, ATOL, 0.0, 0.0])))


def test_feedforward_state_rejects_bad_eta():
    with pytest.raises(ValueError):
        conditional_feedforward_state(-0.1)
    with pytest.raises(ValueError):
        conditional_feedforward_state(1.1)


# ---------------------------------------------------------------------------
# property tests


def _random_state(cls, weights, amplitudes):
    """Mixture of pure states, a generic valid density matrix of ``cls``.

    Each ket's amplitudes come as (re, im) pairs in basis order.
    """
    dim = cls._dim
    matrix = np.zeros((dim, dim), dtype=complex)
    total = sum(weights)
    for w, parts in zip(weights, amplitudes):
        ket = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
        norm = np.linalg.norm(ket)
        if norm < 1e-6:
            ket = np.eye(dim, dtype=complex)[0]
            norm = 1.0
        ket = ket / norm
        matrix += (w / total) * np.outer(ket, ket.conj())
    return cls(matrix)


_amplitude = st.floats(-1.0, 1.0, allow_nan=False)
_weights = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)
_states = st.builds(
    _random_state,
    st.just(PolarizationState),
    _weights,
    st.lists(st.tuples(*[_amplitude] * 4), min_size=3, max_size=3),
)
_pure_states = st.builds(
    _random_state,
    st.just(PolarizationState),
    st.just([1.0]),
    st.lists(st.tuples(*[_amplitude] * 4), min_size=1, max_size=1),
)
_two_photon_states = st.builds(
    _random_state,
    st.just(TwoPhotonState),
    _weights,
    st.lists(st.tuples(*[_amplitude] * 8), min_size=3, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(_states, st.floats(-10.0, 10.0, allow_nan=False))
def test_rotation_round_trip(state, alpha):
    back = apply_rotation(apply_rotation(state, alpha), -alpha)
    np.testing.assert_allclose(back.matrix, state.matrix, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(_states, st.floats(-10.0, 10.0, allow_nan=False))
def test_complementary_polarizers_exhaust_probability(state, theta):
    total = project_polarizer(state, theta) + project_polarizer(
        state, theta + math.pi / 2.0
    )
    assert abs(total - 1.0) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0, allow_nan=False))
def test_purification_exact_for_any_eta(eta):
    state = conditional_feedforward_state(eta)
    m = state.matrix
    assert abs(degree_of_polarization(state) - eta) <= 1e-12
    assert abs((m[1, 1] - m[0, 0]).real - eta) <= 1e-12
    assert abs(2.0 * m[0, 1].real) <= 1e-12 and abs(2.0 * m[0, 1].imag) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(_states, _pure_states)
def test_degree_of_polarization_is_the_eigenvalue_gap(state, pure):
    # the H-V coherence counts: a state with rho_HV != 0 is more polarized
    # than its diagonal alone says
    low, high = np.linalg.eigvalsh(state.matrix)
    assert abs(degree_of_polarization(state) - (high - low)) <= 1e-12
    assert abs(degree_of_polarization(pure) - 1.0) <= 1e-12
    assert degree_of_polarization(maximally_mixed()) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_pure_biphoton_marginals_are_unpolarized(phase):
    pure = make_pure_biphoton(phase)
    assert abs(np.trace(pure.matrix @ pure.matrix).real - 1.0) <= 1e-12
    for side in ("signal", "idler"):
        np.testing.assert_allclose(
            partial_trace(pure, side).matrix, maximally_mixed().matrix, atol=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(st.floats(-10.0, 10.0, allow_nan=False))
def test_rotation_by_half_pi_swaps_h_and_v(alpha_offset):
    rotated = apply_rotation(horizontal(), math.pi / 2.0)
    np.testing.assert_allclose(rotated.matrix, vertical().matrix, atol=1e-12)
    # arbitrary pure state keeps purity under rotation
    ket = np.array([math.cos(alpha_offset), math.sin(alpha_offset)], dtype=complex)
    m = apply_rotation(PolarizationState(np.outer(ket, ket.conj())), alpha_offset).matrix
    assert abs(np.trace(m @ m).real - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# the feed-forward channel


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False))
def test_feedforward_ignores_the_source_phase(phase, eta):
    # each photon alone is unpolarized, so the phase that makes the pure
    # biphoton differ from the mixed one never reaches the signal
    np.testing.assert_allclose(
        feedforward(make_pure_biphoton(phase), eta).matrix,
        feedforward(make_mixed_biphoton(), eta).matrix,
        atol=1e-12,
    )


@settings(max_examples=100, deadline=None)
@given(_two_photon_states)
def test_feedforward_without_clicks_is_the_signal_marginal(state):
    np.testing.assert_allclose(
        feedforward(state, 0.0).matrix, partial_trace(state, "signal").matrix, atol=1e-12
    )


def test_feedforward_passes_a_never_vertical_idler_unchanged():
    # |V>_signal |H>_idler: no idler passes the analyser, so nothing rotates
    product = TwoPhotonState(np.diag([0.0, 0.0, 1.0, 0.0]))
    for eta in (0.0, ETA, 1.0):
        np.testing.assert_allclose(
            feedforward(product, eta).matrix, vertical().matrix, atol=1e-15
        )
