"""Monte Carlo simulator and analysis tools for a feed-forward biphoton bench.

A polarization-entangled-turned-mixed biphoton source feeds two arms: the
idler meets a vertical polarizer and a trigger detector (D1), the signal
sits in a fiber delay and then crosses a fast polarization rotator that D1
clicks switch on.  The conditional rotation turns the signal's mixed state
into a partially polarized one whose degree of polarization equals the
trigger efficiency, which this package simulates event by event and
estimates back from the simulated data along two independent routes
(fringe visibility and coincidence calibration).
"""

from .analysis import (
    CalibrationReport,
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
from .polarization import (
    PolarizationState,
    StokesVector,
    TwoPhotonState,
    apply_rotation,
    condition_on_idler_V,
    conditional_feedforward_state,
    degree_of_polarization,
    horizontal,
    joint_polarizer_probabilities,
    make_mixed_biphoton,
    make_pure_biphoton,
    maximally_mixed,
    partial_trace,
    polarizer_ket,
    project_polarizer,
    pure_state,
    state_from_stokes,
    stokes_from_state,
    two_photon_pure,
    vertical,
)
from .simulation import (
    CellTimeline,
    ConfigError,
    ExperimentConfig,
    SimulationError,
    cell_busy_time,
    coincidence_match,
    delay_scan,
    derive_seed,
    find_rotation_edge,
    polarizer_scan,
    sample_joint_outcomes,
    sampling_soundness,
    simulate_run,
)

__version__ = "0.1.0"
