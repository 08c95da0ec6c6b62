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

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.  A name is imported on
# first use (PEP 562), so that ``analyze fit`` and ``--version``, which need
# neither the polarization algebra nor the engine, start without numpy.
_HOMES = {
    "analysis": (
        "ConfigError",
        "CurvePoint",
        "DataError",
        "FitError",
        "InconsistencyError",
        "SimulationError",
        "ValueWithError",
        "accidental_coincidences",
        "cell_busy_time",
        "correct_visibility",
        "detector_survival",
        "expected_background_fraction",
        "fit_visibility",
        "klyshko_efficiency",
        "poisson_count_sigma",
        "trigger_share",
    ),
    "polarization": (
        "PolarizationState",
        "StokesVector",
        "TwoPhotonState",
        "apply_rotation",
        "condition_on_idler_V",
        "conditional_feedforward_state",
        "degree_of_polarization",
        "horizontal",
        "joint_polarizer_probabilities",
        "make_mixed_biphoton",
        "make_pure_biphoton",
        "maximally_mixed",
        "partial_trace",
        "polarizer_ket",
        "project_polarizer",
        "pure_state",
        "state_from_stokes",
        "stokes_from_state",
        "two_photon_pure",
        "vertical",
    ),
    "simulation": (
        "CellTimeline",
        "ExperimentConfig",
        "coincidence_match",
        "delay_scan",
        "derive_seed",
        "find_rotation_edge",
        "polarizer_scan",
        "sampling_soundness",
        "simulate_run",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME_OF)


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
