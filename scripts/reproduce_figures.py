#!/usr/bin/env python3
"""Run every canned scenario in scenarios/ and print the headline numbers.

Usage: python3 scripts/reproduce_figures.py [OUT_DIR]

Writes curve.csv / report.txt for each scenario under OUT_DIR (default
``results/``) and summarises the physics on stdout: raw vs corrected
visibility for the noisy fringe, the dead-time-diluted coincidence
visibility, the rotation-edge delay, and the two efficiency estimates.
"""

from __future__ import annotations

import sys
from pathlib import Path

from biphoton_feedforward.analysis import correct_visibility, expected_background_fraction, visibility_steps
from biphoton_feedforward.cli import GOLDEN_COMMANDS, build_scenario, load_config_file, run_scenario


def main(argv: list[str]) -> int:
    out_root = Path(argv[1]) if len(argv) > 1 else Path("results")
    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"

    for name, (*_, kind) in GOLDEN_COMMANDS:
        config, extras = load_config_file(scenario_dir / f"{name}.cfg")
        scenario = build_scenario(kind, config, extras, out_dir=out_root / name)
        artifacts = run_scenario(scenario)
        print(f"== {name} ({kind}) -> {out_root / name}")

        if name == "fig2":
            fit = artifacts["singles_fit"]
            steps = visibility_steps(config)
            _, corrected = correct_visibility(fit.visibility_v, fit.sigma_visibility, steps)[-1]
            background = expected_background_fraction(config)
            print(f"   raw visibility        {fit.visibility_v:.4f} +/- {fit.sigma_visibility:.4f}")
            print(f"   corrected visibility  {corrected.value:.4f}  (background {background:.2f}, failures {config.cell_fail_prob:.2f})")
        elif name == "fig3":
            runs = artifacts["runs"]
            fit = artifacts["coincidence_fit"]
            failure = 1.0 - sum(run.rotated_fraction for run in runs) / len(runs)
            print(f"   coincidence visibility {fit.visibility_v:.4f} +/- {fit.sigma_visibility:.4f}")
            print(f"   measured trigger failure fraction {failure:.4f}")
        elif name == "fig4":
            edge = artifacts["edge"]
            fractions = [run.rotated_fraction for run in artifacts["runs"]]
            print(f"   rotated fraction {fractions[0]:.4f} at zero delay, {fractions[-1]:.4f} at the last point")
            if edge is not None:
                print(f"   rotation edge at {edge * 1e9:.2f} ns added delay")
        elif name == "calib":
            print(f"   eta, visibility route   {artifacts['eta_visibility']}")
            print(f"   eta, coincidence route  {artifacts['eta_klyshko']}")
        else:
            worst = min(check.p_value for check in artifacts["checks"])
            print(f"   {len(artifacts['checks'])} joint-outcome checks, worst p-value {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
