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

__version__ = "0.1.0"
