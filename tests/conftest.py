"""Hypothesis profiles of the test suite.

The suite runs under hypothesis's default profile.  ``mutants`` drops the
shrink and explain phases: ``scripts/mutants.py`` asks only whether a test
fails, not for the smallest failing example, and selects the profile with
``--hypothesis-profile=mutants``.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target]
)
