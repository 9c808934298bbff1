"""Hypothesis profiles: ``ci`` runs the properties that take their example
count from the profile (those whose @settings sets only a deadline) with
five times hypothesis' default.  Select it with --hypothesis-profile=ci."""

from hypothesis import settings

settings.register_profile("ci", max_examples=500)
