"""Hypothesis profiles: ``ci`` runs the properties that take their example
count from the profile (those whose @settings sets only a deadline) with
five times hypothesis' default.  Select it with --hypothesis-profile=ci.

``--full-box`` runs acceptance test 12 on its whole random box of configs,
not on the slice the default run takes."""

from hypothesis import settings

settings.register_profile("ci", max_examples=500)


def pytest_addoption(parser):
    parser.addoption("--full-box", action="store_true", help="acceptance test 12 on its whole box of configs")
