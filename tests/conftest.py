"""Shared test configuration.

The ``ci`` hypothesis profile draws the same examples on every run, so a
failure seen in CI reproduces locally with the same command:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None,
                          print_blob=True)
