"""Shared test configuration.

The ``ci`` hypothesis profile draws the same examples on every run, so a
failure seen in CI reproduces locally with the same command:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=ci

It leaves out the ``explain`` phase, which only annotates a shrunk failing
example: on a composite strategy it can keep a failure from reporting for
minutes.
"""

from hypothesis import Phase, settings

settings.register_profile("ci", derandomize=True, database=None,
                          print_blob=True,
                          phases=[p for p in Phase if p is not Phase.explain])
