"""Shared fixtures for the figure-regeneration benchmarks.

Every benchmark runs the full experiment once inside
``benchmark.pedantic`` (the simulations are deterministic — repeated
rounds would measure the same virtual trajectory), prints the paper's
rows, persists a JSON artifact, and asserts the figure's *shape*
claims.  Artifacts go to a temporary directory unless
``$REPRO_RESULTS_DIR`` names one, so a test run never rewrites the
committed ``benchmarks/results/``; regenerate those with
``REPRO_RESULTS_DIR=benchmarks/results``.

Scale points default to 32..8192 with x4 steps (the paper doubles);
override with ``REPRO_POINTS=32,64,128,...`` for the full axis or a
quick pass (e.g. ``REPRO_POINTS=32,128``).
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _results_dir(tmp_path_factory):
    if os.environ.get("REPRO_RESULTS_DIR"):
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_RESULTS_DIR",
                  str(tmp_path_factory.mktemp("results")))
        yield


@pytest.fixture
def points():
    from repro.bench import scale_points
    return scale_points()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): marks a benchmark regenerating a "
        "specific paper figure")
