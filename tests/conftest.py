"""Shared fixtures for the test suite.

The suite honours the ``REPRO_FORCE_ENGINE`` environment variable (also
consulted by ``Simulator(engine="auto")`` itself): the CI matrix sets it to
``numpy`` to drive every auto-mode simulation — including all the batch and
trajectory tests — through the vectorized engine, proving it is a drop-in
replacement.  The session fixture below validates the value up front and
skips the run with a clear message when the forced engine's optional
dependency is missing, instead of failing every test individually.

The ``stepper_path`` fixture runs a test once per compiled-engine stepper:
the native kernel (skipped when it cannot load here) and the generated
Python stepper it falls back to.
"""

import os

import pytest

from repro.simulation import native
from repro.simulation.simulator import _ENGINES

#: The two loops behind ``engine="compiled"``.
STEPPER_PATHS = ("native", "generated")


def use_stepper_path(path, monkeypatch):
    """Make ``CompiledNet.stepper`` return the ``path`` loop for this test."""
    if path == "native":
        if native.kernel() is None:
            pytest.skip("the native stepper cannot load here (no C compiler?)")
    else:
        monkeypatch.setattr(native, "kernel", lambda: None)


@pytest.fixture(params=STEPPER_PATHS)
def stepper_path(request, monkeypatch):
    use_stepper_path(request.param, monkeypatch)
    return request.param


@pytest.fixture(scope="session", autouse=True)
def _honour_forced_engine():
    forced = os.environ.get("REPRO_FORCE_ENGINE")
    if forced:
        if forced not in _ENGINES:
            pytest.exit(
                f"REPRO_FORCE_ENGINE must be one of {_ENGINES}, got {forced!r}",
                returncode=4,
            )
        if forced in ("numpy", "ensemble"):
            pytest.importorskip(
                "numpy",
                reason=f"REPRO_FORCE_ENGINE={forced} requires the optional 'sim' extra",
            )
    yield
