"""Fixtures shared by the beam suites."""

import pytest

from repro.apps.structgen import beam as beam_mod
from repro.core import _native_build


@pytest.fixture
def path(request, monkeypatch):
    """Put the process on one beam compute path (``request.param``):
    the portable loop the way a deployment gets it
    (``REPRO_DISABLE_NATIVE``), or the kernel when the native module
    builds here."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    elif _native_build.load_kernel() is None:
        pytest.skip("native module unavailable (no compiler)")
    assert beam_mod.beam_capability()["native"] == (
        request.param == "native"
    )
    return request.param
