"""Fixtures shared by the beam suites."""

import pytest

from repro.apps.structgen import beam as beam_mod


@pytest.fixture
def path(request, monkeypatch):
    """Put the process on one beam compute path (``request.param``):
    the portable loop the way a deployment gets it
    (``REPRO_DISABLE_NATIVE``), or the kernel when it builds here."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    elif beam_mod._load_kernel() is None:
        pytest.skip("beam kernel unavailable (no compiler)")
    assert beam_mod.beam_capability()["native"] == (
        request.param == "native"
    )
    return request.param
