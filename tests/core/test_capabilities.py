"""Unified engine-capability reporting (`repro.core.capabilities`).

One helper feeds every surface that advertises acceleration status —
CLI ``--version`` / ``capabilities``, the admin ``/stats`` endpoint,
service snapshots — so the shape is pinned here once.
"""

import pytest

from repro.core.capabilities import (
    ENGINE_CHOICES,
    ENGINES,
    capability_summary,
    describe_capabilities,
    engine_capabilities,
    resolve_engine,
)


def test_engine_list_is_the_ladder():
    assert ENGINES == ("interpreted", "compiled", "vector", "native")


def test_engine_capabilities_shape():
    caps = engine_capabilities()
    assert set(caps) == {"engines", "vector", "native"}
    assert caps["engines"] == list(ENGINES)
    assert set(caps["vector"]) == {"numpy", "disabled_by_env", "width"}
    assert set(caps["native"]) == {
        "native",
        "disabled_by_env",
        "compiler",
        "source",
    }


def test_engine_capabilities_names_the_selected_engine():
    caps = engine_capabilities("vector")
    assert caps["name"] == "vector"
    with pytest.raises(ValueError):
        engine_capabilities("turbo")


def test_describe_capabilities_lists_every_engine():
    text = describe_capabilities()
    for line in ("vector:", "native:"):
        assert line in text
    assert isinstance(capability_summary(), str)
    assert "vector:" in capability_summary()


def test_disable_env_is_reported(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    caps = engine_capabilities()
    assert caps["native"]["disabled_by_env"] is True
    assert caps["native"]["native"] is False
    assert "disabled" in capability_summary()


def test_disable_env_zero_keeps_the_kernel(monkeypatch):
    """``REPRO_DISABLE_NATIVE=0`` disables nothing, for the kernel
    loader and the capability flags alike: ``native`` takes the kernel
    whenever it is live."""
    from repro.core import _native_build
    from repro.core.nativescan import NativeTagger
    from repro.grammar.examples import if_then_else

    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "0")
    live = _native_build.load_kernel(probe=True) is not None
    assert engine_capabilities()["native"]["disabled_by_env"] is False
    assert NativeTagger(if_then_else()).native_active is live


# ----------------------------------------------------------------------
# resolve_engine: the one front door for every --engine surface
# ----------------------------------------------------------------------
def test_resolve_engine_passes_canonical_names_through():
    assert set(ENGINE_CHOICES) == set(ENGINES)
    for name in ENGINES:
        assert resolve_engine(name) == name


def test_resolve_engine_rejects_unknown_names():
    for name in ("turbo", "auto"):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(name)


def test_resolve_engine_streaming_rejects_interpreted():
    with pytest.raises(ValueError, match="incremental"):
        resolve_engine("interpreted", streaming=True)
