"""Unified engine-capability reporting.

Every optional engine has its own ``capability()`` — the vector
engine's NumPy gate (:func:`repro.core.vectorscan.capability`) and the
native engine's kernel/compiler gate
(:func:`repro.core.nativescan.capability`).  This module is the one
place that composes them into the block surfaced everywhere a consumer
asks "what is this process actually running": the CLI ``capabilities``
command and ``--version`` banner, ``ScanService.stats()``, and the
server admin ``/stats`` endpoint.

``probe=False`` (the default everywhere observability calls this)
never triggers a just-in-time kernel build — it reports what is
already loaded or prebuilt, so a stats scrape stays cheap and
side-effect free.

The engine ladder is native → compiled, inside
:class:`~repro.core.nativescan.NativeTagger`; the vector engine is a
named engine, not a rung.
"""

from __future__ import annotations

__all__ = [
    "ENGINE_CHOICES",
    "describe_capabilities",
    "engine_capabilities",
    "resolve_engine",
]

#: Every engine name BehavioralTagger accepts.
ENGINES = ("interpreted", "compiled", "vector", "native")

#: ``--engine`` choices of the CLI (every engine, fastest first).
ENGINE_CHOICES = ("native", "vector", "compiled", "interpreted")


def resolve_engine(name: str, *, streaming: bool = False) -> str:
    """Check an engine name against :data:`ENGINES` and return it.

    This is the single engine-name check shared by
    ``BehavioralTagger``, the CLI ``--engine`` flags and the service
    specs (each module used to validate its own strings, and the
    accepted sets had drifted).  There is no ladder to walk here:
    ``"native"`` already runs the compiled loop when no kernel can
    load (:class:`~repro.core.nativescan.NativeTagger`).

    ``streaming=True`` additionally rejects ``"interpreted"``, whose
    whole-buffer scan cannot carry state across chunk boundaries —
    the services and server require an incremental engine.
    """
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {ENGINES}"
        )
    if streaming and name == "interpreted":
        raise ValueError(
            "engine 'interpreted' has no incremental scan; streaming "
            "consumers need 'compiled', 'vector' or 'native'"
        )
    return name


def engine_capabilities(
    engine: str | None = None, probe: bool = False
) -> dict:
    """One dict with every optional engine's runtime flags.

    ``engine`` (when given) names the engine the caller has selected —
    e.g. a service's configured worker engine — and is echoed under
    ``"name"`` so stats consumers see both the choice and the
    environment it lands in.
    """
    from repro.core import nativescan, vectorscan

    caps: dict = {
        "engines": list(ENGINES),
        "vector": vectorscan.capability(),
        "native": nativescan.capability(probe=probe),
    }
    if engine is not None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        caps["name"] = engine
    return caps


def describe_capabilities(probe: bool = False) -> str:
    """Human-readable flag listing (the CLI ``capabilities`` command)."""
    caps = engine_capabilities(probe=probe)
    lines = [f"engines: {', '.join(caps['engines'])}"]
    for name in ("vector", "native"):
        flags = ", ".join(f"{k}={v}" for k, v in caps[name].items())
        lines.append(f"{name}: {flags}")
    return "\n".join(lines)


def capability_summary() -> str:
    """One-line summary for the ``--version`` banner."""
    caps = engine_capabilities()
    vector = "numpy" if caps["vector"]["numpy"] else "no-numpy"
    native = caps["native"]
    if native["native"]:
        kernel = native["source"] or "loaded"
    elif native["disabled_by_env"]:
        kernel = "disabled"
    elif native["compiler"]:
        kernel = "buildable"
    else:
        kernel = "no-compiler"
    return f"vector: {vector}; native: {kernel}"
