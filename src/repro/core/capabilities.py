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

The engine ladder is native → compiled (:func:`resolve_engine`); the
vector engine is a named engine, not a rung.
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

#: Spellings :func:`resolve_engine` accepts (CLI ``--engine`` choices).
ENGINE_CHOICES = ("auto", "native", "vector", "compiled", "interpreted")


def resolve_engine(
    name: str = "auto", *, streaming: bool = False, probe: bool = False
) -> str:
    """Canonicalize an engine selection to one of :data:`ENGINES`.

    This is the single engine-name dispatch point shared by
    ``BehavioralTagger``, the CLI ``--engine`` flags, ``ScanService``
    and ``ScanServer`` (each module used to validate its own strings,
    and the accepted sets had drifted).  Accepts the canonical names
    and ``"auto"``, which walks the ladder: native when a kernel is
    loaded/prebuilt or a compiler could build one (and the env gate
    allows it), else compiled.  ``probe=True`` lets the native check
    trigger a one-time JIT build; the default stays side-effect free.

    ``streaming=True`` additionally rejects ``"interpreted"``, whose
    whole-buffer scan cannot carry state across chunk boundaries —
    the services and server require an incremental engine.
    """
    if name == "auto":
        from repro.core import nativescan

        native = nativescan.capability(probe=probe)
        live = native["native"] or native["compiler"]
        live = live and not native["disabled_by_env"]
        name = "native" if live else "compiled"
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; expected one of "
            f"{ENGINES + ('auto',)}"
        )
    if streaming and name == "interpreted":
        raise ValueError(
            "engine 'interpreted' has no incremental scan; streaming "
            "consumers need 'compiled', 'vector', 'native' or 'auto'"
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
