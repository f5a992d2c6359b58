"""Native C engine ≡ vector engine ≡ compiled engine ≡ interpreted loop.

The native engine (:mod:`repro.core.nativescan`) replaces the wide
Python loop with one C call per chunk — flat step tables, an effect
bytecode interpreter, dead-region fast-forwarding, C-side event
materialization — none of which may be observable: same events, same
order, same earliest-start lexemes, same §5.2 error positions, same
results under any chunking.  This suite pins all of that 4-way
differentially (interpreted vs compiled vs vector vs native) on seeded
random byte soup and XML-RPC workloads, across the full wiring-corner
matrix.

When the kernel cannot be built (no compiler, ``REPRO_DISABLE_NATIVE``)
the differential tests still run — they then prove the fallback ladder
— while the native-only assertions skip gracefully.
"""

import pickle
import random
import zlib
from dataclasses import replace

import pytest

from repro.apps.xmlrpc.workload import WorkloadGenerator
from repro.core.compiled import CompiledTagger
from repro.core.generator import TaggerOptions
from repro.core.nativescan import NativeTagger, capability
from repro.core.tagger import BehavioralTagger
from repro.core.vectorscan import VectorTagger
from repro.core.wiring import WiringOptions
from repro.grammar.examples import balanced_parens, if_then_else, xmlrpc

GRAMMARS = {
    "ite": if_then_else,
    "xmlrpc": xmlrpc,
    "parens": balanced_parens,
}

#: Wiring corners the table lowering must specialize on, matching the
#: compiled and vector engines' differential matrices.
VARIANTS = {
    "default": WiringOptions(),
    "no-dup": WiringOptions(context_duplication=False),
    "always": WiringOptions(start_mode="always"),
    "recovery": WiringOptions(error_recovery=True),
}
VARIANTS["no-longest"] = replace(
    WiringOptions(),
    tokenizer=replace(WiringOptions().tokenizer, longest_match=False),
)

ALPHABET = b"if then else got() <methodCall>param</int>intx 0123abc\t\n "

#: One probe per session: attempts the just-in-time kernel build, so
#: every later construction is a cache hit (or an honest skip).
NATIVE_BUILT = capability(probe=True)["native"]

needs_native = pytest.mark.skipif(
    not NATIVE_BUILT,
    reason="native kernel unavailable (no compiler or disabled)",
)


def _random_streams(seed: int, count: int, max_len: int = 200):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, max_len)
        yield bytes(rng.choice(ALPHABET) for _ in range(n))


def _random_chunks(data: bytes, rng: random.Random):
    """Adversarial split boundaries: single bytes, odd runs, MTU runs."""
    i = 0
    while i < len(data):
        n = rng.choice((1, 3, 5, 7, 8, 9, 13, 64, 211, 1500))
        yield data[i : i + n]
        i += n


# ----------------------------------------------------------------------
# differential: full wiring matrix and 4-way agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gname", GRAMMARS)
@pytest.mark.parametrize("vname", VARIANTS)
def test_differential_random_streams(gname, vname):
    """scan() (events AND earliest starts) matches the compiled engine
    on every grammar × wiring corner."""
    grammar = GRAMMARS[gname]()
    options = TaggerOptions(wiring=VARIANTS[vname])
    compiled = CompiledTagger(grammar, options)
    native = NativeTagger(grammar, options)
    seed = zlib.crc32(f"native/{gname}/{vname}".encode())
    for data in _random_streams(seed=seed, count=40):
        assert native.scan(data) == compiled.scan(data)


@pytest.mark.parametrize("gname", GRAMMARS)
def test_four_way_agreement(gname):
    """All four engines agree — the native loop against the vector and
    compiled tables AND the interpreted reference semantics."""
    grammar = GRAMMARS[gname]()
    interpreted = BehavioralTagger(grammar, engine="interpreted")
    compiled = CompiledTagger(grammar)
    vector = VectorTagger(grammar)
    native = NativeTagger(grammar)
    seed = zlib.crc32(f"native4/{gname}".encode())
    for data in _random_streams(seed=seed, count=12):
        expected = compiled.scan(data)
        assert native.scan(data) == expected
        assert vector.scan(data) == expected
        assert expected == list(interpreted._scan(data, error_sink=None))


@needs_native
def test_native_path_is_live_on_xmlrpc():
    """The reference grammar densifies: these tests must exercise the C
    loop, not silently fall back down the ladder."""
    assert NativeTagger(xmlrpc()).native_active


def test_xmlrpc_workload_events_and_tags():
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    native = NativeTagger(grammar)
    data, _ = WorkloadGenerator(seed=41).stream(60)
    # events() takes the kernel's events-only fast path; scan()/tag()
    # carry the (event, match start) pairs. All must agree exactly.
    assert native.events(data) == compiled.events(data)
    assert native.scan(data) == compiled.scan(data)
    assert native.tag(data) == compiled.tag(data)


# ----------------------------------------------------------------------
# streaming: chunking invariance and cross-chunk state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trial", range(4))
def test_stream_chunking_invariance(trial):
    """Any split of the stream — mid-token, single bytes, MTU runs —
    yields the one-shot result, matching the compiled session exactly
    chunk by chunk."""
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    native = NativeTagger(grammar)
    data, _ = WorkloadGenerator(seed=300 + trial).stream(25)
    one_shot = compiled.events(data)
    rng = random.Random(trial)
    cs, ns = compiled.stream(), native.stream()
    collected = []
    for chunk in _random_chunks(data, rng):
        got = ns.feed(chunk)
        assert got == cs.feed(chunk)
        collected += got
    collected += ns.finish()
    assert collected == one_shot


def test_odd_length_inputs():
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    native = NativeTagger(grammar)
    data, _ = WorkloadGenerator(seed=5).stream(10)
    for n in (0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 257):
        assert native.scan(data[:n]) == compiled.scan(data[:n])


# ----------------------------------------------------------------------
# error recovery and dead-region skipping
# ----------------------------------------------------------------------
def test_error_recovery_positions():
    grammar = xmlrpc()
    options = TaggerOptions(wiring=WiringOptions(error_recovery=True))
    compiled = CompiledTagger(grammar, options)
    native = NativeTagger(grammar, options)
    data, _ = WorkloadGenerator(seed=3).stream(5)
    corrupted = data[:300] + b"\xff\xfe<<>>broken" + data[300:]
    assert native.events_and_errors(corrupted) == compiled.events_and_errors(
        corrupted
    )


def test_error_positions_across_chunk_boundaries():
    """§5.2 error positions accumulate identically when the corruption
    spans feed() boundaries."""
    grammar = xmlrpc()
    options = TaggerOptions(wiring=WiringOptions(error_recovery=True))
    compiled = CompiledTagger(grammar, options)
    native = NativeTagger(grammar, options)
    data, _ = WorkloadGenerator(seed=13).stream(8)
    corrupted = data[:500] + b"\x00\x00garbage\xff" + data[500:]
    rng = random.Random(99)
    cs, ns = compiled.stream(), native.stream()
    for chunk in _random_chunks(corrupted, rng):
        assert ns.feed(chunk) == cs.feed(chunk)
    assert ns.finish() == cs.finish()
    assert ns.errors == cs.errors


@needs_native
def test_dead_region_is_skipped_and_exact():
    """Without recovery an unrecoverable error parks the machine in a
    dead state; the C fast-forward must skip through it while producing
    byte-identical output."""
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    native = NativeTagger(grammar)
    data, _ = WorkloadGenerator(seed=3).stream(4)
    poisoned = data + b"\x00\x01 dead region " * 4000 + data
    assert native.events(poisoned) == compiled.events(poisoned)
    assert native.native_active
    assert native.bytes_skipped > 0
    assert native.bytes_skipped < native.bytes_scanned


# ----------------------------------------------------------------------
# fallback ladder, construction, pickling
# ----------------------------------------------------------------------
def test_fallback_without_kernel_is_exact():
    """With the kernel gone the engine must degrade to the vector (or
    compiled) loop transparently."""
    grammar = xmlrpc()
    native = NativeTagger(grammar)
    native._nt = None
    assert not native.native_active
    compiled = CompiledTagger(grammar)
    data, _ = WorkloadGenerator(seed=8).stream(15)
    assert native.scan(data) == compiled.scan(data)
    assert native.events(data) == compiled.events(data)


def test_disable_env_kills_kernel(monkeypatch):
    """REPRO_DISABLE_NATIVE=1 must gate construction at every layer —
    fresh taggers fall down the ladder and capability says why."""
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    flags = capability(probe=True)
    assert flags["native"] is False
    assert flags["disabled_by_env"] is True
    native = NativeTagger(xmlrpc())
    assert not native.native_active
    compiled = CompiledTagger(xmlrpc())
    data, _ = WorkloadGenerator(seed=6).stream(5)
    assert native.scan(data) == compiled.scan(data)


def test_behavioral_tagger_engine_selection():
    tagger = BehavioralTagger(xmlrpc(), engine="native")
    assert isinstance(tagger.compiled, NativeTagger)
    data, _ = WorkloadGenerator(seed=2).stream(5)
    reference = BehavioralTagger(xmlrpc(), engine="compiled")
    assert tagger.tag(data) == reference.tag(data)
    with pytest.raises(ValueError):
        BehavioralTagger(xmlrpc(), engine="nativ")


def test_pickle_roundtrip_preserves_engine():
    native = NativeTagger(xmlrpc())
    clone = pickle.loads(pickle.dumps(native))
    assert type(clone) is NativeTagger
    data, _ = WorkloadGenerator(seed=4).stream(5)
    assert clone.events(data) == native.events(data)


def test_service_specs_accept_native():
    from repro.service.errors import ServiceError
    from repro.service.service import TaggerSpec, _engine_tagger

    tagger = _engine_tagger(xmlrpc(), None, "native")
    assert isinstance(tagger, NativeTagger)
    backend = TaggerSpec(grammar=xmlrpc(), engine="native").build()
    assert isinstance(backend.tagger, NativeTagger)
    with pytest.raises(ServiceError):
        _engine_tagger(xmlrpc(), None, "interpreted")


def test_capability_shape():
    flags = capability()
    assert set(flags) == {"native", "disabled_by_env", "compiler", "source"}
    assert flags["source"] in (None, "jit", "prebuilt")
