"""Vector wide-datapath engine ≡ compiled engine ≡ interpreted loop.

The vector engine (:mod:`repro.core.vectorscan`) replaces the compiled
per-byte loop with 8-byte-window stepping and dead-region skipping —
neither of which may be observable: same events, same order, same
earliest-start lexemes, same §5.2 error positions, same results under
any chunking of the stream. This suite pins all of that differentially
against the compiled and interpreted engines, on seeded random byte
soup, XML-RPC workloads, and TCP-reassembled netstack payloads.
"""

import random
import zlib
from dataclasses import replace

import pytest

from repro.apps.netstack.flows import TCPReassembler
from repro.apps.netstack.tracegen import TraceGenerator
from repro.apps.xmlrpc.workload import WorkloadGenerator
from repro.core.compiled import CompiledTagger
from repro.core.generator import TaggerOptions
from repro.core.tagger import BehavioralTagger
from repro.core.vectorscan import NUMPY_AVAILABLE, VectorTagger, capability
from repro.core.wiring import WiringOptions
from repro.grammar.examples import balanced_parens, if_then_else, xmlrpc

GRAMMARS = {
    "ite": if_then_else,
    "xmlrpc": xmlrpc,
    "parens": balanced_parens,
}

#: Wiring corners the dense closure must specialize on, matching the
#: compiled engine's differential matrix.
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


def _random_streams(seed: int, count: int, max_len: int = 200):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, max_len)
        yield bytes(rng.choice(ALPHABET) for _ in range(n))


def _random_chunks(data: bytes, rng: random.Random):
    """Split ``data`` at adversarial boundaries: single bytes, odd
    lengths (wide stepping's trailing-byte path), window-sized and
    MTU-sized runs — so splits land mid-token and mid-window."""
    i = 0
    while i < len(data):
        n = rng.choice((1, 3, 5, 7, 8, 9, 13, 64, 211, 1500))
        yield data[i : i + n]
        i += n


# ----------------------------------------------------------------------
# one-shot differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gname", GRAMMARS)
@pytest.mark.parametrize("vname", VARIANTS)
def test_differential_random_streams(gname, vname):
    """scan() (events AND earliest starts) matches both other engines."""
    grammar = GRAMMARS[gname]()
    options = TaggerOptions(wiring=VARIANTS[vname])
    interpreted = BehavioralTagger(grammar, options, engine="interpreted")
    compiled = CompiledTagger(grammar, options)
    vector = VectorTagger(grammar, options)
    seed = zlib.crc32(f"vector/{gname}/{vname}".encode())
    for data in _random_streams(seed=seed, count=40):
        expected = compiled.scan(data)
        assert vector.scan(data) == expected
        assert expected == list(interpreted._scan(data, error_sink=None))


def test_vector_path_is_live_on_xmlrpc():
    """The reference grammar densifies: these tests must exercise the
    wide loop, not silently fall back to the compiled one."""
    if not NUMPY_AVAILABLE:
        pytest.skip("NumPy unavailable: fallback covered elsewhere")
    assert VectorTagger(xmlrpc()).vector_active


def test_xmlrpc_workload_events_and_tags():
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    vector = VectorTagger(grammar)
    data, _ = WorkloadGenerator(seed=41).stream(60)
    assert vector.events(data) == compiled.events(data)
    assert vector.tag(data) == compiled.tag(data)


def test_netstack_reassembled_payloads():
    """Payloads reassembled from an impaired TCP trace tag identically."""
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    vector = VectorTagger(grammar)
    payload, _ = WorkloadGenerator(seed=7).stream(12)
    gen = TraceGenerator(seed=7, mss=64, reorder_rate=0.2, duplicate_rate=0.1)
    packets = gen.impair(gen.flow_packets(payload))
    reassembler = TCPReassembler()
    cs, vs = compiled.stream(), vector.stream()
    for packet in packets:
        _key, chunk = reassembler.push(packet)
        if chunk:
            assert vs.feed(chunk) == cs.feed(chunk)
    assert vs.finish() == cs.finish()


# ----------------------------------------------------------------------
# streaming: chunking invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trial", range(4))
def test_stream_chunking_invariance(trial):
    """Any split of the stream — mid-token, mid-window, single bytes —
    yields the one-shot result, matching the compiled session exactly
    chunk by chunk."""
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    vector = VectorTagger(grammar)
    data, _ = WorkloadGenerator(seed=100 + trial).stream(25)
    one_shot = compiled.events(data)
    rng = random.Random(trial)
    cs, vs = compiled.stream(), vector.stream()
    collected = []
    for chunk in _random_chunks(data, rng):
        got = vs.feed(chunk)
        assert got == cs.feed(chunk)
        collected += got
    collected += vs.finish()
    assert collected == one_shot


def test_odd_length_inputs():
    """Lengths around the 8-byte window edge hit the trailing-byte path."""
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    vector = VectorTagger(grammar)
    data, _ = WorkloadGenerator(seed=5).stream(10)
    for n in (0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 257):
        assert vector.scan(data[:n]) == compiled.scan(data[:n])


# ----------------------------------------------------------------------
# error recovery and dead-region skipping
# ----------------------------------------------------------------------
def test_error_recovery_positions():
    grammar = xmlrpc()
    options = TaggerOptions(wiring=WiringOptions(error_recovery=True))
    compiled = CompiledTagger(grammar, options)
    vector = VectorTagger(grammar, options)
    data, _ = WorkloadGenerator(seed=3).stream(5)
    corrupted = data[:300] + b"\xff\xfe<<>>broken" + data[300:]
    assert vector.events_and_errors(corrupted) == compiled.events_and_errors(
        corrupted
    )


def test_dead_region_is_skipped_and_exact():
    """Without recovery an unrecoverable error parks the machine in a
    dead state; the skip prefilter must fast-forward through it while
    producing byte-identical output."""
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    vector = VectorTagger(grammar)
    data, _ = WorkloadGenerator(seed=3).stream(4)
    poisoned = data + b"\x00\x01 dead region " * 4000 + data
    assert vector.events(poisoned) == compiled.events(poisoned)
    if vector.vector_active:
        assert vector.bytes_skipped > 0
        assert vector.bytes_skipped < vector.bytes_scanned


# ----------------------------------------------------------------------
# fallback, construction, pickling
# ----------------------------------------------------------------------
def test_fallback_without_tables_is_exact():
    """With the dense tables gone (NumPy absent, oversized closure) the
    engine must degrade to the compiled loop transparently."""
    grammar = xmlrpc()
    vector = VectorTagger(grammar)
    vector._vt = None
    assert not vector.vector_active
    compiled = CompiledTagger(grammar)
    data, _ = WorkloadGenerator(seed=8).stream(15)
    assert vector.scan(data) == compiled.scan(data)


def test_behavioral_tagger_engine_selection():
    tagger = BehavioralTagger(xmlrpc(), engine="vector")
    assert isinstance(tagger.compiled, VectorTagger)
    data, _ = WorkloadGenerator(seed=2).stream(5)
    reference = BehavioralTagger(xmlrpc(), engine="compiled")
    assert tagger.tag(data) == reference.tag(data)


def test_pickle_roundtrip_preserves_engine():
    import pickle

    vector = VectorTagger(xmlrpc())
    clone = pickle.loads(pickle.dumps(vector))
    assert type(clone) is VectorTagger
    data, _ = WorkloadGenerator(seed=4).stream(5)
    assert clone.events(data) == vector.events(data)


def test_capability_shape():
    flags = capability()
    assert set(flags) == {"numpy", "disabled_by_env", "width"}
    assert flags["width"] == 8
    assert flags["numpy"] is NUMPY_AVAILABLE


_LAZY_NUMPY = """
import sys
import repro.cli
assert "numpy" not in sys.modules, "importing repro.cli loaded NumPy"
from repro.core.nativescan import NativeTagger
from repro.core.vectorscan import NUMPY_AVAILABLE, VectorTagger
from repro.grammar.examples import xmlrpc
data = b"<methodCall><methodName>buy</methodName></methodCall>"
native = NativeTagger(xmlrpc())
events = native.events(data)
if native.native_active:
    assert "numpy" not in sys.modules, "the native engine loaded NumPy"
vector = VectorTagger(xmlrpc())
assert vector.vector_active is NUMPY_AVAILABLE
assert vector.events(data) == events
assert ("numpy" in sys.modules) is NUMPY_AVAILABLE
print("ok")
"""


def test_numpy_loads_with_the_first_wide_loop_not_on_import():
    """A process on another engine never pays NumPy's import: it is
    found at import (``NUMPY_AVAILABLE``) and loaded the first time
    the wide loop runs — not by ``import repro.cli``, and not by a
    native-engine tagger (which *is* a ``VectorTagger``)."""
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-c", _LAZY_NUMPY],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
