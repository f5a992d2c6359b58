"""The scan IR: one dense table, every consumer reads it.

Pins what the IR *is* (its ``next`` / ``effect`` arrays expanded
through ``class_table`` reproduce ``_CompiledTables.build_step`` for
every byte of every state, over the grammars × wiring corners of the
engine differential suites; its flags agree with the raw-byte oracle of
``tests/apps/test_structgen.py``), that the class-stepped closure
builds field for field the IR a 256-byte sweep builds (``_raw_close``),
in the same interning order and with one step per (state, class), that
the state-cap bail-out leaves every engine on the compiled loop, that
traffic scanned before the closure does not renumber it, that
it survives its payload form
field for field, that a wrong-shaped or corrupted ``RART`` blob raises
:class:`ArtifactError` (or loads tables that scan exactly like a fresh
compile) and never anything else, that the registry heals every such
blob, and that the mask fingerprint over the IR is the digest existing
``RMSK`` blobs carry.
"""

import ast
import copy
import hashlib
import json
import marshal
import os
import random
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps.structgen import build_mask_table, load_mask_blob, synthetic_vocab
from repro.apps.xmlrpc import WorkloadGenerator
from repro.core import scanir
from repro.core.artifact import (
    ARTIFACT_ABI,
    ArtifactError,
    build_artifact,
    interpreter_tag,
    load_artifact,
    read_header,
)
from repro.core.compiled import EOF, CompiledTagger, _CompiledTables
from repro.core.generator import TaggerOptions
from repro.core.maskgen import MaskLowering
from repro.core.nativescan import NativeTagger
from repro.core.scanir import ScanIR, closed_tables, scan_ir_for
from repro.core.scanplan import build_scan_plan
from repro.core.tagger import BehavioralTagger
from repro.core.vectorscan import VectorTagger
from repro.core.wiring import WiringOptions
from repro.grammar.examples import if_then_else, xmlrpc
from repro.service.registry import Registry
from tests.apps.test_structgen import GRAMMARS, VARIANTS, Oracle
from tests.core.test_fuzz_grammars import random_grammars

FIELDS = [name for name in ScanIR.__slots__ if not name.startswith("__")]

#: ``MaskLowering(CompiledTagger(xmlrpc())).fingerprint()`` at the
#: commit before the IR existed (PR 16).  Existing RMSK blobs carry it.
XMLRPC_FINGERPRINT = (
    "d8c2b95f1ac56cc60595f60bc67b39bb9519e44c84f67ea96c4e40bc8ca49863"
)

#: sha256 of ``build_artifact(xmlrpc())``, per interpreter tag (the
#: blob is marshal output, so only the interpreter it was recorded
#: under can check it).  Recorded when the payload became the source
#: and the IR alone, with end-of-data effects and live units per state
#: (ABI 4); the closure must keep publishing the same bytes.
XMLRPC_ARTIFACT_SHA256 = {
    "abi4-cpython-311": (
        "74d6c382f7af564676454ed63537c8dfa2e1c87d4a7a5b69bbcfed471fe2a3c8"
    ),
}

#: sha256 of ``repr`` of the same blob's unmarshalled payload: the
#: interpreter-independent half of the pin.
XMLRPC_PAYLOAD_SHA256 = (
    "630875da1d0496ee9378eb173e14b1be42c78230a987573664f09302171dda9a"
)

ITE_SAMPLE = b"if true then go else stop"

XMLRPC_SAMPLE = (
    b"<methodCall><methodName>buy</methodName>"
    b"<params></params></methodCall>\n"
) * 4


def _raw_close(tables: _CompiledTables) -> ScanIR | None:
    """The closure as a 256-byte sweep: every ``(state, byte)`` edge
    stepped, byte classes found afterwards by comparing full columns.
    The oracle for :meth:`ScanIR.close`."""
    effects: list = [None]
    effect_ids: dict[tuple, int] = {}
    all_next: dict[int, int] = {}
    all_effect: dict[int, int] = {}
    frontier = [0]
    seen = {0}
    while frontier:
        discovered = []
        for tid in frontier:
            for byte in range(256):
                step = tables.build_step(tid, byte)
                edge = tid << 8 | byte
                if step.__class__ is int:
                    ntid, index = step >> 8, 0
                else:
                    ntid, sig = step[0] >> 8, step[1:]
                    index = effect_ids.setdefault(sig, len(effects))
                    if index == len(effects):
                        effects.append(sig)
                all_next[edge], all_effect[edge] = ntid, index
                if ntid not in seen:
                    if len(seen) >= scanir._MAX_PRODUCT_STATES:
                        return None
                    seen.add(ntid)
                    discovered.append(ntid)
        frontier = discovered
    n = len(seen)
    eof = array("i")
    for tid in range(n):
        events = tables.eof_events(tid)
        sig = (events, None, False)
        index = effect_ids.setdefault(sig, len(effects)) if events else 0
        if index == len(effects):
            effects.append(sig)
        eof.append(index)
    columns: dict[tuple, int] = {}
    class_of = bytearray(256)
    repr_byte: list[int] = []
    for byte in range(256):
        column = tuple(
            (all_next[tid << 8 | byte], all_effect[tid << 8 | byte])
            for tid in range(n)
        )
        code = columns.setdefault(column, len(columns))
        if code == len(repr_byte):
            repr_byte.append(byte)
        class_of[byte] = code
    ir = ScanIR()
    ir.n_states = n
    ir.n_classes = len(repr_byte)
    ir.class_table = bytes(class_of)
    ir.next = array("i")
    ir.effect = array("i")
    ir.effects = effects
    ir.skip_live = {}
    ir.unit_caps = tables.unit_caps()
    ir.eof = eof
    ir.live = [tuple(u for u, _s in items) for items, *_ in tables.tstates[:n]]
    lost, eos, emits = bytearray(n), bytearray(n), bytearray(n)
    for tid in range(n):
        row_next = [all_next[tid << 8 | byte] for byte in range(256)]
        row_effect = [all_effect[tid << 8 | byte] for byte in range(256)]
        ir.next.extend([row_next[byte] for byte in repr_byte])
        ir.effect.extend([row_effect[byte] for byte in repr_byte])
        items, armed, pdet, first = tables.tstates[tid]
        lost[tid] = tables.recovery and not first and not (
            items or armed or pdet
        )
        eos[tid] = any(
            tables.unit_dfas[u].detect_masks[s] >> EOF & 1 for u, s in items
        )
        emits[tid] = any(i and effects[i][0] for i in set(row_effect))
        if not armed:
            live = bytes(
                [nt != tid or i != 0 for nt, i in zip(row_next, row_effect)]
            )
            if live.count(0) >= scanir._SKIP_MIN_COVERAGE:
                ir.skip_live[tid] = live
    ir.lost, ir.emits = bytes(lost), bytes(emits)
    assert bytes(map(bool, eof)) == bytes(eos)
    return ir


def _fresh_tables(grammar, wiring) -> _CompiledTables:
    """Tables outside the grammar's memo: nothing stepped yet."""
    return _CompiledTables(build_scan_plan(grammar, wiring))


def _assert_close_matches_sweep(grammar, wiring) -> None:
    tables = _fresh_tables(grammar, wiring)
    oracle_tables = _fresh_tables(grammar, wiring)
    ir = ScanIR.close(tables)
    expected = _raw_close(oracle_tables)
    assert ir is not None and expected is not None
    for name in FIELDS:
        assert getattr(ir, name) == getattr(expected, name), name
    # Same interning order: the IR's ids name the same product states.
    assert tables.tstates == oracle_tables.tstates
    for dfa, oracle_dfa in zip(tables.unit_dfas, oracle_tables.unit_dfas):
        assert dfa.state_positions == oracle_dfa.state_positions


# ----------------------------------------------------------------------
# what the IR is
# ----------------------------------------------------------------------
@pytest.mark.parametrize("vname", VARIANTS)
@pytest.mark.parametrize("gname", GRAMMARS)
def test_ir_reproduces_build_step_and_oracle_flags(gname, vname):
    grammar = GRAMMARS[gname]()
    wiring = VARIANTS[vname]
    tagger = CompiledTagger(grammar, TaggerOptions(wiring=wiring))
    ir = scan_ir_for(tagger)
    assert ir is not None
    assert scan_ir_for(CompiledTagger(grammar, tagger.options)) is ir
    oracle = Oracle(grammar, wiring)
    doomed = MaskLowering(tagger).doomed
    tables, closed = closed_tables(tagger.plan)
    assert closed is ir
    build_step = tables.build_step
    n_classes = ir.n_classes
    for tid in range(ir.n_states):
        for byte in range(256):
            edge = tid * n_classes + ir.class_table[byte]
            step = build_step(tid, byte)
            if ir.effect[edge]:
                expanded = (ir.next[edge] << 8, *ir.effects[ir.effect[edge]])
            else:
                expanded = ir.next[edge] << 8
            assert expanded == step, (tid, byte)
        assert bool(ir.lost[tid]) == oracle.is_err(tid), tid
        # What lets the trie walk skip the lost check: it never
        # stands on a doomed state.
        assert doomed[tid] or not ir.lost[tid], tid
        assert bool(ir.eof[tid]) == oracle.eos(tid), tid
        eof = ir.effects[ir.eof[tid]] if ir.eof[tid] else ((), None, False)
        assert eof == (tables.eof_events(tid), None, False), tid
        assert ir.live[tid] == tuple(u for u, _s in tables.tstates[tid][0])
        emits = any(oracle.step(tid, byte)[1] for byte in range(256))
        assert bool(ir.emits[tid]) == emits, tid
    # The closure interned nothing the IR does not cover.
    assert len(tables.tstates) == ir.n_states
    for tid, live in ir.skip_live.items():
        for byte in range(256):
            inert = build_step(tid, byte) == tid << 8
            assert live[byte] == (not inert), (tid, byte)


#: The wiring corners plus the keyword boundary: the one byte test
#: (folded into the qualifying masks) no position byte set implies.
CLOSURE_VARIANTS = {
    **VARIANTS,
    "boundary": replace(
        WiringOptions(),
        tokenizer=replace(WiringOptions().tokenizer, keyword_boundary=True),
    ),
}


@pytest.mark.parametrize("vname", CLOSURE_VARIANTS)
@pytest.mark.parametrize("gname", GRAMMARS)
def test_class_closure_equals_byte_sweep(gname, vname):
    _assert_close_matches_sweep(GRAMMARS[gname](), CLOSURE_VARIANTS[vname])


@settings(max_examples=25, deadline=None)
@given(
    grammar=random_grammars(),
    vname=st.sampled_from(sorted(CLOSURE_VARIANTS)),
)
def test_class_closure_equals_byte_sweep_on_random_grammars(grammar, vname):
    _assert_close_matches_sweep(grammar, CLOSURE_VARIANTS[vname])


@pytest.mark.parametrize("gname", GRAMMARS)
def test_closure_steps_each_class_once(gname, monkeypatch):
    """The closure's work is states × a-priori classes, not × 256, and
    it memoizes none of it: the compiled loop's memo stays empty."""
    tables = _fresh_tables(GRAMMARS[gname](), VARIANTS["default"])
    calls = []
    build_step = _CompiledTables.build_step

    def counting(self, tid, byte):
        calls.append((tid, byte))
        return build_step(self, tid, byte)

    monkeypatch.setattr(_CompiledTables, "build_step", counting)
    ir = ScanIR.close(tables)
    n_classes = len(tables._byte_classes())
    assert len(calls) == len(set(calls)) == ir.n_states * n_classes
    assert not tables.memo
    if gname == "xmlrpc":
        assert (ir.n_states, n_classes) == (456, 37)
        assert len(calls) == 16_872


def test_xmlrpc_artifact_bytes_are_pinned():
    blob = build_artifact(xmlrpc())
    head_len = int.from_bytes(blob[4:8], "big")
    payload = marshal.loads(blob[8 + head_len : -32])
    assert hashlib.sha256(repr(payload).encode()).hexdigest() == (
        XMLRPC_PAYLOAD_SHA256
    )
    expected = XMLRPC_ARTIFACT_SHA256.get(interpreter_tag())
    if expected is not None:
        assert hashlib.sha256(blob).hexdigest() == expected


def test_artifact_bytes_depend_on_content_only(monkeypatch):
    """The payload marshals without reference flags: a deep copy of
    it, which shares no object the way the original does, seals to the
    same blob."""
    blob = build_artifact(xmlrpc())
    dumps = marshal.dumps
    monkeypatch.setattr(
        marshal, "dumps", lambda value, *args: dumps(copy.deepcopy(value), *args)
    )
    assert build_artifact(xmlrpc()) == blob


def test_state_cap_bail_out_falls_back_to_compiled(monkeypatch):
    """Past the cap there is no IR, every dense engine stays on the
    compiled loop, and the results are the compiled engine's."""
    monkeypatch.setattr(scanir, "_MAX_PRODUCT_STATES", 100)
    grammar = xmlrpc()  # a fresh grammar: nothing cached for it
    compiled = CompiledTagger(grammar)
    assert scan_ir_for(compiled) is None
    native = NativeTagger(grammar)
    vector = VectorTagger(grammar)
    assert not native.native_active
    assert not vector.vector_active
    expected = compiled.tag(XMLRPC_SAMPLE)
    for tagger in (native, vector):
        assert tagger.events(XMLRPC_SAMPLE) == compiled.events(XMLRPC_SAMPLE)
        got = tagger.tag(XMLRPC_SAMPLE)
        assert [tuple(t) for t in got] == [tuple(t) for t in expected]
    assert expected


@pytest.mark.parametrize("gname", GRAMMARS)
def test_payload_round_trip_is_field_for_field(gname):
    options = TaggerOptions(wiring=VARIANTS["recovery"])
    ir = scan_ir_for(CompiledTagger(GRAMMARS[gname](), options))
    clone = ScanIR.from_payload(marshal.loads(marshal.dumps(ir.to_payload())))
    for name in FIELDS:
        assert getattr(clone, name) == getattr(ir, name), name


def test_xmlrpc_mask_fingerprint_is_pinned():
    lowering = MaskLowering(CompiledTagger(xmlrpc()))
    assert lowering.fingerprint() == XMLRPC_FINGERPRINT


# ----------------------------------------------------------------------
# state-id drift: earlier traffic does not renumber the IR
# ----------------------------------------------------------------------
def _traffic(gname: str) -> bytes:
    """Seeded traffic the compiled loop steps through product states in
    an order of its own, not the closure's breadth-first one."""
    if gname == "xmlrpc":
        return WorkloadGenerator(seed=11).stream(20)[0]
    words = {"ite": ITE_SAMPLE.split() + [b"#"], "parens": [b"(", b")", b"0", b"("]}
    rng = random.Random(11)
    return b" ".join(rng.choice(words[gname]) for _ in range(200))


@pytest.mark.parametrize("vname", VARIANTS)
@pytest.mark.parametrize("gname", GRAMMARS)
def test_ir_does_not_depend_on_earlier_traffic(gname, vname):
    options = TaggerOptions(wiring=VARIANTS[vname])
    compiled = CompiledTagger(GRAMMARS[gname](), options)
    assert compiled.events(_traffic(gname))
    ir = scan_ir_for(compiled)
    fresh = scan_ir_for(CompiledTagger(GRAMMARS[gname](), options))
    for name in FIELDS:
        assert getattr(ir, name) == getattr(fresh, name), name


def test_masks_built_after_a_scan_load_on_a_fresh_grammar():
    """A mask table built on a grammar that scanned traffic first
    loads where a fresh process would: on a fresh grammar object."""
    grammar = xmlrpc()
    BehavioralTagger(grammar).events(WorkloadGenerator(seed=5).stream(20)[0])
    table = build_mask_table(grammar, synthetic_vocab(size=384, seed=7))
    loaded = load_mask_blob(table.to_blob(), xmlrpc())
    assert loaded.rows == table.rows
    assert loaded.lowering.fingerprint() == XMLRPC_FINGERPRINT


# ----------------------------------------------------------------------
# corrupt and wrong-shaped blobs
# ----------------------------------------------------------------------
def _split(blob: bytes) -> tuple[dict, dict]:
    head_len = int.from_bytes(blob[4:8], "big")
    header = json.loads(blob[8 : 8 + head_len])
    return header, marshal.loads(blob[8 + head_len : -32])


def _join(header, payload) -> bytes:
    """A blob whose digest is *valid* for its (possibly wrong-shaped)
    content: what a buggy writer, not a flipped bit, would leave."""
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"RART" + len(head).to_bytes(4, "big") + head + marshal.dumps(payload)
    return body + hashlib.sha256(body).digest()


def _header_is_a_list(header, payload):
    return [], payload


def _payload_is_a_list(header, payload):
    return header, [1, 2]


def _ir_is_a_list(header, payload):
    payload["ir"] = list(payload["ir"].items())
    return header, payload


def _ir(change):
    def mutate(header, payload):
        change(payload["ir"])
        return header, payload

    return mutate


def _set(key, value):
    return lambda ir: ir.__setitem__(key, value)


def _poke(key, index, value):
    return lambda ir: ir[key].__setitem__(index, value)


def _copy_across_units(ir):
    """A copy into unit 0's first register from unit 1's first: every
    index in the register file, one outside its unit."""
    caps = ir["unit_caps"]
    start_ops = (((0, (caps[0],)),), (), ((sum(caps), 1),))
    ir["effects"].append((None, start_ops, False))


def _eof_with_start_moves(ir):
    """End-of-data pointed at an effect that sets a register: the flush
    changes no register, so no such effect may stand there."""
    moving = [i for i, e in enumerate(ir["effects"]) if e and e[1]]
    ir["eof"][0] = moving[0]


WRONG_SHAPES = {
    "header-list": _header_is_a_list,
    "payload-list": _payload_is_a_list,
    "ir-list": _ir_is_a_list,
    "wiring-short": lambda h, p: ({**h, "wiring": [True]}, p),
    "wiring-start-mode-unknown": lambda h, p: (
        {**h, "wiring": [True, "first", True, False, True, False]},
        p,
    ),
    "source-missing": lambda h, p: (h, {k: v for k, v in p.items() if k != "source"}),
    "ir-no-next": _ir(lambda ir: ir.pop("next")),
    "ir-next-short": _ir(lambda ir: ir["next"].pop()),
    "ir-next-out-of-range": _ir(_poke("next", 3, 1 << 20)),
    "ir-next-negative": _ir(_poke("next", 3, -1)),
    "ir-next-not-ints": _ir(_set("next", ["a"])),
    "ir-effect-out-of-range": _ir(_poke("effect", 0, 1 << 20)),
    "ir-class-code-out-of-range": _ir(_set("class_table", b"\xff" * 256)),
    "ir-class-table-short": _ir(_set("class_table", b"\x00" * 255)),
    "ir-flags-short": _ir(_set("lost", b"")),
    "ir-states-huge": _ir(_set("n_states", 1 << 40)),
    "ir-effect-bad-unit": _ir(
        lambda ir: ir["effects"].append((((1 << 20, (0,)),), None, False))
    ),
    "ir-effect-bad-register": _ir(
        lambda ir: ir["effects"].append((((0, (1 << 20,)),), None, False))
    ),
    "ir-effect-copy-across-units": _ir(_copy_across_units),
    "ir-effect-code-injection": _ir(
        lambda ir: ir["effects"].append(((("0]; boom(); [0", (0,)),), None, False))
    ),
    "ir-skip-row-short": _ir(_set("skip_live", {0: b"\x00"})),
    "ir-eof-short": _ir(lambda ir: ir["eof"].pop()),
    "ir-eof-out-of-range": _ir(_poke("eof", 0, 1 << 20)),
    "ir-eof-moves-registers": _ir(_eof_with_start_moves),
    "ir-live-short": _ir(lambda ir: ir["live"].pop()),
    "ir-live-bad-unit": _ir(_poke("live", 0, (1 << 20,))),
    "ir-unit-caps-wrong": _ir(_set("unit_caps", (1,))),
}


@pytest.fixture(scope="module")
def ite_blob() -> bytes:
    return build_artifact(if_then_else())


@pytest.mark.parametrize("shape", WRONG_SHAPES)
def test_wrong_shaped_blob_raises_artifact_error(shape, ite_blob):
    blob = _join(*WRONG_SHAPES[shape](*_split(ite_blob)))
    with pytest.raises(ArtifactError):
        load_artifact(blob)


def test_read_header_ignores_the_digest(ite_blob):
    """``registry inspect`` reads headers of blobs it cannot load."""
    assert read_header(ite_blob[:-1] + b"\x00")["dense"] is True
    with pytest.raises(ArtifactError, match="digest"):
        load_artifact(ite_blob[:-1] + bytes([ite_blob[-1] ^ 1]))


def test_old_abi_blob_is_refused_by_tag(ite_blob):
    header, payload = _split(ite_blob)
    header["interpreter"] = interpreter_tag().replace(
        f"abi{ARTIFACT_ABI}", f"abi{ARTIFACT_ABI - 1}"
    )
    with pytest.raises(ArtifactError, match="built for"):
        load_artifact(_join(header, payload))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_truncated_or_flipped_blob_never_mis_serves(data, ite_blob):
    """Any truncation or single-byte change: a typed error, or tables
    that scan exactly like a fresh compile — never another exception."""
    index = data.draw(st.integers(0, len(ite_blob) - 1))
    if data.draw(st.booleans()):
        mutated = ite_blob[:index]
    else:
        flip = data.draw(st.integers(1, 255))
        mutated = (
            ite_blob[:index]
            + bytes([ite_blob[index] ^ flip])
            + ite_blob[index + 1 :]
        )
    try:
        artifact = load_artifact(mutated)
    except ArtifactError:
        return
    expected = BehavioralTagger(if_then_else(), engine="compiled")
    for engine in ("compiled", "native"):
        got = artifact.tagger(engine=engine).tag(ITE_SAMPLE)
        assert repr(got) == repr(expected.tag(ITE_SAMPLE))


@pytest.mark.parametrize(
    "shape", [*WRONG_SHAPES, "truncated", "flipped", "junk"]
)
def test_registry_heals_every_bad_blob(shape, tmp_path, ite_blob):
    store = str(tmp_path / "store")
    ref = Registry(store).publish("g", if_then_else())
    objects = os.path.join(store, "objects")
    (name,) = os.listdir(objects)
    path = os.path.join(objects, name)
    with open(path, "rb") as fh:
        good = fh.read()
    if shape == "truncated":
        bad = good[: len(good) // 2]
    elif shape == "flipped":
        middle = len(good) // 2
        bad = good[:middle] + bytes([good[middle] ^ 0x40]) + good[middle + 1 :]
    elif shape == "junk":
        bad = b"junk"
    else:
        bad = _join(*WRONG_SHAPES[shape](*_split(good)))
    with open(path, "wb") as fh:
        fh.write(bad)
    artifact = Registry(store).load(ref)
    got = artifact.tagger().tag(ITE_SAMPLE)
    expected = BehavioralTagger(if_then_else()).tag(ITE_SAMPLE)
    assert repr(got) == repr(expected)
    # ... and the store holds a loadable blob again.
    with open(path, "rb") as fh:
        load_artifact(fh.read())


# ----------------------------------------------------------------------
# one owner
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "module",
    [
        "core/maskgen.py",
        "core/artifact.py",
        "core/scanir.py",
        "apps/structgen/beam.py",
        "apps/structgen/masks.py",
    ],
)
def test_table_consumers_do_not_import_vectorscan(module):
    """The vector engine is a consumer of the IR like the others, not
    the owner the others reach through (function-level imports count)."""
    path = os.path.join(os.path.dirname(repro.__file__), module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(
                f"{node.module}.{alias.name}" for alias in node.names
            )
    assert not [name for name in imported if "vectorscan" in name]
    if module.endswith("beam.py"):
        assert not [name for name in imported if "numpy" in name]
