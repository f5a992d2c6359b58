"""Differential correctness for the constrained-decoding subsystem.

The mask invariant: bit *i* of ``mask_row(state)`` is set iff feeding
token *i*'s bytes through the compiled engine from ``state`` survives
— no error state en route, and the landing state can still reach a
detection (or a valid EOF).  This suite pins that against an
*independent oracle* that walks raw bytes (not byte classes) through
``_CompiledTables.build_step`` (not the vector lowering) and computes
liveness by its own forward closure — so a bug in the class table, the
trie precompute, the CI/CD split, or the doomed-state closure shows up
as a bit mismatch, across every wiring corner.
"""

import random
from dataclasses import replace

import pytest

from repro.apps.structgen import (
    MaskError,
    MaskSession,
    Vocabulary,
    build_mask_table,
    load_mask_blob,
    synthetic_vocab,
)
from repro.apps.structgen.masks import read_mask_header
from repro.core.compiled import CompiledTagger
from repro.core.generator import TaggerOptions
from repro.core.scanir import closed_tables
from repro.core.wiring import WiringOptions
from repro.grammar.examples import balanced_parens, if_then_else, xmlrpc

GRAMMARS = {
    "ite": if_then_else,
    "xmlrpc": xmlrpc,
    "parens": balanced_parens,
}

#: Same wiring corners the engine differential matrix specializes on.
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


class Oracle:
    """Raw-byte reimplementation of mask validity from first
    principles: per-byte ``build_step`` walks plus a forward closure
    for liveness.  Shares the interned tid space with the mask table
    (same grammar object, same wiring, the tables its scan IR was
    closed on) but none of the lowering's class/step/doomed arrays."""

    def __init__(self, grammar, wiring: WiringOptions) -> None:
        tagger = CompiledTagger(grammar, TaggerOptions(wiring=wiring))
        self.tables, _ir = closed_tables(tagger.plan)
        self._alive: set | None = None

    # -- raw-byte single step ------------------------------------------
    def is_err(self, tid: int) -> bool:
        items, armed, pdet, first = self.tables.tstates[tid]
        return (
            self.tables.recovery
            and not first
            and not (items or armed or pdet)
        )

    def step(self, tid: int, byte: int) -> tuple[int, bool]:
        sig = self.tables.build_step(tid, byte)
        if isinstance(sig, int):
            return sig >> 8, False
        return sig[0] >> 8, bool(sig[1])

    def eos(self, tid: int) -> bool:
        unit_dfas = self.tables.unit_dfas
        return any(
            unit_dfas[u].detect_masks[s] >> 256 & 1
            for u, s in self.tables.tstates[tid][0]
        )

    # -- liveness by forward closure -----------------------------------
    def _closure(self) -> tuple[list[int], set]:
        """(every tid reachable from 0 over raw bytes, alive set)."""
        seen = [0]
        seen_set = {0}
        position = 0
        edges: dict[int, set] = {}
        emitters: set = set()
        while position < len(seen):
            tid = seen[position]
            position += 1
            if self.is_err(tid):
                continue  # parses never leave an error state
            outs = edges.setdefault(tid, set())
            for byte in range(256):
                ntid, emitted = self.step(tid, byte)
                if emitted:
                    emitters.add(tid)
                outs.add(ntid)
                if ntid not in seen_set:
                    seen_set.add(ntid)
                    seen.append(ntid)
        alive = {
            tid
            for tid in seen
            if not self.is_err(tid) and (tid in emitters or self.eos(tid))
        }
        changed = True
        while changed:
            changed = False
            for tid, outs in edges.items():
                if tid not in alive and outs & alive:
                    alive.add(tid)
                    changed = True
        return seen, alive

    @property
    def states(self) -> list[int]:
        if self._alive is None:
            self._states, self._alive = self._closure()
        return self._states

    def valid(self, tid: int, token: bytes) -> bool:
        if self._alive is None:
            self._states, self._alive = self._closure()
        for byte in token:
            if self.is_err(tid):
                return False
            tid, _emitted = self.step(tid, byte)
        return tid in self._alive


def _sample_states(oracle: Oracle, rng: random.Random, count: int):
    states = oracle.states
    picks = {0}
    while len(picks) < min(count, len(states)):
        picks.add(rng.choice(states))
    return sorted(picks)


def _bit(row, token_id: int) -> bool:
    return bool(row[token_id >> 3] >> (token_id & 7) & 1)


# ----------------------------------------------------------------------
# the differential matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("vname", VARIANTS)
@pytest.mark.parametrize("gname", GRAMMARS)
def test_mask_bits_match_oracle(gname, vname):
    grammar = GRAMMARS[gname]()
    wiring = VARIANTS[vname]
    vocab = synthetic_vocab(size=384, seed=11)
    table = build_mask_table(
        grammar, vocab, TaggerOptions(wiring=wiring)
    )
    oracle = Oracle(grammar, wiring)
    rng = random.Random(93)
    for state in _sample_states(oracle, rng, 12):
        if state >= table.n_states:
            pytest.fail(
                f"raw-byte closure reached state {state} beyond the "
                f"class closure's {table.n_states}"
            )
        row = table.mask_row(state)
        for token_id, token in enumerate(vocab.tokens):
            expected = oracle.valid(state, token)
            assert _bit(row, token_id) == expected, (
                f"{gname}/{vname}: state {state} token "
                f"{token_id} ({token!r}) mask bit "
                f"{_bit(row, token_id)} oracle {expected}"
            )


@pytest.mark.parametrize("gname", GRAMMARS)
def test_multibyte_utf8_tokens(gname):
    """Multi-byte UTF-8 tokens — each a single vocabulary entry whose
    bytes span class boundaries — obey the same oracle invariant."""
    grammar = GRAMMARS[gname]()
    tokens = [bytes([b]) for b in range(256)]
    tokens += [
        "é".encode(),
        "日本語".encode(),
        "→".encode(),
        "🚀".encode(),
        " é<".encode(),
        "a→b".encode(),
        "<méthodCall>".encode(),
        "né(st)ed".encode(),
    ]
    multi_ids = [
        i for i, t in enumerate(tokens) if len(t) > 1
    ]
    assert multi_ids, "vocabulary must contain multi-byte tokens"
    vocab = Vocabulary(tokens)
    table = build_mask_table(grammar, vocab)
    oracle = Oracle(grammar, WiringOptions())
    rng = random.Random(17)
    for state in _sample_states(oracle, rng, 10):
        row = table.mask_row(state)
        for token_id in multi_ids:
            assert _bit(row, token_id) == oracle.valid(
                state, tokens[token_id]
            )


def test_cd_split_is_invisible():
    """A tiny precompute budget forces most tokens into the
    context-dependent set; the served rows must not change a bit."""
    grammar = xmlrpc()
    vocab = synthetic_vocab(size=384, seed=23)
    full = build_mask_table(grammar, vocab)
    squeezed = build_mask_table(
        grammar, vocab, ci_max_len=2, ci_budget=1
    )
    assert squeezed.ci_count < full.ci_count
    assert len(squeezed.cd_ids) > len(full.cd_ids)
    rng = random.Random(5)
    states = [0] + [
        rng.randrange(full.n_states) for _ in range(24)
    ]
    for state in states:
        assert bytes(full.mask_row(state)) == bytes(
            squeezed.mask_row(state)
        )


def test_session_decode_is_sequentially_consistent():
    """A masked random decode never emits an invalid token, and the
    concatenated byte stream replayed through the raw-byte oracle
    lands on the session's exact state without touching an error."""
    grammar = xmlrpc()
    vocab = synthetic_vocab(size=384, seed=31)
    table = build_mask_table(grammar, vocab)
    oracle = Oracle(grammar, WiringOptions())
    session = MaskSession(table)
    rng = random.Random(47)
    emitted = bytearray()
    for _ in range(160):
        row = session.mask()
        valid = [
            i for i in range(len(vocab)) if _bit(row, i)
        ]
        if not valid:
            break
        token_id = rng.choice(valid)
        session.advance(token_id)
        emitted += vocab.tokens[token_id]
    assert emitted
    tid = 0
    for byte in emitted:
        assert not oracle.is_err(tid)
        tid, _emitted = oracle.step(tid, byte)
    assert tid == session.state


def test_invalid_advance_raises():
    grammar = if_then_else()
    vocab = synthetic_vocab(size=384, seed=3)
    table = build_mask_table(grammar, vocab)
    session = MaskSession(table)
    row = session.mask()
    invalid = next(
        i for i in range(len(vocab)) if not _bit(row, i)
    )
    with pytest.raises(MaskError):
        session.advance(invalid)
    with pytest.raises(MaskError):
        session.advance(len(vocab) + 7)


# ----------------------------------------------------------------------
# artifact round trip
# ----------------------------------------------------------------------
def test_blob_roundtrip_bit_exact():
    grammar = xmlrpc()
    vocab = synthetic_vocab(size=384, seed=71)
    table = build_mask_table(grammar, vocab)
    blob = table.to_blob()
    loaded = load_mask_blob(blob, grammar)
    assert loaded.vocab_hash == table.vocab_hash
    assert loaded.cd_ids == table.cd_ids
    assert loaded.rows == table.rows
    for state in (0, 1, table.n_states - 1):
        assert bytes(loaded.mask_row(state)) == bytes(
            table.mask_row(state)
        )
    header = read_mask_header(blob)
    assert header["abi"] == 2
    assert header["vocab_size"] == len(vocab)


def test_blob_fingerprint_guard():
    """Rows built against different tables must refuse to load: the
    fingerprint pins the state-id interning order."""
    grammar = xmlrpc()
    vocab = synthetic_vocab(size=384, seed=71)
    table = build_mask_table(grammar, vocab)
    blob = table.to_blob()
    with pytest.raises(MaskError, match="fingerprint"):
        load_mask_blob(
            blob,
            grammar,
            TaggerOptions(wiring=WiringOptions(error_recovery=True)),
        )
    # The trailer covers the magic too, and is checked first.
    with pytest.raises(MaskError, match="digest"):
        load_mask_blob(b"JUNK" + blob[4:], grammar)
    with pytest.raises(MaskError, match="magic"):
        read_mask_header(b"JUNK" + blob[4:])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_session_metrics_render():
    from repro.service.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    grammar = if_then_else()
    vocab = synthetic_vocab(size=384, seed=3)
    table = build_mask_table(grammar, vocab)
    session = MaskSession(table, metrics=metrics)
    row = session.mask()
    token_id = next(
        i for i in range(len(vocab)) if _bit(row, i)
    )
    session.advance(token_id)
    session.mask()

    snapshot = metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["structgen.masks_served"] == 2
    assert counters["structgen.advances"] == 1
    assert counters["structgen.ci_tokens"] == 2 * table.ci_count
    assert counters["structgen.cd_checks"] == 2 * len(table.cd_ids)
    rendered = metrics.render_prometheus()
    assert "repro_structgen_masks_served 2" in rendered
    assert "repro_structgen_advances 1" in rendered

    assert session.counters["masks_served"] == 2


def test_vocab_roundtrip(tmp_path):
    vocab = synthetic_vocab(size=384, seed=9)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = Vocabulary.from_file(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.vocab_hash == vocab.vocab_hash
