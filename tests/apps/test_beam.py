"""Batched beam mask engine: differential and delta-format tests.

The acceptance invariant: every ``masks``/``advance``/``fork``/
``rollback`` result out of a :class:`BeamMaskSession` — on the kernel
and on the portable loop (``REPRO_DISABLE_NATIVE=1``) — is
bit-identical to N independent :class:`MaskSession` mirrors replaying
the same operations.  Plus the RMSK blob round trip, the wire XOR
patch codec, the state-complete row counters, and the HuggingFace
tokenizer.json importer.  The CD-heavy differential and
kernel-encoder suites live in ``test_beam_complete.py``.
"""

import importlib.util
import inspect
import json
import random
import types

import pytest

from repro.apps.structgen import (
    MaskError,
    MaskSession,
    Vocabulary,
    build_mask_table,
    load_mask_blob,
    synthetic_vocab,
)
from repro.apps.structgen.beam import (
    BeamMaskSession,
    apply_xor_patch,
    beam_capability,
    xor_patch,
)
from repro.apps.structgen.masks import read_mask_header
from repro.grammar.examples import xmlrpc


@pytest.fixture(scope="module")
def table():
    return build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))


#: Both compute paths, for ``parametrize("path", PATHS, indirect=True)``
#: (the ``path`` fixture lives in ``conftest.py``).
PATHS = ("python", "native")


def _beam(table, width, path) -> BeamMaskSession:
    beam = BeamMaskSession(table, width)
    assert (beam._nt is not None) == (path == "native")
    return beam


def _valid_ids(row: bytes, n: int) -> list[int]:
    return [i for i in range(n) if row[i >> 3] >> (i & 7) & 1]


# ----------------------------------------------------------------------
# differential: beam ≡ N independent sessions, all paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", PATHS, indirect=True)
def test_beam_differential_fork_rollback(table, path):
    """A seeded schedule of advances, forks, and rollbacks: states and
    every packed mask byte-identical to independent mirrors."""
    n = len(table.vocab)
    rng = random.Random(11)
    beam = _beam(table, 4, path)
    mirror = [MaskSession(table) for _ in range(4)]
    history: list[list[int]] = []
    for step in range(50):
        roll = rng.random()
        if roll < 0.10 and len(mirror) < 12:
            lane = rng.randrange(len(mirror))
            history.append([m.state for m in mirror])
            twin = MaskSession(table)
            twin.state = mirror[lane].state
            mirror.append(twin)
            beam.fork(lane)
        elif roll < 0.20 and history:
            k = rng.randrange(1, min(3, len(history)) + 1)
            for _ in range(k):
                snapshot = history.pop()
            del mirror[len(snapshot):]
            while len(mirror) < len(snapshot):
                mirror.append(MaskSession(table))
            for m, s in zip(mirror, snapshot):
                m.state = s
            beam.rollback(k)
        else:
            ids = []
            for m in mirror:
                valid = _valid_ids(m.mask(), n)
                if not valid:
                    ids = None
                    break
                ids.append(rng.choice(valid))
            if ids is None:
                for m in mirror:
                    m.reset()
                beam.reset(len(mirror))
                history.clear()
            else:
                history.append([m.state for m in mirror])
                states = beam.advance(ids)
                packed = beam.masks_packed()
                for m, t in zip(mirror, ids):
                    m.advance(t)
                assert states == tuple(m.state for m in mirror)
                assert packed == b"".join(
                    bytes(m.mask()) for m in mirror
                ), f"the step's own rows diverged at step {step}"
        assert beam.states == tuple(m.state for m in mirror)
        assert beam.masks() == [bytes(m.mask()) for m in mirror]
        assert beam.masks_packed() == b"".join(
            bytes(m.mask()) for m in mirror
        )


@pytest.mark.parametrize("path", PATHS, indirect=True)
def test_beam_atomic_failure(table, path):
    """An invalid token in any lane raises and moves nothing."""
    n = len(table.vocab)
    beam = _beam(table, 3, path)
    valid = _valid_ids(beam.masks()[0], n)
    invalid = next(
        i for i in range(n) if i not in set(valid)
    )
    before = beam.states
    with pytest.raises(MaskError, match="lane 1"):
        beam.advance([valid[0], invalid, valid[0]])
    assert beam.states == before
    # Out of range for the vocabulary, for int32 (wire ids are u32),
    # and negative: refused the same way, the first bad lane named.
    for bad in (n + 5, 2**31 + 5, 2**32 - 1, -1):
        with pytest.raises(MaskError, match=r"lane 1: .* out of range"):
            beam.advance([valid[0], bad, invalid])
        assert beam.states == before
    with pytest.raises(MaskError, match="lane 0: token"):
        beam.advance([invalid, n + 5, valid[0]])
    assert beam.states == before
    # The beam still works after the failed ops, and a failed step
    # left no rows behind for masks_packed() to hand out.
    assert beam.masks_packed() == table.mask_row(before[0]) * 3
    states = beam.advance([valid[0]] * 3)
    assert states == beam.states
    assert beam.masks_packed() == b"".join(
        table.mask_row(s) for s in states
    )


@pytest.mark.parametrize("path", PATHS, indirect=True)
def test_beam_fork_rollback_width(table, path):
    beam = _beam(table, 2, path)
    n = len(table.vocab)
    ids = [
        _valid_ids(row, n)[0] for row in beam.masks()
    ]
    beam.advance(ids)
    assert beam.fork(0) == 2
    assert beam.width == 3
    assert beam.states[2] == beam.states[0]
    beam.rollback(1)  # undo the fork: width restored
    assert beam.width == 2
    beam.rollback(1)  # undo the advance
    assert beam.states == (0, 0)
    with pytest.raises(MaskError, match="roll back"):
        beam.rollback(1)


def test_beam_width_and_path_validation(table):
    with pytest.raises(MaskError, match="width"):
        BeamMaskSession(table, 0)
    beam = BeamMaskSession(table, 2)
    with pytest.raises(MaskError, match="width"):
        beam.reset(0)
    with pytest.raises(MaskError, match="2 lanes"):
        beam.advance([1])
    with pytest.raises(MaskError, match="2 lanes"):
        beam.advance(iter([1, 2, 3]))
    # Nothing selects the compute path or sizes the history.
    params = inspect.signature(BeamMaskSession.__init__).parameters
    assert [(p.name, p.kind.name) for p in params.values()][1:] == [
        ("table", "POSITIONAL_OR_KEYWORD"),
        ("width", "POSITIONAL_OR_KEYWORD"),
        ("metrics", "KEYWORD_ONLY"),
    ]
    assert not hasattr(beam, "advance_masks")


def test_capability_reads_the_loaded_handle_and_never_builds(
    monkeypatch, tmp_path
):
    """``/stats`` scrapes call this: with no module loaded, none
    prebuilt and an empty build cache it answers False rather than
    compiling one; a module already built answers True without a
    session having opened; ``REPRO_DISABLE_NATIVE`` reads False even
    with the module cached."""
    from repro.core import _native_build

    built = _native_build.load_kernel()

    def build(*_args):
        raise AssertionError("a capability read must not build")

    monkeypatch.setattr(_native_build, "_cached_module", None)
    monkeypatch.setattr(_native_build, "_attempted", False)
    monkeypatch.setattr(_native_build, "_compile", build)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    prebuilt = importlib.util.find_spec("repro.core._nativescan")
    assert beam_capability() == {
        "native": prebuilt is not None and not _native_build._disabled()
    }
    if built is not None:
        monkeypatch.setattr(_native_build, "_cached_module", built)
        assert beam_capability() == {"native": True}
    cached = built or types.ModuleType("_nativescan")
    monkeypatch.setattr(_native_build, "_cached_module", cached)
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    assert beam_capability() == {"native": False}


# ----------------------------------------------------------------------
# the XOR patch codec and the RMSK round trip
# ----------------------------------------------------------------------
def test_xor_patch_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        a = bytes(rng.randrange(256) for _ in range(48))
        flips = rng.randrange(0, 6)
        b = bytearray(a)
        for _ in range(flips):
            b[rng.randrange(48)] ^= rng.randrange(1, 256)
        patch = xor_patch(a, bytes(b))
        assert len(patch) % 3 == 0
        assert apply_xor_patch(a, patch) == bytes(b)
    assert xor_patch(a, a) == b""


def test_old_format_blob_loads_without_deltas(table):
    """What this build writes: no delta section, no delta or revision
    keys in the header or the summary."""
    assert not {"deltas", "rev"} & set(table.describe())
    blob = table.to_blob()
    assert not {"deltas", "rev"} & set(read_mask_header(blob))
    loaded = load_mask_blob(blob, xmlrpc())
    assert loaded.describe() == table.describe()
    assert loaded.rows == table.rows


@pytest.mark.parametrize("path", PATHS, indirect=True)
def test_beam_serves_identically_without_deltas(table, path):
    """A table loaded from a blob and one built fresh serve the same
    rows on every path."""
    loaded = load_mask_blob(table.to_blob(), xmlrpc())
    beam = _beam(loaded, 3, path)
    ref = _beam(table, 3, path)
    n = len(table.vocab)
    rng = random.Random(9)
    for _ in range(20):
        assert beam.masks_packed() == ref.masks_packed()
        ids = []
        for row in ref.masks():
            valid = _valid_ids(row, n)
            if not valid:
                ids = None
                break
            ids.append(rng.choice(valid))
        if ids is None:
            beam.reset(3)
            ref.reset(3)
            continue
        assert beam.advance(ids) == ref.advance(ids)


# ----------------------------------------------------------------------
# state-complete row counters
# ----------------------------------------------------------------------
def test_cd_memo_counters():
    """A state's CD bits are resolved on its first query and never
    again: one miss (row completed on demand), then hits (row served
    already complete) — counted on the table, whichever session or
    beam asked.  Tables without CD tokens count nothing."""
    vocab = synthetic_vocab(size=384, seed=7)
    table = build_mask_table(xmlrpc(), vocab, ci_max_len=2)
    assert table.cd_ids, "ci_max_len=2 must leave CD tokens"
    assert (table.memo_hits, table.memo_misses) == (0, 0)
    assert table.mask_row(0) == table.naive_row(0)
    assert (table.memo_hits, table.memo_misses) == (0, 1)
    table.mask_row(0)
    MaskSession(table).mask()
    assert (table.memo_hits, table.memo_misses) == (2, 1)
    beam = BeamMaskSession(table, 4)
    beam.masks_packed()
    assert (table.memo_hits, table.memo_misses) == (6, 1)
    # cd_checks keeps its meaning: CD-token bits covered per mask.
    assert beam.counters["cd_checks"] == 4 * len(table.cd_ids)

    ci_only = build_mask_table(xmlrpc(), vocab)
    assert not ci_only.cd_ids
    BeamMaskSession(ci_only, 4).masks_packed()
    assert (ci_only.memo_hits, ci_only.memo_misses) == (0, 0)


# ----------------------------------------------------------------------
# HuggingFace tokenizer.json import
# ----------------------------------------------------------------------
def _bytes_to_unicode():
    bs = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(0xA1, 0xAD))
        + list(range(0xAE, 0x100))
    )
    cs = bs[:]
    n = 0
    for b in range(256):
        if b not in bs:
            bs.append(b)
            cs.append(256 + n)
            n += 1
    return dict(zip(bs, (chr(c) for c in cs)))


def _write_tokenizer_json(path, tokens, *, byte_level=True, extra=None):
    remap = _bytes_to_unicode()
    vocab = {}
    for tid, raw in enumerate(tokens):
        text = (
            "".join(remap[b] for b in raw)
            if byte_level
            else raw.decode("utf-8")
        )
        vocab[text] = tid
    doc = {
        "model": {"type": "BPE", "vocab": vocab, "merges": []},
        "pre_tokenizer": (
            {"type": "ByteLevel", "add_prefix_space": False}
            if byte_level
            else {"type": "Whitespace"}
        ),
        "added_tokens": extra or [],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_tokenizer_json_byte_level_roundtrip(tmp_path):
    """Byte-level stand-ins resolve to the raw bytes, including the
    256 byte-fallback tokens and invalid-UTF-8 sequences."""
    tokens = [bytes([b]) for b in range(256)]
    tokens += [b" the", b"<methodCall>", "日本".encode(), b"\xff\xfe"]
    special_id = len(tokens)
    path = _write_tokenizer_json(
        tmp_path / "tokenizer.json",
        tokens,
        extra=[{"id": special_id, "content": "<|endoftext|>"}],
    )
    vocab = Vocabulary.from_tokenizer_json(str(path))
    assert len(vocab) == special_id + 1
    assert list(vocab)[:special_id] == tokens
    assert vocab[special_id] == b"<|endoftext|>"
    # Round trip through save/from_file preserves the identity hash.
    out = tmp_path / "vocab.json"
    vocab.save(str(out))
    again = Vocabulary.from_file(str(out))
    assert again.vocab_hash == vocab.vocab_hash
    assert list(again) == list(vocab)


def test_tokenizer_json_plain_utf8(tmp_path):
    tokens = [b"a", b"bc", "é".encode()]
    path = _write_tokenizer_json(
        tmp_path / "tokenizer.json", tokens, byte_level=False
    )
    vocab = Vocabulary.from_tokenizer_json(str(path))
    assert list(vocab) == tokens


def test_tokenizer_json_rejects_holes_and_foreign(tmp_path):
    path = tmp_path / "tokenizer.json"
    path.write_text(
        json.dumps(
            {
                "model": {"type": "BPE", "vocab": {"a": 0, "b": 2}},
                "pre_tokenizer": {"type": "Whitespace"},
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="holes"):
        Vocabulary.from_tokenizer_json(str(path))
    path.write_text(
        json.dumps({"model": {"type": "Unigram"}}), encoding="utf-8"
    )
    with pytest.raises(ValueError, match="model.vocab"):
        Vocabulary.from_tokenizer_json(str(path))


def test_tokenizer_vocab_masks_end_to_end(tmp_path):
    """An imported tokenizer vocabulary drives the mask pipeline."""
    tokens = [bytes([b]) for b in range(256)]
    tokens += [b"<methodCall>", b"<methodName>", b"abc"]
    path = _write_tokenizer_json(tmp_path / "tokenizer.json", tokens)
    vocab = Vocabulary.from_tokenizer_json(str(path))
    table = build_mask_table(xmlrpc(), vocab)
    session = MaskSession(table)
    row = session.mask()
    valid = _valid_ids(row, len(vocab))
    assert valid, "start state must admit some token"
    assert table.mask_row(0) == table.naive_row(0)
