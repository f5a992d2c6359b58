"""RMSK loads fail closed.

What ``tests/core/test_scanir.py`` does for ``RART``: any truncation,
bit flip, extension, or dropped / retyped header field of a mask blob
is a :class:`MaskError` and nothing else.  The sha256 trailer catches
damage; the parser behind it is held to the same rule on blobs whose
trailer was recomputed over the damage (a writer with a bug rather
than a disk with one), and so is :func:`read_mask_sections`, which the
registry's heal path runs on blobs that already failed the digest.
"""

import functools
import hashlib
import json
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.apps.structgen import (
    MASK_ABI,
    MaskError,
    build_mask_table,
    load_mask_blob,
    synthetic_vocab,
)
from repro.apps.structgen.masks import read_mask_header, read_mask_sections
from repro.core.artifact import (
    ArtifactError,
    build_artifact,
    load_artifact,
    read_header,
)
from repro.errors import ReproError
from repro.grammar.examples import if_then_else

GRAMMAR = if_then_else()

#: Header fields the loader cannot do without.
REQUIRED = (
    "abi", "cd", "content", "fingerprint", "grammar", "row_bytes",
    "states", "vocab_hash", "vocab_size", "wiring",
)

WRONG_VALUES = st.sampled_from(
    [None, True, -1, 1 << 40, 1.5, "x", [], ["x"], {}]
)


# Cached helpers rather than fixtures: Hypothesis prints a failing
# test's fixture values, and a blob is 5 KB of bytes.
@functools.cache
def _table():
    # ci_max_len=3 leaves CD tokens, so the blob has every section.
    table = build_mask_table(
        GRAMMAR, synthetic_vocab(size=300, seed=5), ci_max_len=3
    )
    assert table.cd_ids
    return table


@functools.cache
def _blob() -> bytes:
    return _table().to_blob()


def seal(body: bytes) -> bytes:
    return body + hashlib.sha256(body).digest()


def reseal(blob: bytes, edit, wrap=dict) -> bytes:
    """``blob`` with ``edit(header)`` applied in place and a trailer
    that matches the result; ``wrap`` re-shapes the header itself."""
    head_len = int.from_bytes(blob[4:8], "big")
    header = json.loads(blob[8 : 8 + head_len])
    edit(header)
    head = json.dumps(wrap(header), sort_keys=True).encode("utf-8")
    return seal(
        blob[:4] + len(head).to_bytes(4, "big") + head
        + blob[8 + head_len : -32]
    )


def _mutated(data, blob: bytes) -> bytes:
    index = data.draw(st.integers(0, len(blob) - 1))
    kind = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if kind == "truncate":
        return blob[:index]
    if kind == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=40))
    flip = data.draw(st.integers(1, 255))
    return blob[:index] + bytes([blob[index] ^ flip]) + blob[index + 1 :]


def _same_table(loaded, table) -> None:
    assert loaded.rows == table.rows
    assert loaded.cd_ids == table.cd_ids
    assert loaded.vocab_hash == table.vocab_hash
    for state in range(table.n_states):
        assert loaded.mask_row(state) == table.mask_row(state)


# ----------------------------------------------------------------------
def test_round_trip_and_trailer():
    table, blob = _table(), _blob()
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()
    assert read_mask_header(blob)["abi"] == MASK_ABI == 2
    _same_table(load_mask_blob(blob, GRAMMAR), table)
    header, rows, cd_ids, vocab = read_mask_sections(blob)
    assert (rows, cd_ids) == (table.rows, table.cd_ids)
    assert vocab.vocab_hash == table.vocab_hash == header["vocab_hash"]


def test_blob_bytes_do_not_depend_on_the_clock(monkeypatch):
    """A table seals to the same bytes whenever it is written: the
    header carries no build time (the registry manifest keeps its own
    ``published``)."""
    table = _table()
    first = table.to_blob()
    monkeypatch.setattr(time, "time", lambda: 4_000_000_000.0)
    assert table.to_blob() == first


def test_one_flipped_row_bit_no_longer_loads():
    blob = _blob()
    offset = 8 + int.from_bytes(blob[4:8], "big")
    bad = blob[:offset] + bytes([blob[offset] ^ 1]) + blob[offset + 1 :]
    with pytest.raises(MaskError, match="digest"):
        load_mask_blob(bad, GRAMMAR)
    # ``registry inspect`` still reads the header of a blob it cannot load.
    assert read_mask_header(bad) == read_mask_header(blob)


#: kind -> (blob, loader, header reader, error type): the two sealed
#: artifacts (``MAGIC | u32 len | JSON header | body | sha256``).
SEALED = {
    "RART": (
        lambda: build_artifact(GRAMMAR), load_artifact, read_header,
        ArtifactError,
    ),
    "RMSK": (
        _blob, lambda blob: load_mask_blob(blob, GRAMMAR), read_mask_header,
        MaskError,
    ),
}


@pytest.mark.parametrize("kind", sorted(SEALED))
def test_sealed_readers_refuse_the_other_kind_and_a_flipped_byte(kind):
    """Scan and mask artifacts share one sealed layout: each reader
    refuses the other kind's blob at the magic with its own error type,
    and one flipped body byte is a digest refusal."""
    make, load, header, error = SEALED[kind]
    (other,) = set(SEALED) - {kind}
    foreign = SEALED[other][0]()
    for read in (load, header):
        with pytest.raises(ReproError, match="bad magic") as refused:
            read(foreign)
        assert refused.type is error
    blob = make()
    offset = 8 + int.from_bytes(blob[4:8], "big")
    bad = blob[:offset] + bytes([blob[offset] ^ 1]) + blob[offset + 1 :]
    with pytest.raises(ReproError, match="digest") as refused:
        load(bad)
    assert refused.type is error
    assert header(bad) == header(blob)


@pytest.mark.parametrize(
    "body",
    [
        b"",
        b"RMSK",
        b"RMSK\x00\x00\x00\x02[]",
        b"RMSK\x00\x00\x00\x02{}",
        b"RMSK\x00\x00\x00\x04null",
        b"RMSK\xff\xff\xff\xff{}",
        b'RMSK\x00\x00\x00\x01{"',
        b"RART\x00\x00\x00\x02{}",
    ],
)
def test_degenerate_blobs(body):
    for bad in (body, seal(body)):
        with pytest.raises(MaskError):
            load_mask_blob(bad, GRAMMAR)
        with pytest.raises(MaskError):
            read_mask_sections(bad)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_flipped_or_extended_blob_is_a_mask_error(data):
    bad = _mutated(data, _blob())
    with pytest.raises(MaskError):
        load_mask_blob(bad, GRAMMAR)
    # The heal path's reader: a typed error or a vocabulary, which the
    # registry then checks against the hash it was asked for.
    try:
        vocab = read_mask_sections(bad)[3]
    except MaskError:
        return
    assert all(vocab.tokens)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parser_behind_a_valid_trailer_fails_closed(data):
    """The same damage under a recomputed trailer: MaskError, or a
    table of the right shape (damage in bytes nothing reads, or in row
    bits no parser could tell from a different grammar's)."""
    table = _table()
    bad = seal(_mutated(data, _blob()[:-32]))
    try:
        loaded = load_mask_blob(bad, GRAMMAR)
    except MaskError:
        return
    assert loaded.vocab_hash == table.vocab_hash
    assert len(loaded.matrix) == table.n_states * table.row_bytes
    assert loaded.mask_row(table.n_states - 1) is not None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dropped_or_retyped_header_field_is_a_mask_error(data):
    table, blob = _table(), _blob()
    fields = sorted(read_mask_header(blob))
    name = data.draw(st.sampled_from(fields))
    if data.draw(st.booleans()):
        bad = reseal(blob, lambda h: h.pop(name))
    else:
        value = data.draw(WRONG_VALUES)
        # Retyped, not re-valued: another content id or wiring list is
        # a well-formed header (the fingerprint pins the tables).
        assume(type(value) is not type(read_mask_header(blob)[name]))
        bad = reseal(blob, lambda h: h.update({name: value}))
    if name in REQUIRED:
        with pytest.raises(MaskError):
            load_mask_blob(bad, GRAMMAR)
    else:  # written for ``inspect`` and people: nothing loads from it
        _same_table(load_mask_blob(bad, GRAMMAR), table)


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(states=h["states"] + 1),
        lambda h: h.update(states=h["states"] - 1),
        lambda h: h.update(cd=h["cd"] + 1),
        lambda h: h.update(vocab_size=h["vocab_size"] - 1),
        lambda h: h.update(vocab_size=h["vocab_size"] + 8, row_bytes=39),
        lambda h: h.update(row_bytes=h["row_bytes"] + 1),
        lambda h: h.update(vocab_size=0, row_bytes=0, cd=0),
        lambda h: h.update(cd=-1),
        lambda h: h.update(states=1 << 40),
    ],
    ids=[
        "states+1", "states-1", "cd+1", "vocab-1",
        "vocab+8", "row_bytes+1", "empty-vocab", "cd-negative",
        "states-huge",
    ],
)
def test_header_that_disagrees_with_the_sections(edit):
    with pytest.raises(MaskError):
        load_mask_blob(reseal(_blob(), edit), GRAMMAR)


def test_header_that_is_a_json_list():
    bad = reseal(_blob(), lambda h: None, wrap=lambda h: [h])
    with pytest.raises(MaskError, match="not a JSON object"):
        load_mask_blob(bad, GRAMMAR)
    with pytest.raises(MaskError):
        read_mask_header(bad)
