"""State-complete mask rows and the in-kernel MASKS encoder.

Two invariants on top of ``test_beam.py``'s CI-table differential:

* **Completion.**  On CD-heavy tables every row the matrix serves —
  through ``mask_row``, ``MaskSession`` and both beam paths, under
  seeded advance/fork/rollback schedules, after a blob round trip, and
  when two sessions meet in one state — equals ``naive_row(state)``,
  the walk-every-token oracle.
* **Encoding.**  ``encode_lane_records`` (kernel and portable) lays out
  exactly the bytes ``protocol.encode_masks`` produces over
  ``xor_patch``, and ``xor_patch`` round-trips through
  ``apply_xor_patch``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.structgen import (
    MaskError,
    MaskSession,
    build_mask_table,
    load_mask_blob,
    synthetic_vocab,
)
from repro.apps.structgen.beam import (
    BeamMaskSession,
    apply_xor_patch,
    encode_lane_records,
    xor_patch,
)
from repro.core import _native_build
from repro.grammar.examples import xmlrpc
from repro.server import protocol
from repro.server.protocol import FrameType
from tests.apps.test_beam import PATHS, _beam, _valid_ids

#: name -> (build_mask_table kwargs, least share of tokens left CD):
#: every token longer than two classes, and everything the smallest
#: trie (one class string) does not cover — most of the vocabulary.
CD_HEAVY = {
    "ci_max_len=2": ({"ci_max_len": 2}, 0.25),
    "ci_budget=1000": ({"ci_budget": 1000}, 0.5),
}


def _build(config: str):
    kwargs, cd_share = CD_HEAVY[config]
    vocab = synthetic_vocab(size=384, seed=7)
    table = build_mask_table(xmlrpc(), vocab, **kwargs)
    assert len(table.cd_ids) >= cd_share * len(vocab), len(table.cd_ids)
    return table


@pytest.fixture(scope="module")
def oracle():
    """``naive_row`` per (config, state), computed once on a table no
    test queries."""
    tables = {config: _build(config) for config in CD_HEAVY}
    cache: dict = {}

    def row(config: str, state: int) -> bytes:
        key = (config, state)
        if key not in cache:
            cache[key] = bytes(tables[config].naive_row(state))
        return cache[key]

    return row


# ----------------------------------------------------------------------
# completion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", CD_HEAVY)
def test_every_state_completes_to_naive_row(config, oracle):
    table = _build(config)
    for state in range(table.n_states):
        assert table.mask_row(state) == oracle(config, state), state
    assert table.memo_misses == table.n_states
    assert table.memo_hits == 0
    # Completion never leaks into the CI rows the blob stores.
    assert table.rows == _build(config).rows


@pytest.mark.parametrize("path", PATHS, indirect=True)
@pytest.mark.parametrize("config", CD_HEAVY)
def test_beam_schedule_matches_naive_rows(config, path, oracle):
    """Seeded advances (rows read straight after every other one, so
    CD states are first visited both ways), forks and rollbacks on a
    fresh table per path, so each path does its own completing."""
    table = _build(config)
    n = len(table.vocab)
    rb = table.row_bytes
    rng = random.Random(23)
    beam = _beam(table, 3, path)
    depth = 0
    for step in range(60):
        roll = rng.random()
        if roll < 0.12 and beam.width < 10:
            beam.fork(rng.randrange(beam.width))
            depth += 1
        elif roll < 0.24 and depth:
            k = rng.randrange(1, min(3, depth) + 1)
            beam.rollback(k)
            depth -= k
        else:
            ids = []
            for row in beam.masks():
                valid = _valid_ids(row, n)
                if not valid:
                    break
                ids.append(rng.choice(valid))
            if len(ids) < beam.width:
                beam.reset()
                depth = 0
            elif step % 2:
                states = beam.advance(ids)
                assert beam.masks_packed() == b"".join(
                    oracle(config, s) for s in states
                ), f"the step's own rows diverged at step {step}"
                depth += 1
            else:
                beam.advance(ids)
                depth += 1
        expected = [oracle(config, s) for s in beam.states]
        assert beam.masks() == expected, f"step {step}"
        packed = beam.masks_packed()
        assert [
            packed[i * rb : (i + 1) * rb] for i in range(beam.width)
        ] == expected
    assert table.memo_misses <= table.n_states
    assert table.memo_hits > table.memo_misses


@pytest.mark.parametrize("config", CD_HEAVY)
def test_completion_survives_blob_round_trip(config, oracle):
    """A table with completed rows writes the same blob as a fresh
    one; the loaded table starts incomplete and completes to the same
    rows."""
    table = _build(config)
    for state in range(0, table.n_states, 3):
        table.mask_row(state)
    loaded = load_mask_blob(table.to_blob(), xmlrpc())
    assert loaded.rows == _build(config).rows
    assert loaded.cd_ids == table.cd_ids
    assert (loaded.memo_hits, loaded.memo_misses) == (0, 0)
    for state in range(loaded.n_states):
        assert loaded.mask_row(state) == oracle(config, state), state


@pytest.mark.parametrize("config", CD_HEAVY)
def test_two_sessions_complete_the_same_state(config, oracle):
    table = _build(config)
    n = len(table.vocab)
    first = MaskSession(table)
    token = _valid_ids(first.mask(), n)[0]
    state = first.advance(token)
    beam = BeamMaskSession(table, 2)
    assert beam.advance([token, token]) == (state, state)
    misses = table.memo_misses
    # The beam gets there first, the session finds the row complete.
    assert beam.masks() == [oracle(config, state)] * 2
    assert table.memo_misses == misses + 1
    assert first.mask() == oracle(config, state)
    assert table.memo_misses == misses + 1
    # The interleaving the flag ordering allows: both saw "incomplete"
    # and both write.  Completion only ORs bits in, so it is idempotent.
    table._complete[state] = 0
    assert table.mask_row(state) == oracle(config, state)
    assert table.memo_misses == misses + 2


@pytest.mark.parametrize("path", PATHS, indirect=True)
@pytest.mark.parametrize("config", CD_HEAVY)
def test_rows_kept_by_a_step_are_never_served_stale(config, path, oracle):
    """``advance()`` on the kernel keeps the rows it gathered for the
    next ``masks_packed()``.  Everything that can outdate them in
    between — a CD state's first visit (by this beam or by another
    session sharing the table), fork, rollback, reset, a width change,
    a failed step — must end in the oracle's rows."""
    table = _build(config)
    n = len(table.vocab)
    beam = _beam(table, 2, path)

    def expect():
        rows = b"".join(oracle(config, s) for s in beam.states)
        assert beam.masks_packed() == rows
        assert beam.masks_packed() == rows  # and again, unchanged

    rng = random.Random(41)

    def step(ids=None):
        if ids is None:
            ids = [rng.choice(_valid_ids(r, n)) for r in beam.masks()]
        return ids, beam.advance(ids)

    expect()  # open
    ids, states = step()  # first visit: gathered before completion
    assert not any(table._complete[s] for s in states)
    expect()
    beam.rollback(1)
    assert step(ids)[1] == states  # second visit: the kept rows serve
    misses = table.memo_misses
    expect()
    assert table.memo_misses == misses
    # Another session completes a row between the step and the read.
    for _ in range(200):
        _ids, states = step()
        if not table._complete[states[0]]:
            break
    else:
        pytest.fail("the walk met no unvisited state")
    assert table.mask_row(states[0]) == oracle(config, states[0])
    expect()
    step()
    beam.fork(1)
    expect()  # wider than the kept buffer
    step()  # a step at the new width
    expect()
    beam.rollback(2)  # narrower again, states from before the fork
    expect()
    step()
    with pytest.raises(MaskError):
        beam.advance([n, n])
    expect()  # the refused step moved nothing and kept nothing
    step()
    beam.reset()
    expect()
    beam.reset(5)
    expect()
    step()
    expect()


# ----------------------------------------------------------------------
# MASKS lane records: kernel == portable == encode_masks(xor_patch)
# ----------------------------------------------------------------------
def _naive_patch(prev: bytes, new: bytes) -> bytes:
    return b"".join(
        i.to_bytes(2, "big") + bytes((a ^ b,))
        for i, (a, b) in enumerate(zip(prev, new))
        if a != b
    )


def _reference_frame(states, packed, prev, rb) -> bytes:
    lanes = []
    for lane, state in enumerate(states):
        row = packed[lane * rb : (lane + 1) * rb]
        old = prev[lane * rb : (lane + 1) * rb]
        if len(old) == rb:
            patch = _naive_patch(old, row)
            if len(patch) + 2 < rb:
                lanes.append((state, 1, patch))
                continue
        lanes.append((state, 0, row))
    return protocol.encode_masks(7, rb, lanes)


@pytest.fixture(params=["portable", "kernel"])
def encoder(request, monkeypatch):
    if request.param == "portable":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    elif _native_build.load_kernel() is None:
        pytest.skip("native module unavailable (no compiler)")
    return encode_lane_records


def _check(encoder, states, packed, prev, rb) -> int:
    records, deltas = encoder(states, packed, prev, rb)
    frame = protocol.encode_masks_records(7, len(states), rb, records)
    assert frame == _reference_frame(states, packed, prev, rb)
    # And it decodes back to the rows that went in.
    (decoded,) = protocol.FrameDecoder().feed(frame)
    assert decoded.type == FrameType.MASKS
    _fid, got_rb, lanes = protocol.decode_masks(decoded)
    assert got_rb == rb
    assert sum(kind for _s, kind, _b in lanes) == deltas
    for lane, (state, kind, body) in enumerate(lanes):
        assert state == states[lane]
        row = packed[lane * rb : (lane + 1) * rb]
        if kind:
            body = apply_xor_patch(prev[lane * rb : (lane + 1) * rb], body)
        assert body == row
    return deltas


def _rows(rng, count, rb) -> bytes:
    return bytes(rng.randrange(256) for _ in range(count * rb))


def _flip(rng, rows: bytes, rb: int, lane: int, count: int) -> bytes:
    """``rows`` with ``count`` distinct bytes of ``lane`` changed."""
    out = bytearray(rows)
    for i in rng.sample(range(rb), count):
        out[lane * rb + i] ^= rng.randrange(1, 256)
    return bytes(out)


@pytest.mark.parametrize("rb", [1, 2, 3, 5, 48, 61, 2048])
def test_lane_records_corner_cases(encoder, rb):
    """Identical rows, one-bit diffs, all-bytes-differ, and the exact
    ``3 * count + 2 < row_bytes`` boundary, at row widths that are and
    are not a multiple of the kernel's 8-byte compare."""
    rng = random.Random(rb)
    states = (0, 1, 455, 0x01020304)
    prev = _rows(rng, 4, rb)
    wide = rb >= 3

    assert _check(encoder, states, prev, prev, rb) == (4 if wide else 0)
    assert _check(encoder, states, prev, b"", rb) == 0

    one_bit = bytearray(prev)
    one_bit[2 * rb + rb - 1] ^= 0x80  # lane 2, last byte, top bit
    assert _check(encoder, states, bytes(one_bit), prev, rb) == (
        4 if rb > 5 else 3 if wide else 0
    )

    inverted = bytes(b ^ 0xFF for b in prev)
    assert _check(encoder, states, inverted, prev, rb) == 0

    if wide:
        fits = (rb - 3) // 3  # the most entries a delta may carry
        for lane, count in enumerate((fits, min(fits + 1, rb))):
            new = _flip(rng, prev, rb, lane, count)
            deltas = _check(encoder, states, new, prev, rb)
            assert deltas == (4 if count == fits else 3)


def test_lane_records_width_growth_and_shrink(encoder):
    rb = 61
    rng = random.Random(5)
    rows = _rows(rng, 6, rb)
    sent = rows[: 4 * rb]
    # Growth: lanes 4 and 5 did not exist last frame -> always full.
    grown = _flip(rng, rows, rb, 1, 2)
    assert _check(encoder, tuple(range(6)), grown, sent, rb) == 4
    # Shrink: the surviving lanes still patch against their old rows.
    shrunk = _flip(rng, rows[: 2 * rb], rb, 0, 1)
    assert _check(encoder, (9, 8), shrunk, sent, rb) == 2


def test_lane_records_seeded_random(encoder):
    rng = random.Random(2006)
    for _ in range(60):
        rb = rng.choice([7, 8, 9, 48, 100, 512])
        w = rng.randrange(1, 9)
        n_prev = rng.randrange(0, 10)
        prev = _rows(rng, n_prev, rb)
        packed = bytearray(_rows(rng, w, rb))
        for lane in range(min(w, n_prev)):
            if rng.random() < 0.8:  # mostly near-copies of the old row
                packed[lane * rb : (lane + 1) * rb] = _flip(
                    rng, prev, rb, lane, rng.randrange(0, rb // 2 + 1)
                )[lane * rb : (lane + 1) * rb]
        states = tuple(rng.randrange(1 << 31) for _ in range(w))
        _check(encoder, states, bytes(packed), prev, rb)


# ----------------------------------------------------------------------
# xor_patch
# ----------------------------------------------------------------------
@given(
    st.binary(min_size=1, max_size=300).flatmap(
        lambda prev: st.tuples(
            st.just(prev),
            st.binary(min_size=len(prev), max_size=len(prev)),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_xor_patch_round_trip_property(pair):
    prev, new = pair
    patch = xor_patch(prev, new)
    assert patch == _naive_patch(prev, new)
    assert apply_xor_patch(prev, patch) == new


@given(st.binary(min_size=1, max_size=300), st.data())
@settings(max_examples=200, deadline=None)
def test_xor_patch_sparse_diffs_property(prev, data):
    """Near-copies — what consecutive masks look like."""
    new = bytearray(prev)
    for i in data.draw(
        st.lists(st.integers(0, len(prev) - 1), max_size=4, unique=True)
    ):
        new[i] ^= data.draw(st.integers(1, 255))
    patch = xor_patch(prev, bytes(new))
    assert len(patch) == 3 * sum(a != b for a, b in zip(prev, new))
    assert apply_xor_patch(prev, patch) == bytes(new)
