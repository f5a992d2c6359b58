"""Mask artifacts in the content-addressed registry: publish with
dedup, load on the exact interned state ids, heal foreign blobs,
inspect, and garbage-collect — keyed ``content_id × vocab_hash``."""

import hashlib
import os

import pytest

from repro.apps.structgen import build_mask_table, mask_key, synthetic_vocab
from repro.apps.structgen.masks import read_mask_header
from repro.core.generator import TaggerOptions
from repro.core.wiring import WiringOptions
from repro.grammar.examples import if_then_else, xmlrpc
from repro.service.registry import Registry, RegistryError
from tests.apps.test_mask_blob import reseal


@pytest.fixture()
def registry(tmp_path):
    return Registry(str(tmp_path / "store"))


@pytest.fixture(scope="module")
def vocab():
    return synthetic_vocab(size=384, seed=13)


def test_publish_masks_and_dedup(registry, vocab):
    ref = registry.publish("xmlrpc", xmlrpc())
    first = registry.publish_masks(ref, vocab)
    assert first["rebuilt"] is True
    assert first["vocab_size"] == 384
    assert first["ci"] + first["cd"] == 384
    assert os.path.exists(
        os.path.join(registry.root, "objects", first["key"] + ".msk")
    )
    again = registry.publish_masks(ref, vocab)
    assert again["rebuilt"] is False
    assert again["key"] == first["key"]


def test_load_masks_serves_identical_rows(registry, vocab):
    ref = registry.publish("xmlrpc", xmlrpc())
    registry.publish_masks(ref, vocab)
    # Fresh Registry: no in-memory caches, everything off disk.
    table = Registry(registry.root).load_masks(ref)
    fresh = build_mask_table(xmlrpc(), vocab)
    assert table.rows == fresh.rows
    assert table.cd_ids == fresh.cd_ids
    for state in (0, 1, table.n_states - 1):
        assert bytes(table.mask_row(state)) == bytes(
            fresh.mask_row(state)
        )


def test_load_masks_requires_disambiguation(registry, vocab):
    ref = registry.publish("xmlrpc", xmlrpc())
    with pytest.raises(RegistryError, match="0 mask"):
        registry.load_masks(ref)
    registry.publish_masks(ref, vocab)
    other = synthetic_vocab(size=512, seed=99)
    registry.publish_masks(ref, other)
    with pytest.raises(RegistryError, match="2 mask"):
        registry.load_masks(ref)
    assert registry.load_masks(ref, vocab.vocab_hash) is not None
    with pytest.raises(RegistryError, match="precompute"):
        registry.load_masks(ref, "ee" * 32)


def test_heal_foreign_blob(registry, vocab):
    """A blob whose rows were built against different tables (wiring
    drift) fails the fingerprint check and is rebuilt in place from
    the vocabulary embedded in the blob."""
    ref = registry.publish("xmlrpc", xmlrpc())
    summary = registry.publish_masks(ref, vocab)
    foreign = build_mask_table(
        xmlrpc(),
        vocab,
        TaggerOptions(wiring=WiringOptions(error_recovery=True)),
    )
    path = os.path.join(
        registry.root, "objects", summary["key"] + ".msk"
    )
    with open(path, "wb") as fh:
        fh.write(foreign.to_blob())

    healed = Registry(registry.root).load_masks(ref)
    fresh = build_mask_table(xmlrpc(), vocab)
    assert healed.rows == fresh.rows
    # And the healed blob was written back.
    reloaded = Registry(registry.root).load_masks(ref)
    assert reloaded.rows == fresh.rows


def test_unreadable_blob_is_an_error(registry, vocab):
    ref = registry.publish("xmlrpc", xmlrpc())
    summary = registry.publish_masks(ref, vocab)
    path = os.path.join(
        registry.root, "objects", summary["key"] + ".msk"
    )
    with open(path, "wb") as fh:
        fh.write(b"JUNKJUNKJUNK")
    with pytest.raises(RegistryError, match="precompute"):
        Registry(registry.root).load_masks(ref)
    os.remove(path)
    with pytest.raises(RegistryError, match="precompute"):
        Registry(registry.root).load_masks(ref)


def test_inspect_describes_masks(registry, vocab):
    ref = registry.publish("xmlrpc", xmlrpc())
    info = registry.inspect(ref)
    assert info.get("masks", {}) == {}
    summary = registry.publish_masks(ref, vocab)
    info = registry.inspect(ref)
    described = info["masks"][vocab.vocab_hash[:16]]
    assert described["vocab_size"] == 384
    assert described["states"] == summary["states"]
    assert described["ci"] + described["cd"] == 384
    assert 0.0 <= described["ci_fraction"] <= 1.0
    assert described["abi"] == 2
    assert "rev" not in described
    assert described["key"] == summary["key"]

    listing = [
        e for e in registry.list() if e["name"] == "xmlrpc"
    ][0]
    assert listing["versions"]["1"]["masks"] == 1


def test_gc_keeps_referenced_masks(registry, vocab):
    ref = registry.publish("xmlrpc", xmlrpc())
    summary = registry.publish_masks(ref, vocab)
    objects = os.path.join(registry.root, "objects")
    orphan = os.path.join(objects, "f" * 64 + ".msk")
    with open(orphan, "wb") as fh:
        fh.write(b"RMSKorphan")
    removed = registry.gc()
    assert removed >= 1
    assert not os.path.exists(orphan)
    assert os.path.exists(
        os.path.join(objects, summary["key"] + ".msk")
    )
    assert Registry(registry.root).load_masks(ref) is not None


def test_mask_key_tracks_content_and_vocab(registry, vocab):
    """Different grammar content or vocabulary → different key; the
    paper's content-addressing discipline extended to masks."""
    xml_ref = registry.publish("xmlrpc", xmlrpc())
    ite_ref = registry.publish("ifelse", if_then_else())
    a = registry.publish_masks(xml_ref, vocab)
    b = registry.publish_masks(ite_ref, vocab)
    c = registry.publish_masks(
        xml_ref, synthetic_vocab(size=512, seed=99)
    )
    assert len({a["key"], b["key"], c["key"]}) == 3
    entry = registry.inspect(xml_ref)
    assert a["key"] == mask_key(entry["content"], vocab.vocab_hash)


def _mask_path(registry, summary):
    return os.path.join(
        registry.root, "objects", summary["key"] + ".msk"
    )


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: reseal(blob, lambda h: h.pop("content")),
        lambda blob: reseal(blob, lambda h: h.update(content=7)),
        lambda blob: reseal(blob, lambda h: h.update(abi=1)),
        # One flipped bit in the row section, trailer left as it was.
        lambda blob: blob[:4000] + bytes([blob[4000] ^ 4]) + blob[4001:],
    ],
    ids=["no-content", "content-retyped", "abi-1", "row-bit-flip"],
)
def test_damaged_blob_heals_from_its_vocabulary(registry, vocab, damage):
    """Whatever fails the load, the store heals while the embedded
    vocabulary still hashes to the one asked for — never a KeyError
    out of ``load_masks``, never the damaged rows served."""
    ref = registry.publish("xmlrpc", xmlrpc())
    summary = registry.publish_masks(ref, vocab)
    path = _mask_path(registry, summary)
    with open(path, "rb") as fh:
        good = fh.read()
    with open(path, "wb") as fh:
        fh.write(damage(good))
    healed = Registry(registry.root).load_masks(ref)
    assert healed.rows == build_mask_table(xmlrpc(), vocab).rows
    with open(path, "rb") as fh:  # and the healed blob was written back
        rewritten = fh.read()
    assert rewritten[-32:] == hashlib.sha256(rewritten[:-32]).digest()
    assert (
        read_mask_header(rewritten)["content"]
        == registry.inspect(ref)["content"]
    )


def test_heal_refuses_a_vocabulary_that_hashes_differently(registry, vocab):
    """The blob at the key carries some other vocabulary (here: one
    token changed, so the load's hash check fails too): rebuilding
    from it would serve masks for tokens nobody asked for."""
    ref = registry.publish("xmlrpc", xmlrpc())
    summary = registry.publish_masks(ref, vocab)
    path = _mask_path(registry, summary)
    with open(path, "rb") as fh:
        good = fh.read()
    at = len(good) - 32 - 1  # the last token's last byte
    swapped = good[:at] + bytes([good[at] ^ 1]) + good[at + 1 :]
    for blob in (
        swapped,
        swapped[:-32] + hashlib.sha256(swapped[:-32]).digest(),
        build_mask_table(
            xmlrpc(), synthetic_vocab(size=385, seed=13)
        ).to_blob(),
    ):
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(RegistryError, match="precompute"):
            Registry(registry.root).load_masks(ref)
        with open(path, "rb") as fh:
            assert fh.read() == blob  # nothing was healed over it


def _race_loader(root, ref, vocab_hash, barrier, out_q):
    """Child process: wait at the barrier, then load (and heal) the
    foreign blob; ship the loaded rows back for equality checks."""
    from repro.service.registry import Registry

    barrier.wait(timeout=30)
    table = Registry(root).load_masks(ref, vocab_hash)
    out_q.put((table.rows, list(table.cd_ids)))


def test_concurrent_heal_republish_is_atomic(registry, vocab):
    """Two processes racing the heal re-publish of a foreign blob
    (fingerprint mismatch → rebuilt from the embedded vocabulary)
    while a third inspects: every inspect sees a whole blob, never a
    read error, and both healed loads serve identical rows.  The heal
    routes through mkstemp + os.replace, so a half-written artifact
    is never visible at the published path."""
    import multiprocessing as mp

    ref = registry.publish("xmlrpc", xmlrpc())
    summary = registry.publish_masks(ref, vocab)
    foreign = build_mask_table(
        xmlrpc(),
        vocab,
        TaggerOptions(wiring=WiringOptions(error_recovery=True)),
    )
    with open(_mask_path(registry, summary), "wb") as fh:
        fh.write(foreign.to_blob())
    fresh = build_mask_table(xmlrpc(), vocab)
    fingerprint = fresh.lowering.fingerprint()
    assert foreign.lowering.fingerprint() != fingerprint

    ctx = mp.get_context()
    barrier = ctx.Barrier(3)
    out_q = ctx.Queue()
    loaders = [
        ctx.Process(
            target=_race_loader,
            args=(registry.root, ref, vocab.vocab_hash, barrier, out_q),
        )
        for _ in range(2)
    ]
    for proc in loaders:
        proc.start()
    barrier.wait(timeout=30)
    # Inspect continuously while the heals re-publish underneath.
    while any(proc.is_alive() for proc in loaders):
        described = Registry(registry.root).inspect(ref)["masks"][
            vocab.vocab_hash[:16]
        ]
        assert "error" not in described, described
        assert described["abi"] == 2, described
    results = [out_q.get(timeout=30) for _ in loaders]
    for proc in loaders:
        proc.join(timeout=30)
        assert proc.exitcode == 0

    for rows, cd_ids in results:
        assert rows == fresh.rows
        assert cd_ids == list(fresh.cd_ids)
    # The store converged on one whole healed blob.
    with open(_mask_path(registry, summary), "rb") as fh:
        assert read_mask_header(fh.read())["fingerprint"] == fingerprint
