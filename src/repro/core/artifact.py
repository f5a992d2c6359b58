"""Ahead-of-time compiled scan artifacts.

The paper's deployment model compiles the grammar once, offline, and
loads the resulting tables into the device; the software engines here
instead materialize their tables lazily in every process.  This module
closes that gap: :func:`build_artifact` runs the full compilation
pipeline — :class:`~repro.core.scanplan.ScanPlan`, the compiled
product automaton, and its closure into the scan IR
(:class:`~repro.core.scanir.ScanIR`: byte classes, the class-indexed
step table, effects, skip prefilters, per-state rows) — and serializes
the grammar source and the IR to one self-describing binary blob;
:func:`load_artifact` restores it into the parsed grammar's memo so every engine on the
ladder starts without paying the closure again.  The
native kernel's flattened int32 tables re-lower from the restored IR
(a few milliseconds) rather than being stored: they embed a C capsule
that cannot round-trip, and lowering is an order of magnitude cheaper
than the closure it consumes.

Blob layout, shared with the ``RMSK`` mask artifacts and owned by
:func:`write_sealed`, :func:`read_sealed_header` and
:func:`check_sealed_digest`::

    b"RART" | u32 header length | JSON header | marshal payload | sha256

The header carries everything needed to *identify* the artifact
(format ABI, interpreter tag, grammar name, wiring fields, content
key); the payload carries the tables as pure-builtin structures; the
32-byte trailer is the sha256 of every byte before it, checked before
the payload is unmarshalled, so a flipped bit anywhere heals through
the registry instead of mis-serving.  ``marshal`` (not pickle) keeps
loads fast and free of arbitrary code execution, at the price of being
interpreter-version specific — which is why :func:`interpreter_tag` is
part of the object key and a mismatched blob raises
:class:`ArtifactError` instead of loading.

Keying is two-level:

* :func:`content_id` — sha256 of the canonical grammar source
  (:func:`~repro.grammar.writer.write_yacc_grammar`) plus the wiring
  key.  This identifies the *logical* compilation input: two parses of
  the same source under the same wiring share one content id (the
  on-disk analogue of the in-process memo on each grammar object,
  :meth:`~repro.grammar.cfg.Grammar.derived`, which two
  structurally-equal grammar objects do not share).
* :func:`object_key` — content id plus :func:`interpreter_tag` (format
  ABI + ``sys.implementation.cache_tag``).  This addresses the stored
  blob: bumping :data:`ARTIFACT_ABI` or changing interpreters
  invalidates old objects without touching the logical identity.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import sys

from repro.core.compiled import CompiledTagger
from repro.core.options import (
    TaggerOptions,
    TokenizerTemplateOptions,
    WiringOptions,
)
from repro.core.scanir import ScanIR, scan_ir_for
from repro.core.scanplan import _WIRING_FIELDS, _wiring_key
from repro.errors import ArtifactError, ReproError
from repro.grammar.cfg import Grammar
from repro.grammar.writer import write_yacc_grammar
from repro.grammar.yacc_parser import parse_yacc_grammar

__all__ = [
    "ARTIFACT_ABI",
    "ArtifactError",
    "CompiledArtifact",
    "build_artifact",
    "check_sealed_digest",
    "content_id",
    "interpreter_tag",
    "load_artifact",
    "object_key",
    "options_from_wiring_fields",
    "read_header",
    "read_sealed_header",
    "wiring_fields",
    "write_sealed",
]

#: Bumped whenever the serialized table layout changes; part of the
#: object key, so old blobs are simply never looked up again.  ABI 2:
#: the payload carries ``ScanIR.to_payload()`` instead of a
#: byte-indexed edge dict, and the blob ends with a sha256 trailer.
#: ABI 3: effects in register-file indices, payload at marshal version 2.
#: ABI 4: the payload is the source and the IR alone (its state ids are
#: the closure's own, so no interning order is stored to replay), and
#: the IR carries end-of-data effects and live units per state.
ARTIFACT_ABI = 4

_MAGIC = b"RART"
_WHAT = "scan artifact"

_DIGEST_BYTES = hashlib.sha256().digest_size


# ----------------------------------------------------------------------
# the sealed layout: MAGIC | u32 header length | JSON header | body | sha256
# ----------------------------------------------------------------------
def write_sealed(magic: bytes, header: dict, *sections: bytes) -> bytes:
    """``magic``, the JSON header behind its u32 length, ``sections``,
    and the sha256 of every byte before it."""
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join((magic, len(head).to_bytes(4, "big"), head, *sections))
    return body + hashlib.sha256(body).digest()


def read_sealed_header(
    blob: bytes, magic: bytes, error: type[ReproError], what: str
) -> tuple[dict, int, int]:
    """(JSON header, body start, body end) of a sealed ``what``,
    without checking the digest; any other magic or a malformed header
    raises ``error``."""
    if blob[:4] != magic:
        raise error(f"not a {what} (bad magic)")
    offset = 8 + int.from_bytes(blob[4:8], "big")
    if len(blob) < offset:
        raise error(f"truncated {what} header")
    try:
        header = json.loads(blob[8:offset])
    except ValueError as exc:
        raise error(f"corrupt {what} header: {exc}") from None
    if not isinstance(header, dict):
        raise error(f"{what} header is not a JSON object")
    return header, offset, len(blob) - _DIGEST_BYTES


def check_sealed_digest(
    blob: bytes, error: type[ReproError], what: str
) -> None:
    """Raise ``error`` unless a sealed ``what``'s sha256 trailer matches
    every byte before it."""
    end = len(blob) - _DIGEST_BYTES
    if hashlib.sha256(blob[:end]).digest() != blob[end:]:
        raise error(f"{what} digest mismatch (corrupt blob)")


# ----------------------------------------------------------------------
# keying
# ----------------------------------------------------------------------
def wiring_fields(wiring: WiringOptions) -> list:
    """The wiring as a JSON-safe list (``_wiring_key`` order)."""
    return list(_wiring_key(wiring))


def options_from_wiring_fields(fields) -> TaggerOptions:
    """Rebuild :class:`TaggerOptions` from :func:`wiring_fields`."""
    if not isinstance(fields, list) or len(fields) != len(_WIRING_FIELDS):
        raise ArtifactError(
            f"wiring key {fields!r} is not a list of "
            f"{len(_WIRING_FIELDS)} fields"
        )
    named = dict(zip(_WIRING_FIELDS, fields))
    try:
        wiring = WiringOptions(
            context_duplication=bool(named["context_duplication"]),
            start_mode=str(named["start_mode"]),
            loop_on_accept=bool(named["loop_on_accept"]),
            error_recovery=bool(named["error_recovery"]),
            tokenizer=TokenizerTemplateOptions(
                longest_match=bool(named["tokenizer.longest_match"]),
                keyword_boundary=bool(named["tokenizer.keyword_boundary"]),
            ),
        )
    except ValueError as exc:
        raise ArtifactError(f"wiring key {fields!r}: {exc}") from None
    return TaggerOptions(wiring=wiring)


def content_id(source: str, wiring: WiringOptions) -> str:
    """sha256 of the logical compilation input: source + wiring."""
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(repr(_wiring_key(wiring)).encode("utf-8"))
    return digest.hexdigest()


def interpreter_tag() -> str:
    """The ABI half of the object key: blob format + marshal format."""
    return f"abi{ARTIFACT_ABI}-{sys.implementation.cache_tag}"


def object_key(source: str, wiring: WiringOptions) -> str:
    """sha256 addressing the stored blob (content id + engine ABI)."""
    digest = hashlib.sha256()
    digest.update(content_id(source, wiring).encode("ascii"))
    digest.update(interpreter_tag().encode("ascii"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def build_artifact(
    grammar: Grammar, options: TaggerOptions | None = None
) -> bytes:
    """Compile ``grammar`` fully and serialize the tables to one blob.

    Runs the scan IR closure every table consumer shares.  When it
    bails out (product automaton past the state cap) the blob degrades
    to source + wiring only and loading falls back to lazy compilation —
    correctness over cold-start speed, same ladder discipline as the
    engines themselves.
    """
    options = options or TaggerOptions()
    source = write_yacc_grammar(grammar)
    tagger = CompiledTagger(grammar, options)
    ir = scan_ir_for(tagger)
    header = {
        "format": _MAGIC.decode("ascii"),
        "abi": ARTIFACT_ABI,
        "interpreter": interpreter_tag(),
        "grammar": grammar.name,
        "wiring": wiring_fields(options.wiring),
        "content": content_id(source, options.wiring),
        "dense": ir is not None,
    }
    payload: dict = {"source": source}
    if ir is not None:
        payload["ir"] = ir.to_payload()
        header["states"] = ir.n_states
        header["classes"] = ir.n_classes
    # Version 2 writes no reference flags: the bytes depend on the
    # payload's content only, not on which of its objects are shared.
    return write_sealed(_MAGIC, header, marshal.dumps(payload, 2))


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def read_header(blob: bytes) -> dict:
    """Parse and validate the JSON header without unmarshalling tables
    or checking the digest (safe across interpreter versions and ABIs;
    used by ``registry inspect``)."""
    return read_sealed_header(blob, _MAGIC, ArtifactError, _WHAT)[0]


class CompiledArtifact:
    """A loaded artifact: the grammar, its options, and warm caches.

    Constructing taggers from an artifact is cheap — the plan and the
    scan IR are already in :attr:`grammar`'s memo, so
    :meth:`tagger` skips straight to (at most) the native kernel's fast
    re-lowering.
    """

    __slots__ = ("grammar", "options", "header", "nbytes", "ref", "__weakref__")

    def __init__(
        self,
        grammar: Grammar,
        options: TaggerOptions,
        header: dict,
        nbytes: int = 0,
    ) -> None:
        self.grammar = grammar
        self.options = options
        self.header = header
        self.nbytes = nbytes
        #: ``name@version`` when loaded through a registry, else None.
        self.ref: str | None = None

    @property
    def content(self) -> str:
        return self.header["content"]

    @property
    def dense(self) -> bool:
        return bool(self.header.get("dense"))

    def tagger(self, engine: str = "native"):
        """A :class:`~repro.core.tagger.BehavioralTagger` over the
        restored grammar and wiring: ``Registry(root).load(ref)
        .tagger(engine)`` is how a registry ref becomes a tagger
        (``engine`` is any name
        :func:`~repro.core.capabilities.resolve_engine` accepts)."""
        from repro.core.tagger import BehavioralTagger

        return BehavioralTagger(self.grammar, self.options, engine=engine)


def load_artifact(blob: bytes) -> CompiledArtifact:
    """Deserialize a blob and install its scan IR into the grammar's memo.

    Raises :class:`ArtifactError` — and nothing else — for blobs that
    are corrupt (digest mismatch), wrong-shaped, or built under a
    different interpreter/ABI tag; callers holding the grammar source
    (the registry does) recompile and republish instead.
    """
    header, offset, end = read_sealed_header(
        blob, _MAGIC, ArtifactError, _WHAT
    )
    if header.get("interpreter") != interpreter_tag():
        raise ArtifactError(
            f"artifact built for {header.get('interpreter')!r}, "
            f"this interpreter is {interpreter_tag()!r}"
        )
    check_sealed_digest(blob, ArtifactError, _WHAT)
    try:
        payload = marshal.loads(blob[offset:end])
    except (ValueError, EOFError, TypeError) as exc:
        raise ArtifactError(f"corrupt artifact payload: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(
        payload.get("source"), str
    ):
        raise ArtifactError("artifact payload carries no grammar source")
    try:
        grammar = parse_yacc_grammar(
            payload["source"], name=str(header.get("grammar", "grammar"))
        )
    except ReproError as exc:  # grammar or token-pattern syntax
        raise ArtifactError(f"artifact grammar source: {exc}") from None
    options = options_from_wiring_fields(header.get("wiring"))
    if header.get("dense"):
        _install(grammar, options, payload)
    return CompiledArtifact(grammar, options, header, nbytes=len(blob))


def _install(grammar: Grammar, options: TaggerOptions, payload: dict) -> None:
    """Make the payload's validated IR the grammar's, under the key
    :func:`~repro.core.scanir.scan_ir_for` reads.  Its state ids are the
    closure's own, so nothing else needs restoring: an engine that
    steps compiled tables by the IR's ids closes its own again
    (:func:`~repro.core.scanir.closed_tables`), to the same ids."""
    ir = ScanIR.from_payload(payload.get("ir"))
    if ir.unit_caps != CompiledTagger(grammar, options).tables.unit_caps():
        raise ArtifactError("artifact IR was lowered for other tokenizers")
    grammar.derived(("ir", _wiring_key(options.wiring)), lambda: ir)
