"""Per-state token masks: tables, sessions, and the on-disk artifact.

This is the constrained-decoding workload (`ROADMAP`): given a
compiled grammar and a byte-level vocabulary, answer "which tokens may
the model emit from the current parse state" once per decode step.
The lowering lives in :mod:`repro.core.maskgen`; this module adds the
three things a serving stack needs:

* **The CI/CD split (XGrammar-style).** Most tokens are
  *context-independent*: their validity bit per state is baked into a
  packed row ahead of time, over the byte-equivalence-class closure,
  with shared-prefix trie walking so the precompute is
  ``states × trie-nodes``, not ``states × tokens × bytes``.  Tokens
  past a length cap or a precompute budget stay *context-dependent*:
  CI eager, CD completed once per state.  The table owns one mutable
  row matrix seeded with the CI rows; the first query of a state ORs
  that state's CD bits in (the same trie walk, over the CD class
  strings, from that one start state) and flags the row complete, so
  every later query — ``mask()``, every beam gather, the C kernel —
  is one row copy with no per-token work.

* **MaskSession.** The per-decode API: ``mask()`` returns the packed
  validity row for the current state (bit *i*, LSB-first per byte, is
  token *i*), ``advance(token_id)`` steps the automaton by the
  token's bytes.  Sessions mirror their counters into a
  :class:`~repro.service.metrics.MetricsRegistry` when given one.

* **The mask artifact.** ``RMSK`` blobs, ABI-tagged and sealed with a
  sha256 trailer in ``RART``'s layout (one owner:
  :func:`repro.core.artifact.write_sealed`) and keyed
  ``content_id × vocab_hash`` (:func:`mask_key`) — the same artifact,
  byte for byte, for every
  interpreter, because the payload is raw packed rows rather than
  marshal.  A table fingerprint
  (:meth:`~repro.core.maskgen.MaskLowering.fingerprint`) guards
  against state-id drift: rows are only served when the loader's
  lowered tables hash identically to the builder's.
"""

from __future__ import annotations

import hashlib
import time

from repro.core.artifact import (
    check_sealed_digest,
    content_id,
    read_sealed_header,
    wiring_fields,
    write_sealed,
)
from repro.core.compiled import CompiledTagger
from repro.core.maskgen import MaskInfeasible, MaskLowering
from repro.core.options import TaggerOptions
from repro.errors import ReproError
from repro.grammar.writer import write_yacc_grammar

from .vocab import Vocabulary

__all__ = [
    "MASK_ABI",
    "MaskError",
    "MaskSession",
    "MaskTable",
    "build_mask_table",
    "load_mask_blob",
    "mask_key",
    "read_mask_header",
    "read_mask_sections",
]

#: Bumped whenever the RMSK layout changes *incompatibly*; part of
#: :func:`mask_key`, so old blobs are never looked up again (same
#: discipline as ``ARTIFACT_ABI``).  ABI 2: the blob ends with a sha256
#: trailer and nothing may follow the vocabulary.
MASK_ABI = 2

_MAGIC = b"RMSK"
_WHAT = "mask artifact"

#: Default per-token byte-class-length cap for the precomputed set:
#: longer tokens are context-dependent regardless of budget.
DEFAULT_CI_MAX_LEN = 48

#: Default precompute budget in trie-DFS steps (states × trie nodes):
#: class strings are admitted shortest-first until the trie would push
#: past it; the remainder stays context-dependent.
DEFAULT_CI_BUDGET = 8_000_000


class MaskError(ReproError):
    """Bad token id, invalid advance, or a corrupt/mismatched blob."""


def mask_key(content: str, vocab_hash: str) -> str:
    """The store key for one mask artifact: grammar content id ×
    vocabulary hash × mask ABI.  No interpreter tag — RMSK payloads
    are raw bytes, valid under every interpreter."""
    digest = hashlib.sha256()
    digest.update(content.encode("ascii"))
    digest.update(b":")
    digest.update(vocab_hash.encode("ascii"))
    digest.update(b":rmsk%d" % MASK_ABI)
    return digest.hexdigest()


class MaskTable:
    """Packed per-state validity rows for one (grammar content,
    vocabulary) pair, shared by any number of :class:`MaskSession`\\ s
    and server flows.

    :attr:`rows` are the precomputed CI rows (what the blob stores);
    :attr:`matrix` is what queries read — the same rows with each
    state's CD bits ORed in on that state's first query.  A row is a
    pure function of its state, so completion is idempotent: two
    sessions racing on one state write the same bits, and the
    complete flag is set only after them."""

    __slots__ = (
        "lowering",
        "vocab",
        "codes",
        "rows",
        "matrix",
        "row_bytes",
        "cd_ids",
        "ci_count",
        "content",
        "grammar_name",
        "wiring",
        "build_ms",
        "memo_hits",
        "memo_misses",
        "_complete",
        "_cd_trie",
        "_adv_memo",
        "_beam_cache",
    )

    def __init__(
        self,
        lowering: MaskLowering,
        vocab: Vocabulary,
        rows: bytes,
        cd_ids: tuple[int, ...],
        content: str,
        grammar_name: str = "grammar",
        wiring: list | None = None,
        build_ms: float = 0.0,
    ) -> None:
        self.lowering = lowering
        self.vocab = vocab
        self.codes = tuple(lowering.codes(t) for t in vocab.tokens)
        self.rows = bytes(rows)
        self.row_bytes = (len(vocab) + 7) // 8
        self.cd_ids = tuple(cd_ids)
        self.ci_count = len(vocab) - len(self.cd_ids)
        self.content = content
        self.grammar_name = grammar_name
        self.wiring = wiring or []
        self.build_ms = build_ms
        # Seeded with the CI rows; complete as built iff no token is CD.
        self.matrix = bytearray(self.rows)
        self._complete = bytearray([not self.cd_ids]) * lowering.n_states
        # The CD class strings' trie, walked once per state.  Built
        # here rather than on state 0's first query so it is part of
        # the table a long-lived process sets up (and may gc.freeze),
        # not garbage-collector traffic in the middle of serving.
        groups: dict[bytes, list[int]] = {}
        for tok in self.cd_ids:
            groups.setdefault(self.codes[tok], []).append(tok)
        self._cd_trie = lowering.build_trie(groups)[0]
        #: Rows served already complete / completed on demand (the
        #: ``structgen.memo_*`` counters on ``/stats`` and ``/metrics``).
        self.memo_hits = 0
        self.memo_misses = 0
        self._adv_memo: dict = {}
        self._beam_cache = None  # the beam kernel's plan, built lazily

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return self.lowering.n_states

    @property
    def vocab_hash(self) -> str:
        return self.vocab.vocab_hash

    @property
    def key(self) -> str:
        return mask_key(self.content, self.vocab_hash)

    def describe(self) -> dict:
        """JSON-safe summary (``/stats``, ``registry inspect``)."""
        return {
            "key": self.key[:16],
            "grammar": self.grammar_name,
            "vocab_hash": self.vocab_hash[:16],
            "vocab_size": len(self.vocab),
            "states": self.n_states,
            "ci": self.ci_count,
            "cd": len(self.cd_ids),
            "row_bytes": self.row_bytes,
        }

    # ------------------------------------------------------------------
    def complete_rows(self, states) -> int:
        """Make every state in ``states`` state-complete in
        :attr:`matrix`; returns how many were not yet.  Callers skip
        this when :attr:`cd_ids` is empty (nothing to complete,
        nothing counted)."""
        complete = self._complete
        misses = 0
        for s in states:
            if not complete[s]:
                self.lowering.row_from_trie(
                    self._cd_trie, s, self.matrix, s * self.row_bytes
                )
                complete[s] = 1  # after the bits, never before
                misses += 1
        self.memo_hits += len(states) - misses
        self.memo_misses += misses
        return misses

    def mask_row(self, state: int) -> bytes:
        """The packed validity row for ``state``: one copy out of the
        matrix, completed first if this is the state's first query."""
        if self.cd_ids:
            self.complete_rows((state,))
        base = state * self.row_bytes
        return bytes(
            memoryview(self.matrix)[base : base + self.row_bytes]
        )

    def naive_row(self, state: int) -> bytearray:
        """The simulate-every-token baseline: no precomputed rows, no
        trie, no memo — each token's bytes walked individually.  The
        benchmark's denominator."""
        lowering = self.lowering
        row = bytearray(self.row_bytes)
        for i, token in enumerate(self.vocab.tokens):
            s = lowering.walk(state, lowering.codes(token))
            if s >= 0 and not lowering.doomed[s]:
                row[i >> 3] |= 1 << (i & 7)
        return row

    def advance_state(self, state: int, token_id: int) -> int:
        """The state after emitting ``token_id`` from ``state``.
        Raises :class:`MaskError` for out-of-range ids or tokens whose
        mask bit is 0 (a constrained decoder never emits those)."""
        if not 0 <= token_id < len(self.vocab):
            raise MaskError(
                f"token id {token_id} out of range "
                f"(vocabulary has {len(self.vocab)} tokens)"
            )
        memo = self._adv_memo
        key = (state, token_id)
        nxt = memo.get(key)
        if nxt is None:
            lowering = self.lowering
            nxt = lowering.walk(state, self.codes[token_id])
            if nxt < 0 or lowering.doomed[nxt]:
                nxt = -1
            if len(memo) < 1 << 18:
                memo[key] = nxt
        if nxt < 0:
            raise MaskError(
                f"token {token_id} is not valid in state {state}"
            )
        return nxt

    def eos_valid(self, state: int) -> bool:
        """Whether end-of-data is accepted in ``state`` (some pending
        token detects at EOF — the flush path's condition)."""
        return self.lowering.ir.eof[state] != 0

    # ------------------------------------------------------------------
    # serialization: the sealed layout of repro.core.artifact, with raw
    # sections (rows, cd ids, vocabulary) for a body
    # ------------------------------------------------------------------
    def to_blob(self) -> bytes:
        header = {
            "format": _MAGIC.decode("ascii"),
            "abi": MASK_ABI,
            "content": self.content,
            "fingerprint": self.lowering.fingerprint(),
            "grammar": self.grammar_name,
            "wiring": self.wiring,
            "vocab_hash": self.vocab_hash,
            "vocab_size": len(self.vocab),
            "states": self.n_states,
            "row_bytes": self.row_bytes,
            "ci": self.ci_count,
            "cd": len(self.cd_ids),
        }
        parts = [self.rows]
        parts.extend(t.to_bytes(4, "big") for t in self.cd_ids)
        for token in self.vocab.tokens:
            parts.append(len(token).to_bytes(4, "big"))
            parts.append(token)
        return write_sealed(_MAGIC, header, *parts)


def read_mask_header(blob: bytes) -> dict:
    """Parse and validate an RMSK header without touching the sections
    or checking the digest (``registry inspect``)."""
    return read_sealed_header(blob, _MAGIC, MaskError, _WHAT)[0]


def _field(header: dict, name: str, kind: type):
    value = header.get(name)
    if type(value) is not kind or (kind is int and value < 0):
        raise MaskError(
            f"mask artifact header field {name!r} is {value!r}"
        )
    return value


def read_mask_sections(
    blob: bytes,
) -> tuple[dict, bytes, tuple[int, ...], Vocabulary]:
    """-> (header, CI rows, CD token ids, vocabulary): the one reader
    of the RMSK layout.  Every missing or ill-typed header
    field and every section that does not fit the blob exactly is a
    :class:`MaskError`.  The digest is :func:`load_mask_blob`'s to
    check — the registry heals from a damaged blob's vocabulary, which
    its own hash vouches for."""
    header, offset, body_end = read_sealed_header(
        blob, _MAGIC, MaskError, _WHAT
    )
    n_states = _field(header, "states", int)
    row_bytes = _field(header, "row_bytes", int)
    vocab_size = _field(header, "vocab_size", int)
    cd_count = _field(header, "cd", int)
    rows_end = offset + n_states * row_bytes
    cd_end = rows_end + 4 * cd_count
    if row_bytes != (vocab_size + 7) // 8 or cd_end > body_end:
        raise MaskError("mask artifact sections do not fit its header")
    cd_ids = tuple(
        int.from_bytes(blob[i : i + 4], "big")
        for i in range(rows_end, cd_end, 4)
    )
    if any(t >= vocab_size for t in cd_ids):
        raise MaskError("mask artifact CD token id out of range")
    tokens = []
    pos = cd_end
    for _ in range(vocab_size):
        end = pos + 4 + int.from_bytes(blob[pos : pos + 4], "big")
        if end > body_end:
            raise MaskError("truncated mask artifact vocabulary")
        tokens.append(blob[pos + 4 : end])
        pos = end
    if pos != body_end:
        raise MaskError("mask artifact carries bytes past its vocabulary")
    try:
        vocab = Vocabulary(tokens)
    except ValueError as exc:  # no tokens, or an empty one
        raise MaskError(f"mask artifact vocabulary: {exc}") from None
    return header, blob[offset:rows_end], cd_ids, vocab


# ----------------------------------------------------------------------
# build / load
# ----------------------------------------------------------------------
def build_mask_table(
    grammar,
    vocab: Vocabulary,
    options: TaggerOptions | None = None,
    *,
    ci_max_len: int = DEFAULT_CI_MAX_LEN,
    ci_budget: int = DEFAULT_CI_BUDGET,
) -> MaskTable:
    """Lower ``grammar`` and precompute the CI rows for ``vocab``.

    Tokens group by byte-class string (distinct tokens with one class
    string are one walk — the token-space-compression observation);
    groups are admitted into the precomputed trie shortest-first until
    ``ci_max_len`` / ``ci_budget`` push the remainder into the
    context-dependent set, whose bits are completed per state on
    first query (:meth:`MaskTable.complete_rows`).
    """
    start = time.perf_counter()
    options = options or TaggerOptions()
    tagger = CompiledTagger(grammar, options)
    lowering = MaskLowering(tagger)

    groups: dict[bytes, list[int]] = {}
    for i, token in enumerate(vocab.tokens):
        groups.setdefault(lowering.codes(token), []).append(i)

    n = lowering.n_states
    root: list = [{}, []]
    nodes = 1
    cd_ids: list[int] = []
    for code_str, ids in sorted(
        groups.items(), key=lambda kv: (len(kv[0]), kv[0])
    ):
        if len(code_str) > ci_max_len:
            cd_ids.extend(ids)
            continue
        # Count the nodes this string would add before inserting, so a
        # budget refusal leaves the trie untouched.
        node = root
        new = 0
        for depth, c in enumerate(code_str):
            child = node[0].get(c)
            if child is None:
                new = len(code_str) - depth
                break
            node = child
        if (nodes + new) * n > ci_budget and nodes > 1:
            cd_ids.extend(ids)
            continue
        nodes += new
        node = root
        for c in code_str:
            child = node[0].get(c)
            if child is None:
                child = [{}, []]
                node[0][c] = child
            node = child
        node[1].extend(ids)

    rows = lowering.rows_from_trie(root, len(vocab))
    del root, groups  # before the table builds its own (CD) trie
    source = write_yacc_grammar(grammar)
    table = MaskTable(
        lowering,
        vocab,
        bytes(rows),
        tuple(sorted(cd_ids)),
        content_id(source, options.wiring),
        grammar_name=grammar.name,
        wiring=wiring_fields(options.wiring),
    )
    table.build_ms = (time.perf_counter() - start) * 1e3
    return table


def load_mask_blob(
    blob: bytes, grammar, options: TaggerOptions | None = None
) -> MaskTable:
    """Restore a mask table from an RMSK blob.

    The sha256 trailer is checked before anything is parsed, and a
    blob that is corrupt, wrong-shaped or of another ABI raises
    :class:`MaskError` and nothing else.  ``grammar``/``options`` must
    be the artifact the masks were built against (normally the
    registry hands both over).  The lowering is recomputed — cheap
    next to the trie precompute — and its fingerprint must match the
    builder's, which pins the state-id interning order; a mismatch
    raises :class:`MaskError` so callers rebuild instead of serving
    misaligned rows.
    """
    start = time.perf_counter()
    check_sealed_digest(blob, MaskError, _WHAT)
    header, rows, cd_ids, vocab = read_mask_sections(blob)
    if header.get("abi") != MASK_ABI:
        raise MaskError(
            f"mask artifact ABI {header.get('abi')!r}, "
            f"this build is {MASK_ABI}"
        )
    options = options or TaggerOptions()
    try:
        lowering = MaskLowering(CompiledTagger(grammar, options))
    except MaskInfeasible as exc:
        raise MaskError(str(exc)) from None
    if lowering.fingerprint() != header.get("fingerprint"):
        raise MaskError(
            "mask artifact fingerprint mismatch (grammar tables "
            "drifted); rebuild the masks"
        )
    if header["states"] != lowering.n_states:
        raise MaskError("mask artifact state count mismatch")
    if vocab.vocab_hash != header.get("vocab_hash"):
        raise MaskError("mask artifact vocabulary hash mismatch")
    table = MaskTable(
        lowering,
        vocab,
        rows,
        cd_ids,
        _field(header, "content", str),
        grammar_name=_field(header, "grammar", str),
        wiring=_field(header, "wiring", list),
    )
    table.build_ms = (time.perf_counter() - start) * 1e3
    return table


# ----------------------------------------------------------------------
class MaskSession:
    """One decode's cursor over a shared :class:`MaskTable`.

    ``mask()`` → packed row for the current state; ``advance(id)`` →
    step by that token's bytes.  ``metrics`` (when given) receives the
    structgen counters — masks served, precomputed CI bits served,
    context-dependent checks — alongside the session-local
    :attr:`counters` dict.
    """

    __slots__ = ("table", "state", "counters", "_metrics")

    def __init__(self, table: MaskTable, metrics=None) -> None:
        self.table = table
        self.state = 0
        self.counters = {
            "masks_served": 0,
            "ci_tokens": 0,
            "cd_checks": 0,
            "advances": 0,
        }
        self._metrics = metrics

    def mask(self) -> bytes:
        table = self.table
        row = table.mask_row(self.state)
        counters = self.counters
        counters["masks_served"] += 1
        counters["ci_tokens"] += table.ci_count
        counters["cd_checks"] += len(table.cd_ids)
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("structgen.masks_served").inc()
            metrics.counter("structgen.ci_tokens").inc(table.ci_count)
            metrics.counter("structgen.cd_checks").inc(len(table.cd_ids))
        return row

    def advance(self, token_id: int) -> int:
        self.state = self.table.advance_state(self.state, token_id)
        self.counters["advances"] += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("structgen.advances").inc()
        return self.state

    def eos_valid(self) -> bool:
        return self.table.eos_valid(self.state)

    def reset(self) -> None:
        self.state = 0
