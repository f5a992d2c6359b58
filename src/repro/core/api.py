"""The unified tagger surface: one protocol, one session interface.

Three tagger back-ends grew three subtly different APIs for errors and
for streaming. This module pins down the two shared surfaces every
back-end now implements:

* :class:`TokenTagger` — the whole-buffer scanning protocol
  (``events``, ``events_and_errors``, ``tag``) plus a ``stream()``
  factory for incremental sessions. Implemented by
  :class:`~repro.core.tagger.BehavioralTagger`,
  :class:`~repro.core.compiled.CompiledTagger` and
  :class:`~repro.core.tagger.GateLevelTagger`.

* :class:`StreamSession` — the incremental session contract:
  ``feed(chunk)`` returns the results the chunk completed,
  ``finish()`` flushes the tail against end-of-data, and the context
  manager auto-finishes (the flushed tail lands in :attr:`tail`).
  Implemented by :class:`~repro.core.compiled.CompiledStream`,
  :class:`~repro.apps.xmlrpc.router.RouterSession` and the netstack
  :class:`~repro.apps.netstack.wrapper.TaggingWrapper`.

Back-ends that cannot scan incrementally (the cycle-accurate
gate-level simulation, the interpreted reference loop) satisfy the
session contract through :class:`BufferedSession`, which buffers
chunks and runs one whole-buffer scan at ``finish()`` — degenerate but
contract-true, so application code can be written once against the
protocol and handed any engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import BackendError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scanplan import DetectEvent
    from repro.core.tokens import TaggedToken

__all__ = [
    "BufferedSession",
    "StreamSession",
    "TokenTagger",
]


@runtime_checkable
class TokenTagger(Protocol):
    """What every tagger back-end exposes, whole-buffer and streaming.

    The three engines differ in *how* they scan (interpreted loop,
    compiled tables, cycle-accurate netlist) but not in what they
    answer; code written against this protocol runs on any of them.
    """

    def events(self, data: bytes) -> "list[DetectEvent]":
        """Raw detection events in stream order."""

    def events_and_errors(
        self, data: bytes
    ) -> "tuple[list[DetectEvent], list[int]]":
        """Detection events plus §5.2 error-recovery positions."""

    def tag(self, data: bytes) -> "list[TaggedToken]":
        """Tagged tokens with lexemes and encoder indices."""

    def stream(self) -> "StreamSession":
        """A fresh incremental scanning session."""


class StreamSession:
    """Base class / contract for incremental scanning sessions.

    ``feed(chunk)`` consumes one chunk (arbitrary boundaries) and
    returns the results it completed; ``finish()`` resolves the tail
    against end-of-data and ends the session — feeding afterwards
    raises :class:`~repro.errors.BackendError`. Used as a context
    manager the session auto-finishes on exit, stashing the flushed
    tail in :attr:`tail` so no result is silently dropped:

    .. code-block:: python

        with tagger.stream() as session:
            for chunk in chunks:
                handle(session.feed(chunk))
        handle(session.tail)
    """

    _finished = False

    #: Results flushed by the context manager's implicit ``finish()``.
    tail: list | None = None

    # ------------------------------------------------------------------
    def feed(self, chunk: bytes) -> list:
        """Consume one chunk; return the results it completed."""
        raise NotImplementedError

    def finish(self) -> list:
        """Flush against end-of-data and end the session."""
        raise NotImplementedError

    def feed_records(self, chunk: bytes) -> list:
        """:meth:`feed` for a consumer that holds the stream itself
        (the serving edge: the client keeps what it sent): sessions
        whose results embed stream bytes override this to report
        spans instead. The default is :meth:`feed`."""
        return self.feed(chunk)

    def finish_records(self) -> list:
        """:meth:`finish`, as :meth:`feed_records` is to :meth:`feed`."""
        return self.finish()

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has run (feeding now raises)."""
        return self._finished

    def _check_open(self) -> None:
        if self._finished:
            raise BackendError("stream already finished")

    # ------------------------------------------------------------------
    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._finished:
            self.tail = self.finish()
        return False


class BufferedSession(StreamSession):
    """Contract-true session for engines that cannot scan incrementally.

    Chunks are buffered; ``feed`` reports nothing and ``finish`` runs
    one whole-buffer scan over the concatenation. The gate-level
    simulator and the interpreted reference loop use this to satisfy
    the :class:`StreamSession` contract.
    """

    def __init__(self, tagger: "TokenTagger") -> None:
        self.tagger = tagger
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> list:
        self._check_open()
        self._buffer += chunk
        return []

    def finish(self) -> list:
        self._check_open()
        self._finished = True
        return self.tagger.events(bytes(self._buffer))
