"""Shared helpers for the server tests: seeded workloads, ground
truth, and an in-loop server harness (no pytest-asyncio dependency —
each test owns its loop via ``asyncio.run``)."""

from __future__ import annotations

import collections
import contextlib

import pytest

from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.server import protocol


@pytest.fixture(scope="module")
def streams() -> dict[str, bytes]:
    """Seeded multi-flow XML-RPC workload (deterministic)."""
    generator = WorkloadGenerator(seed=77)
    return {f"flow-{i}": generator.stream(4)[0] for i in range(5)}


@pytest.fixture(scope="module")
def expected(streams):
    """Single-process ground truth for the differential checks."""
    router = ContentBasedRouter()
    return {name: router.route(data) for name, data in streams.items()}


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    """An async context manager yielding a started ScanServer bound to
    an ephemeral localhost port; always stopped on exit."""
    from repro.server import ScanServer

    server = ScanServer(port=0, **kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop(drain=False, timeout=5.0)


class FrameReader:
    """Frame-at-a-time view of a raw ``asyncio.StreamReader``, for
    tests that speak the protocol by hand."""

    def __init__(self, reader, max_frame: int = 1 << 20) -> None:
        self._reader = reader
        self._decoder = protocol.FrameDecoder(max_frame)
        self._ready: collections.deque = collections.deque()

    async def frame(self):
        """The next frame, or None on a clean end of stream (an end
        inside a frame is a ProtocolError)."""
        while not self._ready:
            data = await self._reader.read(1 << 16)
            if not data:
                if self._decoder.pending():
                    raise protocol.ProtocolError("connection cut mid-frame")
                return None
            self._ready.extend(self._decoder.feed(data))
        return self._ready.popleft()
