"""Per-stage CPU of one short served scan flow, client and server, with
no sockets.

Run with ``PYTHONPATH=src python benchmarks/bench_flow_turn.py``
(``--flows N``, ``--seed S``; pin it to one CPU with ``taskset -c 0``
for steadier numbers).

A :class:`~repro.server.client.ScanClient` placed on a one-member ring
(the path ``repro cluster`` hands a client) and a
:class:`~repro.server.server.ScanServer` connection talk through fake
transports that only collect what is written, so every microsecond
below is Python and the kernel's scan, never a syscall or a loop wait.
The server scans with the native engine, as ``repro serve --engine
native`` does. Each flow is the ``scan-shortflows`` shape: two messages (about
400 B) sent as 256-byte chunks, then ``finish()``. The client's
coroutines are stepped by hand, so a stage is exactly the code that
runs between two points of the flow:

client
    ``open``: ``open_flow()``; ``send``: every ``send()``;
    ``finish``: ``finish()`` up to its await on the reply (its write
    included); ``reply read``: the link's ``data_received`` of the
    server's bytes; ``resume``: ``finish()`` from its await to its
    return (the results decoded); ``handles``: the loop callbacks the
    flow left scheduled, run.
server
    ``read``: the connection's ``data_received`` of the client's bytes,
    reply written; of it, measured apart on the same bytes: ``frame
    decode`` (``FrameDecoder.feed``), ``scan`` (a fresh session fed
    the flow's chunks and finished, as the read does it) and ``RESULT
    encode``; ``dispatch`` is what is left of ``read``.

It also counts the loop handles (``call_soon`` / ``call_later`` /
``call_at``) each side schedules per flow. The numbers attribute a
flow's cost; they are not the served rate, which the ledger measures
over real loopback (``benchmarks/ledger/run.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import statistics
import time

from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.server import ScanClient, ScanServer, protocol
from repro.server.client import _Link
from repro.server.ring import HashRing
from repro.service import RouterSpec

CHUNK = 256
MEMBER = "127.0.0.1:1"


class _Pipe:
    """A transport that keeps what it is given."""

    def __init__(self) -> None:
        self.written: list[bytes] = []
        self.max_size = 0

    def take(self) -> bytes:
        data = b"".join(self.written)
        self.written.clear()
        return data

    def write(self, data) -> None:
        self.written.append(bytes(data))

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        pass

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass

    def is_closing(self) -> bool:
        return False

    def close(self) -> None:
        pass

    abort = close

    def get_extra_info(self, name, default=None):
        return default


class _Handles:
    """Counts the handles the running loop is asked for, by method
    (``call_later`` is counted as the ``call_at`` it makes)."""

    NAMES = ("call_soon", "call_at")

    def __init__(self, loop) -> None:
        self.loop = loop
        self.counts = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            real = getattr(loop, name)
            setattr(loop, name, self._counted(name, real))

    def _counted(self, name, real):
        def call(*args, **kwargs):
            self.counts[name] += 1
            return real(*args, **kwargs)

        return call

    def total(self) -> int:
        return sum(self.counts.values())

    def close(self) -> None:
        for name in self.NAMES:
            delattr(self.loop, name)


def _step(coro):
    """Run ``coro`` to its end; it must not suspend."""
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError(f"{coro.__qualname__} suspended")


def _flows(seed: int, count: int) -> list:
    generator = WorkloadGenerator(seed=seed)
    router = ContentBasedRouter()
    out = []
    for _ in range(count):
        data, _truth = generator.stream(2)
        chunks = [data[i : i + CHUNK] for i in range(0, len(data), CHUNK)]
        out.append((chunks, router.route(data)))
    return out


def _pair():
    """A server connection and a ring-placing client's member link,
    greeted, each on a :class:`_Pipe`."""
    server = ScanServer(RouterSpec(engine="native"))
    conn = server._accept()
    conn_pipe = _Pipe()
    conn.connection_made(conn_pipe)
    client = ScanClient()
    member = ScanClient()
    link = member._out = _Link(member)
    link_pipe = _Pipe()
    link.connection_made(link_pipe)
    conn.data_received(protocol.encode_hello())
    link.data_received(conn_pipe.take())
    member.server_max_frame = link.peer_max_frame
    dial = asyncio.get_running_loop().create_future()
    dial.set_result(member)
    client._members[MEMBER] = dial
    client._ring = HashRing([MEMBER])
    return server, conn, conn_pipe, client, link, link_pipe


async def measure(flows: list, rounds: int) -> dict:
    loop = asyncio.get_running_loop()
    server, conn, conn_pipe, client, link, link_pipe = _pair()
    backend = server._current.backend
    clock = time.perf_counter
    keys = (
        "open", "send", "finish", "reply read", "resume", "handles",
        "read", "frame decode", "scan", "RESULT encode",
    )
    times = {key: [] for key in keys}
    handles = {"client": [], "server": []}
    counter = _Handles(loop)
    try:
        for index in range(rounds):
            chunks, expected = flows[index % len(flows)]
            before = counter.total()
            t0 = clock()
            flow = _step(client.open_flow())
            t1 = clock()
            for chunk in chunks:
                _step(flow.send(chunk))
            t2 = clock()
            finish = flow.finish()
            finish.send(None)  # to its await on the final RESULT
            t3 = clock()
            sent = link_pipe.take()
            client_handles = counter.total() - before
            before = counter.total()
            t4 = clock()
            conn.data_received(sent)
            t5 = clock()
            handles["server"].append(counter.total() - before)
            reply = conn_pipe.take()
            before = counter.total()
            t6 = clock()
            link.data_received(reply)
            t7 = clock()
            got = _step(finish)  # its awaited future is now done
            t8 = clock()
            await asyncio.sleep(0)  # the flow's leftover handles run
            t9 = clock()
            # less the sleep's own wakeup of this coroutine
            handles["client"].append(
                client_handles + counter.total() - before - 1
            )
            if got != expected:
                raise AssertionError(f"flow {index}: wrong results")
            # The server's pieces, measured apart on the same bytes.
            t10 = clock()
            protocol.FrameDecoder().feed(sent)
            t11 = clock()
            # the scan a read does for a whole flow: its chunks in one
            records = backend.stream().finish_records(b"".join(chunks))
            t12 = clock()
            protocol.encode_result(1, True, records)
            t13 = clock()
            for key, value in zip(keys, (
                t1 - t0, t2 - t1, t3 - t2, t7 - t6, t8 - t7,
                # the sleep's own wakeup of this coroutine is not the
                # flow's: it is one loop turn, counted nowhere else
                t9 - t8, t5 - t4, t11 - t10, t12 - t11, t13 - t12,
            )):
                times[key].append(value)
    finally:
        counter.close()
        conn.idle_timer.cancel()
    return {"times": times, "handles": handles}


def report(result: dict, warmup: int) -> str:
    med = {
        key: statistics.median(values[warmup:]) * 1e6
        for key, values in result["times"].items()
    }
    client = ("open", "send", "finish", "reply read", "resume", "handles")
    lines = ["client                  µs/flow"]
    lines += [f"  {key:<20} {med[key]:8.2f}" for key in client]
    lines.append(f"  {'total':<20} {sum(med[k] for k in client):8.2f}")
    pieces = ("frame decode", "scan", "RESULT encode")
    lines.append("server")
    lines += [f"  {key:<20} {med[key]:8.2f}" for key in pieces]
    dispatch = med["read"] - sum(med[k] for k in pieces)
    lines.append(f"  {'dispatch':<20} {dispatch:8.2f}")
    lines.append(f"  {'total (read)':<20} {med['read']:8.2f}")
    for side, counts in result["handles"].items():
        lines.append(
            f"loop handles per flow, {side}: "
            f"{statistics.median(counts[warmup:]):g}"
        )
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--flows", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args(argv)
    flows = _flows(args.seed, 64)
    warmup = min(1000, args.flows // 4)
    result = asyncio.run(measure(flows, args.flows))
    print(report(result, warmup))


if __name__ == "__main__":
    main()
