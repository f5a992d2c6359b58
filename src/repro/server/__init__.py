"""The network serving edge: framed TCP front-end for the scan engines.

The paper's tagger is a line-rate *network device* — bytes arrive on a
wire, are tagged in-stream, and leave with routing decisions attached
(Figs. 1, 12-14). This package is that wire interface for the software
reproduction:

* :mod:`repro.server.protocol` — the versioned, length-prefixed frame
  format (HELLO / OPEN_FLOW / DATA / FINISH_FLOW / RESULT / ERROR /
  GOODBYE), its sans-IO encoder/decoder, and the one
  ``asyncio.Protocol`` every framed connection is;
* :mod:`repro.server.flows` — the flow lifecycle (scan, beam × open /
  op / finish / error) as one sans-IO table that server, proxy and
  client all consult;
* :mod:`repro.server.endpoint` — :class:`FramedEndpoint`: the
  listeners, handshake, idle deadline, frame handling, drain and admin
  responder that server and proxy share;
* :mod:`repro.server.server` — :class:`ScanServer`: the asyncio TCP
  server multiplexing per-connection flows into in-process streaming
  scan sessions, with idle timeouts, frame-size limits, read-pausing
  backpressure, graceful drain, and a plaintext admin/metrics
  endpoint;
* :mod:`repro.server.client` — :class:`ScanClient`: the asyncio
  client library (connect/retry/timeout, flow multiplexing, beam
  flows for constrained decoding);
* :mod:`repro.server.cluster` — :class:`ScanProxy`: the cluster
  tier (the way to use N cores) — it hands clients the
  :class:`~repro.server.ring.HashRing` of healthy backends their scan
  flows go to directly, probes health, relays beam flows with
  journal-replay failover, and aggregates the admin endpoint.

There is no load generator in this package: the serving stack is
measured by ``benchmarks/ledger/`` and verified under load by
``tests/server/drivers.py``, both through :class:`ScanClient`.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.server.client": (
        "BeamFlow", "ClientFlow", "ConnectFailed", "ScanClient",
    ),
    "repro.server.cluster": (
        "BackendSpec", "ScanProxy", "parse_backend",
    ),
    "repro.server.protocol": (
        "CONNECTION_FLOW", "DEFAULT_MAX_FRAME", "PROTOCOL_VERSION",
        "ErrorCode", "Frame", "FrameDecoder", "FrameType", "ProtocolError",
        "ServerFault",
    ),
    "repro.server.ring": ("HashRing",),
    "repro.server.server": ("ScanServer",),
})
