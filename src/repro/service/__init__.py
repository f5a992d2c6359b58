"""Production-style serving layer: sharded multi-process scanning.

The paper's hardware serves line rate by replicating pipelined
scanners; this package replicates the compiled software engine across
OS processes:

* :mod:`repro.service.shard` — stable flow-to-worker hash sharding
  (per-flow byte order is the invariant);
* :mod:`repro.service.pool` — worker processes, bounded task queues,
  supervision plumbing;
* :mod:`repro.service.service` — :class:`ScanService`: submission with
  backpressure, crash respawn with journal replay, graceful drain;
* :mod:`repro.service.metrics` — counters / gauges / latency
  histograms behind :meth:`ScanService.stats`;
* :mod:`repro.service.registry` — :class:`Registry`: named, versioned
  grammars compiled ahead-of-time into a content-addressed artifact
  store, so workers load tables instead of recompiling;
* :mod:`repro.service.errors` — :class:`QueueFull` and friends.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.core.artifact": ("CompiledArtifact",),
    "repro.service.errors": (
        "QueueFull", "ServiceClosed", "ServiceError", "WorkerCrashed",
    ),
    "repro.service.metrics": ("MetricsRegistry",),
    "repro.service.registry": ("Registry", "RegistryError"),
    "repro.service.service": ("RouterSpec", "ScanService", "TaggerSpec"),
    "repro.service.shard": ("ShardRouter", "shard_of"),
})
