"""Exception types raised by the scan service."""

from __future__ import annotations

from repro.errors import ReproError


class ServiceError(ReproError):
    """Base class for scan-service failures."""


class QueueFull(ServiceError):
    """A worker's submission queue stayed full for a submit's whole
    ``timeout``.

    The caller owns the retry decision: drop the chunk, buffer it, or
    slow the producer down.
    """

    def __init__(self, worker: int, depth: int) -> None:
        super().__init__(
            f"worker {worker} submission queue full ({depth} tasks)"
        )
        self.worker = worker
        self.depth = depth


class ServiceClosed(ServiceError):
    """The service was used after :meth:`ScanService.close`."""


class WorkerCrashed(ServiceError):
    """A worker died and could not be respawned within the retry budget."""
