"""Host-speed reference for every duration the ledger reports.

On a shared 2-vCPU host the speed of one core drifts by tens of
percent over seconds (ten minutes of ``scan-bulk`` ranged 2.0x in
throughput across consecutive 13 s spans), which no amount of medians
within a run removes.  The ledger therefore times two fixed probes next
to everything it measures — between served windows, between the slices
of an in-process rung, around a launch — and scales each duration to
the host on which both probes take their reference time, which is this
host when quiet.  Raw values are kept beside the scaled ones.

Two probes, because the host slows down in two ways that one probe
cannot tell apart:

* the *loop* (arithmetic on small ints: in cache, interpreter-bound)
  follows the core's clock and what its sibling thread leaves of it;
* the *chase* (a walk along one random cycle through a million-element
  list: two cache or TLB misses per step) follows what the neighbours
  leave of the shared cache and the memory system.

The scaling is log-linear: a quantity's time is taken to grow as
``loop ** a * chase ** b``, and ``(a, b)`` is the quantity's
*sensitivity*, fitted by least squares over ten-minute recordings of
each workload's 0.25 s windows (README.md, "Noise", has the table).
The served path is the more sensitive to either (its two or three
processes evict each other's working set at every context switch),
in-process Python the less, and what is not interpreter-bound — a
launch (disk, fork, imports), the C kernel skipping through
``scan-bulk`` payloads — follows the probes only weakly.  On the
reference host every scale is 1 whatever the sensitivities, so they
matter only while the host is disturbed, and a wrong one costs
steadiness, not truth.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

#: Thread CPU seconds the probes take on the reference host (this
#: 2-vCPU Xeon @ 2.10 GHz, CPython 3.11, quiet).  Constants, so that
#: two runs scale to the same speed; changing one rescales every metric.
REFERENCE_LOOP_S = 0.0092
REFERENCE_CHASE_S = 0.0074

#: (loop, chase) sensitivities of the three kinds of duration.
SERVED = (0.7, 1.0)
IN_PROCESS = (0.75, 0.35)
WEAK = (0.4, 0.25)

_LOOP_ITERATIONS = 200_000
_CHASE_STEPS = 20_000
_CHASE_NODES = 1 << 20


def _one_cycle(nodes: int) -> list:
    """``successor[i]`` along a single seeded random cycle through all
    ``nodes`` indices, so a walk never closes early, as a list of ints
    (the list slot and the int object are both far from the last)."""
    order = np.random.default_rng(2006).permutation(nodes)
    successor = np.empty(nodes, dtype=np.int64)
    successor[order] = np.roll(order, -1)
    return successor.tolist()


_SUCCESSOR = _one_cycle(_CHASE_NODES)
_position = 0


class Reading(NamedTuple):
    """Thread CPU seconds the two probes took just now."""

    loop_s: float
    chase_s: float

    @property
    def cpu_s(self) -> float:
        return self.loop_s + self.chase_s


def spin() -> Reading:
    """Run both probes.  Thread CPU time, not wall time: the probes
    share their CPU with the processes under test, and the time those
    take from them is not host slowness.  Each chase continues where
    the last one stopped, so it never walks cached nodes."""
    global _position
    clock = time.thread_time
    start = clock()
    x = 0
    for i in range(_LOOP_ITERATIONS):
        x += i * i
    middle = clock()
    successor = _SUCCESSOR
    node = _position
    for _ in range(_CHASE_STEPS):
        node = successor[node]
    _position = node
    return Reading(middle - start, clock() - middle)


def scale(readings, sensitivity) -> float:
    """Factor that turns a duration measured between ``readings`` into
    its reference-host value (multiply durations by it, divide rates
    by it), for a duration of the given ``sensitivity``."""
    readings = list(readings)
    loop = sum(r.loop_s for r in readings) / len(readings) / REFERENCE_LOOP_S
    chase = sum(r.chase_s for r in readings) / len(readings) / REFERENCE_CHASE_S
    a, b = sensitivity
    return 1.0 / (loop ** a * chase ** b)
