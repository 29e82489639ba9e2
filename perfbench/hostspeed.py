"""A fixed reference loop that measures how fast the host runs Python
right now, so host times can be scaled to a nominal host speed.

On a shared host the interpreter's speed drifts by a third or more over
minutes, with the same program and inputs.  Timing this loop next to
each part of a workload and dividing by it removes that drift: the
scaled time reads what the part would take on a host where one
reference unit takes :data:`NOMINAL_UNIT_S`.  The loop does not call the
simulator, so a change to the simulator moves the scaled time exactly
as much as it moves the host time.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Host seconds of one reference unit on the nominal host (about the
#: median on a 2-CPU shared x86-64 host under CPython 3.11).
NOMINAL_UNIT_S = 0.005

#: Shortest sample, and the share of a part's last run time a sample
#: before and after it lasts, so long parts get long samples.
MIN_SAMPLE_S = 0.01
SAMPLE_SHARE = 0.1


class _Job:
    __slots__ = ("key", "size", "hops")

    def __init__(self, key: str, size: int) -> None:
        self.key = key
        self.size = size
        self.hops = 0


def reference_unit(events: int = 4000) -> int:
    """A deterministic miniature event loop shaped like the simulator's
    hot path: heap pushes and pops of timestamped tuples, slotted-object
    attribute updates, dict accumulation and small allocations."""
    heap: list = []
    load: dict[str, int] = {}
    state = 12345
    for index in range(64):
        heapq.heappush(heap, (index * 0.5, index,
                              _Job(f"job-{index % 16}", index)))
    for sequence in range(64, 64 + events):
        now, _, job = heapq.heappop(heap)
        job.hops += 1
        load[job.key] = load.get(job.key, 0) + job.size
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        if job.hops < 8:
            heapq.heappush(heap, (now + (state % 1000) / 1000.0,
                                  sequence, job))
        else:
            heapq.heappush(heap, (now + 1.0, sequence,
                                  _Job(job.key, state % 256)))
    return sum(load.values())


def unit_seconds(min_s: float = MIN_SAMPLE_S) -> float:
    """Host seconds per reference unit, over at least *min_s* of host
    time.  The collector is paused so the sample does not depend on how
    much the workload left on the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        units = 0
        started = perf_counter()
        while True:
            reference_unit()
            units += 1
            elapsed = perf_counter() - started
            if elapsed >= min_s:
                return elapsed / units
    finally:
        if enabled:
            gc.enable()
