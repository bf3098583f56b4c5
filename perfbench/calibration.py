"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one process drifts by up to half over
minutes, longer than a run, so medians within a run cannot remove it.
This kernel is pure Python in the program's own style: small objects on
a binary heap, dict updates and short list comprehensions, with the heap
collected before it.  It slows in step with the workloads: over ten
seeded runs per workload on a 2-core VM, the spread (Q3 - Q1) / median
of the runs' median round time was 0.36, 0.12 and 0.24 on ``fig7-grid``,
``steady-mail`` and ``chaos-control-plane`` as measured, and 0.04, 0.07
and 0.07 scaled by this kernel's time around each round.

The kernel never calls the program, so a change to the program cannot
move it.  It must stay fixed: the end-to-end times are scaled by it.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: the kernel's host seconds on the reference host (a 2-core VM, Python
#: 3.11, in a quiet spell); end-to-end times are scaled to that host
REFERENCE_S = 0.25
N_EVENTS = 40_000
WINDOW = 200


class _Event:
    __slots__ = ("t", "seq", "data")

    def __init__(self, t: float, seq: int, data: dict) -> None:
        self.t, self.seq, self.data = t, seq, data

    def __lt__(self, other: "_Event") -> bool:
        return (self.t, self.seq) < (other.t, other.seq)


def _kernel() -> int:
    rng = random.Random(1)
    heap, store = [], {}

    def handle(ev: _Event) -> None:
        data = ev.data
        key = ("k", data["i"] % 997)
        store[key] = store.get(key, 0) + len(
            [x for x in data["body"] if x % 3]
        )

    for i in range(N_EVENTS):
        heapq.heappush(heap, _Event(
            rng.random() * 1000.0, i, {"i": i, "body": list(range(i % 17))}
        ))
        if len(heap) > WINDOW:
            handle(heapq.heappop(heap))
    while heap:
        handle(heapq.heappop(heap))
    return sum(store.values())


def host_seconds() -> float:
    """Host seconds one pass of the kernel takes now."""
    gc.collect()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
