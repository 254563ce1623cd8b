"""A fixed pure-Python reference workload that measures host speed.

Wall-clock figures on a shared host drift by tens of percent within
minutes, for reasons outside the program.  ``probe()`` times a small
simulation of its own -- an event heap, message passing between a few
nodes, bisect inserts into bounded sorted lists that split when full --
which uses the same interpreter operations as the simulator but none
of its code.  Scaling a wall time by the probe's time therefore
removes most of the host's speed and keeps the program's: a change to
``src/`` cannot move the probe.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import random
import time

#: Probe time on the reference host (2-core x86-64 Linux VM,
#: Python 3.11) at the fastest speed seen there.  Only scales the
#: reported figures; ratios between runs do not depend on it.
REFERENCE_S = 0.0165

_NODES = 4
_CAPACITY = 8
_MESSAGES = 7_500


class _Node:
    __slots__ = ("pid", "leaves", "lows", "handled")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.leaves: list[list[int]] = [[]]
        self.lows: list[int] = [0]
        self.handled = 0

    def handle(self, key: int, out: list[tuple[int, int]]) -> None:
        self.handled += 1
        index = bisect.bisect_right(self.lows, key) - 1
        leaf = self.leaves[index]
        bisect.insort(leaf, key)
        if len(leaf) > _CAPACITY:
            half = len(leaf) // 2
            self.leaves[index:index + 1] = [leaf[:half], leaf[half:]]
            self.lows.insert(index + 1, leaf[half])
            out.append(((self.pid + 1) % _NODES, leaf[half]))


def _work() -> int:
    rng = random.Random(7)
    nodes = {pid: _Node(pid) for pid in range(_NODES)}
    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for _ in range(_MESSAGES):
        seq += 1
        heapq.heappush(heap, (rng.random() * 100, seq, rng.randrange(_NODES),
                              rng.randrange(1 << 30)))
    out: list[tuple[int, int]] = []
    while heap:
        now, _, pid, key = heapq.heappop(heap)
        nodes[pid].handle(key, out)
        for dst, relayed in out:
            seq += 1
            heapq.heappush(heap, (now + 10.0, seq, dst, relayed ^ 1))
        out.clear()
    return sum(node.handled for node in nodes.values())


def probe() -> float:
    """Seconds this host takes for the reference workload now.

    The cyclic collector is off while it runs: the probe makes no
    cycles, and a collection would walk the program's live objects,
    tying the probe's time to the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
