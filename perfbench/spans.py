"""Spans around each layer's entry points, installed from outside.

:class:`Tracer` replaces class attributes of the program's layers
with wrappers that record one span per call: name, start, end, the
enclosing span, and the operation id when the call carries an action
with an ``op``.  Install it *before* building a cluster: the kernel
binds ``engine.handle``, the delivery callback and the repair handler
at construction, so a later install would miss them.  The wrappers
only read the clock and append to arrays; they touch no simulation
state, so a traced round runs the same schedule as an untraced one.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

from repro.core.client import DBTreeCluster
from repro.core.dbtree import DBTreeEngine
from repro.core.leafcache import LeafHintCache
from repro.protocols.fixed_semisync import SemiSyncProtocol
from repro.repair.gossip import GossipScheduler
from repro.repair.repair import RepairService
from repro.shard.cluster import ShardedCluster
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.sim.processor import Processor
from repro.sim.reliable import ReliableTransport
from repro.sim.simulator import Kernel

#: (span group, class, method, index of the action argument or None).
#: A group's self time is the sum of its spans' self times.
POINTS: tuple[tuple[str, type, str, int | None], ...] = (
    ("sim.events", EventQueue, "run", None),
    ("sim.events", EventQueue, "push", None),
    ("sim.events", EventQueue, "schedule", None),
    ("sim.processor", Processor, "submit", 1),
    ("sim.processor", Processor, "_start_next", None),
    ("sim.processor", Processor, "_complete_in_service", None),
    ("sim.network", Kernel, "route", 3),
    ("sim.network", Network, "send", 3),
    ("sim.network", Network, "_fire", 2),
    ("sim.network", Kernel, "_on_delivery", 2),
    ("sim.network", Network, "_transmit_frame", None),
    ("sim.network", Network, "_frame_arrival", None),
    ("sim.reliable", ReliableTransport, "send", 3),
    ("sim.reliable", ReliableTransport, "on_frame", None),
    ("sim.reliable", ReliableTransport, "_retransmit_due", None),
    ("sim.reliable", ReliableTransport, "_ack_due", None),
    ("core.handle", DBTreeEngine, "handle", 2),
    ("core.submit", DBTreeEngine, "submit_operation", None),
    ("core.leafcache", LeafHintCache, "lookup", None),
    ("core.leafcache", LeafHintCache, "learn", None),
    ("core.client.run", DBTreeCluster, "run", None),
    ("protocols", SemiSyncProtocol, "handle", 2),
    ("protocols", SemiSyncProtocol, "initial_insert", None),
    ("protocols", SemiSyncProtocol, "relayed_insert", None),
    ("protocols", SemiSyncProtocol, "relay_keyed", 3),
    ("repair.gossip", RepairService, "handle", 2),
    ("repair.gossip", GossipScheduler, "_timer_fired", None),
    ("repair.shared_entries", RepairService, "shared_entries", None),
    ("shard.submit", ShardedCluster, "insert", None),
    ("shard.submit", ShardedCluster, "search", None),
    ("shard.submit", ShardedCluster, "delete", None),
    ("shard.submit", ShardedCluster, "scan", None),
    ("shard.run", ShardedCluster, "run", None),
    ("shard.entry_count", ShardedCluster, "entry_count", None),
)

GROUPS = tuple(dict.fromkeys(group for group, *_ in POINTS))


class Tracer:
    """Span recorder; ``with Tracer() as t:`` wraps, exit unwraps."""

    def __init__(self) -> None:
        self.names = [f"{cls.__name__}.{method}" for _, cls, method, _ in POINTS]
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Open spans, shared by every wrapper so parents cross layers.
        self._stack: list[int] = []
        self._saved: list[tuple[type, str, Any]] = []

    def _wrap(self, name_id: int, fn: Callable, op_arg: int | None) -> Callable:
        names, parents, ops = self.name_id, self.parent, self.op_id
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op = None
            if op_arg is not None and len(args) > op_arg:
                op = getattr(args[op_arg], "op", None)
            ops.append(getattr(op, "op_id", -1))
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = began
                stack.pop()

        return wrapper

    def __enter__(self) -> "Tracer":
        for name_id, (_, cls, method, op_arg) in enumerate(POINTS):
            self._saved.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method, self._wrap(name_id, getattr(cls, method), op_arg))
        return self

    def __exit__(self, *exc: Any) -> None:
        for cls, method, original in reversed(self._saved):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._saved.clear()

    def clear(self) -> None:
        """Drop the spans recorded so far (e.g. a preload's)."""
        assert not self._stack, "clear() inside an open span"
        for arr in (self.name_id, self.parent, self.op_id, self.start, self.end):
            del arr[:]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per group: span count, self seconds, inclusive seconds.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap (one thread).
        """
        starts, ends, parents = self.start, self.end, self.parent
        child = [0.0] * len(starts)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        groups = [group for group, *_ in POINTS]
        out = {g: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for g in GROUPS}
        for index, name_id in enumerate(self.name_id):
            entry = out[groups[name_id]]
            duration = ends[index] - starts[index]
            entry["calls"] += 1
            entry["self_s"] += duration - child[index]
            entry["total_s"] += duration
        return out

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays
        (name id, parent, op id as int32; start, end as float64)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.name_id),
                      "arrays": ["name_id:i", "parent:i", "op_id:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.op_id, self.start, self.end):
                arr.tofile(fh)
