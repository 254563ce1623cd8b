"""One measured round of a workload: set up, run the timed phase,
collect the public counters, check every output.

The runner drives the program only through its public calls:
``engine.submit_operation`` plus ``engine.op_completion_listeners``
for one tree, ``insert`` / ``search`` / ``run`` for the forest.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from inputs import CLIENTS, DEPTH, Inputs
from repro import DBTreeCluster
from repro.shard.cluster import ShardedCluster
from repro.sim.failure import FaultPlan
from repro.verify.checker import leaf_contents

TREE = dict(
    num_processors=len(CLIENTS),
    protocol="semisync",
    capacity=8,
    trace_level="off",
    accounting="aggregate",
    leaf_cache=True,
)

#: Per-workload construction arguments on top of ``TREE``.
CONFIGS: dict[str, dict[str, Any]] = {
    "insert_burst": {},
    "read_mostly": {},
    "lossy_repair": dict(
        reliability="enforced",
        fault_plan=FaultPlan(drop_p=0.01),
        repair_period=200,
    ),
    # Any level below "ops" makes ShardedCluster report every op
    # incomplete (its result partition reads trace.operations).
    "sharded_growth": dict(
        partitioning="hash",
        shard_split_threshold=512,
        trace_level="ops",
    ),
}

KINDS = ("insert", "search", "scan", "delete")
BUILDS = 25

Mark = Callable[[], None] | None
#: Called at points inside the timed phase; returns the seconds it
#: took, which the round takes out of its wall time.
Pause = Callable[[], float] | None


@dataclass
class Round:
    """What one round measured.

    ``virtual`` holds every count and virtual-time figure; it depends
    only on the inputs and the seed, so a traced and an untraced
    round of one seed must produce equal dicts.
    """

    setup_s: float
    wall_s: float
    attempted: int
    completed: int
    virtual: dict[str, float]
    check_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    #: Reference seconds per wall second during the round (see
    #: ``calibrate.py``); set by the runner.
    scale: float = 1.0


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _latency_figures(latency: dict[str, list[float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for kind in KINDS:
        samples = latency.get(kind, [])
        out[f"vlat_n.{kind}"] = len(samples)
        out[f"vlat_mean.{kind}"] = statistics.fmean(samples) if samples else 0.0
        out[f"vlat_p50.{kind}"] = _quantile(samples, 50) if len(samples) > 1 else 0.0
        out[f"vlat_p99.{kind}"] = _quantile(samples, 99) if len(samples) > 1 else 0.0
    return out


def _snapshot(clusters: list[DBTreeCluster]) -> Counter:
    """Sum of the public counters over ``clusters``."""
    snap: Counter = Counter()
    for cluster in clusters:
        kernel = cluster.kernel
        snap["events"] += kernel.events.executed
        net = kernel.network.stats
        snap["sent"] += net.sent
        snap["delivered"] += net.delivered
        snap["dropped"] += net.dropped
        snap["retransmits"] += net.retransmits
        snap["acks"] += net.acks
        snap["physical"] += net.physical_sent
        for proc in kernel.processors.values():
            snap["actions"] += proc.stats.actions_executed
        snap.update(cluster.trace.counters)
        repair = cluster.repair_summary()
        if repair["enabled"]:
            snap["repair_rounds"] += repair["rounds_started"]
            snap["repair_clean"] += repair["rounds_clean"]
            snap["repair_bytes"] += repair["digest_bytes"]
            snap["repairs_total"] += repair["repairs_total"]
    return snap


def _layer_counts(before: Counter, after: Counter, ops: int) -> dict[str, float]:
    d = {key: after[key] - before[key] for key in after}
    per_op = 1.0 / ops
    hits = d.get("leaf_cache_hit", 0)
    rounds = d.get("repair_rounds", 0)
    physical = d.get("physical", 0)
    return {
        "events": d["events"],
        "sim.events.events_per_op": d["events"] * per_op,
        "sim.processor.actions_per_op": d["actions"] * per_op,
        "sim.network.logical_per_op": d["sent"] * per_op,
        "sim.reliable.retransmits_per_op": d["retransmits"] * per_op,
        "sim.reliable.acks_per_op": d["acks"] * per_op,
        "sim.reliable.dropped_per_op": d["dropped"] * per_op,
        "sim.reliable.useful_frame_share": d["delivered"] / physical if physical else 0.0,
        "core.leafcache.stale_per_hit": d.get("leaf_cache_stale", 0) / hits if hits else 0.0,
        "core.leafcache.shortcut_per_hit": d.get("leaf_cache_shortcut", 0) / hits if hits else 0.0,
        "core.route.forwards_per_op": (
            d.get("forward_left", 0) + d.get("forward_right", 0)
        ) * per_op,
        "protocols.half_splits_per_kop": d.get("half_splits", 0) * 1000 * per_op,
        "protocols.history_rewrites_per_kop": d.get("history_rewrites", 0) * 1000 * per_op,
        "protocols.discarded_relays_per_kop": sum(
            v for k, v in d.items() if k.startswith("discarded_relay")
        ) * 1000 * per_op,
        "protocols.root_growths": d.get("root_growths", 0),
        "repair.rounds_per_kop": rounds * 1000 * per_op,
        "repair.clean_round_share": d.get("repair_clean", 0) / rounds if rounds else 0.0,
        "repair.digest_bytes_per_op": d.get("repair_bytes", 0) * per_op,
        "repair.repairs_total": d.get("repairs_total", 0),
        "msgs_per_op": physical * per_op,
    }


def _build(cls: type, name: str, seed: int) -> tuple[Any, float]:
    """Build the system ``BUILDS`` times; return the last one and the
    median build time (one build takes well under a millisecond, too
    short to time once)."""
    times = []
    for _ in range(BUILDS):
        started = time.perf_counter()
        system = cls(seed=seed, **{**TREE, **CONFIGS[name]})
        times.append(time.perf_counter() - started)
    return system, statistics.median(times)


class _ClosedLoop:
    """Each client keeps ``DEPTH`` operations in flight on one tree.

    Operation ``i`` belongs to client ``CLIENTS[i % len(CLIENTS)]``
    and clients start in order, as in
    :class:`repro.workloads.driver.ClosedLoopDriver`, so an
    insert-only list reproduces that driver's schedule exactly.
    """

    def __init__(self, cluster: DBTreeCluster, ops: tuple, pause: Pause = None) -> None:
        self.cluster = cluster
        self.pause = pause
        self.paused_s = 0.0
        self.engine = cluster.engine
        self.ops = ops
        self.results: list[Any] = [None] * len(ops)
        self.submitted_at = [0.0] * len(ops)
        self.done_at: list[float | None] = [None] * len(ops)
        self.pending_max = 0
        self._owner: dict[int, int] = {}
        self._queues = {
            client: iter(range(index, len(ops), len(CLIENTS)))
            for index, client in enumerate(CLIENTS)
        }

    def _submit_next(self, client: int) -> None:
        index = next(self._queues[client], None)
        if index is None:
            return
        kind, key, value = self.ops[index]
        if kind == "scan":
            value = (value, None)
        self.submitted_at[index] = self.cluster.now
        op_id = self.engine.submit_operation(kind, key, value, home_pid=client)
        self._owner[op_id] = index

    def _on_completion(self, op: Any, result: Any) -> None:
        index = self._owner.pop(op.op_id, None)
        if index is None:
            return
        self.results[index] = result
        self.done_at[index] = self.cluster.now
        pending = self.cluster.kernel.events.pending
        if pending > self.pending_max:
            self.pending_max = pending
        if self.pause is not None:
            self.paused_s += self.pause()
        self._submit_next(CLIENTS[index % len(CLIENTS)])

    def run(self):
        listeners = self.engine.op_completion_listeners
        listeners.append(self._on_completion)
        try:
            for client in CLIENTS:
                for _ in range(DEPTH):
                    self._submit_next(client)
            return self.cluster.run()
        finally:
            listeners.remove(self._on_completion)


def _check_result(kind: str, result: Any, expected: Any) -> str | None:
    if result is None:
        return "no result"
    if kind != "scan":
        return None if result == expected else f"got {result!r}, want {expected!r}"
    keys = [key for key, _ in result]
    if keys != sorted(set(keys)):
        return "scan result not strictly ordered"
    if any(value != key for key, value in result):
        return "scan returned a wrong value"
    got = set(keys)
    missing = set(expected.must) - got
    if missing:
        return f"scan missed {sorted(missing)[:5]}"
    extra = got - set(expected.must) - expected.may
    if extra:
        return f"scan returned keys never present {sorted(extra)[:5]}"
    return None


def _check_ops(inputs: Inputs, results: list[Any], problems: list[str]) -> None:
    for index, (op, result, expected) in enumerate(
        zip(inputs.ops, results, inputs.expected)
    ):
        problem = _check_result(op[0], result, expected)
        if problem is not None:
            problems.append(f"op {index} {op[0]} {op[1]!r}: {problem}")
            if len(problems) >= 20:
                return


def _check_contents(got: dict, want: dict, problems: list[str]) -> None:
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(
            f"final contents differ: {len(missing)} missing {missing[:5]}, "
            f"{len(extra)} extra {extra[:5]}, {len(wrong)} wrong {wrong[:5]}"
        )


def _union(parts: list[dict], what: str, problems: list[str]) -> dict:
    """The union of disjoint contents; a key held twice is a problem."""
    contents: dict = {}
    for index, part in enumerate(parts):
        if contents.keys() & part.keys():
            problems.append(f"{what} {index} shares keys with another {what}")
        contents.update(part)
    return contents


def _check_run(results: Any, problems: list[str]) -> None:
    if results.failed or results.timed_out or results.reliability_error:
        problems.append(
            f"run reported failed={len(results.failed)} "
            f"timed_out={len(results.timed_out)} "
            f"reliability_error={results.reliability_error}"
        )


def tree_round(
    name: str, inputs: Inputs, seed: int, mark: Mark = None, pause: Pause = None
) -> Round:
    """One round on ``DBTreeCluster`` trees, one closed loop each."""
    trees = inputs.trees or ((len(inputs.ops), seed),)
    setup_s = 0.0
    clusters = []
    for _, tree_seed in trees:
        cluster, build_s = _build(DBTreeCluster, name, tree_seed)
        clusters.append(cluster)
        setup_s += build_s
    started = time.perf_counter()
    preload = None
    if inputs.preload:
        preload = _ClosedLoop(clusters[0], inputs.preload)
        preload.run()
    setup_s += time.perf_counter() - started

    before = _snapshot(clusters)
    busy_before = [
        [proc.stats.busy_time for proc in cluster.kernel.processors.values()]
        for cluster in clusters
    ]
    starts = [cluster.now for cluster in clusters]
    loops, start = [], 0
    for cluster, (size, _) in zip(clusters, trees):
        loops.append(_ClosedLoop(cluster, inputs.ops[start : start + size], pause))
        start += size
    if mark is not None:
        mark()
    started = time.perf_counter()
    runs = [loop.run() for loop in loops]
    wall_s = time.perf_counter() - started - sum(loop.paused_s for loop in loops)

    submitted_at = [at for loop in loops for at in loop.submitted_at]
    done_at = [at for loop in loops for at in loop.done_at]
    completed = sum(at is not None for at in done_at)
    latency: dict[str, list[float]] = {}
    for (kind, _, _), sub, at in zip(inputs.ops, submitted_at, done_at):
        if at is not None:
            latency.setdefault(kind, []).append(at - sub)
    virtual = _layer_counts(before, _snapshot(clusters), max(completed, 1))
    virtual.update(_latency_figures(latency))
    # Σ over trees of the virtual time to each tree's last completion.
    virtual_time = sum(
        max(at for at in loop.done_at if at is not None) - t0
        for loop, t0 in zip(loops, starts)
        if any(at is not None for at in loop.done_at)
    )
    virtual["vops_per_kvt"] = completed / virtual_time * 1000 if virtual_time else 0.0
    virtual["sim.events.pending_max"] = max(loop.pending_max for loop in loops)
    virtual["sim.processor.busy_max_share"] = max(
        (proc.stats.busy_time - busy) / (cluster.now - t0)
        for cluster, t0, busies in zip(clusters, starts, busy_before)
        for proc, busy in zip(cluster.kernel.processors.values(), busies)
    )
    for key in ("shard.direct_route_share", "shard.hint_hops", "shard.splits",
                "shard.keys_migrated_per_op"):
        virtual[key] = 0.0

    round_ = Round(setup_s, wall_s, len(inputs.ops), completed, virtual)
    started = time.perf_counter()
    problems = round_.problems
    if preload is not None and any(r is not True for r in preload.results):
        problems.append("preload insert did not return True")
    if completed != len(inputs.ops):
        problems.append(f"{len(inputs.ops) - completed} ops never completed")
    for results in runs:
        _check_run(results, problems)
    _check_ops(inputs, [r for loop in loops for r in loop.results], problems)
    parts = [leaf_contents(cluster.engine) for cluster in clusters]
    _check_contents(_union(parts, "tree", problems), inputs.final, problems)
    round_.check_s = time.perf_counter() - started
    return round_


def forest_round(
    name: str, inputs: Inputs, seed: int, mark: Mark = None, pause: Pause = None
) -> Round:
    """One round on a ``ShardedCluster``, in waves of ops + ``run()``."""
    forest, setup_s = _build(ShardedCluster, name, seed)

    clusters = list(forest.clusters.values())
    before = _snapshot(clusters)
    latency: dict[str, list[float]] = {}
    last_done: dict[int, float] = {}
    pending_max = [0]
    watched: set[int] = set()

    def watch(shard_id: int, cluster: DBTreeCluster) -> None:
        # Attached before the first wave that can route to the shard.
        # Migration replays inserts only into shards created in the
        # same maintenance pass, before they are watched, and its
        # deletes are skipped here, so every sample is a workload op.
        def on_completion(op: Any, _result: Any) -> None:
            if op.kind == "delete":
                return
            now = cluster.now
            record = cluster.trace.operations[op.op_id]
            latency.setdefault(op.kind, []).append(now - record.submitted_at)
            last_done[shard_id] = now
            pending = cluster.kernel.events.pending
            if pending > pending_max[0]:
                pending_max[0] = pending

        cluster.engine.op_completion_listeners.append(on_completion)
        watched.add(shard_id)

    op_ids: list[int] = []
    outcome: dict[int, Any] = {}
    problems: list[str] = []
    virtual_time = paused_s = 0.0
    start = 0
    if mark is not None:
        mark()
    started = time.perf_counter()
    for size in inputs.waves:
        for shard_id, cluster in forest.clusters.items():
            if shard_id not in watched:
                watch(shard_id, cluster)
        clocks = {sid: c.now for sid, c in forest.clusters.items()}
        last_done.clear()
        for offset, (kind, key, value) in enumerate(inputs.ops[start : start + size]):
            client = CLIENTS[offset % len(CLIENTS)]
            if kind == "insert":
                op_ids.append(forest.insert(key, value, client=client))
            else:
                op_ids.append(forest.search(key, client=client))
        results = forest.run()
        outcome.update(results.completed)
        _check_run(results, problems)
        virtual_time += max(
            (at - clocks[sid] for sid, at in last_done.items()), default=0.0
        )
        start += size
        if pause is not None:
            paused_s += pause()
    wall_s = time.perf_counter() - started - paused_s

    clusters = list(forest.clusters.values())
    completed = sum(1 for op_id in op_ids if op_id in outcome)
    virtual = _layer_counts(before, _snapshot(clusters), max(completed, 1))
    virtual.update(_latency_figures(latency))
    virtual["vops_per_kvt"] = completed / virtual_time * 1000 if virtual_time else 0.0
    virtual["sim.events.pending_max"] = pending_max[0]
    virtual["sim.processor.busy_max_share"] = max(
        proc.stats.busy_time / cluster.now
        for cluster in clusters
        if cluster.now > 0
        for proc in cluster.kernel.processors.values()
    )
    counters = forest.counters
    routes = counters["shard_direct_routes"] + counters["shard_stale_routes"]
    virtual["shard.direct_route_share"] = counters["shard_direct_routes"] / routes
    virtual["shard.hint_hops"] = counters["shard_hint_hops"]
    virtual["shard.splits"] = counters["shard_splits"]
    virtual["shard.keys_migrated_per_op"] = counters["keys_migrated"] / max(completed, 1)

    round_ = Round(setup_s, wall_s, len(inputs.ops), completed, virtual, problems=problems)
    started = time.perf_counter()
    if completed != len(inputs.ops):
        problems.append(f"{len(inputs.ops) - completed} ops never completed")
    samples = sum(len(v) for v in latency.values())
    if samples != completed:
        problems.append(f"{samples} latency samples for {completed} completed ops")
    _check_ops(inputs, [outcome.get(op_id) for op_id in op_ids], problems)
    parts = [
        forest.shard_contents(shard.shard_id)
        for shard in forest.directory.live_shards()
    ]
    _check_contents(_union(parts, "shard", problems), inputs.final, problems)
    round_.check_s = time.perf_counter() - started
    return round_


def run_round(
    name: str, inputs: Inputs, seed: int, mark: Mark = None, pause: Pause = None
) -> Round:
    """One round; ``mark()`` is called just before the timed phase,
    ``pause()`` after every completion (forest: every wave) in it."""
    round_fn = forest_round if name == "sharded_growth" else tree_round
    return round_fn(name, inputs, seed, mark, pause)


def warm_up(name: str) -> None:
    """Import and first-call costs, paid once before any round."""
    kwargs = {**TREE, **CONFIGS[name]}
    system = (
        ShardedCluster(**kwargs) if name == "sharded_growth" else DBTreeCluster(**kwargs)
    )
    for key in range(200):
        system.insert(key, key, client=CLIENTS[key % len(CLIENTS)])
    system.run()
