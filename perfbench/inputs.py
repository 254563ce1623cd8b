"""Workload inputs and their oracle, generated from a seed.

Every workload is conflict-free: each key is inserted at most once,
deleted keys are never searched, and searches only target keys whose
value is settled before the search is submitted.  That makes every
search, insert and delete result exactly predictable.  Scans are the
one exception: a B-link scan is not atomic with respect to concurrent
updates, so a scan result must contain every key that is present for
the whole timed phase and may contain keys that an insert or delete
touches during it (``Scan.must`` / ``Scan.may``).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Any

#: Client processors; each keeps ``DEPTH`` operations in flight.
CLIENTS = (0, 1, 2, 3)
DEPTH = 4

INSERT_BURST_OPS = 20_000
#: lossy_repair runs independent small trees: one tree's frame and
#: virtual-time figures move ~10% from seed to seed at any size from
#: 1.25k to 5k ops (a dropped frame's cost depends on what it hits),
#: while its wall time grows faster than its op count, so averaging
#: many small trees is the cheap way to a steady figure.
LOSSY_REPAIR_TREES = 16
LOSSY_REPAIR_OPS = 1_250

READ_PRELOAD = 10_000
READ_SEARCHES = 38_400
READ_INSERTS = 4_800
READ_SCANS = 2_400
READ_DELETES = 2_400
#: Key-space width of one scan; with keys drawn from
#: ``4 * (READ_PRELOAD + READ_INSERTS)`` integers this covers ~25 keys.
READ_SCAN_WIDTH = 100

SHARD_WAVES = 64
SHARD_WAVE_OPS = 64
SHARD_SEARCH_SHARE = 0.3

Op = tuple  # (kind, key, value); a scan's value is its exclusive high bound


@dataclass(frozen=True)
class Scan:
    """Oracle for one scan: keys that must appear, keys that may."""

    must: tuple[int, ...]
    may: frozenset[int]


@dataclass(frozen=True)
class Inputs:
    """One workload's operations and everything the oracle knows.

    ``waves`` partitions ``ops`` into the batches submitted between
    two ``run()`` calls (forest only).  ``trees`` partitions ``ops``
    into independent trees as (op count, cluster seed) pairs, one
    closed loop each; empty means one tree, seeded with the run's
    seed, that also takes the preload.  ``final`` is the union of
    every tree's contents.
    """

    preload: tuple[Op, ...]
    ops: tuple[Op, ...]
    expected: tuple[Any, ...]
    final: dict[int, Any]
    waves: tuple[int, ...] = ()
    trees: tuple[tuple[int, int], ...] = ()


def _burst(num_ops: int, seed: int, first_key: int = 0) -> list[int]:
    # Same keys and order as repro.perf.insert_burst_workload, so the
    # counts line up with the pinned insert-burst line.
    keys = list(range(first_key, first_key + num_ops))
    random.Random(seed).shuffle(keys)
    return keys


def _inserts(keys: list[int], trees: tuple[tuple[int, int], ...] = ()) -> Inputs:
    return Inputs(
        preload=(),
        ops=tuple(("insert", key, key) for key in keys),
        expected=(True,) * len(keys),
        final={key: key for key in keys},
        trees=trees,
    )


def insert_burst(seed: int) -> Inputs:
    return _inserts(_burst(INSERT_BURST_OPS, seed))


def lossy_repair(seed: int) -> Inputs:
    rng = random.Random(seed)
    seeds = [rng.getrandbits(31) for _ in range(LOSSY_REPAIR_TREES)]
    keys = [
        key
        for index, tree_seed in enumerate(seeds)
        for key in _burst(LOSSY_REPAIR_OPS, tree_seed, index * LOSSY_REPAIR_OPS)
    ]
    return _inserts(keys, tuple((LOSSY_REPAIR_OPS, s) for s in seeds))


def read_mostly(seed: int) -> Inputs:
    rng = random.Random(seed)
    universe = 4 * (READ_PRELOAD + READ_INSERTS)
    keys = rng.sample(range(universe), READ_PRELOAD + READ_INSERTS)
    preloaded, fresh = keys[:READ_PRELOAD], keys[READ_PRELOAD:]
    doomed = preloaded[:READ_DELETES]
    stable = preloaded[READ_DELETES:]
    hot = stable[: len(stable) // 10]
    cold = stable[len(stable) // 10 :]

    ops: list[tuple[Op, Any]] = []
    for _ in range(READ_SEARCHES):
        key = rng.choice(hot) if rng.random() < 0.9 else rng.choice(cold)
        ops.append((("search", key, None), key))
    ops.extend((("insert", key, key), True) for key in fresh)
    ops.extend((("delete", key, None), True) for key in doomed)
    stable_sorted = sorted(stable)
    volatile = set(fresh) | set(doomed)
    for _ in range(READ_SCANS):
        low = rng.randrange(universe - READ_SCAN_WIDTH)
        high = low + READ_SCAN_WIDTH
        lo = bisect.bisect_left(stable_sorted, low)
        hi = bisect.bisect_left(stable_sorted, high)
        may = frozenset(k for k in volatile if low <= k < high)
        ops.append((("scan", low, high), Scan(tuple(stable_sorted[lo:hi]), may)))
    rng.shuffle(ops)

    final = {key: key for key in stable}
    final.update((key, key) for key in fresh)
    return Inputs(
        preload=tuple(("insert", key, key) for key in preloaded),
        ops=tuple(op for op, _ in ops),
        expected=tuple(exp for _, exp in ops),
        final=final,
    )


def sharded_growth(seed: int) -> Inputs:
    rng = random.Random(seed)
    fresh = iter(rng.sample(range(10**9), SHARD_WAVES * SHARD_WAVE_OPS))
    settled: list[int] = []
    ops: list[Op] = []
    expected: list[Any] = []
    for _ in range(SHARD_WAVES):
        wave_keys = []
        for _ in range(SHARD_WAVE_OPS):
            if settled and rng.random() < SHARD_SEARCH_SHARE:
                key = rng.choice(settled)
                ops.append(("search", key, None))
                expected.append(key)
            else:
                key = next(fresh)
                wave_keys.append(key)
                ops.append(("insert", key, key))
                expected.append(True)
        # Keys inserted in this wave are searchable from the next one.
        settled.extend(wave_keys)
    return Inputs(
        preload=(),
        ops=tuple(ops),
        expected=tuple(expected),
        final={key: key for key in settled},
        waves=(SHARD_WAVE_OPS,) * SHARD_WAVES,
    )


GENERATORS = {
    "insert_burst": insert_burst,
    "read_mostly": read_mostly,
    "lossy_repair": lossy_repair,
    "sharded_growth": sharded_growth,
}
