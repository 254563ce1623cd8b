"""Oracle for the repair layer's maintained per-peer shared views.

``RepairService.shared_entries`` returns a view that is kept current
copy by copy instead of being rebuilt on every gossip message.  The
fixture below wraps it and, after every call, recomputes the view
from scratch -- walking the whole node store and mirror store, as the
rebuild did -- and checks the rows, the per-bucket roll-ups and the
order the repair executor walks rows in.  A write to a digested field
that forgets to bump ``NodeCopy.mut`` leaves a stale row behind,
which the oracle reports at the next call on that processor; every
run also has an event budget, because a stale view can keep gossip
diverging forever instead of going dormant.
"""

from __future__ import annotations

import pytest

from repro import CrashPlan, DBTreeCluster, DetectorPlan, PartitionPlan
from repro.protocols.variable import VariableCopiesProtocol
from repro.repair.digest import MASK, copy_digest, row_term, snapshot_digest
from repro.repair.repair import RepairService
from repro.sim.failure import FaultPlan

#: Event budget per run: about eight times the largest scenario's
#: (the lossy semisync run executes about 12.8k events).
MAX_EVENTS = 100_000


def scratch_rows(service, proc, peer):
    """node_id -> (role, digest, level, low), rebuilt from the stores."""
    engine = service.engine
    rows = {}
    for copy in proc.state["store"].values():
        if copy.retired:
            continue
        members = copy.copy_versions
        if peer in members and len(members) > 1:
            rows[copy.node_id] = (
                "C", copy_digest(copy), copy.level, copy.range.low
            )
        elif (
            engine._mirror_enabled
            and copy.is_leaf
            and len(members) == 1
            and peer in engine._mirror_targets(proc.pid, copy.node_id)
        ):
            rows[copy.node_id] = ("L", copy_digest(copy), 0, copy.range.low)
    for node_id, (home, snap) in (proc.state.get("mirror_store") or {}).items():
        if home == peer:
            rows[node_id] = ("M", snapshot_digest(snap), snap.level, snap.low)
    return rows


@pytest.fixture
def oracle(monkeypatch):
    """Check every shared view against :func:`scratch_rows`; returns
    the roles each checked call's view held."""
    checked = []
    maintained = RepairService.shared_entries

    def shared_entries(self, proc, peer):
        view = maintained(self, proc, peer)
        want = scratch_rows(self, proc, peer)
        where = f"call {len(checked) + 1}: pid {proc.pid} with peer {peer}"
        assert view.rows == want, where
        sums = [0] * self.plan.buckets
        for node_id, (role, digest, _level, _low) in want.items():
            index = node_id % len(sums)
            sums[index] = (sums[index] + row_term(node_id, role, digest)) & MASK
        assert view.buckets == sums, where
        assert view.top == sum(sums) & MASK, where
        roles = {node_id: row[0] for node_id, row in want.items()}
        assert RepairService._store_order(proc, view, roles) == list(want), where
        checked.append(set(roles.values()))
        return view

    monkeypatch.setattr(RepairService, "shared_entries", shared_entries)
    return checked


def spaced_inserts(cluster, count, spacing=10.0):
    expected = {}
    pids = cluster.kernel.pids
    for index in range(count):
        key = (index * 7) % 2003
        expected[key] = index
        cluster.schedule(
            index * spacing, "insert", key, index,
            client=pids[index % len(pids)],
        )
    return expected


def crash_cluster(protocol, placement, seed=3):
    return DBTreeCluster(
        num_processors=4,
        protocol=protocol,
        capacity=4,
        seed=seed,
        crash_plan=CrashPlan(schedule=((1, 500.0, 1100.0),)),
        op_timeout=3000.0,
        op_retries=5,
        replication_factor=2,
        mirror_placement=placement,
        repair_period=100.0,
    )


def run_checked(cluster, expected, oracle):
    results = cluster.run(max_events=MAX_EVENTS)
    assert results.ok
    report = cluster.check(expected=expected)
    assert report.ok, report.problems
    assert oracle, "no shared view was ever asked for"
    return set().union(*oracle)


def test_lossy_reliable_semisync(oracle):
    cluster = DBTreeCluster(
        num_processors=4,
        protocol="semisync",
        capacity=8,
        seed=0,
        reliability="enforced",
        fault_plan=FaultPlan(drop_p=0.01),
        repair_period=200.0,
    )
    expected = {}
    pids = cluster.kernel.pids
    for index in range(300):
        key = (index * 37) % 5003
        expected[key] = index
        cluster.insert(key, index, client=pids[index % len(pids)])
    assert run_checked(cluster, expected, oracle) == {"C"}
    assert cluster.repair_summary()["rounds_diverged"] > 0


@pytest.mark.parametrize("placement", ["ring", "rendezvous"])
@pytest.mark.parametrize("protocol", ["variable", "mobile"])
def test_crash_with_mirrors(oracle, protocol, placement):
    cluster = crash_cluster(protocol, placement)
    expected = spaced_inserts(cluster, count=120)
    assert {"L", "M"} <= run_checked(cluster, expected, oracle)
    assert cluster.trace.counters["processor_crashes"] == 1


def test_mid_run_placement_switch(oracle):
    cluster = crash_cluster("variable", "ring")
    expected = spaced_inserts(cluster, count=120)
    cluster.kernel.events.schedule(
        700.0, lambda: cluster.engine.set_mirror_placement("rendezvous")
    )
    assert run_checked(cluster, expected, oracle) == {"C", "L", "M"}
    assert cluster.trace.counters["mirror_migrations"] > 0


def test_home_resolve_after_one_way_cut(oracle):
    cluster = DBTreeCluster(
        num_processors=4,
        protocol="variable",
        capacity=8,
        seed=3,
        partition_plan=PartitionPlan(one_way=((800.0, 1100.0, 0, None),)),
        detector_plan=DetectorPlan(mode="timeout", horizon=8000.0),
        op_timeout=300.0,
        op_retries=10,
        replication_factor=2,
        repair_period=100.0,
    )
    expected = spaced_inserts(cluster, count=80)
    run_checked(cluster, expected, oracle)
    assert cluster.repair_summary()["home_resolution"]["home_resolves_won"] > 0




def test_free_at_empty_with_mirrors(oracle):
    cluster = DBTreeCluster(
        num_processors=4,
        protocol=VariableCopiesProtocol(free_at_empty=True),
        capacity=4,
        seed=3,
        crash_plan=CrashPlan(),
        replication_factor=2,
        repair_period=100.0,
    )
    expected = spaced_inserts(cluster, count=150)
    victims = [key for key in sorted(expected) if 300 <= key < 1500]
    for index, key in enumerate(victims):
        cluster.schedule(1600.0 + 10.0 * index, "delete", key, client=index % 4)
        del expected[key]
    assert {"C", "L", "M"} <= run_checked(cluster, expected, oracle)
    assert cluster.trace.counters["leaves_retired"] > 0
    assert cluster.trace.counters["absorbs"] > 0
