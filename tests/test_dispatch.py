"""The engine's action-dispatch table.

Every action type has exactly one owner: the engine, the protocol
(its class-level ``handlers``), or one registered service (repair,
balancer).  These tests pin the three rules of that table: a second
owner is rejected, an unowned type is an error, and every declared
type reaches its owner.
"""

from __future__ import annotations

import pytest

from repro import DBTreeCluster
from repro.baselines import AvailableCopiesProtocol, EagerBroadcastProtocol
from repro.core.actions import MigrateNode, SearchStep
from repro.core.dbtree import DBTreeEngine
from repro.protocols import PROTOCOLS, make_protocol
from repro.workloads import DiffusiveBalancer

PROTOCOL_FACTORIES = {
    **{name: (lambda name=name: make_protocol(name)) for name in PROTOCOLS},
    "available_copies": AvailableCopiesProtocol,
    "eager_broadcast": EagerBroadcastProtocol,
}


def build(protocol_factory):
    """A repair-enabled cluster, with a balancer if the protocol migrates."""
    protocol = protocol_factory()
    cluster = DBTreeCluster(
        num_processors=4, protocol=protocol, capacity=4, repair_period=100.0
    )
    components = [protocol, cluster.engine.repair]
    if MigrateNode in protocol.handlers:
        components.append(DiffusiveBalancer(cluster))
    return cluster, components


def test_second_owner_rejected():
    cluster, _ = build(PROTOCOL_FACTORIES["variable"])
    engine = cluster.engine
    with pytest.raises(ValueError, match="SearchStep"):
        engine.register_handlers([SearchStep], lambda proc, action: None)
    with pytest.raises(ValueError, match="BalanceProbe"):
        DiffusiveBalancer(cluster)  # the first one already owns its types


def test_unregistered_type_raises_runtime_error():
    cluster = DBTreeCluster(num_processors=2, protocol="semisync")
    proc = cluster.kernel.processor(cluster.kernel.pids[0])
    with pytest.raises(RuntimeError, match="MigrateNode"):
        cluster.engine.handle(proc, MigrateNode(node_id=1, to_pid=1))


@pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
def test_every_declared_type_reaches_its_owner(name, monkeypatch):
    cluster, components = build(PROTOCOL_FACTORIES[name])
    engine = cluster.engine
    proc = cluster.kernel.processor(cluster.kernel.pids[0])
    for kind in DBTreeEngine.handlers:
        assert engine._handlers[kind].__self__ is engine
    declared = set(DBTreeEngine.handlers)
    for component in components:
        declared |= set(component.handlers)
        for kind in component.handlers:
            seen = []
            monkeypatch.setitem(
                type(component).handlers,
                kind,
                lambda owner, at, action: seen.append((owner, at, action)),
            )
            action = object.__new__(kind)
            engine.handle(proc, action)
            assert seen == [(component, proc, action)], kind.__name__
    assert set(engine._handlers) == declared
