"""Declared dispatch: the ``*HANDLERS`` tables are what runs and what
protolint reads.

Every receiving class states ``{MessageType: "method_name"}`` in its class
body; :class:`repro.sim.node.Handlers` binds the methods once per receiver
at construction, and :func:`repro.analysis.protolint.tables` reads the
same imported tables.  These tests pin the three properties that make one
table serve both: each entry runs its method (patched on the class before
construction, as the chaos plants patch it), an unknown type is an
error, and no key can be shadowed by a subclass ``type(msg)`` would miss.
"""

import importlib
import pkgutil

import pytest

import repro
from repro import systems
from repro.analysis import protolint
from repro.bench.cluster import DeploymentSpec
from repro.core.client import CarouselClient
from repro.core.server import CarouselServer
from repro.layered.client import LayeredClient
from repro.layered.server import LayeredServer
from repro.raft.node import RaftHost, RaftMember
from repro.sim.kernel import Kernel
from repro.sim.message import Message
from repro.sim.network import Network
from repro.sim.topology import single_datacenter
from repro.tapir.client import TapirClient
from repro.tapir.replica import TapirReplica

#: Every class that declares a table, with the system that deploys it.
RECEIVERS = {
    CarouselServer: "carousel-basic", CarouselClient: "carousel-basic",
    RaftHost: "carousel-basic", RaftMember: "carousel-basic",
    LayeredServer: "layered", LayeredClient: "layered",
    TapirReplica: "tapir", TapirClient: "tapir",
}


class Unregistered(Message):
    """A message type no table names."""


def tables(cls):
    """The ``*HANDLERS`` tables ``cls`` itself declares, by name."""
    return {name: table for name, table in sorted(vars(cls).items())
            if name.endswith("HANDLERS")}


ENTRIES = [(cls, table, msg_type, method)
           for cls in RECEIVERS
           for table, entries in tables(cls).items()
           for msg_type, method in entries.items()]


@pytest.fixture(scope="module")
def clusters():
    return {name: systems.build(name, DeploymentSpec())
            for name in set(RECEIVERS.values())}


def receiver(cls, table, cluster):
    """``(node, target, routing fields)``: the node a message of ``table``
    is delivered to, the object whose method it runs, and the fields
    that address it there."""
    if cls is TapirReplica:
        node = next(iter(cluster.replicas.values()))
    elif cls in (CarouselClient, LayeredClient, TapirClient):
        node = cluster.clients[0]
    else:
        node = next(iter(cluster.servers.values()))
    if cls is RaftMember or cls is RaftHost:
        group = sorted(node.members)[0]
        target = node if cls is RaftHost else node.members[group]
        return node, target, {"group_id": group}
    if table == "PARTITION_HANDLERS":
        pid = sorted(node.partitions)[0]
        return node, node.partitions[pid], {"partition_id": pid}
    if table == "COORDINATOR_HANDLERS" and cls is CarouselServer:
        return node, node.coordinator, {}
    return node, node, {}


def message(msg_type, fields):
    """A bare instance carrying only the routing fields."""
    msg = msg_type.__new__(msg_type)
    for name, value in fields.items():
        object.__setattr__(msg, name, value)
    return msg


@pytest.mark.parametrize(
    "cls,table,msg_type,method", ENTRIES,
    ids=[f"{c.__name__}.{t}[{m.__name__}]" for c, t, m, _ in ENTRIES])
def test_each_entry_runs_its_named_method_once(clusters, monkeypatch, cls,
                                               table, msg_type, method):
    __, target, __ = receiver(cls, table, clusters[RECEIVERS[cls]])
    calls = []
    monkeypatch.setattr(type(target), method,
                        lambda self, msg: calls.append((self, msg)))
    # Tables bind at construction: the patch runs in a cluster built
    # after it, as a chaos plant does.
    node, target, fields = receiver(
        cls, table, systems.build(RECEIVERS[cls], DeploymentSpec()))
    msg = message(msg_type, fields)
    node.handle_message(msg)
    assert calls == [(target, msg)]


@pytest.mark.parametrize("cls", list(RECEIVERS),
                         ids=[c.__name__ for c in RECEIVERS])
def test_unregistered_type_raises_naming_node_and_message(clusters, cls):
    if cls is RaftHost:
        kernel = Kernel()
        node = RaftHost("bare", "dc0", kernel,
                        Network(kernel, single_datacenter()))
        deliver = node.handle_message
    else:
        node, target, _ = receiver(cls, "", clusters[RECEIVERS[cls]])
        deliver = node.handle_message
        if cls is RaftMember:  # reached only through its host's routing
            def deliver(msg):
                target.handlers[type(msg)](msg)
    with pytest.raises(TypeError) as err:
        deliver(Unregistered())
    assert f"{type(node).__name__} has no handler for Unregistered" \
        in str(err.value)


def test_no_table_key_is_subclassed_anywhere_in_repro():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    keys = {key for cls, _, key, _ in ENTRIES}
    assert {k for k in keys if k.__subclasses__()} == set()


def test_graph_reads_the_tables_that_run():
    """protolint's entries are exactly the tables that run, and every
    contracted receiver declares one."""
    read = {(cls.__name__, table, msg_type.__name__, method)
            for cls, table, msg_type, method in protolint.tables()}
    run = {(cls.__name__, table, msg_type.__name__, method)
           for cls, table, msg_type, method in ENTRIES}
    assert read == run
    receivers = {r for contracts in protolint.PROTOCOLS.values()
                 for contract in contracts.values()
                 for r in contract.receivers}
    assert receivers == {cls.__name__ for cls in RECEIVERS}
