"""Declared dispatch: the ``*HANDLERS`` tables are what runs and what
protolint reads, and the ``*RECORDS`` tables are what applies and
replays durable state.

Every receiving class states ``{MessageType: "method_name"}`` in its class
body; :class:`repro.sim.node.Handlers` binds the methods once per receiver
at construction, and :func:`repro.analysis.protolint.tables` reads the
same imported tables.  Every durable role states ``{RecordType:
"method_name"}`` the same way, bound into the same ``handlers``.  These
tests pin the three properties that make one table serve both: each
entry runs its method (patched on the class before construction, as the
chaos plants patch it), an unknown type is an error, and no key can be
shadowed by a subclass ``type(msg)`` would miss — and that every record
type has exactly one owning table.
"""

import importlib
import inspect
import pkgutil
from collections import Counter
from dataclasses import is_dataclass

import pytest

import repro
from repro import systems
from repro.analysis import protolint
from repro.bench.cluster import DeploymentSpec
from repro.core import records as core_records
from repro.core.client import CarouselClient
from repro.core.coordinator import CoordinatorComponent
from repro.core.participant import PartitionComponent
from repro.core.server import CarouselServer
from repro.layered import messages as layered_messages
from repro.layered.client import LayeredClient
from repro.layered.server import LayeredServer, _LayeredPartition
from repro.raft.log import LogEntry
from repro.raft.node import RaftHost, RaftMember
from repro.sim.kernel import Kernel
from repro.sim.message import Message
from repro.sim.network import Network
from repro.sim.topology import single_datacenter
from repro.tapir.client import TapirClient
from repro.tapir.replica import TapirReplica
from repro.wal import records as wal_records
from repro.wal.records import DecisionJournal

#: Every class that declares a table, with the system that deploys it.
RECEIVERS = {
    CarouselServer: "carousel-basic", CarouselClient: "carousel-basic",
    RaftHost: "carousel-basic", RaftMember: "carousel-basic",
    LayeredServer: "layered", LayeredClient: "layered",
    TapirReplica: "tapir", TapirClient: "tapir",
}


#: Every durable role that declares a ``RECORDS`` table, with the system
#: that deploys it.
ROLES = {
    RaftMember: "carousel-basic", PartitionComponent: "carousel-basic",
    CoordinatorComponent: "carousel-basic", DecisionJournal: "layered",
    _LayeredPartition: "layered", LayeredServer: "layered",
    TapirReplica: "tapir",
}


class Unregistered(Message):
    """A message type no table names."""


class UnregisteredRecord:
    """A record type no table names."""

    group_id = partition_id = "p0"


def tables(cls, kind="HANDLERS"):
    """The ``*HANDLERS`` (or ``*RECORDS``) tables ``cls`` itself
    declares, by name."""
    return {name: table for name, table in sorted(vars(cls).items())
            if name.endswith(kind)}


ENTRIES = [(cls, table, msg_type, method)
           for cls in RECEIVERS
           for table, entries in tables(cls).items()
           for msg_type, method in entries.items()]
RECORD_ENTRIES = [(cls, table, record_type, method)
                  for cls in ROLES
                  for table, entries in tables(cls, "RECORDS").items()
                  for record_type, method in entries.items()]


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


def record_receiver(cls, cluster):
    """``(node, target, routing fields)`` for a record of ``cls``'s
    ``RECORDS`` table: the node that applies or replays it, the role
    whose method runs, and the fields that route it there."""
    node = next(iter((getattr(cluster, "servers", None)
                      or cluster.replicas).values()))
    group = sorted(getattr(node, "members", {"p0": None}))[0]
    target = {RaftMember: lambda: node.members[group],
              PartitionComponent: lambda: node.partitions[group],
              _LayeredPartition: lambda: node.partitions[group],
              CoordinatorComponent: lambda: node.coordinator,
              DecisionJournal: lambda: node.journal}.get(cls, lambda: node)
    return node, target(), {"group_id": group, "partition_id": group}


def bare_record(record_type, fields):
    """A bare record carrying those of the routing fields it has."""
    return message(record_type, {
        name: value for name, value in fields.items()
        if name in getattr(record_type, "__slots__", ())})


def deliver(node, record, group):
    """Run ``record`` the way the tree does: a WAL record as a restart
    replays it, a Raft command as ``group``'s member applies it."""
    if type(record).__module__ == wal_records.__name__:
        node.handlers[type(record)](record)
    else:
        node._apply(group, LogEntry(1, 1, record))


@pytest.mark.parametrize(
    "cls,table,record_type,method", RECORD_ENTRIES,
    ids=[f"{c.__name__}.{t}[{r.__name__}]"
         for c, t, r, _ in RECORD_ENTRIES])
def test_each_record_entry_runs_its_named_method_once(
        monkeypatch, cls, table, record_type, method):
    calls = []
    monkeypatch.setattr(cls, method,
                        lambda self, record, *group: calls.append(
                            (self, record)))
    # Bound at construction, like the handler tables.
    node, target, fields = record_receiver(
        cls, systems.build(ROLES[cls], DeploymentSpec()))
    bare = bare_record(record_type, fields)
    deliver(node, bare, fields["group_id"])
    assert calls == [(target, bare)]


@pytest.mark.parametrize("system", sorted(set(ROLES.values())))
def test_unregistered_record_raises_naming_node_and_record(system):
    node, __, __ = record_receiver(
        None, systems.build(system, DeploymentSpec()))
    node.wal.append(UnregisteredRecord())
    applies = [node.restart]
    if isinstance(node, RaftHost):
        applies.append(lambda: node._apply(
            "p0", LogEntry(1, 1, UnregisteredRecord())))
    for apply in applies:
        with pytest.raises(TypeError) as err:
            apply()
        assert f"{type(node).__name__} has no handler for " \
            "UnregisteredRecord" in str(err.value)


def test_every_record_type_has_exactly_one_owning_table():
    declared = [cls for module in pkgutil.walk_packages(repro.__path__,
                                                        "repro.")
                if not module.name.endswith("__main__")
                for __, cls in inspect.getmembers(
                    importlib.import_module(module.name), inspect.isclass)
                if vars(cls).get("RECORDS")]
    assert set(declared) == set(ROLES)
    owners = Counter(record_type for cls in ROLES
                     for record_type in cls.RECORDS)
    records = {cls for module in (core_records, wal_records)
               for __, cls in inspect.getmembers(module, is_dataclass)
               if cls.__module__ == module.__name__}
    records |= {cls for name, cls in vars(layered_messages).items()
                if name.endswith("Record")}
    assert set(owners) == records
    assert {t for t, n in owners.items() if n > 1} == set()


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
    keys = {key for cls, _, key, _ in ENTRIES + RECORD_ENTRIES}
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
