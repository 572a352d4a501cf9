"""Unit tests for the TAPIR replica's validation and resolution logic."""

import pytest

from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.topology import single_datacenter
from repro.tapir.config import TapirConfig
from repro.tapir.messages import (
    PREPARE_ABORT,
    PREPARE_ABSTAIN,
    PREPARE_OK,
    TapirCommit,
    TapirFinalize,
    TapirPrepare,
    TapirRead,
)
from repro.tapir.replica import TapirReplica
from repro.txn import TID


class Sink(Node):
    """Collects every message sent to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def handle_message(self, msg):
        self.received.append(msg)


@pytest.fixture()
def rig():
    kernel = Kernel(seed=1)
    network = Network(kernel, single_datacenter(), jitter_fraction=0.0)
    replica = TapirReplica("r0", "dc0", kernel, network, "p0",
                           ["r0"], TapirConfig())
    sink = Sink("client", "dc0", kernel, network)
    return kernel, replica, sink


def send(kernel, replica, sink, msg):
    sink.send(replica.node_id, msg)
    kernel.run()
    return sink.received


class TestValidation:
    def test_read_returns_values_and_versions(self, rig):
        kernel, replica, sink = rig
        replica.store.write("a", "v", 3)
        replies = send(kernel, replica, sink,
                       TapirRead(tid=TID("c", 1), partition_id="p0",
                                 keys=("a", "missing")))
        assert replies[-1].values == {"a": ("v", 3), "missing": (None, 0)}

    def test_prepare_ok_when_versions_match(self, rig):
        kernel, replica, sink = rig
        replica.store.write("a", "v", 2)
        replies = send(kernel, replica, sink,
                       TapirPrepare(tid=TID("c", 1), partition_id="p0",
                                    read_versions=(("a", 2),),
                                    write_keys=("a",)))
        assert replies[-1].result == PREPARE_OK
        assert replica.prepares_ok == 1

    def test_stale_version_aborts(self, rig):
        kernel, replica, sink = rig
        replica.store.write("a", "v", 2)
        replies = send(kernel, replica, sink,
                       TapirPrepare(tid=TID("c", 1), partition_id="p0",
                                    read_versions=(("a", 1),),
                                    write_keys=()))
        assert replies[-1].result == PREPARE_ABORT
        assert replica.prepares_rejected == 1

    def test_conflict_with_prepared_abstains(self, rig):
        kernel, replica, sink = rig
        send(kernel, replica, sink,
             TapirPrepare(tid=TID("c", 1), partition_id="p0",
                          read_versions=(("a", 0),), write_keys=("a",)))
        replies = send(kernel, replica, sink,
                       TapirPrepare(tid=TID("c", 2), partition_id="p0",
                                    read_versions=(("a", 0),),
                                    write_keys=("a",)))
        assert replies[-1].result == PREPARE_ABSTAIN

    def test_duplicate_prepare_is_ok(self, rig):
        kernel, replica, sink = rig
        msg1 = TapirPrepare(tid=TID("c", 1), partition_id="p0",
                            read_versions=(("a", 0),), write_keys=("a",))
        send(kernel, replica, sink, msg1)
        msg2 = TapirPrepare(tid=TID("c", 1), partition_id="p0",
                            read_versions=(("a", 0),), write_keys=("a",))
        replies = send(kernel, replica, sink, msg2)
        assert replies[-1].result == PREPARE_OK
        assert replica.prepares_ok == 1  # not double counted


class TestResolution:
    def prepare(self, kernel, replica, sink, seq=1, key="a"):
        send(kernel, replica, sink,
             TapirPrepare(tid=TID("c", seq), partition_id="p0",
                          read_versions=((key, 0),), write_keys=(key,)))

    def test_commit_applies_writes_and_clears(self, rig):
        kernel, replica, sink = rig
        self.prepare(kernel, replica, sink)
        send(kernel, replica, sink,
             TapirCommit(tid=TID("c", 1), partition_id="p0", commit=True,
                         writes={"a": "new"}))
        assert replica.store.read("a").value == "new"
        assert TID("c", 1) not in replica.prepared
        assert replica.resolved[TID("c", 1)] is True

    def test_abort_commit_message_clears_without_writing(self, rig):
        kernel, replica, sink = rig
        self.prepare(kernel, replica, sink)
        send(kernel, replica, sink,
             TapirCommit(tid=TID("c", 1), partition_id="p0", commit=False,
                         writes={}))
        assert "a" not in replica.store
        assert TID("c", 1) not in replica.prepared

    def test_duplicate_commit_applies_once(self, rig):
        kernel, replica, sink = rig
        self.prepare(kernel, replica, sink)
        for __ in range(2):
            send(kernel, replica, sink,
                 TapirCommit(tid=TID("c", 1), partition_id="p0",
                             commit=True, writes={"a": "new"}))
        assert replica.store.read("a").version == 1

    def test_prepare_after_resolution_reports_outcome(self, rig):
        kernel, replica, sink = rig
        self.prepare(kernel, replica, sink)
        send(kernel, replica, sink,
             TapirCommit(tid=TID("c", 1), partition_id="p0", commit=True,
                         writes={"a": "x"}))
        replies = send(kernel, replica, sink,
                       TapirPrepare(tid=TID("c", 1), partition_id="p0",
                                    read_versions=(("a", 0),),
                                    write_keys=("a",)))
        assert replies[-1].result == PREPARE_OK

    def test_finalize_adopts_ok_despite_abstain(self, rig):
        kernel, replica, sink = rig
        self.prepare(kernel, replica, sink, seq=1)
        # A second conflicting transaction abstained locally...
        send(kernel, replica, sink,
             TapirPrepare(tid=TID("c", 2), partition_id="p0",
                          read_versions=(("a", 0),), write_keys=("a",)))
        assert TID("c", 2) not in replica.prepared
        # ...but the group's slow path decided OK: the replica adopts it.
        send(kernel, replica, sink,
             TapirFinalize(tid=TID("c", 2), partition_id="p0",
                           result=PREPARE_OK))
        assert TID("c", 2) in replica.prepared

    def test_finalize_abort_drops_prepared(self, rig):
        kernel, replica, sink = rig
        self.prepare(kernel, replica, sink, seq=1)
        send(kernel, replica, sink,
             TapirFinalize(tid=TID("c", 1), partition_id="p0",
                           result=PREPARE_ABORT))
        assert TID("c", 1) not in replica.prepared


class TestIndexConsistency:
    def test_resolution_empties_the_prepared_list(self, rig):
        kernel, replica, sink = rig
        send(kernel, replica, sink,
             TapirPrepare(tid=TID("c", 1), partition_id="p0",
                          read_versions=(("a", 0),), write_keys=("b",)))
        assert len(replica.prepared) == 1
        send(kernel, replica, sink,
             TapirCommit(tid=TID("c", 1), partition_id="p0", commit=False))
        assert len(replica.prepared) == 0
        # Nothing left to conflict with: the same keys prepare again.
        send(kernel, replica, sink,
             TapirPrepare(tid=TID("c", 2), partition_id="p0",
                          read_versions=(("b", 0),), write_keys=("a",)))
        assert sink.received[-1].result == PREPARE_OK

    def test_modeled_validation_cost_grows_with_backlog(self, rig):
        kernel, replica, sink = rig
        replica.service_time_ms = 0.05
        base = replica.service_time_for(
            TapirPrepare(tid=TID("c", 99), partition_id="p0"))
        for i in range(10):
            send(kernel, replica, sink,
                 TapirPrepare(tid=TID("c", i), partition_id="p0",
                              read_versions=((f"k{i}", 0),),
                              write_keys=(f"k{i}",)))
        loaded = replica.service_time_for(
            TapirPrepare(tid=TID("c", 99), partition_id="p0"))
        assert loaded > base
