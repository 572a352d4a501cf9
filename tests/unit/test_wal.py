"""WAL unit tests: append/fsync durability stamps, crash truncation,
torn tails, CPU billing, crash-epoch timers, and the recover/restart race.
"""

from repro.sim.failure import FailureInjector
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.stats import restart_summary
from repro.sim.topology import uniform_topology
from repro.wal.log import WriteAheadLog
from repro.wal.records import (CoordDecisionWal, CoordFinishWal,
                               RaftTermRecord, fold_decisions)

import pytest


def _decision(tid: str) -> CoordDecisionWal:
    return CoordDecisionWal(tid=tid, group_id="g", client_id="c",
                            decision="commit", reason="committed",
                            participants=(), writes=())


class TestAppendFsync:
    def test_append_syncs_by_default(self):
        wal = WriteAheadLog("n1")
        wal.append(_decision("t1"))
        assert wal.unsynced == 0
        assert wal.appends == 1 and wal.syncs == 1
        assert wal.crash(now=0.0) == 0
        assert wal.replay() == [_decision("t1")]

    def test_unsynced_records_die_in_a_crash(self):
        wal = WriteAheadLog("n1")
        wal.append(_decision("t1"))
        wal.append(_decision("t2"), sync=False)
        assert wal.unsynced == 1
        assert wal.crash(now=0.0) == 1
        assert wal.replay() == [_decision("t1")]
        assert wal.records_lost == 1 and wal.crashes == 1

    def test_fsync_stamps_only_the_unsynced_tail(self):
        wal = WriteAheadLog("n1")
        wal.append(_decision("t1"), sync=False)
        wal.append(_decision("t2"), sync=False)
        assert wal.fsync() == 2
        assert wal.fsync() == 0  # nothing left to stamp
        assert wal.unsynced == 0

    def test_inflight_sync_lost_before_its_completion_time(self):
        clock = {"now": 100.0}
        wal = WriteAheadLog("n1", clock=lambda: clock["now"],
                            sync_latency_ms=5.0)
        wal.append(_decision("t1"))          # durable at 105
        clock["now"] = 104.0
        assert wal.crash() == 1              # still in flight
        assert wal.replay() == []

    def test_inflight_sync_survives_after_completion_time(self):
        clock = {"now": 100.0}
        wal = WriteAheadLog("n1", clock=lambda: clock["now"],
                            sync_latency_ms=5.0)
        wal.append(_decision("t1"))          # durable at 105
        clock["now"] = 105.0
        assert wal.crash() == 0
        assert wal.replay() == [_decision("t1")]


class TestTornTail:
    def test_torn_tail_keeps_a_deterministic_prefix(self):
        def run():
            clock = {"now": 0.0}
            wal = WriteAheadLog("n1", clock=lambda: clock["now"],
                                sync_latency_ms=10.0, torn_tail=True)
            for i in range(6):
                wal.append(_decision(f"t{i}"), sync=False)
            wal.fsync()                      # all durable at 10
            clock["now"] = 5.0               # mid-flight
            wal.crash()
            return wal.replay()

        first, second = run(), run()
        assert first == second               # same owner id, same cut
        all_records = [_decision(f"t{i}") for i in range(6)]
        assert first == all_records[:len(first)]  # survivors are a prefix

    def test_torn_tail_never_resurrects_unsynced_records(self):
        clock = {"now": 0.0}
        wal = WriteAheadLog("n1", clock=lambda: clock["now"],
                            sync_latency_ms=10.0, torn_tail=True)
        wal.append(_decision("t1"))          # in flight, durable at 10
        wal.append(CoordFinishWal(tid="t2"), sync=False)  # never fsynced
        clock["now"] = 5.0
        wal.crash()
        assert CoordFinishWal(tid="t2") not in wal.replay()


class TestCpuBilling:
    def _node(self, service_time_ms=0.0):
        kernel = Kernel(seed=1)
        topo = uniform_topology(1, 10.0)
        network = Network(kernel, topo, jitter_fraction=0.0)
        node = Node("n0", topo.datacenters[0], kernel, network,
                    service_time_ms=service_time_ms)
        return kernel, node

    def test_zero_latency_wal_is_passive(self):
        kernel, node = self._node()
        wal = WriteAheadLog("n0")
        wal.attach_host(node)
        busy_before = node._busy_until
        wal.append(_decision("t1"))
        assert node._busy_until == busy_before

    def test_sync_latency_charges_the_host_cpu_queue(self):
        kernel, node = self._node()
        wal = WriteAheadLog("n0", sync_latency_ms=2.5)
        wal.attach_host(node)
        wal.append(_decision("t1"))
        assert node._busy_until == 2.5
        wal.append(_decision("t2"))
        assert node._busy_until == 5.0       # back-to-back syncs queue up


class TestFoldDecisions:
    """Decided minus finished: the one fold both coordinators restart
    through (Carousel's and the layered baseline's)."""

    def test_splits_finished_from_owed_in_append_order(self):
        abort = CoordDecisionWal(tid="t3", group_id="g", client_id="c",
                                 decision="abort", participants=(),
                                 writes=())
        assert abort.reason == ""            # layered leaves it empty
        finished, owed = fold_decisions([
            _decision("t2"), RaftTermRecord("g", 1, None), _decision("t1"),
            CoordFinishWal("t2"), abort, CoordFinishWal("t3")])
        assert finished == {"t2": "commit", "t3": "abort"}
        assert list(finished) == ["t2", "t3"]
        assert owed == [_decision("t1")]

    def test_finish_without_a_local_decision_is_ignored(self):
        # A successor coordinator finishes a decision only its
        # predecessor journaled.
        finished, owed = fold_decisions([CoordFinishWal("t9"),
                                         _decision("t1")])
        assert finished == {} and owed == [_decision("t1")]

    def test_empty_image(self):
        assert fold_decisions([]) == ({}, [])


class _RestartableNode(Node):
    """Minimal WAL-carrying node: counts restarts and replayed records."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attach_wal()
        self.replayed = None
        self.fired = []

    def handle_message(self, msg):  # pragma: no cover - no traffic here
        pass

    def on_restart(self):
        self.replayed = self.wal.replay()


class TestCrashEpochTimers:
    def _cluster(self):
        kernel = Kernel(seed=1)
        topo = uniform_topology(1, 10.0)
        network = Network(kernel, topo, jitter_fraction=0.0)
        node = _RestartableNode("n0", topo.datacenters[0], kernel, network)
        return kernel, node

    def test_pre_crash_timer_is_dead_after_recovery(self):
        kernel, node = self._cluster()
        node.set_timer(50.0, node.fired.append, "pre-crash")
        kernel.schedule_at(10.0, node.crash)
        kernel.schedule_at(20.0, node.recover)
        kernel.run(until=100.0)
        assert node.fired == []              # armed by a dead incarnation

    def test_post_recovery_timer_fires(self):
        kernel, node = self._cluster()
        kernel.schedule_at(10.0, node.crash)
        kernel.schedule_at(20.0, node.recover)
        kernel.schedule_at(30.0, lambda: node.set_timer(
            5.0, node.fired.append, "post-recover"))
        kernel.run(until=100.0)
        assert node.fired == ["post-recover"]

    def test_timer_across_restart_is_dead_too(self):
        kernel, node = self._cluster()
        node.wal.append(_decision("t1"))
        node.set_timer(50.0, node.fired.append, "pre-restart")
        kernel.schedule_at(10.0, node.restart)
        kernel.run(until=100.0)
        assert node.fired == []
        assert node.replayed == [_decision("t1")]
        assert node.restarts == 1


class TestRestartRecoverRace:
    """A ``recover_at`` racing a ``restart_at`` at the same instant must
    yield to the restart — by scheduled time, not firing order, so the
    outcome is one restart and zero plain recoveries either way."""

    def _cluster(self):
        kernel = Kernel(seed=1)
        topo = uniform_topology(1, 10.0)
        network = Network(kernel, topo, jitter_fraction=0.0)
        node = _RestartableNode("n0", topo.datacenters[0], kernel, network)
        return kernel, node, FailureInjector(kernel, network)

    @pytest.mark.parametrize("restart_first", [True, False])
    def test_restart_wins_in_either_registration_order(self, restart_first):
        kernel, node, injector = self._cluster()
        injector.crash_at("n0", 10.0)
        if restart_first:
            injector.restart_at("n0", 20.0)
            injector.recover_at("n0", 20.0)
        else:
            injector.recover_at("n0", 20.0)
            injector.restart_at("n0", 20.0)
        kernel.run(until=50.0)
        actions = [(action, t) for t, action, subject in injector.log]
        assert ("restart", 20.0) in actions
        assert ("recover-superseded", 20.0) in actions
        assert ("recover", 20.0) not in actions
        assert node.restarts == 1 and not node.crashed

    def test_restart_counts_surface_in_stats(self):
        kernel, node, injector = self._cluster()
        injector.crash_at("n0", 10.0)
        injector.restart_at("n0", 20.0)
        kernel.run(until=50.0)
        assert restart_summary(node.network) == [("n0", 1)]
