"""Unit tests for coordinator decision logic, driven through a tiny
single-DC cluster so timers and Raft behave normally but latencies are
negligible."""

import pytest

from repro.bench.cluster import CarouselCluster, DeploymentSpec
from repro.core.config import BASIC, FAST, CarouselConfig
from repro.core.coordinator import CoordTxnState, supermajority
from repro.core.messages import FastVote, PartitionSets
from repro.core.occ import ABORT, PREPARED
from repro.sim.topology import uniform_topology
from repro.txn import TID


def tiny_cluster(mode=FAST, **kwargs):
    spec = DeploymentSpec(topology=uniform_topology(3, 2.0),
                          n_partitions=3, seed=2, jitter_fraction=0.0)
    cluster = CarouselCluster(spec, CarouselConfig(mode=mode, **kwargs))
    cluster.run(200)
    return cluster


def coordinator_of(cluster, pid="p0"):
    return cluster.leader_of(pid).coordinator


def make_state(coordinator, pid="p1", tid=None):
    tid = tid or TID("test-client", 1)
    state = CoordTxnState(tid=tid)
    # A real client node, so decision replies have somewhere to go.
    state.client_id = coordinator.server.network.nodes and \
        next(n for n in coordinator.server.network.nodes
             if n.startswith("client-"))
    state.group_id = "p0"
    state.participants = {pid: PartitionSets(read_keys=("k",),
                                             write_keys=("k",))}
    coordinator.states[tid] = state
    return state


def vote(tid, pid, replica, decision=PREPARED, versions=(("k", 0),),
         term=1, leader=False):
    return FastVote(tid=tid, partition_id=pid, replica_id=replica,
                    is_leader=leader, decision=decision,
                    read_versions=versions, term=term)


class TestFastPathEvaluation:
    def test_no_decision_without_leader_vote(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        pid = "p1"
        replicas = cluster.directory.lookup(pid).replicas
        followers = [r for r in replicas
                     if r != cluster.directory.lookup(pid).leader]
        for replica in followers:
            coord.on_fast_vote(vote(state.tid, pid, replica))
        assert pid not in state.decisions  # condition 2 (§4.2)

    def test_unanimous_supermajority_with_leader_decides(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        pid = "p1"
        info = cluster.directory.lookup(pid)
        for replica in info.replicas:
            coord.on_fast_vote(vote(state.tid, pid, replica,
                                    leader=replica == info.leader))
        assert state.decisions[pid][0] == PREPARED
        assert pid in state.fast_path_partitions

    def test_version_mismatch_blocks_fast_path(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        pid = "p1"
        info = cluster.directory.lookup(pid)
        for i, replica in enumerate(info.replicas):
            versions = (("k", 0),) if i < 2 else (("k", 9),)  # one stale
            coord.on_fast_vote(vote(state.tid, pid, replica,
                                    versions=versions,
                                    leader=replica == info.leader))
        assert pid not in state.decisions

    def test_term_mismatch_blocks_fast_path(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        pid = "p1"
        info = cluster.directory.lookup(pid)
        for i, replica in enumerate(info.replicas):
            coord.on_fast_vote(vote(state.tid, pid, replica,
                                    term=1 if i < 2 else 0,
                                    leader=replica == info.leader))
        assert pid not in state.decisions

    def test_mixed_decisions_block_fast_path(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        pid = "p1"
        info = cluster.directory.lookup(pid)
        for i, replica in enumerate(info.replicas):
            decision = PREPARED if i < 2 else ABORT
            coord.on_fast_vote(vote(state.tid, pid, replica,
                                    decision=decision,
                                    leader=replica == info.leader))
        assert pid not in state.decisions

    def test_unanimous_abort_fast_path(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        pid = "p1"
        info = cluster.directory.lookup(pid)
        for replica in info.replicas:
            coord.on_fast_vote(vote(state.tid, pid, replica,
                                    decision=ABORT,
                                    leader=replica == info.leader))
        assert state.decisions[pid][0] == ABORT

    def test_duplicate_votes_do_not_double_count(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        pid = "p1"
        info = cluster.directory.lookup(pid)
        leader = info.leader
        coord.on_fast_vote(vote(state.tid, pid, leader, leader=True))
        coord.on_fast_vote(vote(state.tid, pid, leader, leader=True))
        coord.on_fast_vote(vote(state.tid, pid, leader, leader=True))
        assert pid not in state.decisions  # one replica, not three


class TestStaleReadDetection:
    def test_matching_versions_not_stale(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        state.decisions["p1"] = (PREPARED, (("k", 3),))
        state.client_read_versions = {"k": 3}
        assert not coord._stale_read(state)

    def test_older_client_version_is_stale(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        state.decisions["p1"] = (PREPARED, (("k", 3),))
        state.client_read_versions = {"k": 2}
        assert coord._stale_read(state)

    def test_unread_keys_ignored(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        state.decisions["p1"] = (PREPARED, (("k", 3),))
        state.client_read_versions = {"other": 1}
        assert not coord._stale_read(state)

    def test_no_client_versions_never_stale(self):
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        state = make_state(coord)
        state.decisions["p1"] = (PREPARED, (("k", 3),))
        state.client_read_versions = {}
        assert not coord._stale_read(state)


class TestSupermajoritySizes:
    @pytest.mark.parametrize("group, expected", [(1, 1), (3, 3), (5, 4),
                                                 (7, 6)])
    def test_sizes(self, group, expected):
        assert supermajority(group) == expected


class TestRecordsAfterTheFact:
    """A replicated record that applies after the leader finished its
    transaction must not leave a state nobody will finish."""

    def test_record_of_a_finished_transaction_rebuilds_no_state(self):
        from repro.core.records import CoordWriteDataRecord
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        tid = TID("test-client", 7)
        # An abort decided and finished before the write data applied.
        coord.finished[tid] = ABORT
        record = CoordWriteDataRecord(tid=tid, writes=(("k", 1),),
                                      read_versions=())
        coord.server.handlers[type(record)](record, "p0")
        assert tid not in coord.states

    def test_new_leader_carries_no_mark_before_its_log_reapplies(self):
        # Its log may hold states of the client it has not mirrored yet;
        # a mark it vouched for would forget them once they apply.
        cluster = tiny_cluster()
        coord = coordinator_of(cluster)
        member = coord.server.member("p0")
        assert coord._low_water("test-client", "p0", 9) == 9
        member._term_start_index = member.last_applied + 1
        assert not member.term_start_applied
        assert coord._low_water("test-client", "p0", 9) == 0
