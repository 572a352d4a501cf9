"""Failure-handling integration tests (§4.3).

The paper's prototype does not implement fault tolerance; this reproduction
does, so these tests exercise client, follower, participant-leader and
coordinator failures end to end, including CPC's five-step leader recovery.
"""

import pytest

from repro.bench.cluster import CarouselCluster, DeploymentSpec
from repro.core.backoff import RetryPolicy
from repro.core.config import BASIC, FAST, CarouselConfig
from repro.raft.node import RaftConfig
from repro.sim.failure import FailureInjector
from repro.txn import TransactionSpec


def make_cluster(mode=BASIC, seed=1, retry_ms=800.0,
                 heartbeat_interval_ms=200.0):
    config = CarouselConfig(
        mode=mode,
        retry_policy=RetryPolicy(base_ms=retry_ms),
        heartbeat_interval_ms=heartbeat_interval_ms,
        heartbeat_misses=3,
        raft=RaftConfig(election_timeout_min_ms=400.0,
                        election_timeout_max_ms=800.0,
                        heartbeat_interval_ms=100.0))
    spec = DeploymentSpec(seed=seed, jitter_fraction=0.0)
    cluster = CarouselCluster(spec, config)
    cluster.run(500)
    return cluster


def key_with_remote_leader(cluster, client_dc, require_local_replica=False):
    """A key whose partition leader is outside ``client_dc``."""
    for i in range(2000):
        key = f"k{i}"
        pid = cluster.ring.partition_for(key)
        info = cluster.directory.lookup(pid)
        if info.leader_datacenter() == client_dc:
            continue
        if require_local_replica and not info.replica_in(client_dc):
            continue
        return key, pid
    raise AssertionError("no suitable key found")


def increment_spec(key):
    return TransactionSpec(
        read_keys=(key,), write_keys=(key,),
        compute_writes=lambda r: {key: (r[key] or 0) + 1})


class TestFollowerFailures:
    @pytest.mark.parametrize("mode", [BASIC, FAST])
    def test_commit_with_one_follower_down(self, mode):
        cluster = make_cluster(mode)
        key, pid = key_with_remote_leader(cluster, "us-west")
        info = cluster.directory.lookup(pid)
        follower = info.followers()[0]
        cluster.servers[follower].crash()
        results = []
        cluster.client("us-west").submit(increment_spec(key),
                                         results.append)
        cluster.run(6000)
        assert results and results[0].committed

    def test_commit_blocked_without_majority_until_recovery(self):
        cluster = make_cluster(BASIC)
        key, pid = key_with_remote_leader(cluster, "us-west")
        info = cluster.directory.lookup(pid)
        for follower in info.followers():
            cluster.servers[follower].crash()
        results = []
        cluster.client("us-west").submit(increment_spec(key),
                                         results.append)
        cluster.run(3000)
        assert not results  # prepare cannot replicate without a majority
        for follower in info.followers():
            cluster.servers[follower].recover()
        cluster.run(8000)
        assert results and results[0].committed


class TestParticipantLeaderFailures:
    def test_leader_crash_before_transaction(self):
        cluster = make_cluster(BASIC)
        key, pid = key_with_remote_leader(cluster, "us-west")
        old_leader = cluster.directory.lookup(pid).leader
        cluster.servers[old_leader].crash()
        cluster.run(3000)  # election + directory update
        assert cluster.directory.lookup(pid).leader != old_leader
        results = []
        cluster.client("us-west").submit(increment_spec(key),
                                         results.append)
        cluster.run(8000)
        assert results and results[0].committed

    def test_leader_crash_mid_prepare_basic(self):
        """Prepare dies with the leader; the client's retransmission runs a
        fresh prepare at the new leader."""
        cluster = make_cluster(BASIC)
        key, pid = key_with_remote_leader(cluster, "us-west")
        old_leader = cluster.directory.lookup(pid).leader
        results = []
        cluster.client("us-west").submit(increment_spec(key),
                                         results.append)
        # Crash the leader just after the prepare lands (one-way WAN delay)
        # but before its replication round trip completes.
        leader_dc = cluster.directory.lookup(pid).leader_datacenter()
        land = cluster.topology.one_way("us-west", leader_dc)
        injector = FailureInjector(cluster.kernel, cluster.network)
        injector.crash_at(old_leader, cluster.kernel.now + land + 1.0)
        cluster.run(15_000)
        assert results and results[0].committed
        new_pid_leader = cluster.directory.lookup(pid).leader
        assert new_pid_leader != old_leader
        value = cluster.servers[new_pid_leader].partitions[pid] \
            .store.read(key).value
        assert value == 1

    def test_fast_path_prepared_survives_leader_crash(self):
        """§4.3.3: a transaction whose fast-path prepare was exposed to the
        coordinator must reach the same decision under the new leader."""
        cluster = make_cluster(FAST)
        key, pid = key_with_remote_leader(cluster, "us-west",
                                          require_local_replica=True)
        old_leader = cluster.directory.lookup(pid).leader
        results = []
        cluster.client("us-west").submit(increment_spec(key),
                                         results.append)
        leader_dc = cluster.directory.lookup(pid).leader_datacenter()
        land = cluster.topology.one_way("us-west", leader_dc)
        injector = FailureInjector(cluster.kernel, cluster.network)
        # Crash right after the leader cast its fast vote, before the slow
        # path's replication round trip can finish.
        injector.crash_at(old_leader, cluster.kernel.now + land + 0.5)
        cluster.run(20_000)
        assert results and results[0].committed
        cluster.run(5_000)
        new_leader = cluster.directory.lookup(pid).leader
        assert new_leader != old_leader
        # The recovered leader replicated the same prepare and applied the
        # writeback exactly once.
        store = cluster.servers[new_leader].partitions[pid].store
        assert store.read(key).value == 1


class TestCoordinatorFailures:
    def test_coordinator_crash_after_commit_request(self):
        """The new coordinator re-acquires prepare results and reaches the
        same decision (§4.3.3)."""
        cluster = make_cluster(BASIC, retry_ms=1500.0)
        client = cluster.client("us-west")
        key, pid = key_with_remote_leader(cluster, "us-west")
        # Coordinator is the leader of a partition group local to us-west.
        coord_group = cluster.directory.leaders_in("us-west")[0]
        coordinator = cluster.directory.lookup(coord_group).leader
        results = []
        client.submit(increment_spec(key), results.append)
        # Crash the coordinator while the transaction is in flight: after
        # the remote read round trip, while prepares are still arriving.
        leader_dc = cluster.directory.lookup(pid).leader_datacenter()
        rtt = cluster.topology.rtt("us-west", leader_dc)
        injector = FailureInjector(cluster.kernel, cluster.network)
        injector.crash_at(coordinator, cluster.kernel.now + rtt + 2.0)
        cluster.run(30_000)
        assert results, "transaction never completed after coordinator crash"
        if results[0].committed:
            cluster.run(5_000)
            new_pid_leader = cluster.directory.lookup(pid).leader
            store = cluster.servers[new_pid_leader].partitions[pid].store
            assert store.read(key).value == 1

    def test_exactly_once_apply_across_coordinator_retry(self):
        cluster = make_cluster(BASIC, retry_ms=1000.0)
        client = cluster.client("us-east")
        key, pid = key_with_remote_leader(cluster, "us-east")
        results = []
        client.submit(increment_spec(key), results.append)
        cluster.run(20_000)
        assert results and results[0].committed
        # Duplicate writebacks (coordinator retries) must not double-apply.
        leader = cluster.directory.lookup(pid).leader
        assert cluster.servers[leader].partitions[pid].store \
            .read(key).value == 1


class TestClientFailures:
    def test_coordinator_aborts_after_missed_heartbeats(self):
        cluster = make_cluster(BASIC, heartbeat_interval_ms=150.0)
        client = cluster.client("us-west")
        key, pid = key_with_remote_leader(cluster, "us-west")
        results = []
        client.submit(increment_spec(key), results.append)
        # Kill the client while the transaction is still reading.
        injector = FailureInjector(cluster.kernel, cluster.network)
        injector.crash_at(client.node_id, cluster.kernel.now + 5.0)
        cluster.run(10_000)
        assert not results  # the dead client never hears back
        # The pending entry must have been cleaned up: another client can
        # now write the same key.
        other = cluster.client("europe")
        other_results = []
        other.submit(increment_spec(key), other_results.append)
        cluster.run(10_000)
        assert other_results and other_results[0].committed

    def test_commit_proceeds_despite_client_crash_after_commit_request(self):
        cluster = make_cluster(BASIC)
        client = cluster.client("us-west")
        key, pid = key_with_remote_leader(cluster, "us-west")
        results = []
        client.submit(increment_spec(key), results.append)
        # Crash after the commit request is (comfortably) sent: reads take
        # one RTT; add slack, then crash before the reply lands.
        leader_dc = cluster.directory.lookup(pid).leader_datacenter()
        rtt = cluster.topology.rtt("us-west", leader_dc)
        injector = FailureInjector(cluster.kernel, cluster.network)
        injector.crash_at(client.node_id, cluster.kernel.now + rtt + 2.0)
        cluster.run(15_000)
        # §4.3.1: after receiving the commit request the coordinator
        # commits regardless of the client's fate.
        leader = cluster.directory.lookup(pid).leader
        assert cluster.servers[leader].partitions[pid].store \
            .read(key).value == 1
