"""Integration tests for the layered (sequential 2PC) baseline."""

import pytest

from repro.bench.cluster import (
    CarouselCluster,
    DeploymentSpec,
    LayeredCluster,
)
from repro.core.config import BASIC, CarouselConfig
from repro.txn import REASON_CLIENT_ABORT, TransactionSpec


def make_cluster(seed=1):
    cluster = LayeredCluster(DeploymentSpec(seed=seed,
                                            jitter_fraction=0.0))
    cluster.run(500)
    return cluster


def submit_and_run(cluster, client, spec, ms=5000):
    results = []
    client.submit(spec, results.append)
    cluster.run(ms)
    assert results, "transaction did not complete"
    return results[0]


def transfer_spec():
    def compute(reads):
        return {"alice": (reads["alice"] or 0) - 5,
                "bob": (reads["bob"] or 0) + 5}
    return TransactionSpec(read_keys=("alice", "bob"),
                           write_keys=("alice", "bob"),
                           compute_writes=compute)


class TestLayeredCorrectness:
    def test_multi_partition_commit(self):
        cluster = make_cluster()
        cluster.populate({"alice": 100, "bob": 0})
        result = submit_and_run(cluster, cluster.client("us-west"),
                                transfer_spec())
        assert result.committed
        readback = submit_and_run(
            cluster, cluster.client("asia"),
            TransactionSpec(read_keys=("alice", "bob"), write_keys=()))
        assert readback.reads == {"alice": 95, "bob": 5}

    def test_writes_reach_all_replicas(self):
        cluster = make_cluster()
        result = submit_and_run(
            cluster, cluster.client("europe"),
            TransactionSpec(read_keys=(), write_keys=("w",),
                            compute_writes=lambda r: {"w": 7}))
        assert result.committed
        cluster.run(3000)
        pid = cluster.ring.partition_for("w")
        for server in cluster.replicas_of(pid):
            assert server.partitions[pid].store.read("w").value == 7

    def test_client_abort(self):
        cluster = make_cluster()
        result = submit_and_run(
            cluster, cluster.client("us-east"),
            TransactionSpec(read_keys=("a",), write_keys=("a",),
                            compute_writes=lambda r: None))
        assert not result.committed
        assert result.reason == REASON_CLIENT_ABORT

    def test_stale_read_aborts(self):
        # Another writer commits between our read round and our prepare:
        # version validation at prepare must abort us (no lost update).
        cluster = make_cluster()
        cluster.populate({"hot": 0})
        results = []
        spec = TransactionSpec(
            read_keys=("hot",), write_keys=("hot",),
            compute_writes=lambda r: {"hot": (r["hot"] or 0) + 1})
        spec2 = TransactionSpec(
            read_keys=("hot",), write_keys=("hot",),
            compute_writes=lambda r: {"hot": (r["hot"] or 0) + 1})
        cluster.client("us-west").submit(spec, results.append)
        cluster.client("europe").submit(spec2, results.append)
        cluster.run(15_000)
        assert len(results) == 2
        final = submit_and_run(
            cluster, cluster.client("asia"),
            TransactionSpec(read_keys=("hot",), write_keys=()))
        committed = sum(1 for r in results if r.committed)
        assert final.reads["hot"] == committed  # no lost updates

    def test_no_lost_updates_under_contention(self):
        cluster = make_cluster(seed=3)
        results = []
        spec = lambda: TransactionSpec(
            read_keys=("ctr",), write_keys=("ctr",),
            compute_writes=lambda r: {"ctr": (r["ctr"] or 0) + 1})
        for i in range(20):
            client = cluster.clients[i % len(cluster.clients)]
            cluster.kernel.schedule(i * 120.0, client.submit, spec(),
                                    results.append)
        cluster.run(60_000)
        assert len(results) == 20
        committed = sum(1 for r in results if r.committed)
        final = submit_and_run(
            cluster, cluster.client("us-west"),
            TransactionSpec(read_keys=("ctr",), write_keys=()))
        assert (final.reads["ctr"] or 0) == committed


class TestCoordinatorDeposedMidDecision:
    """PR 12's open chaos finding (layered, seed 6, restart weight 4)."""

    def test_retry_reaches_a_terminal_reply_after_reelection(self):
        # The coordinator proposes its 2PC decision, loses leadership
        # before the entry commits (Raft drops the commit callback), and
        # wins the next election.  Its state then says "decided, not
        # replied"; the client's retry must get the decision proposed
        # again, not be ignored forever.
        cluster = make_cluster()
        cluster.populate({"alice": 100, "bob": 0})
        client = cluster.client("us-west")
        results = []
        tid = client.submit(transfer_spec(), results.append)
        coordinator = state = None
        deadline = cluster.kernel.now + 2000
        while state is None and cluster.kernel.now < deadline:
            cluster.run(1)
            for server in cluster.servers.values():
                candidate = server.coord_states.get(tid)
                if candidate is not None and candidate.decision:
                    coordinator, state = server, candidate
        assert state is not None and not state.replied
        member = coordinator.members[state.group_id]
        term = member.current_term

        coordinator.crash()      # deposed: leadership and callback gone
        coordinator.recover()
        member._start_election()  # ... and re-elected, in a later term
        cluster.run(1000)
        assert member.is_leader and member.current_term > term
        assert not results and not state.replied

        cluster.run(15_000)      # past the client's 10 s retry
        assert len(results) == 1 and results[0].committed
        assert client.committed == 1


class TestLayeredIsSlower:
    """The paper's motivating claim: layering 2PC on consensus costs more
    sequential WANRTs than Carousel's overlapped design (§1, §2.2)."""

    def test_carousel_beats_layered_on_remote_partition_txn(self):
        latencies = {}
        for name in ("layered", "carousel"):
            if name == "layered":
                cluster = make_cluster(seed=11)
            else:
                cluster = CarouselCluster(
                    DeploymentSpec(seed=11, jitter_fraction=0.0),
                    CarouselConfig(mode=BASIC))
                cluster.run(500)
            cluster.populate({"alice": 1, "bob": 2})
            result = submit_and_run(cluster, cluster.client("us-west"),
                                    transfer_spec())
            assert result.committed
            latencies[name] = result.latency_ms
        # Carousel Basic overlaps prepare with read+commit; the layered
        # baseline pays for them sequentially.
        assert latencies["carousel"] < latencies["layered"]
        assert latencies["layered"] > 1.3 * latencies["carousel"]
