"""Figure 3: the Carousel Prepare Consensus (CPC) protocol.

(a) without conflicts, every replica's fast vote reaches the coordinator
and the partition decision is taken on the fast path in one WANRT;
(b) with a conflicting concurrent transaction, fast votes disagree and the
coordinator falls back to the slow path's replicated prepare result —
which was running in parallel all along.
"""

from repro.core.config import FAST
from repro.scenario import run
from repro.trace.scenarios import figure_sends, render_figure, \
    traced_scenario


def _fig3(shape):
    return run(traced_scenario("carousel-fast", shape))


def test_fig3a_fast_path_no_conflicts(benchmark):
    result = benchmark.pedantic(lambda: _fig3("fig2"), rounds=1,
                                iterations=1)
    print()
    print(render_figure(result, "Figure 3(a): CPC without conflicts"))
    types = [m.msg_type for m in figure_sends(result)]

    # Prepare requests go to every replica of both partitions (2 x 3).
    assert types.count("ReadPrepareRequest") == 6
    # Every replica votes directly to the coordinator (§4.2 step 2).
    assert types.count("FastVote") == 6
    # The slow path still runs in parallel: leaders report after
    # replication, and the coordinator simply drops those responses
    # (§4.2 step 5).
    assert types.count("PrepareResult") == 2


def test_fig3a_fast_path_decides_partitions(benchmark):
    def run():
        from repro.bench.cluster import CarouselCluster, DeploymentSpec
        from repro.core.config import CarouselConfig
        from repro.txn import TransactionSpec

        cluster = CarouselCluster(
            DeploymentSpec(seed=11, jitter_fraction=0.0),
            CarouselConfig(mode=FAST))
        cluster.run(500)
        # Pick a key whose partition leader is remote but which has a
        # replica in the client's datacenter: the scenario where CPC's
        # fast path beats the slow path (§4.2, §6.3).
        key = None
        for i in range(2000):
            candidate = f"cpc{i}"
            pid = cluster.ring.partition_for(candidate)
            info = cluster.directory.lookup(pid)
            if info.leader_datacenter() != "us-west" and \
                    info.replica_in("us-west"):
                key = candidate
                break
        assert key is not None
        results = []
        cluster.client("us-west").submit(TransactionSpec(
            read_keys=(key,), write_keys=(key,),
            compute_writes=lambda r, k=key: {k: 1}), results.append)
        cluster.run(3_000)
        fast = sum(s.coordinator.fast_path_decisions
                   for s in cluster.servers.values())
        return results, fast

    results, fast_decisions = benchmark.pedantic(run, rounds=1,
                                                 iterations=1)
    assert results and results[0].committed
    assert fast_decisions >= 1, "no fast-path decision was taken"


def test_fig3b_conflicts_fall_back_to_slow_path(benchmark):
    result = benchmark.pedantic(lambda: _fig3("rival"), rounds=1,
                                iterations=1)
    print()
    print(render_figure(result, "Figure 3(b): CPC with conflicts"))
    types = [m.msg_type for m in figure_sends(result)]
    # Both transactions spray fast votes; with conflicting prepares the
    # votes disagree across replicas, so slow-path prepare results are
    # what decides (§4.2).  Structurally: fast votes present, and at least
    # as many slow-path results as partitions involved.
    assert types.count("FastVote") >= 6
    assert types.count("PrepareResult") >= 2
