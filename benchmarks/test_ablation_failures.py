"""Failure ablation (§4.3): service continues across a leader crash.

No figure in the paper corresponds to this (their prototype omits fault
tolerance); DESIGN.md lists it as experiment E11.  A Retwis-like increment
stream runs while one partition leader is crashed mid-run; the system must
keep committing (with a dip during the election), lose no committed
updates, and elect a leader that serves the partition afterwards.
"""

from repro.bench.cluster import CarouselCluster, DeploymentSpec
from repro.bench.report import format_table
from repro.core.backoff import RetryPolicy
from repro.core.config import FAST, CarouselConfig
from repro.raft.node import RaftConfig
from repro.sim.failure import FailureInjector
from repro.txn import TransactionSpec


def run_crash_experiment():
    config = CarouselConfig(
        mode=FAST, retry_policy=RetryPolicy(base_ms=1_000.0),
        raft=RaftConfig(election_timeout_min_ms=400.0,
                        election_timeout_max_ms=800.0,
                        heartbeat_interval_ms=100.0))
    cluster = CarouselCluster(
        DeploymentSpec(seed=31, clients_per_dc=4), config)
    cluster.run(500)

    keys = [f"ablate{i}" for i in range(10)]
    victim_pid = cluster.ring.partition_for(keys[0])
    victim = cluster.directory.lookup(victim_pid).leader

    results = []

    def increment(key):
        return TransactionSpec(
            read_keys=(key,), write_keys=(key,),
            compute_writes=lambda r, k=key: {k: (r[k] or 0) + 1},
            txn_type="increment")

    crash_at = 5_000.0
    total = 60
    for i in range(total):
        client = cluster.clients[i % len(cluster.clients)]
        at = i * 300.0
        cluster.kernel.schedule(at, client.submit,
                                increment(keys[i % len(keys)]),
                                results.append)
    injector = FailureInjector(cluster.kernel, cluster.network)
    injector.crash_at(victim, crash_at)
    cluster.run(total * 300.0 + 40_000.0)

    committed_per_key = {k: 0 for k in keys}
    for result in results:
        if result.committed:
            committed_per_key[list(result.reads)[0]] += 1
    stored_per_key = {}
    for key in keys:
        pid = cluster.ring.partition_for(key)
        leader = cluster.directory.lookup(pid).leader
        stored_per_key[key] = (cluster.servers[leader].partitions[pid]
                               .store.read(key).value or 0)
    return {
        "results": results,
        "victim": victim,
        "victim_pid": victim_pid,
        "new_leader": cluster.directory.lookup(victim_pid).leader,
        "committed_per_key": committed_per_key,
        "stored_per_key": stored_per_key,
    }


def test_leader_crash_ablation(benchmark):
    data = benchmark.pedantic(run_crash_experiment, rounds=1, iterations=1)

    results = data["results"]
    committed = sum(1 for r in results if r.committed)
    print(f"\nE11: leader crash mid-run "
          f"({data['victim']} on {data['victim_pid']})")
    rows = [[k, str(data['committed_per_key'][k]),
             str(data['stored_per_key'][k])]
            for k in sorted(data["committed_per_key"])]
    print(format_table(["key", "committed increments", "stored value"],
                       rows))
    print(f"completed {len(results)}/60, committed {committed}, "
          f"new leader: {data['new_leader']}")

    # Liveness: every submitted transaction completes (commit or abort),
    # and most commit despite the crash.
    assert len(results) == 60
    assert committed > 40

    # A new leader took over the crashed partition.
    assert data["new_leader"] != data["victim"]

    # Safety: no committed update lost, none applied twice.
    for key, count in data["committed_per_key"].items():
        assert data["stored_per_key"][key] == count, key
