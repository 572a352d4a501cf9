#!/usr/bin/env python
"""Leader failover under load: the paper's §4.3 machinery, live.

Runs a stream of increments against one partition, crashes that
partition's leader mid-run, and shows that (a) a new leader takes over,
(b) every committed increment survives — the CPC failure-handling protocol
ensures decisions exposed to coordinators are preserved — and (c) the
counter equals the number of commits.  Run with::

    python examples/failover_demo.py
"""

from repro.bench.cluster import CarouselCluster, DeploymentSpec
from repro.core.backoff import RetryPolicy
from repro.core.config import FAST, CarouselConfig
from repro.raft.node import RaftConfig
from repro.sim.failure import FailureInjector
from repro.txn import TransactionSpec


def main() -> None:
    config = CarouselConfig(
        mode=FAST,
        retry_policy=RetryPolicy(base_ms=1_000.0),
        raft=RaftConfig(election_timeout_min_ms=400.0,
                        election_timeout_max_ms=800.0,
                        heartbeat_interval_ms=100.0))
    cluster = CarouselCluster(
        DeploymentSpec(seed=5, clients_per_dc=2), config)
    cluster.run(500)

    key = "failover:counter"
    pid = cluster.ring.partition_for(key)
    info = cluster.directory.lookup(pid)
    print(f"key {key!r} lives on partition {pid} "
          f"(leader {info.leader} in {info.leader_datacenter()})")

    results = []

    def increment(reads):
        return {key: (reads[key] or 0) + 1}

    spec = lambda: TransactionSpec(read_keys=(key,), write_keys=(key,),
                                   compute_writes=increment,
                                   txn_type="increment")

    # 30 increments, one every 400 ms, from rotating datacenters.
    for i in range(30):
        client = cluster.clients[i % len(cluster.clients)]
        cluster.kernel.schedule(i * 400.0, client.submit, spec(),
                                results.append)

    # Crash the partition leader 5 seconds in — mid-stream.
    injector = FailureInjector(cluster.kernel, cluster.network)
    injector.crash_at(info.leader, cluster.kernel.now + 5_000.0)

    cluster.run(30 * 400.0 + 30_000.0)

    committed = sum(1 for r in results if r.committed)
    aborted = len(results) - committed
    new_info = cluster.directory.lookup(pid)
    print(f"leader crash at t=5.5s; new leader: {new_info.leader} "
          f"in {new_info.leader_datacenter()}")
    print(f"increments: {committed} committed, {aborted} aborted, "
          f"{len(results)}/30 completed")

    stored = cluster.servers[new_info.leader].partitions[pid] \
        .store.read(key).value or 0
    print(f"stored counter: {stored}")
    assert stored == committed, "lost or duplicated an update!"
    print("no committed update was lost or applied twice across failover.")


if __name__ == "__main__":
    main()
