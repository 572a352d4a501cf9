"""Unit and integration tests for the client-side directory cache."""

import pytest

from repro.bench.cluster import CarouselCluster, DeploymentSpec
from repro.core.backoff import RetryPolicy
from repro.core.config import BASIC, CarouselConfig
from repro.raft.node import RaftConfig
from repro.sim.failure import FailureInjector
from repro.store.directory import (
    DirectoryCache,
    DirectoryService,
    PartitionInfo,
)
from repro.txn import TransactionSpec


def make_authority():
    directory = DirectoryService()
    directory.register(PartitionInfo("p0", ["n0", "n1", "n2"],
                                     ["dc0", "dc1", "dc2"], "n0"))
    return directory


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestFollowersOrder:
    """Pins the followers() ordering contract (see PartitionInfo)."""

    def test_followers_preserve_group_order(self):
        info = PartitionInfo("p0", ["n2", "n0", "n1"],
                             ["dc0", "dc1", "dc2"], "n0")
        assert info.followers() == ["n2", "n1"]

    def test_leader_change_deletes_without_permuting(self):
        directory = DirectoryService()
        directory.register(PartitionInfo("p0", ["n0", "n1", "n2", "n3"],
                                         ["d0", "d1", "d2", "d3"], "n0"))
        assert directory.lookup("p0").followers() == ["n1", "n2", "n3"]
        directory.set_leader("p0", "n2")
        assert directory.lookup("p0").followers() == ["n0", "n1", "n3"]

    def test_followers_stable_across_lookups(self):
        directory = make_authority()
        assert (directory.lookup("p0").followers()
                == directory.lookup("p0").followers())


class TestDirectoryCache:
    def test_caches_within_ttl(self):
        authority = make_authority()
        clock = FakeClock()
        cache = DirectoryCache(authority, clock, ttl_ms=100.0)
        assert cache.lookup("p0").leader == "n0"
        authority.set_leader("p0", "n1")
        clock.now = 50.0
        assert cache.lookup("p0").leader == "n0"  # stale but within TTL
        assert cache.hits == 1
        assert cache.refreshes == 1

    def test_refreshes_after_ttl(self):
        authority = make_authority()
        clock = FakeClock()
        cache = DirectoryCache(authority, clock, ttl_ms=100.0)
        cache.lookup("p0")
        authority.set_leader("p0", "n1")
        clock.now = 101.0
        assert cache.lookup("p0").leader == "n1"
        assert cache.refreshes == 2

    def test_invalidate_single_entry(self):
        authority = make_authority()
        clock = FakeClock()
        cache = DirectoryCache(authority, clock, ttl_ms=1e9)
        cache.lookup("p0")
        authority.set_leader("p0", "n2")
        cache.invalidate("p0")
        assert cache.lookup("p0").leader == "n2"

    def test_invalidate_all(self):
        authority = make_authority()
        clock = FakeClock()
        cache = DirectoryCache(authority, clock, ttl_ms=1e9)
        cache.lookup("p0")
        authority.set_leader("p0", "n2")
        cache.invalidate()
        assert cache.lookup("p0").leader == "n2"

    def test_leaders_in_uses_cache(self):
        authority = make_authority()
        clock = FakeClock()
        cache = DirectoryCache(authority, clock, ttl_ms=1e9)
        assert cache.leaders_in("dc0") == ["p0"]
        authority.set_leader("p0", "n1")
        assert cache.leaders_in("dc0") == ["p0"]  # cached view

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            DirectoryCache(make_authority(), FakeClock(), ttl_ms=0)


class TestTtlEdges:
    """TTL boundary semantics: an entry is valid while
    ``now - cached_at <= ttl_ms``, so *exactly* at the deadline is still
    a hit and the first instant past it refreshes.  Pinned because both
    runtime backends (virtual and wall clock) share this cache and an
    off-by-one here would make lease expiry backend-dependent."""

    def test_expiry_exactly_at_deadline_is_a_hit(self):
        authority = make_authority()
        clock = FakeClock()
        cache = DirectoryCache(authority, clock, ttl_ms=100.0)
        cache.lookup("p0")
        authority.set_leader("p0", "n1")
        clock.now = 100.0  # age == ttl_ms: inclusive bound, still cached
        assert cache.lookup("p0").leader == "n0"
        assert (cache.hits, cache.refreshes) == (1, 1)
        clock.now = 100.0 + 1e-9  # first instant past the deadline
        assert cache.lookup("p0").leader == "n1"
        assert (cache.hits, cache.refreshes) == (1, 2)

    def test_refresh_after_invalidate_restarts_the_ttl_window(self):
        authority = make_authority()
        clock = FakeClock()
        cache = DirectoryCache(authority, clock, ttl_ms=100.0)
        cache.lookup("p0")
        clock.now = 90.0
        cache.invalidate("p0")
        authority.set_leader("p0", "n2")
        # The post-invalidate refresh re-stamps cached_at=90, so the
        # entry stays valid through 190 — not the original 100.
        assert cache.lookup("p0").leader == "n2"
        authority.set_leader("p0", "n1")
        clock.now = 190.0
        assert cache.lookup("p0").leader == "n2"
        assert cache.hits == 1
        clock.now = 190.0 + 1e-9
        assert cache.lookup("p0").leader == "n1"

    def test_ttl_under_virtual_time(self):
        """The cache driven by a DES kernel's clock: expiry advances
        with scheduled events, never with the wall clock."""
        from repro.sim.kernel import Kernel

        kernel = Kernel(seed=0)
        authority = make_authority()
        cache = DirectoryCache(authority, lambda: kernel.now,
                               ttl_ms=100.0)
        leaders = []

        def probe():
            leaders.append((kernel.now, cache.lookup("p0").leader))

        probe()
        authority.set_leader("p0", "n1")
        kernel.schedule(100.0, probe)  # exactly at the deadline: hit
        kernel.schedule(100.1, probe)  # past it: refresh
        kernel.run()
        assert leaders == [(0.0, "n0"), (100.0, "n0"), (100.1, "n1")]
        assert (cache.hits, cache.refreshes) == (1, 2)


class TestClientWithCache:
    def make_cluster(self):
        config = CarouselConfig(
            mode=BASIC, directory_cache_ttl_ms=60_000.0,
            retry_policy=RetryPolicy(base_ms=800.0),
            raft=RaftConfig(election_timeout_min_ms=400.0,
                            election_timeout_max_ms=800.0,
                            heartbeat_interval_ms=100.0))
        cluster = CarouselCluster(
            DeploymentSpec(seed=15, jitter_fraction=0.0), config)
        cluster.run(500)
        return cluster

    def test_normal_transactions_work_with_cache(self):
        cluster = self.make_cluster()
        client = cluster.client("us-west")
        assert isinstance(client.directory, DirectoryCache)
        results = []
        client.submit(TransactionSpec(
            read_keys=("c1",), write_keys=("c1",),
            compute_writes=lambda r: {"c1": 1}), results.append)
        cluster.run(3000)
        assert results and results[0].committed

    def test_stale_cache_recovers_via_retry_invalidation(self):
        cluster = self.make_cluster()
        client = cluster.client("us-west")
        # Warm the cache for every partition.
        for pid in cluster.partition_ids:
            client.directory.lookup(pid)
        # Crash a remote partition leader; the cache still points at it.
        key = None
        for i in range(2000):
            candidate = f"st{i}"
            pid = cluster.ring.partition_for(candidate)
            if cluster.directory.lookup(pid).leader_datacenter() != \
                    "us-west":
                key = candidate
                break
        victim = cluster.directory.lookup(pid).leader
        FailureInjector(cluster.kernel, cluster.network).crash_now(victim)
        cluster.run(3000)  # new leader elected; cache still stale
        results = []
        client.submit(TransactionSpec(
            read_keys=(key,), write_keys=(key,),
            compute_writes=lambda r, k=key: {k: 1}), results.append)
        cluster.run(15_000)
        # The first attempt stalls against the dead leader; the retry
        # invalidates the cache, finds the new leader, and commits.
        assert results and results[0].committed
