"""Unit tests for the storage substrate."""

import dataclasses

import pytest

from repro.store.directory import DirectoryService, PartitionInfo
from repro.store.kvstore import Record, VersionedKVStore
from repro.store.partitioning import ConsistentHashRing


class TestVersionedKVStore:
    def test_missing_key_reads_none_version_zero(self):
        store = VersionedKVStore()
        assert store.read("nope") == Record(None, 0)
        assert store.version("nope") == 0

    def test_write_then_read(self):
        store = VersionedKVStore()
        store.write("k", "v", 1)
        assert store.read("k") == Record("v", 1)
        assert "k" in store and len(store) == 1

    def test_versions_must_increase(self):
        store = VersionedKVStore()
        store.write("k", "v1", 3)
        with pytest.raises(ValueError, match="non-monotonic"):
            store.write("k", "v2", 3)
        with pytest.raises(ValueError, match="non-monotonic"):
            store.write("k", "v2", 2)

    def test_version_zero_write_rejected(self):
        with pytest.raises(ValueError):
            VersionedKVStore().write("k", "v", 0)

    def test_write_if_newer(self):
        store = VersionedKVStore()
        assert store.write_if_newer("k", "a", 2)
        assert not store.write_if_newer("k", "b", 2)
        assert not store.write_if_newer("k", "b", 1)
        assert store.read("k") == Record("a", 2)
        assert store.write_if_newer("k", "c", 5)
        assert store.read("k").version == 5

    def test_writes_applied_counter(self):
        store = VersionedKVStore()
        store.write("a", 1, 1)
        store.write_if_newer("a", 2, 2)
        store.write_if_newer("a", 0, 1)  # rejected, not counted
        assert store.writes_applied == 2

    def test_snapshot_is_detached(self):
        store = VersionedKVStore()
        store.write("k", "v", 1)
        snap = store.snapshot()
        store.write("k", "v2", 2)
        assert snap["k"] == Record("v", 1)


class TestConsistentHashRing:
    def test_deterministic_placement(self):
        ring1 = ConsistentHashRing(["p0", "p1", "p2"])
        ring2 = ConsistentHashRing(["p0", "p1", "p2"])
        keys = [f"key{i}" for i in range(100)]
        assert [ring1.partition_for(k) for k in keys] == \
            [ring2.partition_for(k) for k in keys]

    def test_all_partitions_receive_keys(self):
        ring = ConsistentHashRing([f"p{i}" for i in range(5)])
        seen = {ring.partition_for(f"user:{i}") for i in range(2000)}
        assert seen == {f"p{i}" for i in range(5)}

    def test_balance_within_reason(self):
        ring = ConsistentHashRing([f"p{i}" for i in range(5)], vnodes=128)
        counts = {}
        n = 20000
        for i in range(n):
            pid = ring.partition_for(f"key:{i}")
            counts[pid] = counts.get(pid, 0) + 1
        expected = n / 5
        for pid, count in counts.items():
            assert 0.5 * expected < count < 1.5 * expected, (pid, count)

    def test_adding_partition_moves_few_keys(self):
        before = ConsistentHashRing([f"p{i}" for i in range(5)])
        after = ConsistentHashRing([f"p{i}" for i in range(6)])
        keys = [f"key:{i}" for i in range(5000)]
        moved = sum(
            1 for k in keys
            if before.partition_for(k) != after.partition_for(k))
        # Consistent hashing: ~1/6 of keys move, far fewer than rehash-all.
        assert moved < len(keys) * 0.35

    def test_group_by_partition_preserves_keys(self):
        ring = ConsistentHashRing(["p0", "p1"])
        keys = [f"k{i}" for i in range(20)]
        groups = ring.group_by_partition(keys)
        regrouped = [k for group in groups.values() for k in group]
        assert sorted(regrouped) == sorted(keys)
        for pid, group in groups.items():
            assert all(ring.partition_for(k) == pid for k in group)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], vnodes=0)

    def test_partitions_property_is_copy(self):
        ring = ConsistentHashRing(["p0", "p1"])
        ring.partitions.append("p2")
        assert ring.partitions == ["p0", "p1"]


class TestPartitionInfo:
    def make(self):
        return PartitionInfo("p0", ["n0", "n1", "n2"],
                             ["dc0", "dc1", "dc2"], "n0")

    def test_fault_tolerance(self):
        assert self.make().fault_tolerance == 1
        five = PartitionInfo("p", list("abcde"),
                             ["d"] * 5, "a")
        assert five.fault_tolerance == 2

    def test_leader_datacenter(self):
        assert self.make().leader_datacenter() == "dc0"

    def test_replica_in(self):
        info = self.make()
        assert info.replica_in("dc1") == "n1"
        assert info.replica_in("elsewhere") is None

    def test_followers(self):
        assert self.make().followers() == ["n1", "n2"]

    def test_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            PartitionInfo("p", ["a"], [], "a")
        with pytest.raises(ValueError, match="not a replica"):
            PartitionInfo("p", ["a"], ["d"], "b")
        with pytest.raises(ValueError, match="duplicate"):
            PartitionInfo("p", ["a", "a"], ["d", "d"], "a")


class TestDirectoryService:
    def test_register_and_lookup(self):
        directory = DirectoryService()
        info = PartitionInfo("p0", ["n0", "n1"], ["dc0", "dc1"], "n0")
        directory.register(info)
        assert directory.lookup("p0").leader == "n0"
        assert directory.partitions() == ["p0"]

    def test_duplicate_registration_rejected(self):
        directory = DirectoryService()
        info = PartitionInfo("p0", ["n0"], ["dc0"], "n0")
        directory.register(info)
        with pytest.raises(ValueError):
            directory.register(info)

    def test_lookup_is_immutable(self):
        directory = DirectoryService()
        directory.register(PartitionInfo("p0", ["n0", "n1"],
                                         ["dc0", "dc1"], "n0"))
        cached = directory.lookup("p0")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cached.leader = "n1"
        assert cached.replicas == ("n0", "n1")
        # A leader change replaces the info; a cached one keeps its view.
        directory.set_leader("p0", "n1")
        assert (cached.leader, directory.lookup("p0").leader) == ("n0", "n1")

    def test_set_leader(self):
        directory = DirectoryService()
        directory.register(PartitionInfo("p0", ["n0", "n1"],
                                         ["dc0", "dc1"], "n0"))
        directory.set_leader("p0", "n1")
        assert directory.lookup("p0").leader == "n1"
        with pytest.raises(ValueError):
            directory.set_leader("p0", "outsider")

    def test_leaders_in(self):
        directory = DirectoryService()
        directory.register(PartitionInfo("p0", ["a0", "a1"],
                                         ["dc0", "dc1"], "a0"))
        directory.register(PartitionInfo("p1", ["b0", "b1"],
                                         ["dc1", "dc0"], "b0"))
        assert directory.leaders_in("dc0") == ["p0"]
        assert directory.leaders_in("dc1") == ["p1"]
        assert directory.leaders_in("dc9") == []
