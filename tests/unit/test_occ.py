"""Unit tests for the pending-transaction list (OCC layer)."""

import pytest

from repro.core.backoff import RetryPolicy
from repro.core.occ import (
    ABORT,
    PREPARED,
    PendingList,
    PendingTxn,
    freeze_versions,
)
from repro.txn import TID


def entry(seq, reads=(), writes=(), versions=None, term=1,
          provisional=False, client="c"):
    versions = versions or {k: 0 for k in reads}
    return PendingTxn(
        tid=TID(client, seq),
        read_keys=frozenset(reads), write_keys=frozenset(writes),
        read_versions=freeze_versions(versions), term=term,
        coordinator_id="coord", provisional=provisional)


class TestFreezeVersions:
    def test_sorted_and_hashable(self):
        frozen = freeze_versions({"b": 2, "a": 1})
        assert frozen == (("a", 1), ("b", 2))
        hash(frozen)

    def test_roundtrip(self):
        e = entry(1, reads=("x", "y"), versions={"x": 3, "y": 4})
        assert e.versions_dict() == {"x": 3, "y": 4}


class TestPendingList:
    def test_add_get_remove(self):
        plist = PendingList()
        e = entry(1, reads=("a",), writes=("b",))
        plist.add(e)
        assert e.tid in plist
        assert plist.get(e.tid) is e
        assert len(plist) == 1
        plist.remove(e.tid)
        assert e.tid not in plist
        plist.remove(e.tid)  # idempotent

    def test_confirm_clears_provisional(self):
        plist = PendingList()
        e = entry(1, reads=("a",), provisional=True)
        plist.add(e)
        plist.confirm(e.tid)
        assert not plist.get(e.tid).provisional

    def test_confirm_unknown_is_noop(self):
        PendingList().confirm(TID("c", 99))

    def test_remove_cleans_key_indexes(self):
        # Was test_tapir_replica's white-box test of _drop_prepared; the
        # TAPIR replica's prepared set is this list now.
        plist = PendingList()
        plist.add(entry(1, reads=("a",), writes=("b",)))
        plist.add(entry(2, reads=("a",)))
        plist.remove(TID("c", 1))
        assert plist._readers == {"a": {TID("c", 2)}}
        assert not plist._writers
        plist.remove(TID("c", 2))
        assert not plist._readers

    def test_replace_reindexes(self):
        plist = PendingList()
        plist.add(entry(1, reads=("a",), writes=("b",)))
        plist.add(entry(1, reads=("x",)))
        assert plist._readers == {"x": {TID("c", 1)}}
        assert not plist._writers
        assert len(plist) == 1

    def test_scan_cost_is_proportional_to_length(self):
        from repro.core.occ import PENDING_SCAN_COST_MS
        plist = PendingList()
        assert plist.scan_cost_ms() == 0.0
        for seq in range(3):
            plist.add(entry(seq, reads=(f"k{seq}",)))
        assert plist.scan_cost_ms() == 3 * PENDING_SCAN_COST_MS

    def test_snapshot_sorted_and_immutable(self):
        plist = PendingList()
        e2 = entry(2, reads=("b",))
        e1 = entry(1, reads=("a",))
        plist.add(e2)
        plist.add(e1)
        snap = plist.snapshot()
        assert [e.tid.seq for e in snap] == [1, 2]
        plist.remove(e1.tid)
        assert len(snap) == 2  # snapshot unaffected


class TestConflicts:
    def test_no_conflict_when_empty(self):
        plist = PendingList()
        assert not plist.conflicts(TID("c", 1), ["a"], ["b"])

    def test_write_write_conflict(self):
        plist = PendingList()
        plist.add(entry(1, writes=("k",)))
        assert plist.conflicts(TID("c", 2), [], ["k"])

    def test_read_write_conflict_new_reads_pending_writes(self):
        plist = PendingList()
        plist.add(entry(1, writes=("k",)))
        assert plist.conflicts(TID("c", 2), ["k"], [])

    def test_write_read_conflict_new_writes_pending_reads(self):
        plist = PendingList()
        plist.add(entry(1, reads=("k",)))
        assert plist.conflicts(TID("c", 2), [], ["k"])

    def test_read_read_is_not_a_conflict(self):
        plist = PendingList()
        plist.add(entry(1, reads=("k",)))
        assert not plist.conflicts(TID("c", 2), ["k"], [])

    def test_disjoint_keys_no_conflict(self):
        plist = PendingList()
        plist.add(entry(1, reads=("a",), writes=("b",)))
        assert not plist.conflicts(TID("c", 2), ["x"], ["y"])

    def test_own_retransmission_never_conflicts(self):
        plist = PendingList()
        tid = TID("c", 1)
        plist.add(PendingTxn(tid, frozenset(["a"]), frozenset(["b"]),
                             (), 1, "coord"))
        assert not plist.conflicts(tid, ["a"], ["b"])

    def test_blocks_read_only(self):
        plist = PendingList()
        plist.add(entry(1, writes=("hot",)))
        assert plist.blocks_read_only(["hot", "cold"])
        assert not plist.blocks_read_only(["cold"])
        # Pending reads do not block read-only transactions.
        plist2 = PendingList()
        plist2.add(entry(2, reads=("hot",)))
        assert not plist2.blocks_read_only(["hot"])


class TestSupermajority:
    def test_values(self):
        from repro.core.coordinator import supermajority
        # 2f+1 members -> ceil(3f/2)+1.
        assert supermajority(1) == 1
        assert supermajority(3) == 3   # f=1
        assert supermajority(5) == 4   # f=2
        assert supermajority(7) == 6   # f=3
        assert supermajority(9) == 7   # f=4

    def test_tapir_quorums(self):
        from repro.tapir.client import fast_quorum, slow_quorum
        assert fast_quorum(3) == 3
        assert slow_quorum(3) == 2
        assert fast_quorum(5) == 4
        assert slow_quorum(5) == 3


class TestConfigs:
    def test_carousel_config_validation(self):
        from repro.core.config import BASIC, FAST, CarouselConfig
        assert CarouselConfig().mode == BASIC
        assert CarouselConfig(mode=FAST).fast_path_enabled
        assert not CarouselConfig(mode=BASIC).local_reads_enabled
        with pytest.raises(ValueError):
            CarouselConfig(mode="turbo")
        with pytest.raises(ValueError):
            CarouselConfig(heartbeat_interval_ms=0)
        with pytest.raises(ValueError):
            CarouselConfig(heartbeat_misses=0)
        with pytest.raises(ValueError):
            CarouselConfig(retry_policy=RetryPolicy(base_ms=0))

    def test_tapir_config_validation(self):
        from repro.tapir.config import TapirConfig
        with pytest.raises(ValueError):
            TapirConfig(fast_path_timeout_ms=0)
        with pytest.raises(ValueError):
            TapirConfig(retry_policy=RetryPolicy(base_ms=0))
