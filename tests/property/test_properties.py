"""Property-based tests (hypothesis) on core data structures and
invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occ import PendingList, PendingTxn, freeze_versions
from repro.core.recovery import (
    conflicts_between,
    filter_candidates,
    find_fast_path_candidates,
    majority_of,
)
from repro.raft.log import LogEntry, RaftLog
from repro.sim.message import wire_size
from repro.sim.stats import percentile
from repro.store.kvstore import VersionedKVStore
from repro.store.partitioning import ConsistentHashRing
from repro.txn import TID
from repro.workloads.zipf import ZipfianGenerator

keys_st = st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3),
                   max_size=5)


class TestPercentileProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1),
           st.floats(min_value=0, max_value=100))
    def test_bounded_by_extremes(self, values, p):
        result = percentile(values, p)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1))
    def test_monotone_in_p(self, values):
        ps = [0, 25, 50, 75, 100]
        results = [percentile(values, p) for p in ps]
        assert results == sorted(results)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1))
    def test_permutation_invariant(self, values):
        shuffled = list(values)
        random.Random(0).shuffle(shuffled)
        assert percentile(values, 50) == percentile(shuffled, 50)


class TestWireSizeProperties:
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(
            allow_nan=False), st.text(max_size=20), st.binary(max_size=20)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=4), children, max_size=4)),
        max_leaves=20))
    def test_positive_and_total(self, value):
        assert wire_size(value) >= 1 or value == b"" or value == "" \
            or isinstance(value, (list, dict))
        assert wire_size(value) >= 0

    @given(st.lists(st.integers(), max_size=10))
    def test_container_at_least_sum_of_parts(self, items):
        assert wire_size(items) >= sum(wire_size(i) for i in items)


class TestKVStoreProperties:
    @given(st.lists(st.tuples(st.sampled_from("abc"),
                              st.integers(min_value=1, max_value=100)),
                    max_size=30))
    def test_versions_never_decrease(self, writes):
        store = VersionedKVStore()
        highest = {}
        for key, version in writes:
            applied = store.write_if_newer(key, f"v{version}", version)
            expected = version > highest.get(key, 0)
            assert applied == expected
            if applied:
                highest[key] = version
        for key, version in highest.items():
            assert store.version(key) == version


class TestRingProperties:
    @given(st.lists(st.text(alphabet="xyz", min_size=1, max_size=8),
                    min_size=1, max_size=50))
    def test_every_key_owned_by_registered_partition(self, keys):
        ring = ConsistentHashRing(["p0", "p1", "p2"], vnodes=16)
        for key in keys:
            assert ring.partition_for(key) in ("p0", "p1", "p2")

    @given(st.lists(st.text(alphabet="xyz", min_size=1, max_size=8),
                    max_size=50))
    def test_grouping_partitions_the_keys(self, keys):
        ring = ConsistentHashRing(["p0", "p1"], vnodes=16)
        groups = ring.group_by_partition(keys)
        flattened = [k for group in groups.values() for k in group]
        assert sorted(flattened) == sorted(keys)


class TestPendingListProperties:
    @given(keys_st, keys_st, keys_st, keys_st)
    def test_conflict_iff_key_overlap(self, r1, w1, r2, w2):
        plist = PendingList()
        entry = PendingTxn(TID("c", 1), frozenset(r1), frozenset(w1),
                           (), 1, "coord")
        plist.add(entry)
        expected = bool(set(w2) & set(w1) or set(w2) & set(r1)
                        or set(r2) & set(w1))
        assert plist.conflicts(TID("c", 2), r2, w2) == expected

    @given(keys_st, keys_st)
    def test_conflict_symmetry(self, keys_a, keys_b):
        """If A (as pending) conflicts with B, then B (as pending)
        conflicts with A — with pure write sets."""
        plist_a = PendingList()
        plist_a.add(PendingTxn(TID("c", 1), frozenset(), frozenset(keys_a),
                               (), 1, "coord"))
        plist_b = PendingList()
        plist_b.add(PendingTxn(TID("c", 2), frozenset(), frozenset(keys_b),
                               (), 1, "coord"))
        assert plist_a.conflicts(TID("c", 2), [], keys_b) == \
            plist_b.conflicts(TID("c", 1), [], keys_a)

    #: ("add", seq, reads, writes) inserts or replaces; ("remove", seq).
    _op_st = st.one_of(
        st.tuples(st.just("add"), st.integers(1, 4), keys_st, keys_st),
        st.tuples(st.just("remove"), st.integers(1, 4)))

    @given(st.lists(_op_st, max_size=12), st.integers(1, 5), keys_st,
           keys_st)
    def test_index_matches_brute_force_after_any_sequence(
            self, ops, probe_seq, reads, writes):
        """The key index is the only OCC conflict check all four systems
        run: after any add/replace/remove sequence it must answer exactly
        what a scan of ``entries()`` answers, and hold nothing for an
        empty list."""
        plist = PendingList()
        for op in ops:
            if op[0] == "add":
                plist.add(PendingTxn(TID("c", op[1]), frozenset(op[2]),
                                     frozenset(op[3]), (), 1, "coord"))
            else:
                plist.remove(TID("c", op[1]))
        probe = TID("c", probe_seq)
        expected = any(
            set(writes) & (e.write_keys | e.read_keys)
            or set(reads) & e.write_keys
            for e in plist.entries() if e.tid != probe)
        assert plist.conflicts(probe, reads, writes) == expected
        assert plist.blocks_read_only(reads) == any(
            set(reads) & e.write_keys for e in plist.entries())
        for tid in [e.tid for e in plist.entries()]:
            plist.remove(tid)
        assert len(plist) == 0
        assert not plist._readers and not plist._writers


class TestRaftLogProperties:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                    max_size=20))
    def test_splice_idempotent(self, terms):
        log = RaftLog()
        entries = [LogEntry(term, i + 1, f"c{i}")
                   for i, term in enumerate(sorted(terms))]
        log.splice(0, entries)
        before = log.all_entries()
        log.splice(0, entries)
        assert log.all_entries() == before

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                    max_size=20),
           st.integers(min_value=0, max_value=19))
    def test_splice_suffix_preserves_prefix(self, terms, cut):
        log = RaftLog()
        entries = [LogEntry(term, i + 1, f"c{i}")
                   for i, term in enumerate(sorted(terms))]
        log.splice(0, entries)
        cut = min(cut, len(entries))
        suffix = entries[cut:]
        log.splice(cut, suffix)
        assert log.all_entries() == entries


class TestRecoveryProperties:
    @st.composite
    def pending_entry(draw, seq=None):
        seq = seq if seq is not None else draw(
            st.integers(min_value=1, max_value=5))
        reads = draw(keys_st)
        writes = draw(keys_st)
        term = draw(st.integers(min_value=1, max_value=3))
        versions = freeze_versions({k: draw(
            st.integers(min_value=0, max_value=2)) for k in reads})
        return PendingTxn(TID("c", seq), frozenset(reads),
                          frozenset(writes), versions, term, "coord",
                          provisional=True)

    @given(st.lists(pending_entry(), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=50)
    def test_candidates_supported_by_majority(self, entries, n_lists):
        lists = []
        rng = random.Random(0)
        for i in range(n_lists):
            subset = tuple(e for e in entries if rng.random() < 0.7)
            lists.append((f"voter{i}", subset))
        candidates = find_fast_path_candidates(lists)
        need = majority_of(n_lists)
        for candidate in candidates:
            support = sum(
                1 for __, lst in lists
                if any(e.tid == candidate.tid
                       and e.read_versions == candidate.read_versions
                       and e.term == candidate.term for e in lst))
            assert support >= need

    @given(st.lists(pending_entry(), max_size=6))
    @settings(max_examples=50)
    def test_accepted_candidates_mutually_conflict_free(self, entries):
        accepted = filter_candidates(
            entries, slow_path_prepared=[],
            current_versions=lambda keys: {k: 0 for k in keys})
        for i, a in enumerate(accepted):
            for b in accepted[i + 1:]:
                assert not conflicts_between(a, b)

    @given(st.lists(pending_entry(), max_size=6))
    @settings(max_examples=50)
    def test_stale_candidates_rejected(self, entries):
        # Every store version is 10: entries prepared at versions <= 2 are
        # all stale unless they read nothing.
        accepted = filter_candidates(
            entries, slow_path_prepared=[],
            current_versions=lambda keys: {k: 10 for k in keys})
        for entry in accepted:
            assert not entry.read_versions


class TestZipfProperties:
    @given(st.integers(min_value=1, max_value=1000),
           st.floats(min_value=0.1, max_value=0.99),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_always_in_range(self, n, theta, seed):
        gen = ZipfianGenerator(n, theta, rng=random.Random(seed))
        for __ in range(50):
            assert 0 <= gen.next() < n
