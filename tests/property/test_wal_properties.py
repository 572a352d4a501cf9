"""Property-based tests (hypothesis) for the simulated-durable WAL.

Three invariants the recovery machinery leans on:

* **Prefix truncation** — whatever a crash leaves behind is a prefix of
  the append history (torn tails included): replay can never reorder or
  skip-and-resume.
* **Durability line** — a record fsynced with ``durable_at <= crash
  time`` always survives; a record never fsynced never survives, torn
  tail or not (an un-fsynced decision cannot be resurrected).
* **Fault-free equivalence** — with every append synced and zero sync
  latency, a crash loses nothing: the restarted image is byte-identical
  to the never-crashed log.  This is the WAL-side half of the harness
  guarantee that enabling the WAL at defaults does not perturb a run.

And one for folding: replaying a folded image and then running the
host's transaction GC rebuilds exactly what replaying the unfolded image
and running the same GC rebuilds, at every crash point, torn tails and
in-flight syncs included, with the same records lost.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raft.log import LogEntry, RaftLog
from repro.txn import TID, ClientMarks
from repro.wal.log import WriteAheadLog
from repro.wal.records import (CoordDecisionWal, CoordFinishWal,
                               OccPrepareWal, RaftAppendRecord,
                               RaftTermRecord, forget_decisions,
                               restore_decisions)

# One op per step: append (synced or not), a bare fsync, or letting the
# virtual clock advance.  Crash points are chosen separately.
_ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.booleans()),
        st.tuples(st.just("fsync"), st.none()),
        st.tuples(st.just("tick"), st.floats(min_value=0.5, max_value=20.0)),
    ),
    min_size=1, max_size=40,
)


def _run_ops(ops, sync_latency_ms, torn_tail, owner="prop-node"):
    """Drive a WAL through ``ops``; returns (wal, clock, history) where
    ``history`` is [(record, synced_explicitly)] in append order and
    ``clock["stamps"]`` each record's durability stamp (None: never
    synced)."""
    clock = {"now": 0.0, "stamps": []}
    wal = WriteAheadLog(owner, clock=lambda: clock["now"],
                        sync_latency_ms=sync_latency_ms,
                        torn_tail=torn_tail)
    history = []
    stamps = clock["stamps"]
    serial = 0

    def fsync():
        # fsync stamps the whole unsynced tail, not just the last record.
        for i in range(len(stamps) - 1, -1, -1):
            if stamps[i] is not None:
                break
            stamps[i] = clock["now"] + sync_latency_ms
        return [(rec, True) for rec, __ in history]

    for op, arg in ops:
        if op == "append":
            record = CoordFinishWal(tid=f"t{serial}")
            serial += 1
            wal.append(record, sync=arg)
            history.append((record, arg))
            stamps.append(None)
            if arg:
                history = fsync()
        elif op == "fsync":
            wal.fsync()
            history = fsync()
        else:
            clock["now"] += arg
    return wal, clock, history


class TestCrashTruncation:
    @given(ops=_ops_st, latency=st.floats(min_value=0.0, max_value=15.0),
           torn=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_survivors_are_a_prefix(self, ops, latency, torn):
        wal, clock, history = _run_ops(ops, latency, torn)
        full = [record for record, __ in history]
        wal.crash()
        survivors = wal.replay()
        assert survivors == full[:len(survivors)]

    @given(ops=_ops_st, latency=st.floats(min_value=0.0, max_value=15.0),
           torn=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_durability_line(self, ops, latency, torn):
        wal, clock, history = _run_ops(ops, latency, torn)
        now = clock["now"]
        # Fsynced records are durable once their (sync time + latency)
        # stamp is in the past.
        durable = [stamp is not None and stamp <= now
                   for stamp in clock["stamps"]]
        synced = [flag for __, flag in history]
        wal.crash()
        survivors = set(wal.replay())
        for (record, __), was_durable, was_synced in zip(
                history, durable, synced):
            if was_durable:
                assert record in survivors   # past the durability line
            if not was_synced:
                assert record not in survivors  # never issued to disk

    @given(ops=_ops_st, torn=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_fault_free_wal_loses_nothing(self, ops, torn):
        # Force every append through fsync at zero latency: the durable
        # image always equals the full history, so a crash+replay run is
        # indistinguishable from a never-crashed one.
        ops = [(op, True if op == "append" else arg) for op, arg in ops]
        wal, __, history = _run_ops(ops, 0.0, torn)
        never_crashed = wal.replay()
        assert wal.crash() == 0
        assert wal.replay() == never_crashed
        assert never_crashed == [record for record, __ in history]

    @given(ops=_ops_st, latency=st.floats(min_value=0.0, max_value=15.0))
    @settings(max_examples=100, deadline=None)
    def test_torn_cut_is_deterministic_per_owner(self, ops, latency):
        runs = []
        for __ in range(2):
            wal, clock, history = _run_ops(ops, latency, torn_tail=True)
            wal.crash()
            runs.append(wal.replay())
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Folding: fold + replay == replay + GC
# ----------------------------------------------------------------------

_GROUPS = ("g0", "g1")
_CLIENTS = ("c0", "c1", "c2")

_tid_st = st.builds(TID, st.sampled_from(_CLIENTS),
                    st.integers(min_value=1, max_value=12))


def _group_of(tid):
    """The coordinating group of ``tid`` (one per transaction)."""
    return _GROUPS[tid.seq % len(_GROUPS)]


# One step of a server's life: journal something (a Raft install, which
# may splice over a conflicting suffix or land past the tail; a term
# record; a 2PC decision or its finish; a provisional OCC entry), let
# the GC learn something (a coordinating group's or a participant's mark
# for a client rises, a prepared transaction resolves), sync, let time
# pass, or power-cycle.
_fold_ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.sampled_from(_GROUPS),
                  st.integers(min_value=-2, max_value=1),
                  st.integers(min_value=1, max_value=3),
                  st.integers(min_value=1, max_value=4), st.booleans()),
        st.tuples(st.just("term"), st.sampled_from(_GROUPS),
                  st.integers(min_value=1, max_value=5),
                  st.sampled_from((None, "n1", "n2")), st.booleans()),
        st.tuples(st.just("decide"), _tid_st, st.booleans()),
        st.tuples(st.just("finish"), _tid_st, st.booleans()),
        st.tuples(st.just("prepare"), _tid_st, st.booleans()),
        st.tuples(st.just("mark"), st.sampled_from(_GROUPS + ("part",)),
                  st.sampled_from(_CLIENTS),
                  st.integers(min_value=1, max_value=13)),
        st.tuples(st.just("resolve"), _tid_st),
        st.tuples(st.just("fsync")),
        st.tuples(st.just("tick"), st.floats(min_value=0.5, max_value=20.0)),
        st.tuples(st.just("crash")),
    ),
    min_size=1, max_size=80,
)


class _GcHost:
    """A server's GC, as a WAL fold sees it: coordinator marks per
    (group, client), participant marks per client, and the set of
    OCC-prepared transactions resolved here."""

    def __init__(self):
        self.kernel = SimpleNamespace(now=0.0)
        self._busy_until = 0.0
        self.marks = ClientMarks()
        self.part_marks = ClientMarks()
        self.resolved = set()

    def settled(self, tid):
        return tid in self.resolved or self.part_marks.below(tid)

    def fold_wal_records(self, records):
        records = forget_decisions(records, self.marks)
        return [r for r in records if not (isinstance(r, OccPrepareWal)
                                           and self.settled(r.tid))]


class _NeverFolds(WriteAheadLog):
    """The unfolded reference: the same journal, compacted never."""

    def fold(self):
        return 0


def _rebuild(records):
    """What a restart rebuilds from an image: each group's term, vote and
    log; the finished and owed decisions, minus what the journaled marks
    forgot; the provisional OCC entries; the marks."""
    terms, logs = {}, {}
    for record in records:
        if isinstance(record, RaftTermRecord):
            terms[record.group_id] = (record.term, record.voted_for)
        elif isinstance(record, RaftAppendRecord):
            log = logs.setdefault(record.group_id, RaftLog())
            for entry in record.entries:
                log.install_at(entry)
    marks = ClientMarks()
    finished, owed = restore_decisions(records, marks)
    provisional = [r.tid for r in records if isinstance(r, OccPrepareWal)]
    return {"terms": terms,
            "logs": {g: log.all_entries() for g, log in logs.items()
                     if len(log)},
            "finished": finished, "owed": owed,
            "provisional": provisional, "marks": dict(marks.marks)}


def _gc(state, host):
    """The host's GC over a rebuilt state: marks rise to the host's, and
    finished outcomes and provisional entries it has forgotten go."""
    marks = dict(state["marks"])
    for scope, mark in host.marks.marks.items():
        marks[scope] = max(mark, marks.get(scope, 0))
    return dict(
        state, marks=marks,
        finished={tid: d for tid, d in state["finished"].items()
                  if tid.seq >= marks.get((_group_of(tid), tid.client_id),
                                          0)},
        provisional=[tid for tid in state["provisional"]
                     if not host.settled(tid)])


class TestFold:
    @given(ops=_fold_ops_st,
           latency=st.sampled_from((0.0, 0.0, 3.0, 12.5)),
           torn=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_fold_then_replay_equals_replay_then_gc(self, ops, latency,
                                                    torn):
        host = _GcHost()
        folded = WriteAheadLog("prop-node", sync_latency_ms=latency,
                               torn_tail=torn)
        plain = _NeverFolds("prop-node", sync_latency_ms=latency,
                            torn_tail=torn)
        for wal in (folded, plain):
            wal.attach_host(host)
        tails = {g: 0 for g in _GROUPS}
        serial = 0
        crashes = 0

        def journal(record, sync):
            for wal in (folded, plain):
                wal.append(record, sync=sync)

        def check():
            assert folded.records_lost == plain.records_lost
            assert len(folded) <= len(plain)
            assert _gc(_rebuild(folded.replay()), host) == \
                _gc(_rebuild(plain.replay()), host)

        for op in ops:
            kind = op[0]
            if kind == "install":
                __, group, offset, count, term, sync = op
                start = max(1, tails[group] + 1 + offset)
                entries = []
                for index in range(start, start + count):
                    serial += 1
                    entries.append(LogEntry(term, index, f"x{serial}"))
                tails[group] = max(tails[group], start + count - 1) \
                    if offset >= 0 else start + count - 1
                journal(RaftAppendRecord(group, tuple(entries)), sync)
            elif kind == "term":
                journal(RaftTermRecord(op[1], op[2], op[3]), op[4])
            elif kind == "decide":
                journal(CoordDecisionWal(
                    tid=op[1], group_id=_group_of(op[1]),
                    client_id=op[1].client_id,
                    decision="commit", participants=(), writes=()), op[2])
            elif kind == "finish":
                journal(CoordFinishWal(tid=op[1]), op[2])
            elif kind == "prepare":
                journal(OccPrepareWal(
                    partition_id="p0", tid=op[1], read_keys=(),
                    write_keys=("k",), read_versions=(), term=1,
                    coordinator_id="n1"), op[2])
            elif kind == "mark" and op[1] == "part":
                host.part_marks.advance(op[2], op[3])
            elif kind == "mark":
                host.marks.advance((op[1], op[2]), op[3])
            elif kind == "resolve":
                host.resolved.add(op[1])
            elif kind == "fsync":
                folded.fsync()
                plain.fsync()
            elif kind == "tick":
                host.kernel.now += op[1]
            else:
                folded.crash()
                plain.crash()
                crashes += 1
                check()
        folded.crash()
        plain.crash()
        check()

    def test_fold_merges_installs_and_keeps_the_latest_term(self):
        wal = WriteAheadLog("n1")
        for index in range(1, 6):
            wal.append(RaftTermRecord("g0", index, None))
            wal.append(RaftAppendRecord(
                "g0", (LogEntry(index, index, f"x{index}"),)))
        # A follower-side conflict splice: index 4 re-installed.
        wal.append(RaftAppendRecord("g0", (LogEntry(6, 4, "y"),)))
        wal.fold()
        image = wal.replay()
        assert image[0] == RaftTermRecord("g0", 5, None)
        assert image[1] == RaftAppendRecord("g0", (
            LogEntry(1, 1, "x1"), LogEntry(2, 2, "x2"),
            LogEntry(3, 3, "x3"), LogEntry(6, 4, "y")))
        assert len(image) == 2 and wal.appends == 11
