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

And one for folding, through the real roles (a Carousel server's
partitions and coordinator, the layered coordinator, a TAPIR replica):
restarting through the one replay from a folded image, then letting the
Raft log re-apply, rebuilds exactly what the same restart from the
unfolded image rebuilds, at every crash point, torn tails and in-flight
syncs included, with the same records lost.  The same rule is checked
over arbitrary journal streams through the real fold and decision
journal, which reach cases one node's roles rarely write.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.core.coordinator import CoordinatorComponent
from repro.core.messages import PartitionSets, ReadPrepareRequest, \
    WritebackAck
from repro.core.participant import PartitionComponent
from repro.core.records import CommitRecord, CoordSetsRecord, PrepareRecord
from repro.core.server import CarouselServer
from repro.layered.messages import (LayeredCommitRecord,
                                    LayeredDecisionRecord,
                                    LayeredPrepareRecord,
                                    LayeredWritebackAck)
from repro.raft.log import LogEntry, RaftLog
from repro.sim.node import Node
from repro.sim.topology import uniform_topology
from repro.tapir.messages import PREPARE_OK, TapirCommit, TapirFinalize, \
    TapirPrepare
from repro.tapir.replica import TapirReplica
from repro.txn import TID, ClientMarks
from repro.wal.log import WriteAheadLog
from repro.wal.records import (CoordDecisionWal, CoordFinishWal,
                               DecisionJournal, OccPrepareWal,
                               RaftAppendRecord, RaftTermRecord)

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
# Folding: fold + replay == replay + GC, through the real roles
# ----------------------------------------------------------------------

#: One durable node of each system: a Carousel server hosting both
#: partitions (participant replicas and coordinator), a layered server
#: (coordinator) and a TAPIR replica.
_SYSTEMS = ("carousel-basic", "layered", "tapir")
_SPEC = DeploymentSpec(topology=uniform_topology(3, 20.0), n_partitions=2,
                       consolidate_servers=True)

# One step of a durable node's life, ``(kind, a, b, c, flag)``, read by
# each system as far as it applies (:meth:`_Life.step`): a Raft term or
# install (which may splice over a conflicting suffix), a coordinator
# decision or its finish, a provisional OCC entry (Carousel), TAPIR
# prepare/finalize/commit, the GC learning something through the Raft
# apply path (a coordinating group's or a participant's mark for a
# client rises, a transaction resolves at a partition), time passing,
# a fold (the WAL may fold at any point) or a power cycle.
_KINDS = ("decide", "finish", "mark", "prepare", "resolve", "part-mark",
          "finalize", "term", "install", "tick", "fold", "crash")
_fold_ops_st = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(0, 1), st.integers(0, 6),
              st.integers(0, 3), st.booleans()),
    min_size=24, max_size=80)


class _NeverFolds(WriteAheadLog):
    """The unfolded reference: the same journal, compacted never."""

    def fold(self):
        return 0


class _Twin(WriteAheadLog):
    """A node's WAL, folding as usual, with an unfolded :attr:`shadow`
    that receives the same appends, syncs and crashes."""

    def __init__(self, node, latency, torn):
        super().__init__(node.node_id, sync_latency_ms=latency,
                         torn_tail=torn)
        self.attach_host(node)
        self.shadow = _NeverFolds(node.node_id,
                                  clock=lambda: node.kernel.now,
                                  sync_latency_ms=latency, torn_tail=torn)

    def append(self, record, sync=True):
        self.shadow.append(record, sync=False)
        super().append(record, sync)

    def fsync(self):
        self.shadow.fsync()
        return super().fsync()

    def crash(self, now=None):
        self.shadow.crash(now)
        return super().crash(now)


class _Life:
    """Drives one real durable node through fold ops.  The node stays
    powered off, so nothing it sends or arms ever runs: only what its
    roles journal and apply moves it.  ``history`` holds the Raft
    commands its roles applied, in order — what the Raft log re-applies
    after a power cycle, standing in for that GC."""

    def __init__(self, system, latency, torn):
        self.cluster = systems.build(system, _SPEC)
        servers = getattr(self.cluster, "servers", None) \
            or self.cluster.replicas
        self.node = next(iter(servers.values()))
        self.node.crash()
        self.node.wal = _Twin(self.node, latency, torn)
        self.groups = sorted(getattr(self.node, "members", {})) \
            or [self.node.partition_id]
        self.clients = [c.node_id for c in self.cluster.clients[:2]]
        self.decided = [0, 0]  # each client's latest decided seq
        self.history = []

    def tid(self, client, seq):
        return TID(self.clients[client], seq)

    def group(self, index):
        return self.groups[index % len(self.groups)]

    def apply(self, group, command):
        self.history.append((group, command))
        self.node._apply(group, LogEntry(1, len(self.history), command))

    def restart(self, wal):
        """Power-cycle from ``wal``'s image through the one replay, then
        let the Raft log re-apply (a TAPIR replica, with no log, applies
        the marks it held before instead).  Returns what the coordinator
        (a TAPIR replica) remembered before the log re-applied — its
        finished (resolved) outcomes and marks — and the role state
        rebuilt after."""
        node = self.node
        tapir = isinstance(node, TapirReplica)
        marks = dict(node.marks.marks) if tapir else {}
        node.wal = wal
        node.on_restart()
        coordinator = getattr(node, "coordinator", node)
        if tapir:
            # A replica's resolved outcomes and its marks (scoped by its
            # partition) play the coordinator's part.
            remembered = (
                {tid: "commit" if ok else "abort"
                 for tid, ok in node.resolved.items()},
                {(node.partition_id, client): mark
                 for client, mark in node.marks.marks.items()})
        else:
            remembered = (
                dict(getattr(coordinator, "finished", {})),
                dict(getattr(coordinator, "marks", ClientMarks()).marks))
        for index, (group, command) in enumerate(self.history, 1):
            node._apply(group, LogEntry(1, index, command))
        for client_id, mark in marks.items():
            node._forget(client_id, mark)
        return remembered, _rebuilt(node)

    def step(self, op):
        kind, a, b, c, flag = op
        node = self.node
        carousel = isinstance(node, CarouselServer)
        tapir = isinstance(node, TapirReplica)
        coordinator = node.coordinator if carousel else node
        client, seq = c % 2, b + 1
        if kind == "tick":
            self.cluster.kernel.run(until=self.cluster.kernel.now + 3 * b
                                    + 0.5)
        elif kind == "fold":
            node.wal.fold()
        elif tapir:
            self.tapir_step(kind, self.tid(client, seq), flag, a)
        elif kind == "term":
            member = node.members[self.group(a)]
            member.current_term = max(member.current_term, seq)
            member.voted_for = node.node_id if flag else None
            member._persist_term()
        elif kind == "install":
            member = node.members[self.group(a)]
            prev = max(0, member.log.last_index + c - 2)
            entries = [LogEntry(seq, prev + 1 + i, f"x{i}")
                       for i in range(b % 3 + 1)]
            member._persist_entries(member.log.splice(prev, entries))
        elif kind == "decide":
            self.decided[client] += 1
            tid = self.tid(client, self.decided[client])
            self.decide(coordinator, self.group(a), tid, flag)
            if b % 2:
                self.finish(coordinator, tid)
        elif kind == "finish":
            states = coordinator.states if carousel \
                else coordinator.coord_states
            decided = sorted(tid for tid, state in states.items()
                             if state.decision is not None)
            if decided:
                self.finish(coordinator, decided[b % len(decided)])
        elif kind == "prepare" and carousel:
            pid = self.group(a)
            node.partitions[pid]._follower_fast_vote(ReadPrepareRequest(
                tid=self.tid(client, seq), partition_id=pid,
                coordinator_id=node.node_id, coord_group_id=pid,
                read_keys=("k",), write_keys=(f"w{seq}",), fast_path=True))
        elif kind == "resolve":
            pid = self.group(a)
            record = CommitRecord if carousel else LayeredCommitRecord
            self.apply(pid, record(
                tid=self.tid(client, seq), partition_id=pid,
                decision="commit" if flag else "abort",
                writes=((f"w{seq}", seq),) if flag else ()))
        elif kind == "mark":
            # The client's mark, a little behind its latest decision.
            # This node, leading the group, caps it by the decisions it
            # still owes.  With ``flag`` another leader of the group
            # proposed the record, capped only by the states that leader
            # drives, so the mark may pass a decision this node owes.
            states = coordinator.states if carousel \
                else coordinator.coord_states
            group, carrier = self.group(a), self.tid(client, 0)
            mark = max(1, self.decided[client] + 1 - b % 3)
            if not flag:
                mark = min([mark] + [
                    tid.seq for tid, state in states.items()
                    if tid.client_id == carrier.client_id
                    and state.group_id == group
                    and state.decision is not None])
            self.apply(group, CoordSetsRecord(
                tid=carrier, client_id=carrier.client_id, participants=(),
                low_water=mark) if carousel else LayeredDecisionRecord(
                tid=carrier, decision="abort", low_water=mark))
        elif kind == "part-mark":
            pid, carrier = self.group(a), self.tid(client, seq)
            self.apply(pid, PrepareRecord(
                tid=carrier, partition_id=pid, decision="abort",
                read_keys=(), write_keys=(), read_versions=(), term=1,
                coordinator_id=node.node_id, coord_group_id=pid,
                low_water=seq) if carousel else LayeredPrepareRecord(
                tid=carrier, partition_id=pid, decision="abort",
                read_keys=(), write_keys=(), read_versions=(),
                low_water=seq))

    def tapir_step(self, kind, tid, flag, a):
        """A TAPIR replica's share: prepare, finalize, commit; a
        ``part-mark`` prepare carries its client's mark, at or one past
        its own seq, and a commit with ``a`` set one at its own seq."""
        node = self.node
        if kind in ("prepare", "part-mark"):
            msg = TapirPrepare(tid=tid, partition_id=node.partition_id,
                               read_versions=(("k", 0),),
                               write_keys=(f"w{tid.seq}",),
                               low_water=tid.seq + a
                               if kind == "part-mark" else 0)
        elif kind == "finalize":
            msg = TapirFinalize(tid=tid, partition_id=node.partition_id,
                                result=PREPARE_OK if flag else "abort")
        elif kind == "resolve":
            msg = TapirCommit(tid=tid, partition_id=node.partition_id,
                              commit=flag, writes={f"w{tid.seq}": tid.seq},
                              low_water=tid.seq if a else 0)
        else:
            return
        msg.src = node.node_id
        node.handlers[type(msg)](msg)

    def finish(self, coordinator, tid):
        """Every writeback of decided ``tid`` acks."""
        if isinstance(coordinator, CoordinatorComponent):
            state = coordinator.states.get(tid)
            ack, msg_type = coordinator.on_writeback_ack, WritebackAck
        else:
            state = coordinator.coord_states.get(tid)
            ack = coordinator._on_writeback_ack
            msg_type = LayeredWritebackAck
        if state is not None and state.decision is not None:
            for pid in sorted(state.participants):
                ack(msg_type(tid=tid, partition_id=pid))

    def decide(self, coordinator, group, tid, commit):
        """Decide ``tid`` in ``group`` and start its writebacks, as each
        coordinator does once its decision stands."""
        states = getattr(coordinator, "states", None)
        if states is None:
            states = coordinator.coord_states
        scope = (group, tid.client_id)
        if tid in states or coordinator.marks.below(tid, scope):
            return
        participants = {pid: PartitionSets(read_keys=("k",),
                                           write_keys=(f"w{tid.seq}",))
                        for pid in self.groups}
        if isinstance(coordinator, CoordinatorComponent):
            state = coordinator._new_state(
                tid, group, client_id=tid.client_id,
                participants=participants, writes={f"w{tid.seq}": 1})
            coordinator._decide(state, "commit" if commit else "abort",
                                "committed" if commit else "conflict")
        else:  # the layered decision, replicated: journal, then write back
            coordinator.redrive(CoordDecisionWal(
                tid=tid, group_id=group, client_id=tid.client_id,
                decision="commit" if commit else "abort",
                participants=tuple(sorted(participants.items())),
                writes=((f"w{tid.seq}", 1),)))
            coordinator.journal.persist_decision(states[tid])


def _rebuilt(node):
    """The role state of ``node``, comparable across images."""
    out = {}
    for group, member in getattr(node, "members", {}).items():
        out[group] = (member.current_term, member.voted_for,
                      member.log.all_entries())
    for pid, part in getattr(node, "partitions", {}).items():
        prepared = getattr(part, "prepare_log", None)
        if prepared is None:
            prepared = part.prepare_decisions
        out[pid, "partition"] = (
            sorted((e.tid, e.provisional) for e in part.pending.entries()),
            dict(part.resolved), sorted(prepared), dict(part.marks.marks),
            part.store.snapshot())
    if isinstance(node, TapirReplica):
        out["replica"] = (sorted(e.tid for e in node.prepared.entries()),
                          dict(node.resolved), node.store.snapshot(),
                          dict(node.marks.marks), node.decided())
        return out
    coordinator = node.coordinator if isinstance(node, CarouselServer) \
        else node
    states = getattr(coordinator, "states", None)
    if states is None:
        states = coordinator.coord_states
    out["coordinator"] = (
        {tid: (s.group_id, s.decision, sorted(s.participants),
               sorted(s.writeback_acks)) for tid, s in states.items()},
        dict(coordinator.finished), dict(coordinator.marks.marks))
    return out


# The same rule over any journal stream, not only what one node's roles
# write: stray finishes, a tid decided twice, three clients, marks that
# pass decisions still owed (a mark that another leader of the group
# proposed) and folds at any point.  The fold is the real one
# (``Node.fold_wal_records`` over a partition's and a decision journal's
# ``fold``), and so are the journal's replay and ``resume``.
_GROUPS = ("g0", "g1")
_CLIENTS = ("c0", "c1", "c2")
# One step, ``(kind, group, client, n, offset, sync)``: ``n`` is a tid's
# seq, a mark, a term or a count, ``offset`` where an install lands (or,
# for a decision, commit when >= 0), ``sync`` whether the append syncs.
_STREAM_KINDS = ("install", "term", "decide", "finish", "prepare", "mark",
                 "part-mark", "resolve", "fsync", "tick", "fold", "crash")
_stream_ops_st = st.lists(
    st.tuples(st.sampled_from(_STREAM_KINDS), st.sampled_from(_GROUPS),
              st.sampled_from(_CLIENTS), st.integers(1, 13),
              st.integers(-2, 1), st.booleans()),
    min_size=24, max_size=80)


def _group_of(tid):
    """The coordinating group of ``tid`` (one per transaction)."""
    return _GROUPS[tid.seq % len(_GROUPS)]


class _GcHost:
    """A server's GC, as a WAL fold sees it: partition ``p0``'s marks
    and resolved tids, and a coordinator's marks per (group, client)
    behind a real :class:`DecisionJournal`."""

    partition_id = "p0"
    fold_wal_records = Node.fold_wal_records
    fold = PartitionComponent.fold

    def __init__(self):
        self.kernel = SimpleNamespace(now=0.0)
        self._busy_until = 0.0
        self.marks = ClientMarks()
        self.part_marks = ClientMarks()
        self.resolved = set()
        self.journal = DecisionJournal(self, self)

    def durable_roles(self):
        return [self, self.journal]

    def settled(self, tid):
        return tid in self.resolved or self.part_marks.below(tid)


def _restart(records, host):
    """What a restart rebuilds from an image, after the host's GC: each
    group's term, vote and log; the journal's finished outcomes (minus
    those below the host's marks), owed decisions and marks; the
    provisional entries not settled."""
    terms, logs, provisional = {}, {}, []
    coordinator = SimpleNamespace(finished={}, marks=ClientMarks(), owed=[])
    coordinator.redrive = coordinator.owed.append
    journal = DecisionJournal(None, coordinator)
    for record in records:
        kind = type(record)
        if kind is RaftTermRecord:
            terms[record.group_id] = (record.term, record.voted_for)
        elif kind is RaftAppendRecord:
            log = logs.setdefault(record.group_id, RaftLog())
            for entry in record.entries:
                log.install_at(entry)
        elif kind is OccPrepareWal:
            provisional.append(record.tid)
        else:
            getattr(journal, DecisionJournal.RECORDS[kind])(record)
    journal.resume()
    marks = coordinator.marks
    for scope, mark in host.marks.marks.items():
        marks.advance(scope, mark)
    return {"terms": terms,
            "logs": {g: log.all_entries() for g, log in logs.items()
                     if len(log)},
            "finished": {tid: decision for tid, decision
                         in coordinator.finished.items()
                         if not marks.below(tid, (_group_of(tid),
                                                  tid.client_id))},
            "owed": coordinator.owed, "marks": dict(marks.marks),
            "provisional": [tid for tid in provisional
                            if not host.settled(tid)]}


# A TAPIR fold notes the marks the replica applied, and one may come from
# a record still in flight.  With 3 ms syncs: another client's prepare is
# journaled at 7 ms, tid 3's commit at 7.5 ms and tid 4's, whose mark
# passes tid 3, at 8 ms; a fold at 10 ms (the prepare just durable)
# notes that mark, and the crash at 10.5 ms keeps tid 3's commit but not
# tid 4's.  The folded image must replay tid 3 as forgotten, as the
# unfolded one forgets it once the mark is applied again.
_TICK = ("tick", 0, 0, 0, False)  # half a millisecond
_RESOLVE_BELOW_A_FOLDED_MARK = [
    ("resolve", 0, 0, 0, True), ("resolve", 1, 1, 0, True),
    ("tick", 0, 2, 0, False), _TICK, ("prepare", 0, 0, 1, False), _TICK,
    ("resolve", 0, 2, 0, True), _TICK, ("resolve", 1, 3, 0, True),
    *[_TICK] * 4, ("fold", 0, 0, 0, False), _TICK]


class TestFold:
    @given(system=st.sampled_from(_SYSTEMS), ops=_fold_ops_st,
           latency=st.sampled_from((0.0, 0.0, 3.0, 12.5)),
           torn=st.booleans())
    @example(system="tapir", ops=_RESOLVE_BELOW_A_FOLDED_MARK, latency=3.0,
             torn=False)
    @settings(max_examples=150, deadline=None)
    def test_fold_then_replay_equals_replay_then_gc(self, system, ops,
                                                    latency, torn):
        life = _Life(system, latency, torn)
        for op in ops + [("crash", 0, 0, 0, False)]:
            if op[0] != "crash":
                life.step(op)
                continue
            folded = life.node.wal
            folded.crash(life.cluster.kernel.now)
            assert folded.records_lost == folded.shadow.records_lost
            assert len(folded) <= len(folded.shadow)
            (finished, __), unfolded = life.restart(folded.shadow)
            (kept, marks), rebuilt = life.restart(folded)
            assert rebuilt == unfolded
            # Before the log re-applies, the folded image already tells a
            # transaction it forgot from a new one: its outcome is kept,
            # or it is below a mark journaled for its client.
            for tid, decision in finished.items():
                assert kept.get(tid, decision) == decision
                assert tid in kept or any(
                    tid.seq < mark for (__, client), mark in marks.items()
                    if client == tid.client_id)

    @given(ops=_stream_ops_st,
           latency=st.sampled_from((0.0, 0.0, 3.0, 12.5)),
           torn=st.booleans())
    # A decision journaled again after its finish is owed once more: a
    # fold below the mark must keep it, as replay does.
    @example(ops=[("decide", "g0", "c0", 2, 0, False),
                  ("finish", "g0", "c0", 2, 0, False),
                  ("decide", "g0", "c0", 2, 0, False),
                  ("mark", "g0", "c0", 3, 0, False),
                  ("install", "g0", "c0", 1, 0, True)],
             latency=0.0, torn=False)
    @settings(max_examples=100, deadline=None)
    def test_fold_then_replay_equals_replay_then_gc_on_any_stream(
            self, ops, latency, torn):
        host = _GcHost()
        folded = WriteAheadLog("prop-node", sync_latency_ms=latency,
                               torn_tail=torn)
        plain = _NeverFolds("prop-node", sync_latency_ms=latency,
                            torn_tail=torn)
        for wal in (folded, plain):
            wal.attach_host(host)
        tails = {g: 0 for g in _GROUPS}
        serial = 0

        def journal(record, sync):
            for wal in (folded, plain):
                wal.append(record, sync=sync)

        def check():
            folded.crash()
            plain.crash()
            assert folded.records_lost == plain.records_lost
            assert len(folded) <= len(plain)
            assert _restart(folded.replay(), host) == \
                _restart(plain.replay(), host)

        for kind, group, client, n, offset, sync in ops:
            tid = TID(client, n)
            if kind == "install":
                count = n % 3 + 1
                start = max(1, tails[group] + 1 + offset)
                entries = []
                for index in range(start, start + count):
                    serial += 1
                    entries.append(LogEntry(n % 4 + 1, index, f"x{serial}"))
                tails[group] = max(tails[group], start + count - 1) \
                    if offset >= 0 else start + count - 1
                journal(RaftAppendRecord(group, tuple(entries)), sync)
            elif kind == "term":
                journal(RaftTermRecord(group, n % 5 + 1,
                                       (None, "n1", "n2")[n % 3]), sync)
            elif kind == "decide":
                journal(CoordDecisionWal(
                    tid=tid, group_id=_group_of(tid), client_id=client,
                    decision="commit" if offset >= 0 else "abort",
                    participants=(), writes=()), sync)
            elif kind == "finish":
                journal(CoordFinishWal(tid=tid), sync)
            elif kind == "prepare":
                journal(OccPrepareWal(
                    partition_id="p0", tid=tid, read_keys=(),
                    write_keys=("k",), read_versions=(), term=1,
                    coordinator_id="n1"), sync)
            elif kind == "mark":
                host.marks.advance((group, client), n)
            elif kind == "part-mark":
                host.part_marks.advance(client, n)
            elif kind == "resolve":
                host.resolved.add(tid)
            elif kind == "fsync":
                folded.fsync()
                plain.fsync()
            elif kind == "tick":
                host.kernel.now += 1.5 * n
            elif kind == "fold":
                folded.fold()
            else:
                check()
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
