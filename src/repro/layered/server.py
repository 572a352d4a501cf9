"""The layered baseline's data server.

Each server hosts partition replicas (Raft groups) exactly like a Carousel
data server, but the transaction flow is strictly sequential: reads are a
separate round; 2PC prepares start only when the client's commit request
arrives; every 2PC state change replicates before the protocol advances.

State is bounded by the transactions in flight: the client's low-water
mark rides on its commit request, the coordinator forwards it on each
prepare and copies it into its decision record, and applying either
record forgets that client's resolved (participant) or finished
(coordinator) transactions below the mark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.backoff import DEFAULT_RETRY, RetryPolicy
from repro.core.messages import PartitionSets
from repro.core.occ import ABORT, PREPARED, PendingList, PendingTxn, \
    freeze_versions
from repro.layered.messages import (
    LayeredCommitRecord,
    LayeredCommitRequest,
    LayeredDecisionRecord,
    LayeredPrepare,
    LayeredPrepareAck,
    LayeredPrepareRecord,
    LayeredRead,
    LayeredReadReply,
    LayeredReply,
    LayeredWriteback,
    LayeredWritebackAck,
)
from repro.raft.node import RaftHost, RaftMember
from repro.sim.node import Handlers
from repro.store.kvstore import VersionedKVStore
from repro.trace.tracer import SPAN_PREPARE, SPAN_WRITEBACK
from repro.txn import REASON_COMMITTED, REASON_CONFLICT, \
    REASON_STALE_READ, TID, ClientMarks, applied_outcome, applied_outcomes
from repro.wal.records import DecisionJournal

COMMIT = "commit"


class _LayeredPartition:
    """One replica of one partition (storage + 2PC participant role)."""

    #: The replicated 2PC vote and writeback records it applies.
    RECORDS = {
        LayeredPrepareRecord: "_apply_prepare",
        LayeredCommitRecord: "_apply_commit",
    }

    def __init__(self, server: "LayeredServer", partition_id: str):
        self.server = server
        self.handlers = Handlers(server, (server.PARTITION_HANDLERS, self),
                                 (self.RECORDS, self))
        self.partition_id = partition_id
        self.store = VersionedKVStore()
        self.pending = PendingList()
        self.resolved: Dict[TID, str] = {}
        self.prepare_decisions: Dict[TID, str] = {}
        #: Clients' applied low-water marks and the tids held above them.
        self.marks = ClientMarks()
        self.member: Optional[RaftMember] = None

    @property
    def is_leader(self) -> bool:
        return self.member is not None and self.member.is_leader

    @property
    def serving(self) -> bool:
        """Leader *and* past the term-start barrier.

        A newly elected leader's store may lag its (complete) log — the
        acute case is a power-cycled replica whose log was rebuilt from
        the WAL image but whose store is empty until re-apply.  Serving
        reads or validating prepares against that store would hand out
        stale versions, so requests are dropped (clients retry) until the
        term's no-op has applied locally.
        """
        return self.member is not None and self.member.term_start_applied

    def settled(self, tid: TID) -> bool:
        """Resolved here, or forgotten (:meth:`ClientMarks.settled`)."""
        return self.marks.settled(tid, self.resolved,
                                  self.prepare_decisions)

    def applied_decisions(self) -> Dict[TID, str]:
        """Every writeback outcome in the applied Raft log
        (:func:`~repro.txn.applied_outcomes`)."""
        return applied_outcomes(self.member, LayeredCommitRecord)

    def on_read(self, msg: LayeredRead) -> None:
        if not self.serving:
            return
        self.server.send(msg.src, LayeredReadReply(
            tid=msg.tid, partition_id=self.partition_id,
            values=self.store.read_versioned(msg.keys)))

    def on_prepare(self, msg: LayeredPrepare) -> None:
        if not self.serving:
            return
        tid = msg.tid
        if self.settled(tid):
            # A forgotten outcome is still in the applied log; none there
            # means it never prepared here, so it can only have aborted.
            outcome = self.resolved.get(tid) or applied_outcome(
                self.member, LayeredCommitRecord, tid) or ABORT
            decision = PREPARED if outcome == COMMIT else ABORT
            self.server.send(msg.src, LayeredPrepareAck(
                tid=tid, partition_id=self.partition_id,
                decision=decision))
            return
        if tid in self.prepare_decisions:
            self.server.send(msg.src, LayeredPrepareAck(
                tid=tid, partition_id=self.partition_id,
                decision=self.prepare_decisions[tid]))
            return
        if self.member.proposal_inflight(tid):
            return
        read_versions = dict(msg.read_versions)
        # OCC validation: reads happened a round earlier, so versions are
        # checked here (unlike Carousel, whose prepares piggyback on reads).
        stale = any(self.store.version(k) != v
                    for k, v in read_versions.items())
        conflict = self.pending.conflicts(tid, read_versions.keys(),
                                          msg.write_keys)
        decision = ABORT if (stale or conflict) else PREPARED
        if decision == PREPARED:
            self.pending.add(PendingTxn(
                tid=tid, read_keys=frozenset(read_versions),
                write_keys=frozenset(msg.write_keys),
                read_versions=freeze_versions(read_versions),
                term=self.member.current_term, coordinator_id=msg.src))
            self.marks.hold(tid)
        record = LayeredPrepareRecord(
            tid=tid, partition_id=self.partition_id, decision=decision,
            read_keys=tuple(read_versions), write_keys=msg.write_keys,
            read_versions=freeze_versions(read_versions),
            low_water=msg.low_water)
        coordinator = msg.src

        def replicated(__):
            self.server.send(coordinator, LayeredPrepareAck(
                tid=tid, partition_id=self.partition_id,
                decision=decision))

        self.member.propose_keyed(tid, record, replicated)

    def on_writeback(self, msg: LayeredWriteback) -> None:
        if not self.serving:
            return
        tid = msg.tid
        if self.settled(tid):
            self.server.send(msg.src, LayeredWritebackAck(
                tid=tid, partition_id=self.partition_id))
            return
        if self.member.proposal_inflight(tid):
            return
        record = LayeredCommitRecord(
            tid=tid, partition_id=self.partition_id,
            decision=msg.decision, writes=tuple(msg.writes.items()))
        coordinator = msg.src

        def replicated(__):
            self.server.send(coordinator, LayeredWritebackAck(
                tid=tid, partition_id=self.partition_id))

        self.member.propose_keyed(tid, record, replicated)

    def _forgotten(self, tid: TID) -> bool:
        """A late prepare, or a duplicate writeback, of a transaction its
        client has finished: nothing to record or re-apply."""
        if self.marks.forgotten(tid, self.resolved, self.prepare_decisions):
            self.pending.remove(tid)
            return True
        return False

    def _apply_prepare(self, command: LayeredPrepareRecord) -> None:
        tid = command.tid
        if self._forgotten(tid):
            return
        self.prepare_decisions[tid] = command.decision
        self.marks.hold(tid)
        if command.decision == PREPARED:
            # Mirror the pending list on every replica: a successor
            # leader that cannot see prepared-but-undecided
            # transactions would validate new ones against thin air
            # and hand out conflicting prepares (lost updates).
            if tid not in self.resolved:  # else decided later in the log
                self.pending.add(PendingTxn(
                    tid=tid,
                    read_keys=frozenset(command.read_keys),
                    write_keys=frozenset(command.write_keys),
                    read_versions=command.read_versions,
                    term=0, coordinator_id=""))
        else:
            self.pending.remove(tid)
        self.marks.forget_resolved(tid.client_id, command.low_water,
                                   self.resolved, self.prepare_decisions,
                                   self.pending)

    def _apply_commit(self, command: LayeredCommitRecord) -> None:
        tid = command.tid
        if self._forgotten(tid) or tid in self.resolved:
            return
        self.resolved[tid] = command.decision
        self.marks.hold(tid)
        if command.decision == COMMIT:
            for key, value in command.writes:
                self.store.write(key, value,
                                 self.store.version(key) + 1)
        self.pending.remove(tid)


@dataclass
class _CoordState:
    tid: TID
    client_id: str = ""
    group_id: str = ""
    participants: Dict[str, PartitionSets] = field(default_factory=dict)
    writes: Dict[str, Any] = field(default_factory=dict)
    read_versions: Dict[str, int] = field(default_factory=dict)
    votes: Dict[str, str] = field(default_factory=dict)
    decision: Optional[str] = None
    decision_replicated: bool = False
    replied: bool = False
    writeback_acks: Set[str] = field(default_factory=set)
    writeback_timer: Any = None
    writeback_attempts: int = 0
    #: The client's low-water mark, forwarded on prepares and decisions.
    low_water: int = 0
    #: Tracing: open 2PC-prepare and writeback spans.
    trace_prepare_span: Any = None
    trace_writeback_span: Any = None


class LayeredServer(RaftHost):
    """A data server of the layered baseline."""

    #: Messages addressed to a partition replica: run by the
    #: :class:`_LayeredPartition` of ``msg.partition_id``.
    PARTITION_HANDLERS = {
        LayeredRead: "on_read",
        LayeredPrepare: "on_prepare",
        LayeredWriteback: "on_writeback",
    }
    #: Messages addressed to this server's coordinator role.
    COORDINATOR_HANDLERS = {
        LayeredCommitRequest: "_on_commit_request",
        LayeredPrepareAck: "_on_prepare_ack",
        LayeredWritebackAck: "_on_writeback_ack",
    }
    #: The replicated decision its coordinator role mirrors.
    RECORDS = {LayeredDecisionRecord: "_apply_decision"}

    def __init__(self, node_id: str, dc: str, kernel, network, directory,
                 service_time_ms: float = 0.0, raft_config=None,
                 retry_policy: RetryPolicy = DEFAULT_RETRY):
        super().__init__(node_id, dc, kernel, network,
                         service_time_ms=service_time_ms)
        self.directory = directory
        self.raft_config = raft_config
        #: Writeback retransmission schedule.
        self.retry_policy = retry_policy
        self.attach_wal()
        self._reset_roles()

    def _reset_roles(self) -> None:
        self.partitions: Dict[str, _LayeredPartition] = {}
        self.coord_states: Dict[TID, _CoordState] = {}
        self.finished: Dict[TID, str] = {}
        #: Low-water marks per ``(group_id, client_id)``, as that
        #: coordinating group's decision records carried them, and the
        #: tids held above them.
        self.marks = ClientMarks()
        self.journal = DecisionJournal(self, self)
        self._bind(
            (dict.fromkeys([*self.PARTITION_HANDLERS,
                            *_LayeredPartition.RECORDS], "_to_partition"),
             self),
            (self.COORDINATOR_HANDLERS, self),
            (DecisionJournal.RECORDS, self.journal))
        super()._reset_roles()

    def durable_roles(self):
        """The coordinator's journal (partitions journal nothing)."""
        return [self.journal]

    def add_partition(self, partition_id: str, member_ids: List[str],
                      bootstrap_leader: Optional[str] = None
                      ) -> _LayeredPartition:
        """Host a replica of ``partition_id`` in the given consensus group."""
        partition = _LayeredPartition(self, partition_id)
        member = RaftMember(
            self, partition_id, member_ids, config=self.raft_config,
            apply_fn=lambda entry, pid=partition_id:
                self._apply(pid, entry),
            on_leadership=lambda member, payloads, pid=partition_id:
                self.directory.set_leader(pid, self.node_id),
            bootstrap_leader=bootstrap_leader)
        partition.member = member
        self.partitions[partition_id] = partition
        return partition

    def on_recover(self) -> None:
        """Fail-stop recovery: coordinator state survived in RAM, but the
        crash bumped the timer epoch, so writeback retry timers armed by
        the previous incarnation are dead — re-arm the retry loop for
        every transaction still in its writeback phase."""
        super().on_recover()
        # Ordered: insertion order, deterministic under a fixed seed.
        # detlint: ignore[values-fanout]
        for state in list(self.coord_states.values()):
            if state.decision is not None and state.replied:
                self._arm_writeback_retry(state)

    def redrive(self, record) -> None:
        """Re-drive the writeback phase of a journaled decision its
        writebacks were still owed for (:meth:`DecisionJournal.resume`).
        Partition pending lists rebuild through the Raft apply path as
        the commit index re-advances under a live leader."""
        state = _CoordState(
            tid=record.tid, client_id=record.client_id,
            group_id=record.group_id,
            participants=dict(record.participants),
            writes=dict(record.writes),
            decision=record.decision, decision_replicated=True,
            replied=True)
        self.coord_states[record.tid] = state
        self.marks.hold(record.tid, (record.group_id, record.client_id))
        self._send_writebacks(state)

    def _apply_decision(self, command: LayeredDecisionRecord,
                        group_id: str) -> None:
        state = self.coord_states.get(command.tid)
        if state is not None:
            state.decision_replicated = True
        self._forget((group_id, command.tid.client_id), command.low_water)

    def _forget(self, scope, low_water: int) -> None:
        """Raise the mark of ``scope`` (a group and client): forget the
        finished outcomes below it, and undecided states their client
        finished through another leader; a decided state still owes its
        writebacks."""
        for tid in self.marks.advance(scope, low_water):
            state = self.coord_states.get(tid)
            if state is None:
                self.finished.pop(tid, None)
            elif state.decision is None:
                del self.coord_states[tid]
            else:
                self.marks.hold(tid, scope)

    # ------------------------------------------------------------------
    # Coordinator role (2PC driver)
    # ------------------------------------------------------------------
    def _on_commit_request(self, msg: LayeredCommitRequest) -> None:
        if msg.tid in self.finished:
            decision = self.finished[msg.tid]
            self.send(msg.src, LayeredReply(
                tid=msg.tid, committed=decision == COMMIT,
                reason=REASON_COMMITTED if decision == COMMIT
                else REASON_CONFLICT))
            return
        if self.marks.forgotten(msg.tid, self.coord_states, self.finished,
                                scope=(msg.group_id, msg.client_id)):
            return  # the client has its outcome: a stale retransmission
        state = self.coord_states.get(msg.tid)
        if state is not None:
            # Retransmission while 2PC is in progress: a prepare (or its
            # ack) or our reply may have been lost.  Re-drive whatever
            # phase is stalled instead of silently waiting forever.
            if state.decision is None:
                self._resend_prepares(state)
            elif not state.replied:
                # The decision was proposed but the client never heard:
                # unless that proposal is still replicating, its commit
                # callback died with a lost leadership — propose again.
                self._propose_decision(state)
            else:
                self.send(msg.src, LayeredReply(
                    tid=state.tid,
                    committed=state.decision == COMMIT,
                    reason=REASON_COMMITTED if state.decision == COMMIT
                    else REASON_CONFLICT))
            return
        member = self.members.get(msg.group_id)
        if member is None or not member.term_start_applied:
            # Stale directory, or a fresh leader whose coord-state mirror
            # has not re-applied yet; either way the client retries.
            return
        state = _CoordState(
            tid=msg.tid, client_id=msg.client_id, group_id=msg.group_id,
            participants=dict(msg.participants), writes=dict(msg.writes),
            read_versions=dict(msg.read_versions),
            low_water=msg.low_water)
        self.coord_states[msg.tid] = state
        self.marks.hold(msg.tid, (msg.group_id, msg.client_id))
        tracer = self.tracer
        if tracer.enabled:
            state.trace_prepare_span = tracer.span_begin(
                msg.tid, SPAN_PREPARE, self.node_id, self.dc,
                detail="2pc-prepare")
        # Phase one: sequential 2PC prepare, only now (nothing overlapped).
        # Ordered: participants was built over sorted(pids) by the client.
        # detlint: ignore[values-fanout]
        for pid, sets in state.participants.items():
            versions = tuple(sorted(
                (k, state.read_versions.get(k, 0))
                for k in sets.read_keys))
            leader = self.directory.lookup(pid).leader
            self.send(leader, LayeredPrepare(
                tid=msg.tid, partition_id=pid, read_versions=versions,
                write_keys=sets.write_keys, low_water=state.low_water))

    def _resend_prepares(self, state: _CoordState) -> None:
        """Retransmit 2PC prepares to partitions that have not voted;
        participant leaders re-ack idempotently from ``prepare_decisions``."""
        # Sorted so retransmission order never depends on dict history.
        for pid, sets in sorted(state.participants.items()):
            if pid in state.votes:
                continue
            versions = tuple(sorted(
                (k, state.read_versions.get(k, 0))
                for k in sets.read_keys))
            leader = self.directory.lookup(pid).leader
            self.send(leader, LayeredPrepare(
                tid=state.tid, partition_id=pid, read_versions=versions,
                write_keys=sets.write_keys, low_water=state.low_water))

    def _on_prepare_ack(self, msg: LayeredPrepareAck) -> None:
        state = self.coord_states.get(msg.tid)
        if state is None or state.decision is not None:
            return
        state.votes.setdefault(msg.partition_id, msg.decision)
        if len(state.votes) < len(state.participants):
            return
        decision = COMMIT if all(v == PREPARED
                                 for v in state.votes.values()) else ABORT
        state.decision = decision
        tracer = self.tracer
        if tracer.enabled:
            tracer.span_end(state.trace_prepare_span, detail=decision)
            state.trace_prepare_span = None
        self._propose_decision(state)

    def _propose_decision(self, state: _CoordState) -> None:
        """Replicate the 2PC decision in the coordinator's own group;
        reply and write back once it commits."""
        member = self.members[state.group_id]
        key = ("decision", state.tid)
        if member.proposal_inflight(key):
            return
        decision = state.decision

        def decision_replicated(__):
            # Only after the decision is durable may the client learn it —
            # the layered architecture's extra sequential round trip.
            self.journal.persist_decision(state)
            state.replied = True
            reason = REASON_COMMITTED if decision == COMMIT \
                else REASON_CONFLICT
            self.send(state.client_id, LayeredReply(
                tid=state.tid, committed=decision == COMMIT,
                reason=reason))
            inner_tracer = self.tracer
            if inner_tracer.enabled and state.trace_writeback_span is None:
                state.trace_writeback_span = inner_tracer.span_begin(
                    state.tid, SPAN_WRITEBACK, self.node_id, self.dc,
                    detail=decision)
            self._send_writebacks(state)

        # Refused when leadership is already lost; the client's retry
        # lands here again (or at the new leader, which starts over).
        member.propose_keyed(key, LayeredDecisionRecord(
            tid=state.tid, decision=decision, low_water=state.low_water),
            decision_replicated)

    def _send_writebacks(self, state: _CoordState) -> None:
        # Sorted so writeback order never depends on insertion history —
        # the bug class detlint's DL001/DL005 exist for.
        for pid, sets in sorted(state.participants.items()):
            if pid in state.writeback_acks:
                continue
            writes = {k: state.writes[k] for k in sets.write_keys
                      if k in state.writes} \
                if state.decision == COMMIT else {}
            leader = self.directory.lookup(pid).leader
            self.send(leader, LayeredWriteback(
                tid=state.tid, partition_id=pid,
                decision=state.decision, writes=writes))
        # A lost writeback (or its ack) would otherwise strand the
        # transaction — and, for commits, lose the update entirely.
        self._arm_writeback_retry(state)

    def _arm_writeback_retry(self, state: _CoordState) -> None:
        """(Re-)arm the writeback retry timer for ``state``."""
        if state.writeback_timer is not None:
            state.writeback_timer.cancel()
        delay = self.retry_policy.delay_ms(state.writeback_attempts,
                                           self.kernel.random)
        state.writeback_timer = self.set_timer(
            delay, self._retry_writebacks, state)

    def _retry_writebacks(self, state: _CoordState) -> None:
        if state.tid in self.finished:
            return
        state.writeback_attempts += 1
        self._send_writebacks(state)

    def _on_writeback_ack(self, msg: LayeredWritebackAck) -> None:
        state = self.coord_states.get(msg.tid)
        if state is None:
            return
        state.writeback_acks.add(msg.partition_id)
        if state.writeback_acks >= set(state.participants):
            tracer = self.tracer
            if tracer.enabled:
                tracer.span_end(state.trace_writeback_span)
                state.trace_writeback_span = None
            if state.writeback_timer is not None:
                state.writeback_timer.cancel()
                state.writeback_timer = None
            self.journal.finish(state)
            self.finished[state.tid] = state.decision or ABORT
            del self.coord_states[state.tid]
