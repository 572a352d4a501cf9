"""Transaction-coordinator logic.

Carousel's coordinators are consensus group leaders, so their state is
fault tolerant (§3.3): the transaction's read/write sets, its write data,
and its final decision are all replicated to the coordinating group.  The
coordinator may reveal a commit decision to the client as soon as all
participants prepared and the write data is replicated — the decision is
then recomputable by any successor (§4.3).

Fast-path accounting (§4.2): for each participant partition the coordinator
accepts a prepare decision from CPC's fast path only when a supermajority
(⌈3f/2⌉+1) of that partition's replicas — including its leader — voted the
same decision with the leader's data versions and term.  Otherwise it waits
for the slow path's :class:`~repro.core.messages.PrepareResult`.

State is bounded by the transactions in flight, not by history.  The
leader copies its client's low-water mark into each
:class:`~repro.core.records.CoordSetsRecord`, capped by the lowest
transaction of that client it still drives in that group; applying the
record forgets the client's ``finished`` outcomes below the mark and,
on followers, the mirrored states the leader has finished — so a
successor still re-drives every writeback its predecessor had not
finished.  A transaction below the mark that is no longer tracked here
is forgotten: its client has the outcome, so messages about it are
stale and dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.core.messages import (
    ClientHeartbeat,
    CommitRequest,
    CoordPrepareRequest,
    FastVote,
    PartitionSets,
    PrepareQuery,
    PrepareResult,
    TxnReply,
    Writeback,
    WritebackAck,
)
from repro.core.occ import ABORT, PREPARED
from repro.trace.tracer import SPAN_CPC_FAST, SPAN_CPC_SLOW, SPAN_WRITEBACK
from repro.core.records import (
    CoordDecisionRecord,
    CoordSetsRecord,
    CoordWriteDataRecord,
)
from repro.txn import (
    REASON_CLIENT_ABORT,
    REASON_COMMITTED,
    REASON_CONFLICT,
    REASON_STALE_READ,
    REASON_TIMEOUT,
    TID,
    ClientMarks,
)
from repro.wal.records import (CoordDecisionWal, CoordFinishWal,
                               restore_decisions)

COMMIT = "commit"


def supermajority(group_size: int) -> int:
    """CPC's fast-quorum size: ⌈3f/2⌉+1 for a 2f+1 group (§4.2)."""
    f = (group_size - 1) // 2
    return math.ceil(1.5 * f) + 1


@dataclass
class CoordTxnState:
    """Everything the coordinator tracks for one transaction."""

    tid: TID
    client_id: str = ""
    group_id: str = ""
    participants: Dict[str, PartitionSets] = field(default_factory=dict)
    sets_replicated: bool = False
    #: Final per-partition prepare outcome: pid -> (decision, versions).
    decisions: Dict[str, Tuple[str, Tuple[Tuple[str, int], ...]]] = \
        field(default_factory=dict)
    #: Raw fast votes: pid -> replica -> (decision, versions, term, leader?).
    fast_votes: Dict[str, Dict[str, Tuple[str, tuple, int, bool]]] = \
        field(default_factory=dict)
    fast_path_partitions: Set[str] = field(default_factory=set)
    commit_requested: bool = False
    client_abort: bool = False
    writes: Dict[str, Any] = field(default_factory=dict)
    client_read_versions: Dict[str, int] = field(default_factory=dict)
    write_data_replicated: bool = False
    decision: Optional[str] = None
    reason: str = ""
    replied: bool = False
    #: Rebuilt from the coordinator's decision WAL after a power cycle:
    #: the writeback phase is re-driven even before (re)winning leadership,
    #: because the durable decision is this node's own obligation.
    wal_recovered: bool = False
    writeback_acks: Set[str] = field(default_factory=set)
    #: Retransmission counters driving the backoff schedules.
    requery_attempts: int = 0
    writeback_attempts: int = 0
    last_heartbeat_ms: float = 0.0
    heartbeat_timer: Any = None
    writeback_timer: Any = None
    requery_timer: Any = None
    #: Tracing: virtual time of the first fast vote seen per partition.
    trace_first_ms: Dict[str, float] = field(default_factory=dict)
    #: Tracing: the open writeback span, if any.
    trace_writeback_span: Any = None

    def all_prepared(self) -> bool:
        """Every participant partition reported a prepared decision."""
        return (bool(self.participants)
                and all(pid in self.decisions for pid in self.participants)
                and all(d == PREPARED
                        for d, __ in self.decisions.values()))

    def any_aborted(self) -> bool:
        """At least one participant partition failed to prepare."""
        return any(d == ABORT for d, __ in self.decisions.values())


class CoordinatorComponent:
    """Coordinator role of one Carousel data server.

    The same component exists on every server; followers of a coordinating
    group keep their mirror of transaction state up to date through the
    Raft apply path, ready to take over on leader failure.
    """

    def __init__(self, server):
        self.server = server
        self.states: Dict[TID, CoordTxnState] = {}
        #: Outcomes of finished transactions, for late/duplicate messages.
        self.finished: Dict[TID, str] = {}
        #: Low-water marks per ``(group_id, client_id)``, as that
        #: coordinating group's records carried them, and the tids held
        #: above them.  Scope ``("", client_id)`` takes every group's
        #: mark: it holds states no group has claimed yet (strays from
        #: votes) and tells a stale message from a new one.
        self.marks = ClientMarks()
        self.fast_path_decisions = 0
        self.slow_path_decisions = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _member_for(self, group_id: str):
        return self.server.members.get(group_id)

    def _is_leader_of(self, group_id: str) -> bool:
        member = self._member_for(group_id)
        return member is not None and member.is_leader

    def _state(self, tid: TID) -> Optional[CoordTxnState]:
        return self.states.get(tid)

    def _new_state(self, tid: TID, group_id: str = "",
                   **fields) -> CoordTxnState:
        state = CoordTxnState(tid=tid, group_id=group_id, **fields)
        self.states[tid] = state
        self.marks.hold(tid, (group_id, tid.client_id))
        return state

    def _claim(self, state: CoordTxnState, group_id: str) -> None:
        """``state`` belongs to ``group_id``: hold it under that group."""
        state.group_id = group_id
        self.marks.hold(state.tid, (group_id, state.tid.client_id))

    def _forgotten(self, tid: TID) -> bool:
        """Below the highest mark any group carried for its client and no
        longer tracked here: the client has its outcome, so any message
        about it is stale."""
        return self.marks.forgotten(tid, self.states, self.finished,
                                    scope=("", tid.client_id))

    def _send(self, dst: str, msg) -> None:
        self.server.send(dst, msg)

    @property
    def config(self):
        return self.server.config

    # ------------------------------------------------------------------
    # Client-facing handlers (leader of the coordinating group)
    # ------------------------------------------------------------------
    def on_coord_prepare(self, msg: CoordPrepareRequest) -> None:
        """Register a transaction and replicate its read/write sets (§4.1.4)."""
        if msg.tid in self.finished:
            self._reply_finished(msg.src, msg.tid)
            return
        if self._forgotten(msg.tid) or not self._is_leader_of(msg.group_id):
            return  # stale directory; the client will retry
        state = self.states.get(msg.tid)
        if state is None:
            state = self._new_state(msg.tid, msg.group_id)
        if state.sets_replicated or state.participants:
            # Duplicate registration.  If the transaction was already
            # decided (e.g. a heartbeat-timeout abort whose TxnReply was
            # lost), retransmit the reply so the client can terminate.
            if state.decision is not None:
                self._reply(state, force=True)
            return
        state.client_id = msg.client_id
        self._claim(state, msg.group_id)
        state.participants = dict(msg.participants)
        state.last_heartbeat_ms = self.server.kernel.now
        self._arm_heartbeat_monitor(state)
        record = CoordSetsRecord(
            tid=msg.tid, client_id=msg.client_id,
            participants=tuple(sorted(msg.participants.items())),
            low_water=self._low_water(msg.client_id, msg.group_id,
                                      msg.low_water))
        member = self._member_for(msg.group_id)
        member.propose(record,
                       on_committed=lambda __: self._maybe_decide(state))

    def _low_water(self, client_id: str, group_id: str,
                   client_mark: int) -> int:
        """The mark a new record of ``group_id`` carries: the client's,
        capped by the lowest of its transactions this leader still drives
        in the group, so followers forget only what is finished.  A new
        leader whose log has not re-applied yet may not mirror all of
        those, so its records carry no mark until it has."""
        if not self._member_for(group_id).term_start_applied:
            return 0
        mark = client_mark
        for tid in self.marks.held((group_id, client_id)):
            if tid in self.states:
                mark = min(mark, tid.seq)
        return mark

    def on_commit_request(self, msg: CommitRequest) -> None:
        """Handle the client's commit or abort request (§4.1.2)."""
        if msg.tid in self.finished:
            self._reply_finished(msg.src, msg.tid)
            return
        state = self._state(msg.tid)
        if state is None or not self._is_leader_of(state.group_id):
            return  # unknown here; client retry will find the new leader
        if state.decision is not None:
            # A retransmitted commit request after the decision was made
            # usually means the original TxnReply was lost: re-send it
            # even though `replied` is already set.
            self._reply(state, force=True)
            return
        if state.commit_requested:
            # Retransmission — possibly to a successor coordinator that
            # adopted the replicated state.  Make sure the decision is
            # being actively driven.
            self._maybe_decide(state)
            if state.decision is None and state.requery_timer is None:
                self._requery_prepares(state)
            return
        state.commit_requested = True
        if msg.abort:
            # The application chose to abort: the coordinator may abort
            # immediately, without waiting for prepares (§4.1.2).
            state.client_abort = True
            self._decide(state, ABORT, REASON_CLIENT_ABORT)
            return
        state.writes = dict(msg.writes)
        state.client_read_versions = dict(msg.read_versions)
        record = CoordWriteDataRecord(
            tid=msg.tid, writes=tuple(sorted(msg.writes.items())),
            read_versions=tuple(sorted(msg.read_versions.items())))
        member = self._member_for(state.group_id)

        def replicated(__):
            # write_data_replicated is set by the apply path; this callback
            # only triggers the decision check at the leader.
            self._maybe_decide(state)

        member.propose(record, on_committed=replicated)
        # If prepare results go missing (a participant leader died mid
        # prepare), re-solicit them from the current leaders.
        self._arm_requery(state)

    def on_heartbeat(self, msg: ClientHeartbeat) -> None:
        """Note a client heartbeat (§4.3.1)."""
        state = self._state(msg.tid)
        if state is not None:
            state.last_heartbeat_ms = self.server.kernel.now

    # ------------------------------------------------------------------
    # Participant-facing handlers
    # ------------------------------------------------------------------
    def on_fast_vote(self, msg: FastVote) -> None:
        """Accumulate a CPC fast-path vote and evaluate the quorum (§4.2)."""
        if msg.tid in self.finished or self._forgotten(msg.tid):
            return
        state = self._state(msg.tid)
        if state is None:
            # Votes can arrive before the client's CoordPrepareRequest.
            state = self._new_state(msg.tid)
        votes = state.fast_votes.setdefault(msg.partition_id, {})
        votes.setdefault(msg.replica_id,
                         (msg.decision, msg.read_versions, msg.term,
                          msg.is_leader))
        state.trace_first_ms.setdefault(msg.partition_id,
                                        self.server.kernel.now)
        self._evaluate_fast_path(state, msg.partition_id)

    def _evaluate_fast_path(self, state: CoordTxnState,
                            partition_id: str) -> None:
        """Apply CPC's two fast-path conditions (§4.2)."""
        if partition_id in state.decisions:
            return
        votes = state.fast_votes.get(partition_id, {})
        leader_vote = None
        for vote in votes.values():
            if vote[3]:  # is_leader
                leader_vote = vote
                break
        if leader_vote is None:
            return  # condition 2: the leader must be in the supermajority
        decision, versions, term, __ = leader_vote
        matching = sum(
            1 for v in votes.values()
            if v[0] == decision and v[1] == versions and v[2] == term)
        group_size = len(
            self.server.directory.lookup(partition_id).replicas)
        if matching >= supermajority(group_size):
            state.decisions[partition_id] = (decision, versions)
            state.fast_path_partitions.add(partition_id)
            self.fast_path_decisions += 1
            tracer = self.server.tracer
            if tracer.enabled:
                tracer.add_span(
                    state.tid, SPAN_CPC_FAST, self.server.node_id,
                    self.server.dc,
                    start_ms=state.trace_first_ms.get(partition_id),
                    detail=(f"{partition_id} {decision} "
                            f"votes={matching}/{group_size}"))
            self._maybe_decide(state)

    def on_prepare_result(self, msg: PrepareResult) -> None:
        """Record a slow-path prepare decision from a participant leader."""
        if msg.tid in self.finished or self._forgotten(msg.tid):
            return
        state = self._state(msg.tid)
        if state is None:
            state = self._new_state(msg.tid)
        if msg.partition_id in state.decisions:
            return  # fast path (or an earlier result) already decided
        state.decisions[msg.partition_id] = (msg.decision, msg.read_versions)
        self.slow_path_decisions += 1
        tracer = self.server.tracer
        if tracer.enabled and self.config.fast_path_enabled:
            # In fast mode, a leader PrepareResult arriving before a fast
            # quorum formed means this partition took CPC's slow path.
            tracer.add_span(
                state.tid, SPAN_CPC_SLOW, self.server.node_id,
                self.server.dc,
                start_ms=state.trace_first_ms.get(msg.partition_id),
                detail=f"{msg.partition_id} {msg.decision}")
        self._maybe_decide(state)

    def on_writeback_ack(self, msg: WritebackAck) -> None:
        """Track writeback completion; finish the transaction when all ack."""
        state = self._state(msg.tid)
        if state is None:
            return
        state.writeback_acks.add(msg.partition_id)
        if state.writeback_acks >= set(state.participants):
            self._finish(state)

    # ------------------------------------------------------------------
    # Decision logic
    # ------------------------------------------------------------------
    def _maybe_decide(self, state: CoordTxnState) -> None:
        if state.decision is not None or not state.participants:
            return
        if not self._is_leader_of(state.group_id):
            return
        if state.any_aborted():
            # A participant failed to prepare; the coordinator may abort
            # and reply immediately (§4.1.2).
            self._decide(state, ABORT, REASON_CONFLICT)
            return
        if not (state.commit_requested and state.write_data_replicated):
            return
        if not state.all_prepared():
            return
        if self._stale_read(state):
            self._decide(state, ABORT, REASON_STALE_READ)
            return
        self._decide(state, COMMIT, REASON_COMMITTED)

    def _stale_read(self, state: CoordTxnState) -> bool:
        """Did the client read older versions than the leaders prepared
        with (§4.4.1)?"""
        if not state.client_read_versions:
            return False
        for __, versions in state.decisions.values():
            for key, leader_version in versions:
                client_version = state.client_read_versions.get(key)
                if client_version is not None and \
                        client_version != leader_version:
                    return True
        return False

    def _arm_requery(self, state: CoordTxnState) -> None:
        self._cancel_timer(state, "requery_timer")
        delay = self.config.retry_policy.delay_ms(
            state.requery_attempts, self.server.kernel.random)
        state.requery_timer = self.server.set_timer(
            delay, self._requery_prepares, state)

    def _requery_prepares(self, state: CoordTxnState) -> None:
        if state.decision is not None or \
                not self._is_leader_of(state.group_id):
            return
        state.requery_attempts += 1
        # Sorted so query order never depends on dict insertion history.
        for pid, sets in sorted(state.participants.items()):
            if pid in state.decisions:
                continue
            leader = self.server.directory.lookup(pid).leader
            self._send(leader, PrepareQuery(
                tid=state.tid, partition_id=pid,
                coordinator_id=self.server.node_id,
                coord_group_id=state.group_id,
                read_keys=sets.read_keys, write_keys=sets.write_keys))
        self._arm_requery(state)

    def _decide(self, state: CoordTxnState, decision: str,
                reason: str) -> None:
        state.decision = decision
        state.reason = reason
        self._cancel_timer(state, "requery_timer")
        self._cancel_timer(state, "heartbeat_timer")
        # Fsync the decision BEFORE the reply externalizes it: a committed
        # answer the client has seen must survive a power cycle here.
        self._persist_decision(state)
        self._reply(state)
        member = self._member_for(state.group_id)
        if member is not None and member.is_leader:
            member.propose(CoordDecisionRecord(tid=state.tid,
                                               decision=decision))
        self._send_writebacks(state)

    def _reply(self, state: CoordTxnState, force: bool = False) -> None:
        """Send the client its TxnReply.  ``force`` retransmits even when
        one was already sent (the client asked again, so it was lost)."""
        if (state.replied and not force) or not state.client_id:
            return
        if state.decision is None:
            return
        state.replied = True
        self._send(state.client_id, TxnReply(
            tid=state.tid, committed=state.decision == COMMIT,
            reason=state.reason))

    def _reply_finished(self, client_id: str, tid: TID) -> None:
        decision = self.finished[tid]
        self._send(client_id, TxnReply(
            tid=tid, committed=decision == COMMIT,
            reason=REASON_COMMITTED if decision == COMMIT
            else REASON_CONFLICT))

    # ------------------------------------------------------------------
    # Writeback phase (§4.1.3)
    # ------------------------------------------------------------------
    def _send_writebacks(self, state: CoordTxnState) -> None:
        outstanding = set(state.participants) - state.writeback_acks
        if not outstanding:
            self._finish(state)
            return
        tracer = self.server.tracer
        if tracer.enabled and state.trace_writeback_span is None:
            state.trace_writeback_span = tracer.span_begin(
                state.tid, SPAN_WRITEBACK, self.server.node_id,
                self.server.dc, detail=state.decision or "")
        # Sorted: set iteration order is hash-dependent and would make
        # message order (and trace output) vary across processes.
        for pid in sorted(outstanding):
            sets = state.participants[pid]
            writes = {k: state.writes[k] for k in sets.write_keys
                      if k in state.writes} \
                if state.decision == COMMIT else {}
            leader = self.server.directory.lookup(pid).leader
            self._send(leader, Writeback(
                tid=state.tid, partition_id=pid,
                decision=state.decision, writes=writes))
        self._cancel_timer(state, "writeback_timer")
        delay = self.config.retry_policy.delay_ms(
            state.writeback_attempts, self.server.kernel.random)
        state.writeback_timer = self.server.set_timer(
            delay, self._retry_writebacks, state)

    def _retry_writebacks(self, state: CoordTxnState) -> None:
        if state.tid in self.finished:
            return
        # WAL-recovered decisions are this node's own durable obligation:
        # keep re-driving them even as a follower (a concurrent re-drive by
        # the current leader is harmless — writebacks are idempotent).
        if self._is_leader_of(state.group_id) or state.wal_recovered:
            state.writeback_attempts += 1
            self._send_writebacks(state)

    def _finish(self, state: CoordTxnState) -> None:
        tracer = self.server.tracer
        if tracer.enabled:
            tracer.span_end(state.trace_writeback_span)
            state.trace_writeback_span = None
        self._cancel_timer(state, "heartbeat_timer")
        self._cancel_timer(state, "writeback_timer")
        self._cancel_timer(state, "requery_timer")
        self.finished[state.tid] = state.decision or ABORT
        self.states.pop(state.tid, None)
        wal = self.server.wal
        if wal is not None and state.decision is not None:
            wal.append(CoordFinishWal(tid=state.tid))

    # ------------------------------------------------------------------
    # Durability (decision WAL; §4.3 made crash-proof, not just fail-stop)
    # ------------------------------------------------------------------
    def _persist_decision(self, state: CoordTxnState) -> None:
        """Journal the 2PC outcome with everything needed to re-drive its
        writeback phase from a cold start."""
        wal = self.server.wal
        if wal is None:
            return
        wal.append(CoordDecisionWal(
            tid=state.tid, group_id=state.group_id,
            client_id=state.client_id,
            decision=state.decision or ABORT, reason=state.reason,
            participants=tuple(sorted(state.participants.items())),
            writes=tuple(sorted(state.writes.items()))))

    def restore_from_wal(self, records) -> str:
        """Rebuild decided-but-unfinished transactions after a power cycle.

        Each journaled decision without a matching finish record is
        re-instantiated (participants, writes, outcome) and its writeback
        phase re-driven immediately — the client already saw the reply,
        so the writes are owed to the participant partitions no matter
        who leads the group now.  Returns a summary for the recovery
        trace point.
        """
        finished, owed = restore_decisions(records, self.marks)
        self.finished.update(finished)
        for record in owed:
            state = self._new_state(
                record.tid, client_id=record.client_id,
                group_id=record.group_id,
                participants=dict(record.participants),
                sets_replicated=True, commit_requested=True,
                writes=dict(record.writes), write_data_replicated=True,
                decision=record.decision, reason=record.reason,
                replied=True, wal_recovered=True)
            self._send_writebacks(state)
        return f"redriven={len(owed)} finished={len(finished)}"

    # ------------------------------------------------------------------
    # Client-failure handling (§4.3.1)
    # ------------------------------------------------------------------
    def _arm_heartbeat_monitor(self, state: CoordTxnState) -> None:
        interval = self.config.heartbeat_interval_ms
        state.heartbeat_timer = self.server.set_timer(
            interval, self._check_heartbeat, state)

    def _check_heartbeat(self, state: CoordTxnState) -> None:
        if state.decision is not None or state.commit_requested:
            return  # after the commit request, commit regardless (§4.3.1)
        deadline = (self.config.heartbeat_interval_ms
                    * self.config.heartbeat_misses)
        if self.server.kernel.now - state.last_heartbeat_ms > deadline:
            self._decide(state, ABORT, REASON_TIMEOUT)
            return
        self._arm_heartbeat_monitor(state)

    def _cancel_timer(self, state: CoordTxnState, name: str) -> None:
        timer = getattr(state, name)
        if timer is not None:
            timer.cancel()
            setattr(state, name, None)

    # ------------------------------------------------------------------
    # Raft integration
    # ------------------------------------------------------------------
    def apply(self, command, group_id: str) -> None:
        """Mirror replicated coordinator state (runs on every group
        member)."""
        tid = command.tid
        state = self.states.get(tid)
        if state is None and (tid in self.finished or self.marks.below(
                tid, (group_id, tid.client_id))):
            # Finished here (a record that applies after the decision's
            # writebacks all acked), or forgotten by this group's mark: a
            # state rebuilt from it would never finish.
            return
        if isinstance(command, CoordSetsRecord):
            if state is None:
                state = self._new_state(tid, group_id)
            elif state.group_id != group_id:
                self._claim(state, group_id)
            state.client_id = command.client_id
            if not state.participants:
                state.participants = dict(command.participants)
            state.sets_replicated = True
            self._forget(group_id, command.client_id, command.low_water)
        elif isinstance(command, CoordWriteDataRecord):
            if state is None:
                state = self._new_state(tid, group_id=group_id)
            state.writes = dict(command.writes)
            state.client_read_versions = dict(command.read_versions)
            state.commit_requested = True
            state.write_data_replicated = True
            # A successor coordinator may only learn of the commit request
            # through this replay (the election-time adoption ran before
            # the log was applied): drive the decision from here too.
            if self._is_leader_of(group_id):
                self._maybe_decide(state)
                if state.decision is None and state.requery_timer is None:
                    self._arm_requery(state)
        elif isinstance(command, CoordDecisionRecord):
            if state is not None and state.decision is None:
                state.decision = command.decision
                state.reason = (REASON_COMMITTED
                                if command.decision == COMMIT
                                else REASON_CONFLICT)
        else:  # pragma: no cover - routing bug
            raise TypeError(f"unexpected coordinator record {command!r}")

    def _forget(self, group_id: str, client_id: str,
                low_water: int) -> None:
        """Apply a ``group_id`` record carrying ``client_id``'s mark:
        forget the client's finished outcomes in the group below it and
        the group's states below it, which the record's leader has
        finished; then drop the strays below it (states no group claimed,
        from votes for a transaction decided elsewhere)."""
        for tid in self.marks.advance((group_id, client_id), low_water):
            state = self.states.get(tid)
            if state is None:
                self.finished.pop(tid, None)
            elif state.group_id == group_id:
                self._drop(state)
        for tid in self.marks.advance(("", client_id), low_water):
            state = self.states.get(tid)
            if state is not None and not state.group_id:
                self._drop(state)

    def _drop(self, state: CoordTxnState) -> None:
        for name in ("heartbeat_timer", "writeback_timer", "requery_timer"):
            self._cancel_timer(state, name)
        del self.states[state.tid]

    # ------------------------------------------------------------------
    # Coordinator failover (§4.3)
    # ------------------------------------------------------------------
    def on_leadership(self, group_id: str) -> None:
        """Adopt in-flight transactions coordinated by this group."""
        # Adoption order follows dict insertion order: transaction arrival
        # order, which is itself deterministic under a fixed kernel seed.
        # detlint: ignore[values-fanout]
        for state in list(self.states.values()):
            if state.group_id != group_id:
                continue
            if state.decision is not None:
                # Decision already made (and, if commit, recomputable):
                # re-reply and resume the writeback phase.
                self._reply(state)
                self._send_writebacks(state)
            elif state.write_data_replicated:
                # Re-acquire prepare results from participant leaders; their
                # replies re-enter on_prepare_result and drive the decision.
                state.last_heartbeat_ms = self.server.kernel.now
                self._arm_heartbeat_monitor(state)
                self._arm_requery(state)
                # Sorted like _requery_prepares: stable re-query order.
                for pid, sets in sorted(state.participants.items()):
                    if pid in state.decisions:
                        continue
                    leader = self.server.directory.lookup(pid).leader
                    self._send(leader, PrepareQuery(
                        tid=state.tid, partition_id=pid,
                        coordinator_id=self.server.node_id,
                        coord_group_id=group_id,
                        read_keys=sets.read_keys,
                        write_keys=sets.write_keys))
                self._maybe_decide(state)
            elif state.sets_replicated:
                # Still waiting on the client; restart the heartbeat clock.
                state.last_heartbeat_ms = self.server.kernel.now
                self._arm_heartbeat_monitor(state)
