"""Participant-side protocol logic for one partition.

A :class:`PartitionComponent` lives inside a Carousel data server and owns
that server's replica of one partition: the versioned store, the
pending-transaction list, and the participant's share of the transaction
protocol.  The same component serves both roles:

* as **participant leader** it answers reads, makes prepare decisions,
  replicates them through Raft, and reports them to coordinators (§4.1);
* as **participant follower** it applies replicated records and, under CPC,
  casts fast-path votes directly to coordinators (§4.2).

State is bounded by the transactions in flight, not by history: each
:class:`PrepareRecord` carries its client's low-water mark, and applying
it forgets that client's resolved transactions below the mark (their
``resolved`` and ``prepare_log`` entries) on every replica alike.  A
transaction below the mark with no prepare record left is *settled*: a
request or writeback for it is answered as already resolved.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core import recovery as recovery_mod
from repro.core.messages import (
    FastVote,
    PrepareQuery,
    PrepareResult,
    ReadOnlyReply,
    ReadOnlyRequest,
    ReadPrepareRequest,
    ReadReply,
    Writeback,
    WritebackAck,
)
from repro.core.occ import (
    ABORT,
    PREPARED,
    PendingList,
    PendingTxn,
    freeze_versions,
)
from repro.core.records import CommitRecord, PrepareRecord
from repro.raft.node import RaftMember
from repro.sim.node import Handlers
from repro.trace.tracer import SPAN_PREPARE
from repro.store.kvstore import VersionedKVStore
from repro.txn import TID, ClientMarks, applied_outcome, applied_outcomes
from repro.wal.records import OccPrepareWal

COMMIT = "commit"


class PartitionComponent:
    """One server's replica of one partition."""

    #: The replicated prepare and writeback records it applies, and the
    #: provisional entries it journals.
    RECORDS = {
        PrepareRecord: "_apply_prepare",
        CommitRecord: "_apply_commit",
        OccPrepareWal: "_restore_provisional",
    }

    def __init__(self, server, partition_id: str,
                 store: Optional[VersionedKVStore] = None):
        self.server = server
        self.handlers = Handlers(server, (server.PARTITION_HANDLERS, self),
                                 (self.RECORDS, self))
        self.partition_id = partition_id
        self.store = store or VersionedKVStore()
        self.pending = PendingList()
        #: Final writeback outcomes: tid -> "commit" | "abort".
        self.resolved: Dict[TID, str] = {}
        #: Replicated prepare decisions: tid -> PrepareRecord.
        self.prepare_log: Dict[TID, PrepareRecord] = {}
        #: Clients' applied low-water marks and the tids held above them.
        self.marks = ClientMarks()
        self.member: Optional[RaftMember] = None
        #: Requests buffered while CPC leader recovery runs (§4.3.3 step 1).
        self.recovering = False
        self._buffered: List = []
        # Counters for tests and ablations.
        self.prepares_attempted = 0
        self.prepares_rejected = 0
        self.fast_votes_cast = 0

    def attach_member(self, member: RaftMember) -> None:
        """Bind this component to its partition's Raft member."""
        self.member = member

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.member is not None and self.member.is_leader

    def _current_versions(self, keys) -> Dict[str, int]:
        return {k: self.store.version(k) for k in keys}

    def _send(self, dst: str, msg) -> None:
        self.server.send(dst, msg)

    def settled(self, tid: TID) -> bool:
        """Resolved here, or forgotten (:meth:`ClientMarks.settled`)."""
        return self.marks.settled(tid, self.resolved, self.prepare_log)

    def _settled_result(self, tid: TID, coordinator_id: str) -> None:
        """Answer a prepare request for a settled ``tid`` with its
        outcome, as a prepare decision."""
        # A forgotten outcome is read back from the applied log (a
        # successor coordinator recomputing a decision its failed
        # predecessor already replied needs the real one); none there
        # means it never prepared here, so it can only have aborted.
        decision = self.resolved.get(tid) or \
            applied_outcome(self.member, CommitRecord, tid) or ABORT
        self._send(coordinator_id, PrepareResult(
            tid=tid, partition_id=self.partition_id,
            decision=PREPARED if decision == COMMIT else ABORT))

    # ------------------------------------------------------------------
    # Message entry points (called by the server's dispatcher)
    # ------------------------------------------------------------------
    def on_read_prepare(self, msg: ReadPrepareRequest) -> None:
        """Handle a piggybacked read+prepare request (§4.1.4, §4.2)."""
        if self.recovering:
            self._buffered.append(msg)
            return
        # Reads are answered immediately from the local store — by the
        # leader, and by a client-local replica under the local-read
        # optimization (§4.4.1).  Values may be stale at a follower; the
        # coordinator's version check catches that at commit time.
        if msg.want_read and msg.read_keys:
            self._send(msg.src, ReadReply(
                tid=msg.tid, partition_id=self.partition_id,
                replica_id=self.server.node_id, from_leader=self.is_leader,
                values=self.store.read_versioned(msg.read_keys)))
        if self.is_leader:
            self._leader_prepare(msg)
        elif msg.fast_path:
            self._follower_fast_vote(msg)

    def on_read_only(self, msg: ReadOnlyRequest) -> None:
        """One-roundtrip read-only path (§4.4.2): OCC-validate against
        pending writers, then return data or abort."""
        if self.recovering:
            self._buffered.append(msg)
            return
        if not self.is_leader:
            return  # client will retry against the current leader
        if self.pending.blocks_read_only(msg.keys):
            self._send(msg.src, ReadOnlyReply(
                tid=msg.tid, partition_id=self.partition_id, ok=False))
            return
        self._send(msg.src, ReadOnlyReply(
            tid=msg.tid, partition_id=self.partition_id, ok=True,
            values=self.store.read_versioned(msg.keys)))

    def on_writeback(self, msg: Writeback) -> None:
        """Replicate and apply a commit decision, then ack (§4.1.3)."""
        if self.recovering:
            self._buffered.append(msg)
            return
        if not self.is_leader:
            return  # coordinator retries against the current leader
        tid = msg.tid
        if self.settled(tid):
            self._send(msg.src, WritebackAck(
                tid=tid, partition_id=self.partition_id))
            return
        if self.member.proposal_inflight(("writeback", tid)):
            return
        record = CommitRecord(
            tid=tid, partition_id=self.partition_id,
            decision=msg.decision, writes=tuple(msg.writes.items()))
        coordinator = msg.src

        def replicated(_entry):
            self._send(coordinator, WritebackAck(
                tid=tid, partition_id=self.partition_id))

        self.member.propose_keyed(("writeback", tid), record, replicated)

    def on_prepare_query(self, msg: PrepareQuery) -> None:
        """A recovered coordinator re-requests our prepare result
        (§4.3, coordinator failover)."""
        if self.recovering:
            self._buffered.append(msg)
            return
        if not self.is_leader:
            return
        tid = msg.tid
        if self.settled(tid):
            self._settled_result(tid, msg.coordinator_id)
            return
        record = self.prepare_log.get(tid)
        if record is not None:
            self._send(msg.coordinator_id, PrepareResult(
                tid=tid, partition_id=self.partition_id,
                decision=record.decision,
                read_versions=record.read_versions))
            return
        # Never saw this transaction (the original prepare died with a
        # previous leader): run a fresh prepare from the query's sets.
        self._leader_prepare(ReadPrepareRequest(
            tid=tid, partition_id=self.partition_id,
            coordinator_id=msg.coordinator_id,
            coord_group_id=msg.coord_group_id,
            read_keys=msg.read_keys, write_keys=msg.write_keys,
            want_read=False, fast_path=False))

    # ------------------------------------------------------------------
    # Prepare logic
    # ------------------------------------------------------------------
    def _leader_prepare(self, msg: ReadPrepareRequest) -> None:
        tid = msg.tid
        # Retransmission handling: reuse the recorded decision.
        if self.settled(tid):
            self._settled_result(tid, msg.coordinator_id)
            return
        if tid in self.prepare_log:
            record = self.prepare_log[tid]
            self._send(msg.coordinator_id, PrepareResult(
                tid=tid, partition_id=self.partition_id,
                decision=record.decision,
                read_versions=record.read_versions))
            return
        if self.member.proposal_inflight(("prepare", tid)):
            return  # replication in flight; the result will be sent

        self.prepares_attempted += 1
        conflict = self.pending.conflicts(tid, msg.read_keys, msg.write_keys)
        decision = ABORT if conflict else PREPARED
        if conflict:
            self.prepares_rejected += 1
        versions = freeze_versions(self._current_versions(msg.read_keys))
        term = self.member.current_term

        if msg.fast_path:
            # The leader's fast vote: CPC's fast path (§4.2).
            self.fast_votes_cast += 1
            self._send(msg.coordinator_id, FastVote(
                tid=tid, partition_id=self.partition_id,
                replica_id=self.server.node_id, is_leader=True,
                decision=decision, read_versions=versions, term=term))

        if decision == PREPARED:
            entry = PendingTxn(
                tid=tid, read_keys=frozenset(msg.read_keys),
                write_keys=frozenset(msg.write_keys),
                read_versions=versions, term=term,
                coordinator_id=msg.coordinator_id, provisional=True)
            self._persist_provisional(entry)
            self.pending.add(entry)
            self.marks.hold(tid)

        record = PrepareRecord(
            tid=tid, partition_id=self.partition_id, decision=decision,
            read_keys=tuple(msg.read_keys), write_keys=tuple(msg.write_keys),
            read_versions=versions, term=term,
            coordinator_id=msg.coordinator_id,
            coord_group_id=msg.coord_group_id, low_water=msg.low_water)
        tracer = self.server.tracer
        span = None
        if tracer.enabled:
            span = tracer.span_begin(
                tid, SPAN_PREPARE, self.server.node_id, self.server.dc,
                detail=f"{self.partition_id} {decision}")

        def replicated(_entry):
            # Slow-path completion: decision is durable, report it (§4.1.4).
            self.server.tracer.span_end(span)
            self._send(record.coordinator_id, PrepareResult(
                tid=tid, partition_id=self.partition_id,
                decision=record.decision,
                read_versions=record.read_versions))

        if self.member.propose_keyed(("prepare", tid), record,
                                     replicated) is None:
            self.server.tracer.span_end(span)

    def _follower_fast_vote(self, msg: ReadPrepareRequest) -> None:
        """A follower's independent CPC vote, from purely local state
        (§4.2)."""
        tid = msg.tid
        if self.settled(tid):
            return
        tracer = self.server.tracer
        existing = self.pending.get(tid)
        if existing is not None:
            # The slow-path record arrived first; vote consistently with it.
            self.fast_votes_cast += 1
            if tracer.enabled:
                tracer.point(tid, "fast-vote", self.server.node_id,
                             self.server.dc,
                             detail=f"{self.partition_id} {PREPARED}")
            self._send(msg.coordinator_id, FastVote(
                tid=tid, partition_id=self.partition_id,
                replica_id=self.server.node_id, is_leader=False,
                decision=PREPARED, read_versions=existing.read_versions,
                term=existing.term))
            return
        conflict = self.pending.conflicts(tid, msg.read_keys, msg.write_keys)
        decision = ABORT if conflict else PREPARED
        versions = freeze_versions(self._current_versions(msg.read_keys))
        term = self.member.current_term
        if decision == PREPARED:
            entry = PendingTxn(
                tid=tid, read_keys=frozenset(msg.read_keys),
                write_keys=frozenset(msg.write_keys),
                read_versions=versions, term=term,
                coordinator_id=msg.coordinator_id, provisional=True)
            self._persist_provisional(entry)
            self.pending.add(entry)
            self.marks.hold(tid)
        self.fast_votes_cast += 1
        if tracer.enabled:
            tracer.point(tid, "fast-vote", self.server.node_id,
                         self.server.dc,
                         detail=f"{self.partition_id} {decision}")
        self._send(msg.coordinator_id, FastVote(
            tid=tid, partition_id=self.partition_id,
            replica_id=self.server.node_id, is_leader=False,
            decision=decision, read_versions=versions, term=term))

    # ------------------------------------------------------------------
    # Raft integration (state-machine apply, on every replica in log order)
    # ------------------------------------------------------------------
    def _apply_prepare(self, record: PrepareRecord) -> None:
        tid = record.tid
        if self.marks.forgotten(tid, self.resolved, self.prepare_log):
            # A late prepare of a transaction its client has finished.
            self.pending.remove(tid)
            return
        resolved = tid in self.resolved
        self.prepare_log[tid] = record
        self.marks.hold(tid)
        if not resolved:
            if record.decision == PREPARED:
                self.pending.add(PendingTxn(
                    tid=tid, read_keys=frozenset(record.read_keys),
                    write_keys=frozenset(record.write_keys),
                    read_versions=record.read_versions, term=record.term,
                    coordinator_id=record.coordinator_id,
                    provisional=False))
            else:
                self.pending.remove(tid)
        self.marks.forget_resolved(tid.client_id, record.low_water,
                                   self.resolved, self.prepare_log,
                                   self.pending)

    def _apply_commit(self, record: CommitRecord) -> None:
        tid = record.tid
        if tid in self.resolved:
            return
        if self.marks.forgotten(tid, self.prepare_log):
            # A duplicate writeback of a forgotten transaction re-applies
            # nothing.
            self.pending.remove(tid)
            return
        self.resolved[tid] = record.decision
        self.marks.hold(tid)
        if record.decision == COMMIT:
            for key, value in record.writes:
                # Versions advance identically on every replica because all
                # replicas apply the same log in the same order.
                self.store.write(key, value, self.store.version(key) + 1)
        self.pending.remove(tid)

    def applied_decisions(self) -> Dict[TID, str]:
        """Every writeback outcome in the applied Raft log
        (:func:`~repro.txn.applied_outcomes`)."""
        return applied_outcomes(self.member, CommitRecord)

    def vote_payload(self):
        """Pending-transaction list piggybacked on Raft votes (§4.3.3)."""
        return self.pending.snapshot()

    # ------------------------------------------------------------------
    # Durability (provisional prepared-set redo across power cycles)
    # ------------------------------------------------------------------
    def _persist_provisional(self, entry: PendingTxn) -> None:
        """Fsync a provisional pending entry before the vote it backs.

        §4.3.3's leader recovery reconstructs prepared transactions from
        surviving replicas' pending lists; journaling provisional entries
        keeps a power-cycled replica a usable member of that protocol
        instead of one that silently forgot every vote it cast.
        """
        wal = self.server.wal
        if wal is None:
            return
        wal.append(OccPrepareWal(
            partition_id=self.partition_id, tid=entry.tid,
            read_keys=tuple(sorted(entry.read_keys)),
            write_keys=tuple(sorted(entry.write_keys)),
            read_versions=entry.read_versions, term=entry.term,
            coordinator_id=entry.coordinator_id))

    def _restore_provisional(self, record: OccPrepareWal) -> None:
        """Restart redo: re-add a journaled provisional pending entry.

        Undo happens the same way it does in steady state: as the Raft
        log re-applies, PrepareRecord/CommitRecord processing confirms or
        removes each entry.
        """
        if self.settled(record.tid) or \
                self.pending.get(record.tid) is not None:
            return
        self.pending.add(PendingTxn(
            tid=record.tid, read_keys=frozenset(record.read_keys),
            write_keys=frozenset(record.write_keys),
            read_versions=record.read_versions, term=record.term,
            coordinator_id=record.coordinator_id, provisional=True))
        self.marks.hold(record.tid)

    def fold(self, records):
        """A WAL fold's share: drop the provisional entries journaled for
        transactions settled here."""
        pid = self.partition_id
        return [record for record in records
                if type(record) is not OccPrepareWal
                or record.partition_id != pid
                or not self.settled(record.tid)]

    def resume(self) -> None:
        """Nothing to re-drive: the replay already re-added the
        provisional entries, and the Raft log settles them."""

    def on_leadership(self, member: RaftMember, vote_payloads) -> None:
        """This server was just elected participant leader."""
        self.server.directory.set_leader(self.partition_id,
                                         self.server.node_id)
        recovery_mod.run_participant_recovery(self, vote_payloads)

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------
    def begin_recovery(self) -> None:
        """Start buffering requests during CPC leader recovery (§4.3.3)."""
        self.recovering = True

    def finish_recovery(self) -> None:
        """Re-report prepare results, then drain buffered requests."""
        self.recovering = False
        # Ordered: prepare_log insertion order is prepare arrival order,
        # which is deterministic under a fixed kernel seed.
        # detlint: ignore[values-fanout]
        for record in self.prepare_log.values():
            if record.tid in self.resolved:
                continue
            self._send(record.coordinator_id, PrepareResult(
                tid=record.tid, partition_id=self.partition_id,
                decision=record.decision,
                read_versions=record.read_versions))
        buffered, self._buffered = self._buffered, []
        for msg in buffered:
            self.handlers[type(msg)](msg)
