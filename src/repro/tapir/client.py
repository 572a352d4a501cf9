"""The TAPIR client: transaction coordinator on the application server.

The client reads from the closest replica of each partition, buffers
writes, then runs IR consensus on the prepare: one round trip to all
replicas on the fast path (matching fast quorum of ⌈3f/2⌉+1), or — after a
fast-path **timeout** — a finalize round installing the majority result
(the slow path).  The outcome is reported to the application as soon as
every partition's prepare is decided; commit messages then propagate
asynchronously, but a subsequent transaction from the same client that
touches overlapping keys is held until those commits are acknowledged
(§6.3's "fully committed on TAPIR servers" rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.client import (PHASE_DONE, PHASE_READ, ClientTxn,
                          CompletionCallback, KeyGroup, TxnClient)
from repro.trace.tracer import SPAN_PREPARE, SPAN_READ
from repro.store.directory import DirectoryService
from repro.store.partitioning import Partitioner
from repro.tapir.config import TapirConfig
from repro.tapir.messages import (
    PREPARE_ABORT,
    PREPARE_ABSTAIN,
    PREPARE_OK,
    TapirCommit,
    TapirCommitAck,
    TapirFinalize,
    TapirFinalizeAck,
    TapirPrepare,
    TapirPrepareReply,
    TapirRead,
    TapirReadReply,
)
from repro.txn import (
    REASON_CLIENT_ABORT,
    REASON_COMMITTED,
    REASON_CONFLICT,
    REASON_STALE_READ,
    TID,
    TransactionSpec,
)

PHASE_PREPARE = "prepare"


def fast_quorum(group_size: int) -> int:
    """IR's fast quorum: ⌈3f/2⌉+1 of 2f+1 replicas."""
    f = (group_size - 1) // 2
    return math.ceil(1.5 * f) + 1


def slow_quorum(group_size: int) -> int:
    """IR's classic quorum: f+1."""
    return (group_size - 1) // 2 + 1


@dataclass
class _Partition:
    """Per-partition prepare bookkeeping."""

    pid: str
    replicas: List[str]
    read_keys: Tuple[str, ...] = ()
    write_keys: Tuple[str, ...] = ()
    votes: Dict[str, str] = field(default_factory=dict)
    decided: Optional[str] = None
    via_fast_path: bool = False
    finalize_acks: Set[str] = field(default_factory=set)
    finalizing: bool = False


@dataclass
class _TapirTxn(ClientTxn):
    TIMERS = ("fast_timer", "retry_timer")

    partitions: Dict[str, _Partition] = field(default_factory=dict)
    fast_timer: Any = None
    #: Tracing: the deepest causal context among prepare votes, for the
    #: slow-path timeout join (see :meth:`Tracer.absorb`).
    vote_ctx: Any = None


class TapirClient(TxnClient):
    """An application server running the TAPIR client library."""

    txn_class = _TapirTxn
    system = "tapir"
    HANDLERS = {
        TapirReadReply: "_on_read_reply",
        TapirPrepareReply: "_on_prepare_reply",
        TapirFinalizeAck: "_on_finalize_ack",
        TapirCommitAck: "_on_commit_ack",
    }
    #: The write function may abort before the prepare round starts; the
    #: commit round is asynchronous, after ``done``.
    TRANSITIONS = {
        PHASE_READ: (PHASE_PREPARE, PHASE_DONE),
        PHASE_PREPARE: (PHASE_DONE,),
        PHASE_DONE: (),
    }

    def __init__(self, node_id: str, dc: str, kernel, network,
                 directory: DirectoryService, partitioner: Partitioner,
                 config: TapirConfig,
                 result_hook: Optional[CompletionCallback] = None):
        super().__init__(node_id, dc, kernel, network, directory,
                         partitioner, config.retry_policy, result_hook)
        self.config = config
        #: Keys of our own committed-but-unacknowledged transactions.
        self._locked_keys: Dict[str, int] = {}
        self._commit_acks_pending: Dict[TID, Set[Tuple[str, str]]] = {}
        #: Retransmission state for the asynchronous commit round:
        #: payloads, timers and attempt counts per unacknowledged tid.
        self._commit_payload: Dict[
            TID, Tuple[bool, Dict[str, Dict], Dict[str, Dict[str, int]]]] = {}
        self._commit_timers: Dict[TID, Any] = {}
        self._commit_attempts: Dict[TID, int] = {}
        self._locked_writes: Dict[TID, Tuple[str, ...]] = {}
        self._queued: List[Tuple[TransactionSpec,
                                 Optional[CompletionCallback]]] = []
        self.slow_paths = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, spec: TransactionSpec,
               on_complete: Optional[CompletionCallback] = None
               ) -> Optional[TID]:
        """Run one transaction; returns its TID, or ``None`` if it was
        queued behind a conflicting uncommitted predecessor (§6.3)."""
        if self._blocked_by_own(spec):
            self._queued.append((spec, on_complete))
            return None
        return super().submit(spec, on_complete)

    def _blocked_by_own(self, spec: TransactionSpec) -> bool:
        keys = spec.all_keys()
        if any(key in self._locked_keys for key in keys):
            return True
        # Also hold behind our own in-flight transactions: a client may not
        # run two of its own conflicting transactions concurrently.
        wanted = set(keys)
        return any(wanted & set(txn.spec.all_keys())
                   for txn in self._active.values())

    def _start(self, txn: _TapirTxn, groups: List[KeyGroup]) -> None:
        for pid, read_keys, write_keys in groups:
            info = self.directory.lookup(pid)
            txn.partitions[pid] = _Partition(
                pid=pid, replicas=list(info.replicas),
                read_keys=read_keys, write_keys=write_keys)
        if txn.awaiting_reads:
            self._enter_span(txn, SPAN_READ)
            self._send_reads(txn)
        else:
            self._enter_prepare(txn)

    # ------------------------------------------------------------------
    # Read phase: closest replica per partition
    # ------------------------------------------------------------------
    def _closest_replica(self, pid: str) -> str:
        info = self.directory.lookup(pid)
        best = min(range(len(info.replicas)),
                   key=lambda i: self.network.topology.rtt(
                       self.dc, info.datacenters[i]))
        return info.replicas[best]

    def _send_reads(self, txn: _TapirTxn) -> None:
        for pid in sorted(txn.awaiting_reads):
            part = txn.partitions[pid]
            self.send(self._closest_replica(pid), TapirRead(
                tid=txn.tid, partition_id=pid, keys=part.read_keys))

    def _on_read_reply(self, msg: TapirReadReply) -> None:
        txn = self._absorb_read(msg)
        if txn is not None:
            self._enter_prepare(txn)

    # ------------------------------------------------------------------
    # Prepare phase: IR consensus
    # ------------------------------------------------------------------
    def _enter_prepare(self, txn: _TapirTxn) -> None:
        if not self._compute_writes(txn):
            self._complete(txn, False, REASON_CLIENT_ABORT)
            return
        self._goto(txn, PHASE_PREPARE, SPAN_PREPARE)
        self._send_prepares(txn)
        txn.fast_timer = self.set_timer(
            self.config.fast_path_timeout_ms, self._fast_path_timeout, txn)

    def _send_prepares(self, txn: _TapirTxn) -> None:
        # Ordered: partitions is populated over sorted(pids) in _start,
        # so insertion order is the sorted order.
        # detlint: ignore[values-fanout]
        for part in txn.partitions.values():
            if part.decided is not None:
                continue
            versions = tuple(sorted(
                (k, txn.versions.get(k, 0)) for k in part.read_keys))
            for replica in part.replicas:
                self.send(replica, TapirPrepare(
                    tid=txn.tid, partition_id=part.pid,
                    read_versions=versions, write_keys=part.write_keys))

    def _on_prepare_reply(self, msg: TapirPrepareReply) -> None:
        txn = self._active.get(msg.tid)
        if txn is None or txn.phase != PHASE_PREPARE:
            return
        part = txn.partitions.get(msg.partition_id)
        if part is None or part.decided is not None or part.finalizing:
            return
        tracer = self.tracer
        if tracer.enabled:
            # Remember the deepest vote context: if the fast path fails,
            # the timeout handler's decision causally depends on it.
            ctx = tracer.current
            if ctx is not None and (txn.vote_ctx is None
                                    or ctx.wan_hops > txn.vote_ctx.wan_hops):
                txn.vote_ctx = ctx
        part.votes[msg.replica_id] = msg.result
        needed = fast_quorum(len(part.replicas))
        counts: Dict[str, int] = {}
        for result in part.votes.values():
            counts[result] = counts.get(result, 0) + 1
        for result, count in counts.items():
            if count >= needed:
                part.decided = result
                part.via_fast_path = True
                self._maybe_finish_prepare(txn)
                return

    def _fast_path_timeout(self, txn: _TapirTxn) -> None:
        """The fast path did not decide in time; run IR's slow path for
        every undecided partition."""
        if txn.phase != PHASE_PREPARE:
            return
        tracer = self.tracer
        if tracer.enabled:
            # Join: this timer fires with an empty context, but the slow
            # path's decision is computed from the votes received so far.
            tracer.absorb(txn.vote_ctx)
        # Ordered: partitions insertion order is sorted(pids); see _start.
        # detlint: ignore[values-fanout]
        for part in txn.partitions.values():
            if part.decided is not None or part.finalizing:
                continue
            quorum = slow_quorum(len(part.replicas))
            if len(part.votes) < quorum:
                # Not enough votes even for the slow path (failures):
                # rearm and let retransmission gather more votes.
                txn.fast_timer = self.set_timer(
                    self.config.fast_path_timeout_ms,
                    self._fast_path_timeout, txn)
                return
            ok_votes = sum(1 for r in part.votes.values()
                           if r == PREPARE_OK)
            result = PREPARE_OK if ok_votes >= quorum else PREPARE_ABORT
            part.finalizing = True
            self.slow_paths += 1
            if tracer.enabled:
                tracer.point(txn.tid, "tapir-finalize", self.node_id,
                             self.dc, detail=f"{part.pid} {result}")
            for replica in part.replicas:
                self.send(replica, TapirFinalize(
                    tid=txn.tid, partition_id=part.pid, result=result))
            part.decided = result  # provisional until f+1 acks
            part.finalize_acks = set()

    def _on_finalize_ack(self, msg: TapirFinalizeAck) -> None:
        txn = self._active.get(msg.tid)
        if txn is None or txn.phase != PHASE_PREPARE:
            return
        part = txn.partitions.get(msg.partition_id)
        if part is None or not part.finalizing:
            return
        part.finalize_acks.add(msg.replica_id)
        if len(part.finalize_acks) >= slow_quorum(len(part.replicas)):
            part.finalizing = False
            self._maybe_finish_prepare(txn)

    def _maybe_finish_prepare(self, txn: _TapirTxn) -> None:
        if any(p.decided is None or p.finalizing
               for p in txn.partitions.values()):
            return
        commit = all(p.decided == PREPARE_OK
                     for p in txn.partitions.values())
        results = {p.decided for p in txn.partitions.values()}
        reason = REASON_COMMITTED if commit else (
            REASON_STALE_READ if PREPARE_ABORT in results
            else REASON_CONFLICT)
        self._send_commits(txn, commit)
        self._complete(txn, commit, reason)

    # ------------------------------------------------------------------
    # Commit phase (asynchronous; locks the keys until acknowledged)
    # ------------------------------------------------------------------
    def _send_commits(self, txn: _TapirTxn, commit: bool) -> None:
        pending: Set[Tuple[str, str]] = set()
        writes_by_pid: Dict[str, Dict] = {}
        versions_by_pid: Dict[str, Dict[str, int]] = {}
        # Ordered: partitions insertion order is sorted(pids); see _start.
        # detlint: ignore[values-fanout]
        for part in txn.partitions.values():
            writes = {k: txn.writes[k] for k in part.write_keys
                      if k in txn.writes} if commit else {}
            # The write's installation version is read version + 1 (the
            # transaction's timestamp) so replicas apply commits
            # order-independently; blind writes omit the version.
            versions = {k: txn.versions[k] + 1 for k in writes
                        if k in txn.versions}
            writes_by_pid[part.pid] = writes
            versions_by_pid[part.pid] = versions
            for replica in part.replicas:
                pending.add((part.pid, replica))
                self.send(replica, TapirCommit(
                    tid=txn.tid, partition_id=part.pid,
                    commit=commit, writes=writes, write_versions=versions))
        if pending:
            # Track every outstanding (partition, replica) ack and
            # retransmit until all arrive: a lost TapirCommit would
            # otherwise strand the replica's prepared entry (aborts) or
            # this client's key locks (commits) forever.
            self._commit_acks_pending[txn.tid] = pending
            self._commit_payload[txn.tid] = (commit, writes_by_pid,
                                             versions_by_pid)
            self._arm_commit_retry(txn.tid)
        if commit and pending:
            keys = txn.spec.all_keys()
            self._locked_writes[txn.tid] = keys
            for key in keys:
                self._locked_keys[key] = self._locked_keys.get(key, 0) + 1

    def _arm_commit_retry(self, tid: TID) -> None:
        attempts = self._commit_attempts.get(tid, 0)
        delay = self.retry_policy.delay_ms(attempts, self.kernel.random)
        self._commit_timers[tid] = self.set_timer(
            delay, self._retry_commits, tid)

    def _retry_commits(self, tid: TID) -> None:
        pending = self._commit_acks_pending.get(tid)
        if not pending:
            return
        self._commit_attempts[tid] = self._commit_attempts.get(tid, 0) + 1
        commit, writes_by_pid, versions_by_pid = self._commit_payload[tid]
        # Sorted so retransmission order never depends on set history.
        for pid, replica in sorted(pending):
            self.send(replica, TapirCommit(
                tid=tid, partition_id=pid, commit=commit,
                writes=writes_by_pid[pid],
                write_versions=versions_by_pid[pid]))
        self._arm_commit_retry(tid)

    def _on_commit_ack(self, msg: TapirCommitAck) -> None:
        pending = self._commit_acks_pending.get(msg.tid)
        if pending is None:
            return
        pending.discard((msg.partition_id, msg.replica_id))
        if not pending:
            del self._commit_acks_pending[msg.tid]
            timer = self._commit_timers.pop(msg.tid, None)
            if timer is not None:
                timer.cancel()
            self._commit_payload.pop(msg.tid, None)
            self._commit_attempts.pop(msg.tid, None)
            self._release_locks(msg.tid)

    def _release_locks(self, tid: TID) -> None:
        for key in self._locked_writes.pop(tid, ()):
            count = self._locked_keys.get(key, 0) - 1
            if count <= 0:
                self._locked_keys.pop(key, None)
            else:
                self._locked_keys[key] = count
        self._drain_queue()

    def _drain_queue(self) -> None:
        still_queued = []
        for spec, on_complete in self._queued:
            if self._blocked_by_own(spec):
                still_queued.append((spec, on_complete))
            else:
                super().submit(spec, on_complete)
        self._queued = still_queued

    # ------------------------------------------------------------------
    # Completion and retransmission
    # ------------------------------------------------------------------
    def _complete(self, txn: _TapirTxn, committed: bool,
                  reason: str) -> None:
        super()._complete(txn, committed, reason)
        self._drain_queue()

    def _resend(self, txn: _TapirTxn) -> None:
        if txn.phase == PHASE_READ:
            self._send_reads(txn)
        elif txn.phase == PHASE_PREPARE:
            self._send_prepares(txn)
            self._resend_finalizes(txn)

    def _resend_finalizes(self, txn: _TapirTxn) -> None:
        """Retransmit finalize messages for stalled slow paths: a lost
        TapirFinalize (or ack) would otherwise never reach its quorum —
        replicas re-ack duplicates idempotently."""
        # Ordered: partitions insertion order is sorted(pids); see _start.
        # detlint: ignore[values-fanout]
        for part in txn.partitions.values():
            if not part.finalizing:
                continue
            for replica in part.replicas:
                if replica in part.finalize_acks:
                    continue
                self.send(replica, TapirFinalize(
                    tid=txn.tid, partition_id=part.pid,
                    result=part.decided))
