"""Carousel's client-side library.

Implements the Figure 1 interface over the simulator's event-driven model:
an application submits a :class:`~repro.txn.TransactionSpec` (the 2FI
transaction: fixed read/write key sets plus a write-value function) and the
client runs the whole protocol — reads piggybacked with prepares, the
commit round, heartbeats, retransmissions — completing with a
:class:`~repro.txn.TxnResult` callback.

The client always selects a local participant leader as the transaction
coordinator when one exists, otherwise any local consensus group leader
(§3.3).  In ``FAST`` mode it sends prepare requests to every replica of
each participant partition (CPC, §4.2) and reads from a replica in its own
datacenter when the partition leader is remote (§4.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.client import (PHASE_DONE, PHASE_READ, ClientTxn,
                          CompletionCallback, KeyGroup, TxnClient)
from repro.core.config import CarouselConfig
from repro.core.messages import (
    ClientHeartbeat,
    CommitRequest,
    CoordPrepareRequest,
    PartitionSets,
    ReadOnlyReply,
    ReadOnlyRequest,
    ReadPrepareRequest,
    ReadReply,
    TxnReply,
)
from repro.trace.tracer import SPAN_COMMIT, SPAN_READ, SPAN_READ_ONLY
from repro.store.directory import DirectoryCache, DirectoryService
from repro.store.partitioning import Partitioner
from repro.txn import REASON_COMMITTED, REASON_CONFLICT

PHASE_COMMIT = "commit"
PHASE_READ_ONLY = "read_only"


@dataclass
class _ClientTxn(ClientTxn):
    """Carousel's additions to the client-side transaction state."""

    TIMERS = ("heartbeat_timer", "retry_timer")

    participants: Dict[str, PartitionSets] = field(default_factory=dict)
    coordinator_id: str = ""
    coord_group_id: str = ""
    abort_requested: bool = False
    heartbeat_timer: Any = None


class CarouselClient(TxnClient):
    """An application server running Carousel's client library (§3.3)."""

    txn_class = _ClientTxn
    HANDLERS = {
        ReadReply: "_on_read_reply",
        TxnReply: "_on_txn_reply",
        ReadOnlyReply: "_on_read_only_reply",
    }
    #: Figure 1's read round, then the commit round; or the §4.4
    #: read-only round alone.  A coordinator abort can end the read round.
    TRANSITIONS = {
        PHASE_READ: (PHASE_READ_ONLY, PHASE_COMMIT, PHASE_DONE),
        PHASE_READ_ONLY: (PHASE_DONE,),
        PHASE_COMMIT: (PHASE_DONE,),
        PHASE_DONE: (),
    }

    def __init__(self, node_id: str, dc: str, kernel, network,
                 directory: DirectoryService, partitioner: Partitioner,
                 config: CarouselConfig,
                 result_hook: Optional[CompletionCallback] = None):
        if config.directory_cache_ttl_ms is not None:
            directory = DirectoryCache(
                directory, clock=lambda: kernel.now,
                ttl_ms=config.directory_cache_ttl_ms)
        super().__init__(node_id, dc, kernel, network, directory,
                         partitioner, config.retry_policy, result_hook)
        self.config = config
        self.system = "carousel-" + config.mode
        self._coord_rr = 0

    # ------------------------------------------------------------------
    # First phase
    # ------------------------------------------------------------------
    def _start(self, txn: _ClientTxn, groups: List[KeyGroup]) -> None:
        for pid, read_keys, write_keys in groups:
            txn.participants[pid] = PartitionSets(read_keys, write_keys)
        if txn.spec.is_read_only and self.config.read_only_optimization:
            self._goto(txn, PHASE_READ_ONLY, SPAN_READ_ONLY)
            self._send_read_only(txn)
        else:
            self._choose_coordinator(txn)
            self._enter_span(txn, SPAN_READ)
            self._send_read_prepare(txn)
            self._arm_heartbeat(txn)
            if not txn.awaiting_reads:
                self._enter_commit_phase(txn)

    def _choose_coordinator(self, txn: _ClientTxn) -> None:
        """Prefer a local participant leader; else any local leader; else
        the nearest leader (§3.3)."""
        local_participant = None
        for pid in txn.participants:
            info = self.directory.lookup(pid)
            if info.leader_datacenter() == self.dc:
                local_participant = pid
                break
        if local_participant is not None:
            group = local_participant
        else:
            local_groups = self.directory.leaders_in(self.dc)
            if local_groups:
                group = local_groups[self._coord_rr % len(local_groups)]
                self._coord_rr += 1
            else:
                topo = self.network.topology
                group = min(
                    self.directory.partitions(),
                    key=lambda pid: topo.rtt(
                        self.dc,
                        self.directory.lookup(pid).leader_datacenter()))
        info = self.directory.lookup(group)
        txn.coord_group_id = group
        txn.coordinator_id = info.leader

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _send_read_prepare(self, txn: _ClientTxn) -> None:
        self.send(txn.coordinator_id, CoordPrepareRequest(
            tid=txn.tid, client_id=self.node_id,
            group_id=txn.coord_group_id,
            participants=dict(txn.participants)))
        fast = self.config.fast_path_enabled
        local_reads = self.config.local_reads_enabled
        nearest_reads = fast and self.config.read_nearest_replica
        # Ordered: participants is built over the shell's sorted key
        # groups in _start, so insertion order is the sorted order.
        # detlint: ignore[values-fanout]
        for pid, sets in txn.participants.items():
            info = self.directory.lookup(pid)
            targets = info.replicas if fast else [info.leader]
            nearest = None
            if nearest_reads and sets.read_keys and \
                    info.replica_in(self.dc) is None:
                # §4.4.1 extension: no local replica, so also read from
                # the closest one (staleness is caught at commit time).
                topo = self.network.topology
                nearest = min(
                    info.replicas,
                    key=lambda r: topo.rtt(
                        self.dc,
                        info.datacenters[info.replicas.index(r)]))
            for replica, replica_dc in zip(info.replicas, info.datacenters):
                if replica not in targets:
                    continue
                want_read = bool(sets.read_keys) and (
                    replica == info.leader
                    or (local_reads and replica_dc == self.dc)
                    or replica == nearest)
                self.send(replica, ReadPrepareRequest(
                    tid=txn.tid, partition_id=pid,
                    coordinator_id=txn.coordinator_id,
                    coord_group_id=txn.coord_group_id,
                    read_keys=sets.read_keys,
                    write_keys=sets.write_keys,
                    want_read=want_read, fast_path=fast))

    def _send_read_only(self, txn: _ClientTxn) -> None:
        # Ordered: participants insertion order is sorted(pids); see
        # _start.  Every partition of a read-only transaction has read
        # keys, so awaiting_reads is exactly the set yet to answer OK.
        # detlint: ignore[values-fanout]
        for pid, sets in txn.participants.items():
            if pid not in txn.awaiting_reads:
                continue
            leader = self.directory.lookup(pid).leader
            self.send(leader, ReadOnlyRequest(
                tid=txn.tid, partition_id=pid, keys=sets.read_keys))

    def _send_commit(self, txn: _ClientTxn) -> None:
        read_versions = {k: txn.versions[k] for k in txn.spec.read_keys
                         if k in txn.versions}
        self.send(txn.coordinator_id, CommitRequest(
            tid=txn.tid, abort=txn.abort_requested,
            writes=dict(txn.writes), read_versions=read_versions))

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_read_reply(self, msg: ReadReply) -> None:
        txn = self._absorb_read(msg)
        if txn is not None:
            self._enter_commit_phase(txn)

    def _enter_commit_phase(self, txn: _ClientTxn) -> None:
        self._goto(txn, PHASE_COMMIT, SPAN_COMMIT)
        # On an application abort the coordinator is still told (§4.1.2).
        txn.abort_requested = not self._compute_writes(txn)
        self._cancel_timer(txn, "heartbeat_timer")
        self._send_commit(txn)

    def _on_txn_reply(self, msg: TxnReply) -> None:
        txn = self._active.get(msg.tid)
        if txn is None:
            return
        self._complete(txn, msg.committed, msg.reason)

    def _on_read_only_reply(self, msg: ReadOnlyReply) -> None:
        txn = self._active.get(msg.tid)
        if txn is None or txn.phase != PHASE_READ_ONLY:
            return
        if not msg.ok:
            self._complete(txn, False, REASON_CONFLICT)
        elif self._absorb_read(msg, PHASE_READ_ONLY) is not None:
            self._complete(txn, True, REASON_COMMITTED)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_heartbeat(self, txn: _ClientTxn) -> None:
        txn.heartbeat_timer = self.set_timer(
            self.config.heartbeat_interval_ms, self._heartbeat, txn)

    def _heartbeat(self, txn: _ClientTxn) -> None:
        if txn.phase != PHASE_READ:
            return  # heartbeats stop once the commit request is sent
        self.send(txn.coordinator_id, ClientHeartbeat(tid=txn.tid))
        self._arm_heartbeat(txn)

    def _resend(self, txn: _ClientTxn) -> None:
        """Retransmit the current phase against (possibly new) leaders."""
        if isinstance(self.directory, DirectoryCache):
            # A stall usually means a leader moved: refresh our view of
            # this transaction's partitions before retransmitting.
            for pid in txn.participants:
                self.directory.invalidate(pid)
            if txn.coord_group_id:
                self.directory.invalidate(txn.coord_group_id)
        if txn.phase == PHASE_READ_ONLY:
            self._send_read_only(txn)
        elif txn.phase == PHASE_READ:
            self._refresh_coordinator(txn)
            self._send_read_prepare(txn)
        elif txn.phase == PHASE_COMMIT:
            self._refresh_coordinator(txn)
            # A successor coordinator elected before the read/write sets
            # replicated holds no record of this transaction, and the
            # commit request alone cannot create one (it carries no
            # participant sets).  Re-register first: on_coord_prepare
            # ignores duplicates, so this is safe for the common case
            # where the coordinator already knows the transaction.
            self.send(txn.coordinator_id, CoordPrepareRequest(
                tid=txn.tid, client_id=self.node_id,
                group_id=txn.coord_group_id,
                participants=dict(txn.participants)))
            self._send_commit(txn)

    def _refresh_coordinator(self, txn: _ClientTxn) -> None:
        """The coordinating *group* is fixed for the transaction's life;
        only its leader may have moved."""
        info = self.directory.lookup(txn.coord_group_id)
        txn.coordinator_id = info.leader
