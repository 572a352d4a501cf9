"""A TAPIR storage replica.

Replicas are inconsistently replicated: each answers reads and validates
prepares from purely local state; agreement is the client's job (IR).  OCC
validation checks the transaction's read versions against the store and
its read/write keys against other prepared-but-unresolved transactions.
"""

from __future__ import annotations

from typing import Dict

from repro.core.occ import PendingList, PendingTxn
from repro.sim.node import Node
from repro.store.kvstore import VersionedKVStore
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
from repro.txn import TID
from repro.wal.records import (
    TapirFinalizeWal,
    TapirPrepareWal,
    TapirResolveWal,
)


class TapirReplica(Node):
    """One replica of one TAPIR partition."""

    HANDLERS = {
        TapirRead: "_on_read",
        TapirPrepare: "_on_prepare",
        TapirFinalize: "_on_finalize",
        TapirCommit: "_on_commit",
    }
    #: The state changes it journals, applied live and on restart replay
    #: alike.
    RECORDS = {
        TapirPrepareWal: "_apply_prepare",
        TapirFinalizeWal: "_apply_finalize",
        TapirResolveWal: "_apply_resolve",
    }

    def __init__(self, node_id: str, dc: str, kernel, network,
                 partition_id: str, group, config: TapirConfig,
                 service_time_ms: float = 0.0):
        super().__init__(node_id, dc, kernel, network,
                         service_time_ms=service_time_ms)
        self.partition_id = partition_id
        self.group = list(group)
        self.config = config
        self.prepares_ok = 0
        self.prepares_rejected = 0
        self.attach_wal()
        self._reset_roles()

    def _reset_roles(self) -> None:
        """Everything a power cycle wipes (and WAL replay rebuilds)."""
        self.store = VersionedKVStore()
        #: Transactions prepared here but not yet resolved.
        self.prepared = PendingList()
        #: Outcomes already applied, to deduplicate retransmitted commits.
        self.resolved: Dict[TID, bool] = {}

    def service_time_for(self, msg) -> float:
        """CPU cost: base plus the modeled prepared-list scan (§6.4.1)."""
        if self.service_time_ms > 0 and isinstance(msg, TapirPrepare):
            return self.service_time_ms + self.prepared.scan_cost_ms()
        return self.service_time_ms

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_read(self, msg: TapirRead) -> None:
        values = self.store.read_versioned(msg.keys)
        self.send(msg.src, TapirReadReply(
            tid=msg.tid, partition_id=self.partition_id, values=values))

    def _validate(self, msg: TapirPrepare) -> str:
        # Stale reads abort outright.
        for key, version in msg.read_versions:
            if self.store.version(key) != version:
                return PREPARE_ABORT
        # Conflicts with other prepared transactions abstain: the other
        # transaction may yet abort, so this one is not necessarily doomed.
        if self.prepared.conflicts(
                msg.tid, [key for key, __ in msg.read_versions],
                msg.write_keys):
            return PREPARE_ABSTAIN
        return PREPARE_OK

    def _on_prepare(self, msg: TapirPrepare) -> None:
        tid = msg.tid
        if tid in self.resolved:
            result = PREPARE_OK if self.resolved[tid] else PREPARE_ABORT
        elif tid in self.prepared:
            result = PREPARE_OK
        else:
            result = self._validate(msg)
            if result == PREPARE_OK:
                # Journal the OK before it externalizes in our reply: a
                # restarted replica must still count against later
                # conflicting prepares (§5.2.1 view-change analogue).
                self._journal(TapirPrepareWal(
                    tid=tid, read_versions=msg.read_versions,
                    write_keys=msg.write_keys))
                self.prepares_ok += 1
            else:
                self.prepares_rejected += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.point(tid, "tapir-vote", self.node_id, self.dc,
                         detail=f"{self.partition_id} {result}")
        self.send(msg.src, TapirPrepareReply(
            tid=tid, partition_id=self.partition_id,
            replica_id=self.node_id, result=result))

    def _on_finalize(self, msg: TapirFinalize) -> None:
        """IR slow path: adopt the client's consensus result."""
        tid = msg.tid
        if tid not in self.resolved:
            self._journal(TapirFinalizeWal(tid=tid, result=msg.result))
        self.send(msg.src, TapirFinalizeAck(
            tid=tid, partition_id=self.partition_id,
            replica_id=self.node_id))

    def _on_commit(self, msg: TapirCommit) -> None:
        tid = msg.tid
        if tid not in self.resolved:
            # Journal the outcome (with the resolved versions) before
            # acking — the ack tells the client this replica is durable
            # for the transaction.
            rows = [(key, value, msg.write_versions.get(
                        key, self.store.version(key) + 1))
                    for key, value in msg.writes.items()] \
                if msg.commit else []
            self._journal(TapirResolveWal(
                tid=tid, commit=msg.commit, writes=tuple(sorted(rows))))
        self.send(msg.src, TapirCommitAck(
            tid=tid, partition_id=self.partition_id,
            replica_id=self.node_id))

    # ------------------------------------------------------------------
    # Durable state transitions (live and on crash-restart replay)
    # ------------------------------------------------------------------
    def _journal(self, record) -> None:
        """Make ``record`` durable, then apply it through :attr:`RECORDS`
        — the same rules a restart replays the image with, so the rebuilt
        state is exactly what a replica that had processed the journaled
        prefix holds in RAM."""
        self.wal.append(record)
        self.handlers[type(record)](record)

    def _add_prepared(self, tid: TID, read_versions=(),
                      write_keys=()) -> None:
        self.prepared.add(PendingTxn(
            tid, frozenset(key for key, __ in read_versions),
            frozenset(write_keys), tuple(read_versions), term=0,
            coordinator_id=""))

    def _apply_prepare(self, record: TapirPrepareWal) -> None:
        tid = record.tid
        if tid not in self.resolved and tid not in self.prepared:
            self._add_prepared(tid, record.read_versions, record.write_keys)

    def _apply_finalize(self, record: TapirFinalizeWal) -> None:
        tid = record.tid
        if tid in self.resolved:
            return
        if record.result != PREPARE_OK:
            self.prepared.remove(tid)
        elif tid not in self.prepared:
            # Adopt the group's decision even though we abstained.
            self._add_prepared(tid)

    def _apply_resolve(self, record: TapirResolveWal) -> None:
        tid = record.tid
        self.resolved[tid] = record.commit
        if record.commit:
            for key, value, version in record.writes:
                self.store.write_if_newer(key, value, version)
        self.prepared.remove(tid)
