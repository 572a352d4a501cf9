"""A TAPIR storage replica.

Replicas are inconsistently replicated: each answers reads and validates
prepares from purely local state; agreement is the client's job (IR).  OCC
validation checks the transaction's read versions against the store and
its read/write keys against other prepared-but-unresolved transactions.

State is bounded by the transactions in flight (DESIGN §10).  Every
prepare and commit carries its client's low-water mark, and applying a
journaled record that carries one forgets the client's resolved
transactions below it.  A WAL fold replaces the records of forgotten
transactions by one :class:`TapirFoldWal`, which keeps their outcomes
as one byte per client seq for the oracles (:meth:`decided`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.occ import PendingList, PendingTxn
from repro.sim.node import Node
from repro.store.kvstore import Record, VersionedKVStore
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
from repro.txn import TID, ClientMarks
from repro.wal.records import (
    TapirFinalizeWal,
    TapirFoldWal,
    TapirPrepareWal,
    TapirResolveWal,
)

#: A folded outcome byte: resolved here as a commit, or as an abort (0:
#: not resolved here).
COMMITTED, ABORTED = 1, 2


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
        TapirFoldWal: "_apply_fold",
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
        #: Outcomes not yet forgotten, to deduplicate retransmitted
        #: commits.
        self.resolved: Dict[TID, bool] = {}
        #: Clients' applied low-water marks and the tids held above them.
        self.marks = ClientMarks()

    def durable_roles(self) -> List["TapirReplica"]:
        """The replica is its own one durable role."""
        return [self]

    def decided(self) -> Dict[TID, str]:
        """Every outcome resolved here, forgotten ones included, as
        ``"commit"``/``"abort"``: the fold record's bytes, then each
        resolution the WAL still holds — what ``resolved`` held before
        the GC forgot any of it."""
        out = {}
        for record in self.wal.replay():
            if type(record) is TapirFoldWal:
                for client_id, row in record.outcomes.items():
                    for seq, byte in enumerate(row):
                        if byte:
                            out[TID(client_id, seq)] = \
                                "commit" if byte == COMMITTED else "abort"
            elif type(record) is TapirResolveWal:
                out[record.tid] = "commit" if record.commit else "abort"
        return out

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
        elif self.marks.forgotten(tid, self.resolved, self.prepared):
            # A late prepare of a transaction its client has finished:
            # nobody waits for the vote, and an entry now would never
            # resolve, so every later conflicting prepare would abstain.
            return
        else:
            result = self._validate(msg)
            if result == PREPARE_OK:
                # Journal the OK before it externalizes in our reply: a
                # restarted replica must still count against later
                # conflicting prepares (§5.2.1 view-change analogue).
                self._journal(TapirPrepareWal(
                    tid=tid, read_versions=msg.read_versions,
                    write_keys=msg.write_keys, low_water=msg.low_water))
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
        if tid not in self.resolved \
                and not self.marks.forgotten(tid, self.prepared):
            self._journal(TapirFinalizeWal(tid=tid, result=msg.result))
        self.send(msg.src, TapirFinalizeAck(
            tid=tid, partition_id=self.partition_id,
            replica_id=self.node_id))

    def _on_commit(self, msg: TapirCommit) -> None:
        tid = msg.tid
        # A duplicate of a forgotten commit applies nothing: a blind
        # write's version would be bumped a second time.
        if tid not in self.resolved \
                and not self.marks.forgotten(tid, self.prepared):
            # Journal the outcome (with the resolved versions) before
            # acking — the ack tells the client this replica is durable
            # for the transaction.
            rows = [(key, value, msg.write_versions.get(
                        key, self.store.version(key) + 1))
                    for key, value in msg.writes.items()] \
                if msg.commit else []
            self._journal(TapirResolveWal(
                tid=tid, commit=msg.commit, writes=tuple(sorted(rows)),
                low_water=msg.low_water))
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

    def _forget(self, client_id: str, mark: int) -> None:
        """Apply ``client_id``'s mark: forget its resolved transactions
        below it (:meth:`ClientMarks.forget_resolved`)."""
        self.marks.forget_resolved(client_id, mark, self.resolved,
                                   self.prepared, self.prepared)

    def _apply_prepare(self, record: TapirPrepareWal) -> None:
        tid = record.tid
        if tid not in self.resolved and tid not in self.prepared:
            self._add_prepared(tid, record.read_versions, record.write_keys)
        self._forget(tid.client_id, record.low_water)

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
        if record.commit:
            for key, value, version in record.writes:
                self.store.write_if_newer(key, value, version)
        self.prepared.remove(tid)
        # Only resolved transactions are held: a prepared one stays in
        # ``prepared`` whatever the mark, until it resolves.  One that
        # resolves below its client's mark (a prepare the mark passed,
        # or a record replayed after a fold record whose marks had
        # passed it) is forgotten at once, as the mark would have.
        if not self.marks.below(tid):
            self.resolved[tid] = record.commit
            self.marks.hold(tid)
        self._forget(tid.client_id, record.low_water)

    def _apply_fold(self, record: TapirFoldWal) -> None:
        for client_id, mark in record.marks.items():
            self.marks.advance(client_id, mark)
        write = self.store.write_if_newer
        for key, row in record.rows.items():
            write(key, row.value, row.version)

    # ------------------------------------------------------------------
    # The WAL fold (Raft §7's compaction, for a journal with no log)
    # ------------------------------------------------------------------
    def fold(self, records: List[object]) -> List[object]:
        """A WAL fold's share: drop every record of each forgotten
        transaction whose resolution is among ``records``, adding its
        outcome and its committed writes to the one
        :class:`TapirFoldWal`, first (each key keeps its newest write by
        version, the first of a tie winning, as replay applies them),
        and raise that record's marks to the current ones.  A forgotten
        transaction whose resolution is not yet durable keeps its
        records: a crash may still lose that."""
        forgotten = self.marks.forgotten
        gone = {record.tid for record in records
                if type(record) is TapirResolveWal
                and forgotten(record.tid, self.resolved, self.prepared)}
        if not gone:
            return records
        if records and type(records[0]) is TapirFoldWal:
            folded, records = records[0], records[1:]
        else:
            folded = TapirFoldWal()
        kept = [folded]
        outcomes, rows, store = folded.outcomes, folded.rows, self.store
        for record in records:
            tid = record.tid
            if tid not in gone:
                kept.append(record)
                continue
            if type(record) is not TapirResolveWal:
                continue
            seqs = outcomes.get(tid.client_id)
            if seqs is None:
                seqs = outcomes[tid.client_id] = bytearray()
            if len(seqs) <= tid.seq:
                seqs.extend(bytes(tid.seq + 1 - len(seqs)))
            seqs[tid.seq] = COMMITTED if record.commit else ABORTED
            for key, value, version in record.writes:
                row = rows.get(key)
                if row is not None and version <= row.version:
                    continue
                # Share the store's record when it holds this very write.
                written = store.read(key)
                if written.version != version or written.value is not value:
                    written = Record(value, version)
                rows[key] = written
        folded.marks.update(self.marks.marks)
        return kept

    def resume(self) -> None:
        """Nothing to re-drive: clients retransmit what is still owed."""
