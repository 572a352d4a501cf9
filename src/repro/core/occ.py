"""Optimistic concurrency control: the pending-transaction list.

Every participant (leader **and** follower, for CPC) maintains a list of
pending transactions — prepared but not yet committed or aborted — together
with their read/write key sets, the data versions used to prepare them, and
the Raft term in which they were prepared (§4.1.4, §4.2).  A new transaction
prepares only if it has no read-write or write-write conflict with any
pending transaction.

The snapshot form of the list is what rides on Raft vote messages during
CPC leader recovery (§4.3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.txn import TID

PREPARED = "prepared"
ABORT = "abort"

#: Modeled CPU per pending-list entry scanned during OCC validation, in ms.
#: This is what makes "excessive queuing of pending transactions" (§6.4.1)
#: self-reinforcing: entries held longer (slow paths, load) make
#: validation slower, which queues more work.  Declared once so every
#: system is billed the same.
PENDING_SCAN_COST_MS = 0.001


@dataclass(frozen=True, slots=True)
class PendingTxn:
    """One entry in a pending-transaction list."""

    tid: TID
    read_keys: FrozenSet[str]
    write_keys: FrozenSet[str]
    #: Versions of the partition's read keys used to prepare (§4.2).
    read_versions: Tuple[Tuple[str, int], ...]
    #: Raft term in which this participant prepared the transaction.
    term: int
    #: Id of the transaction's coordinator (needed to re-send prepare
    #: results after a leader change).
    coordinator_id: str
    #: True while only a fast-path vote backs this entry (no replicated
    #: PrepareRecord applied yet).
    provisional: bool = False

    def versions_dict(self) -> Dict[str, int]:
        """The read versions as a plain mapping."""
        return dict(self.read_versions)


def freeze_versions(versions: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    """Canonical, hashable form of a read-version map."""
    return tuple(sorted(versions.items()))


class PendingList:
    """The pending-transaction list of one participant for one partition.

    Conflict checks are indexed by key (``key -> tids reading/writing it``)
    so that the simulator's own cost per check is O(transaction keys), not
    O(pending transactions); the *modeled* CPU cost of validation remains
    proportional to the list length (:meth:`scan_cost_ms`, billed by the
    servers' ``service_time_for``).
    """

    def __init__(self) -> None:
        self._txns: Dict[TID, PendingTxn] = {}
        self._readers: Dict[str, set] = {}
        self._writers: Dict[str, set] = {}

    def __len__(self) -> int:
        return len(self._txns)

    def __contains__(self, tid: TID) -> bool:
        return tid in self._txns

    def get(self, tid: TID) -> Optional[PendingTxn]:
        """The entry for ``tid``, or None."""
        return self._txns.get(tid)

    def scan_cost_ms(self) -> float:
        """Modeled CPU cost of validating one prepare against this list."""
        return len(self._txns) * PENDING_SCAN_COST_MS

    def add(self, entry: PendingTxn) -> None:
        """Insert or replace an entry, maintaining the key indexes."""
        if entry.tid in self._txns:
            self._unindex(self._txns[entry.tid])
        self._txns[entry.tid] = entry
        for key in entry.read_keys:
            self._readers.setdefault(key, set()).add(entry.tid)
        for key in entry.write_keys:
            self._writers.setdefault(key, set()).add(entry.tid)

    def remove(self, tid: TID) -> None:
        """Drop an entry (idempotent)."""
        entry = self._txns.pop(tid, None)
        if entry is not None:
            self._unindex(entry)

    def _unindex(self, entry: PendingTxn) -> None:
        for key in entry.read_keys:
            readers = self._readers.get(key)
            if readers is not None:
                readers.discard(entry.tid)
                if not readers:
                    del self._readers[key]
        for key in entry.write_keys:
            writers = self._writers.get(key)
            if writers is not None:
                writers.discard(entry.tid)
                if not writers:
                    del self._writers[key]

    def confirm(self, tid: TID) -> None:
        """Clear the provisional flag once the prepare is replicated."""
        entry = self._txns.get(tid)
        if entry is not None and entry.provisional:
            self._txns[tid] = replace(entry, provisional=False)

    def entries(self) -> List[PendingTxn]:
        """All pending entries, in insertion order."""
        return list(self._txns.values())

    # ------------------------------------------------------------------
    # Conflict checks
    # ------------------------------------------------------------------
    def conflicts(self, tid: TID, read_keys: Iterable[str],
                  write_keys: Iterable[str]) -> bool:
        """Read-write / write-write conflict check against pending
        transactions (§4.1.4).

        The transaction's own earlier entry (a retransmission) never
        conflicts with itself.
        """
        for key in write_keys:
            for other in self._writers.get(key, ()):
                if other != tid:
                    return True
            for other in self._readers.get(key, ()):
                if other != tid:
                    return True
        for key in read_keys:
            for other in self._writers.get(key, ()):
                if other != tid:
                    return True
        return False

    def blocks_read_only(self, keys: Iterable[str]) -> bool:
        """Whether a read-only transaction over ``keys`` hits a pending
        writer (§4.4.2's OCC validation)."""
        return any(self._writers.get(key) for key in keys)

    # ------------------------------------------------------------------
    # Snapshots (for vote piggybacking)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[PendingTxn, ...]:
        """An immutable copy of the list, ordered by TID for determinism."""
        return tuple(sorted(self._txns.values(), key=lambda e: e.tid))
