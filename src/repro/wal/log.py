"""Deterministic simulated-durable write-ahead log.

The log models a single append-only file per node.  ``append`` adds a
record to the tail; ``fsync`` issues the records to "disk" — each
unsynced record gets a ``durable_at`` stamp of *now + sync_latency_ms*.
A crash at virtual time *t* keeps exactly the records with
``durable_at <= t``: everything never fsynced is gone, and records whose
sync was still in flight (stamp in the future) are lost with it.  With
``torn_tail`` enabled, a crash instead keeps a deterministic *prefix* of
the in-flight sync window — modelling a partially persisted disk write —
chosen by a dedicated string-seeded RNG that is drawn only at crash
time, so fault-free runs never touch it.

Folding.  Whenever the records appended since the last fold outnumber
the records that fold kept (the geometric rule the kernel heap compacts
by), the durable prefix is rewritten as its net effect: each group's
:class:`RaftAppendRecord` installs become one chunk (the log those
installs build), only the latest :class:`RaftTermRecord` per group
stays, and the host's :meth:`~repro.sim.node.Node.fold_wal_records`
drops the role records its transaction GC has forgotten.  Replaying a
folded image rebuilds what replaying the unfolded one and then running
the same GC rebuilds; durable records never need a stamp again, so only
the unfolded tail keeps one.  A fold changes no counter and, because it
only touches records already durable, no crash outcome.

Determinism contract: the log never schedules kernel events and never
draws from the kernel RNG.  Nonzero ``sync_latency_ms`` is charged to
the host node's CPU-queue model (``_busy_until``), which delays
*subsequent* work on that node without perturbing the event heap.  At
the default latency of zero the WAL is entirely passive — a run with it
enabled is byte-identical (op counters and all) to one without.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from typing import Callable, Dict, List, Optional

from repro.wal.records import RaftAppendRecord, RaftTermRecord, install_at

_NEVER = math.inf


class WriteAheadLog:
    """Append/fsync record journal with crash truncation, replay and
    folding."""

    def __init__(
        self,
        owner_id: str,
        clock: Optional[Callable[[], float]] = None,
        sync_latency_ms: float = 0.0,
        torn_tail: bool = False,
    ) -> None:
        self.owner_id = owner_id
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.sync_latency_ms = sync_latency_ms
        self.torn_tail = torn_tail
        # Dedicated stream, string-seeded per owner, drawn only inside
        # crash() — never on the fault-free path, never the kernel RNG.
        self._torn_rng = random.Random(f"wal-torn:{owner_id}")  # detlint: ignore[unseeded-random]
        self._host = None  # sim.node.Node to bill fsync latency to
        # The folded prefix: per group, the latest term record and the
        # log its installs build, then the role records the host kept.
        self._terms: Dict[str, RaftTermRecord] = {}
        self._chunks: Dict[str, List[object]] = {}
        self._kept: List[object] = []
        # The unfolded tail and its durability stamps.
        self._tail: List[object] = []
        self._durable_at = array("d")
        self._since_fold = 0
        self._folded_len = 0  # records in the folded prefix
        self.appends = 0
        self.syncs = 0
        self.crashes = 0
        self.records_lost = 0
        self.folds = 0

    # -- wiring ------------------------------------------------------------

    def attach_host(self, node) -> None:
        """Bill fsync latency to ``node``'s CPU queue, read its clock, and
        fold role records through its ``fold_wal_records``."""
        self._host = node
        self._clock = lambda: node.kernel.now

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._folded_len + len(self._tail)

    @property
    def unsynced(self) -> int:
        """Records appended but not yet issued to disk."""
        return sum(1 for stamp in self._durable_at if stamp == _NEVER)

    # -- append / fsync ----------------------------------------------------

    def append(self, record, sync: bool = True) -> None:
        """Append ``record`` to the tail; fsync immediately by default."""
        self._tail.append(record)
        self._durable_at.append(_NEVER)
        self.appends += 1
        if sync:
            self.fsync()
        self._since_fold += 1
        if self._since_fold > self._folded_len:
            self.fold()

    def fsync(self) -> int:
        """Issue every unsynced record to disk; return how many."""
        stamped = 0
        durable_at = self._clock() + self.sync_latency_ms
        stamps = self._durable_at
        for i in range(len(stamps) - 1, -1, -1):
            if stamps[i] != _NEVER:
                break
            stamps[i] = durable_at
            stamped += 1
        if stamped:
            self.syncs += 1
            if self.sync_latency_ms > 0.0 and self._host is not None:
                # Charge the sync to the node's CPU queue: work enqueued
                # after this fsync starts no earlier than its completion.
                host = self._host
                host._busy_until = (
                    max(host.kernel.now, host._busy_until) + self.sync_latency_ms
                )
        return stamped

    # -- folding -----------------------------------------------------------

    def fold(self) -> int:
        """Rewrite the durable prefix as its net effect; returns how many
        tail records it absorbed."""
        stamps = self._durable_at
        # Stamps never decrease along the log (each fsync stamps the
        # unsynced suffix with a later time), so the durable prefix ends
        # at the first stamp past now.
        durable = bisect_right(stamps, self._clock())
        self._since_fold = 0
        if not durable:
            return 0
        roles = self._kept
        for record in self._tail[:durable]:
            kind = type(record)
            if kind is RaftAppendRecord:
                chunk = self._chunks.get(record.group_id)
                if chunk is None:
                    chunk = self._chunks[record.group_id] = []
                entries = record.entries
                # Each record is one run of consecutive indexes (a splice
                # installs a suffix), so one at the tail simply extends it.
                if entries[0].index == len(chunk) + 1:
                    chunk.extend(entries)
                else:
                    for entry in entries:
                        install_at(chunk, entry)
            elif kind is RaftTermRecord:
                self._terms[record.group_id] = record
            else:
                roles.append(record)
        if self._host is not None:
            roles = self._host.fold_wal_records(roles)
        self._kept = roles
        self._folded_len = len(self._terms) + len(self._chunks) + len(roles)
        del self._tail[:durable]
        del stamps[:durable]
        self.folds += 1
        return durable

    # -- crash / replay ----------------------------------------------------

    def crash(self, now: Optional[float] = None) -> int:
        """Power loss at virtual time ``now``: truncate to the durable image.

        Returns the number of records lost.  Unsynced records are always
        lost.  Records whose fsync was still in flight (``durable_at``
        in the future) are lost wholesale, or — with ``torn_tail`` — cut
        at a deterministic prefix point drawn from the torn-tail RNG.
        The folded prefix was durable when it was folded, so it survives
        any crash at or after that instant.
        """
        if now is None:
            now = self._clock()
        self.crashes += 1
        stamps = self._durable_at
        keep = len(self._tail)
        while keep > 0 and stamps[keep - 1] > now:
            keep -= 1
        if self.torn_tail:
            # The in-flight window is the contiguous run of records with a
            # finite future stamp; a torn write persists some prefix of it.
            inflight_end = keep
            while inflight_end < len(self._tail) and stamps[inflight_end] != _NEVER:
                inflight_end += 1
            window = inflight_end - keep
            if window > 0:
                keep += self._torn_rng.randint(0, window)
        lost = len(self._tail) - keep
        del self._tail[keep:]
        del stamps[keep:]
        self.records_lost += lost
        return lost

    def replay(self) -> List[object]:
        """The durable image, in append order: the folded prefix (term
        records, one install chunk per group, the kept role records),
        then the tail."""
        records: List[object] = list(self._terms.values())
        records.extend(RaftAppendRecord(group_id=group_id,
                                        entries=tuple(chunk))
                       for group_id, chunk in self._chunks.items() if chunk)
        records.extend(self._kept)
        records.extend(self._tail)
        return records
