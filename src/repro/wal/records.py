"""WAL record types for every durable role in the tree.

These are deliberately *not* :class:`repro.sim.message.Message`
subclasses: they never travel on the network, they are appended to a
node-local :class:`repro.wal.log.WriteAheadLog` and replayed into a
freshly constructed node after a power cycle.  Keeping them out of the
message hierarchy keeps the protolint message graph (and the generated
PROTOCOL.md catalog) unchanged.

All records are frozen dataclasses holding only immutable payloads
(tuples, strings, numbers) so a WAL image is a plain value — two
images compare equal iff the durable histories are identical, which is
what the property tests in ``tests/property/test_wal_properties.py``
lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.txn import TID, ClientMarks


# --------------------------------------------------------------------------
# Raft persistent state (Figure 2 of the Raft paper: currentTerm, votedFor,
# log[]).  Term/vote updates and log installs are journaled separately so
# replay can reconstruct exactly the sequence of persistent-state mutations.
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RaftTermRecord:
    """currentTerm/votedFor at the instant they changed."""

    group_id: str
    term: int
    voted_for: Optional[str]


@dataclass(frozen=True, slots=True)
class RaftAppendRecord:
    """Log entries installed at their carried indexes.

    Replay truncates the in-memory log at ``entry.index`` before
    appending each entry, so a later record for an index that was
    previously occupied (a follower-side conflict splice) subsumes the
    truncation — no separate truncate record is needed.
    """

    group_id: str
    entries: Tuple  # tuple of raft.log.LogEntry (frozen dataclasses)


def install_at(entries: List, entry) -> bool:
    """Replay one journaled install into ``entries`` (a 1-indexed log):
    truncate at ``entry.index``, then append.

    Journaled installs replay in append order, so an entry that
    re-occupies an index it previously held (a conflict splice)
    subsumes the truncation.  An entry past the current tail — only
    possible when a lossy sync window dropped an earlier install
    record — is skipped (returns ``False``); the resulting shorter log
    is repaired by the leader's normal consistency check.
    """
    if entry.index > len(entries) + 1:
        return False
    del entries[entry.index - 1:]
    entries.append(entry)
    return True


# --------------------------------------------------------------------------
# Coordinator decision log (2PC outcome durability, paper §4.3), shared by
# the Carousel coordinator and the layered baseline's 2PC driver.
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CoordDecisionWal:
    """A 2PC decision, fsynced before the client reply externalizes it."""

    tid: TID
    group_id: str
    client_id: str
    decision: str
    # ((partition_id, PartitionSets), ...) sorted by pid
    participants: Tuple
    # ((key, value), ...) sorted by key
    writes: Tuple
    #: Abort attribution for the re-sent reply; the layered baseline
    #: derives its reason from the decision and leaves this empty.
    reason: str = ""


@dataclass(frozen=True, slots=True)
class CoordFinishWal:
    """All writeback acks arrived; the decision needs no re-drive."""

    tid: TID


def fold_decisions(records: Iterable[object]
                   ) -> Tuple[Dict[TID, str], List[CoordDecisionWal]]:
    """Decided minus finished, over a WAL image in append order.

    Returns ``(finished, owed)``: ``{tid: decision}`` for decisions whose
    finish record is durable, and the decision records whose writeback
    phase a restarted coordinator still owes its participants — the
    client already saw the reply — in append order, which is
    deterministic under a fixed seed.
    """
    decided: Dict[TID, CoordDecisionWal] = {}
    done = set()
    for record in records:
        if isinstance(record, CoordDecisionWal):
            decided[record.tid] = record
        elif isinstance(record, CoordFinishWal):
            done.add(record.tid)
    finished = {tid: record.decision
                for tid, record in decided.items() if tid in done}
    owed = [record for tid, record in decided.items() if tid not in done]
    return finished, owed


@dataclass(frozen=True, slots=True)
class CoordMarkWal:
    """A coordinator's low-water marks, written by a WAL fold that dropped
    the decision/finish pairs below them, so a restart from the folded
    image forgets exactly what the live coordinator had forgotten."""

    # (((group_id, client_id), mark), ...) in the order first seen
    marks: Tuple


#: Role records :func:`forget_decisions` may drop.
_FORGETTABLE = (CoordDecisionWal, CoordFinishWal, CoordMarkWal)


def forget_decisions(records: List[object],
                     marks: ClientMarks) -> List[object]:
    """A coordinator's WAL fold step, over role records in append order.

    Drops each finish record whose tid is below the mark of its
    decision's scope, ``(group_id, client_id)``, and the decision it
    finished; when any were dropped, a :class:`CoordMarkWal` holding
    the current marks replaces the previous one.  Every other record is
    kept in order; decisions without a journaled finish are still owed
    and stay.
    """
    scopes = {}
    forgotten = set()
    for record in records:
        kind = type(record)
        if kind is CoordDecisionWal:
            tid = record.tid
            scopes[tid.client_id, tid.seq] = (record.group_id,
                                              record.client_id)
        elif kind is CoordFinishWal:
            key = (record.tid.client_id, record.tid.seq)
            scope = scopes.get(key)
            if scope is not None and marks.below(record.tid, scope):
                forgotten.add(key)
    if not forgotten:
        return records
    kept = []
    for record in records:
        if type(record) in _FORGETTABLE and (
                type(record) is CoordMarkWal
                or (record.tid.client_id, record.tid.seq) in forgotten):
            continue
        kept.append(record)
    kept.append(CoordMarkWal(marks=tuple(marks.marks.items())))
    return kept


def restore_decisions(records: Iterable[object], marks: ClientMarks
                      ) -> Tuple[Dict[TID, str], List[CoordDecisionWal]]:
    """A coordinator's restart from its WAL image, over records in
    append order: raise ``marks`` to the last :class:`CoordMarkWal`, and
    return :func:`fold_decisions` minus what those marks forgot — the
    finished outcomes above the mark of their ``(group_id, client_id)``
    scope (each now held under it) and the decisions still owed."""
    records = list(records)
    finished, owed = fold_decisions(records)
    scopes = {}
    last = None
    for record in records:
        if isinstance(record, CoordDecisionWal):
            scopes[record.tid] = (record.group_id, record.client_id)
        elif isinstance(record, CoordMarkWal):
            last = record
    if last is not None:
        for scope, mark in last.marks:
            marks.advance(scope, mark)
    kept: Dict[TID, str] = {}
    for tid, decision in finished.items():
        scope = scopes[tid]
        if not marks.below(tid, scope):
            kept[tid] = decision
            marks.hold(tid, scope)
    return kept, owed


# --------------------------------------------------------------------------
# Carousel participant / OCC prepared-set redo.
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OccPrepareWal:
    """A provisional pending-list entry, fsynced before the vote is cast.

    Restart redo re-adds the entry as provisional; undo happens the same
    way it does in steady state — the replicated PrepareRecord /
    CommitRecord stream removes or confirms it as the Raft log
    re-applies.
    """

    partition_id: str
    tid: str
    read_keys: Tuple[str, ...]
    write_keys: Tuple[str, ...]
    # ((key, version), ...) sorted by key
    read_versions: Tuple
    term: int
    coordinator_id: str


# --------------------------------------------------------------------------
# TAPIR replica durable state (prepared set, resolved outcomes, store).
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TapirPrepareWal:
    """A successful PREPARE validation, fsynced before PREPARE_OK."""

    tid: str
    # ((key, version), ...) as validated
    read_versions: Tuple
    write_keys: Tuple[str, ...]


@dataclass(frozen=True, slots=True)
class TapirFinalizeWal:
    """A consensus FINALIZE outcome adopted by this replica."""

    tid: str
    result: str


@dataclass(frozen=True, slots=True)
class TapirResolveWal:
    """Commit/abort resolution, fsynced before the ack."""

    tid: str
    commit: bool
    # ((key, value, version), ...) in application order
    writes: Tuple
