"""WAL record types for every durable role in the tree.

These are deliberately *not* :class:`repro.sim.message.Message`
subclasses: they never travel on the network, they are appended to a
node-local :class:`repro.wal.log.WriteAheadLog` and replayed into a
freshly constructed node after a power cycle.  Keeping them out of the
message hierarchy keeps the protolint message graph (and the generated
PROTOCOL.md catalog) unchanged.

All records but :class:`TapirFoldWal` (the folded prefix of a TAPIR
replica's journal, rewritten in place by each fold) are frozen
dataclasses holding only immutable payloads (tuples, strings, numbers),
so a WAL image is a plain value — two images compare equal iff the
durable histories are identical, which is what the property tests in
``tests/property/test_wal_properties.py`` lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.txn import TID


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


@dataclass(frozen=True, slots=True)
class CoordMarkWal:
    """A coordinator's low-water marks, written by a WAL fold that dropped
    the decision/finish pairs below them, so a restart from the folded
    image forgets exactly what the live coordinator had forgotten."""

    # (((group_id, client_id), mark), ...) in the order first seen
    marks: Tuple


class DecisionJournal:
    """The decision journal both coordinators share, Carousel's and the
    layered baseline's (§4.3, made crash-proof).

    Its coordinator keeps ``finished`` (tid -> outcome), ``marks`` (per
    ``(group_id, client_id)``) and ``redrive(record)``, which rebuilds a
    decision still owed to its participants and sends its writebacks.
    A restart replays the image through :attr:`RECORDS`; :meth:`resume`
    then restores decided minus finished.
    """

    #: The journal's records, as a restart replays them.
    RECORDS = {
        CoordDecisionWal: "_replay_decision",
        CoordFinishWal: "_replay_finish",
        CoordMarkWal: "_replay_marks",
    }

    def __init__(self, node, coordinator) -> None:
        self.node = node
        self.coordinator = coordinator
        # What a replayed image said: the last decision per tid (in the
        # order first decided), the finished tids and the last marks.
        self._decided: Dict[TID, CoordDecisionWal] = {}
        self._done: Set[TID] = set()
        self._marks: Tuple = ()

    def persist_decision(self, state, reason: str = "") -> None:
        """Fsync ``state``'s 2PC decision, with everything needed to
        re-drive its writeback phase from a cold start (``reason`` is
        Carousel's abort attribution)."""
        wal = self.node.wal
        if wal is not None:
            wal.append(CoordDecisionWal(
                tid=state.tid, group_id=state.group_id,
                client_id=state.client_id, decision=state.decision,
                reason=reason,
                participants=tuple(sorted(state.participants.items())),
                writes=tuple(sorted(state.writes.items()))))

    def finish(self, state) -> None:
        """Every writeback of ``state`` acked: its decision is owed no
        more."""
        wal = self.node.wal
        if wal is not None and state.decision is not None:
            wal.append(CoordFinishWal(tid=state.tid))

    def _replay_decision(self, record: CoordDecisionWal) -> None:
        # A finish closes only the decisions before it, as a fold does.
        self._done.discard(record.tid)
        self._decided.pop(record.tid, None)
        self._decided[record.tid] = record

    def _replay_finish(self, record: CoordFinishWal) -> None:
        self._done.add(record.tid)

    def _replay_marks(self, record: CoordMarkWal) -> None:
        self._marks = record.marks

    def resume(self) -> str:
        """After the whole image replayed: raise the marks to the last
        journaled ones, remember the finished outcomes above them, then
        re-drive the owed decisions in append order (the client already
        saw their replies).  Notes how many of each it handled."""
        coordinator = self.coordinator
        marks = coordinator.marks
        for scope, mark in self._marks:
            marks.advance(scope, mark)
        owed = []
        for tid, record in self._decided.items():
            scope = (record.group_id, record.client_id)
            if tid not in self._done:
                owed.append(record)
            elif not marks.below(tid, scope):
                coordinator.finished[tid] = record.decision
                marks.hold(tid, scope)
        self._decided, self._done, self._marks = {}, set(), ()
        for record in owed:
            coordinator.redrive(record)
        return f"redriven={len(owed)} finished={len(coordinator.finished)}"

    def fold(self, records: List[object]) -> List[object]:
        """A WAL fold's share, over role records in append order: drop
        each finish below the mark of its decision's scope, with the
        decisions it finished (those before it, as replay reads them),
        and when any went, swap the previous :class:`CoordMarkWal` for
        one noting the current marks, last.  Decisions without a
        journaled finish after them are still owed and stay."""
        marks = self.coordinator.marks
        scopes = {}
        # tid -> position of its last finish below the mark
        closed = {}
        for at, record in enumerate(records):
            kind = type(record)
            if kind is CoordDecisionWal:
                scopes[record.tid] = (record.group_id, record.client_id)
            elif kind is CoordFinishWal:
                scope = scopes.get(record.tid)
                if scope is not None and marks.below(record.tid, scope):
                    closed[record.tid] = at
        if not closed:
            return records
        return [record for at, record in enumerate(records)
                if type(record) is not CoordMarkWal
                and (type(record) not in (CoordDecisionWal, CoordFinishWal)
                     or at > closed.get(record.tid, -1))] \
            + [CoordMarkWal(marks=tuple(marks.marks.items()))]


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
    #: The client's low-water mark the prepare carried.
    low_water: int = 0


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
    #: The client's low-water mark the commit carried.
    low_water: int = 0


@dataclass(slots=True)
class TapirFoldWal:
    """What WAL folds kept of the TAPIR records they dropped, the records
    of transactions the replica had forgotten: replayed first, it
    rebuilds their net effect.  Unlike every other record it is not a
    value: each fold adds what it drops to the one record in place (as
    the WAL extends its install chunks in place), so a fold costs what
    it drops, not what earlier folds kept.  It only ever absorbs durable
    records, so no crash can lose what it holds."""

    #: client id -> the mark the replica had applied at the last fold
    marks: Dict[str, int] = field(default_factory=dict)
    #: client id -> one outcome byte per seq
    #: (:data:`repro.tapir.replica.COMMITTED`, ``ABORTED`` or 0)
    outcomes: Dict[str, bytearray] = field(default_factory=dict)
    #: key -> its newest folded committed write, a
    #: :class:`repro.store.kvstore.Record`
    rows: Dict[str, object] = field(default_factory=dict)
