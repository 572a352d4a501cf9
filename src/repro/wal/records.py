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


# --------------------------------------------------------------------------
# Raft persistent state (Figure 2 of the Raft paper: currentTerm, votedFor,
# log[]).  Term/vote updates and log installs are journaled separately so
# replay can reconstruct exactly the sequence of persistent-state mutations.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RaftTermRecord:
    """currentTerm/votedFor at the instant they changed."""

    group_id: str
    term: int
    voted_for: Optional[str]


@dataclass(frozen=True)
class RaftAppendRecord:
    """Log entries installed at their carried indexes.

    Replay truncates the in-memory log at ``entry.index`` before
    appending each entry, so a later record for an index that was
    previously occupied (a follower-side conflict splice) subsumes the
    truncation — no separate truncate record is needed.
    """

    group_id: str
    entries: Tuple  # tuple of raft.log.LogEntry (frozen dataclasses)


# --------------------------------------------------------------------------
# Coordinator decision log (2PC outcome durability, paper §4.3), shared by
# the Carousel coordinator and the layered baseline's 2PC driver.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordDecisionWal:
    """A 2PC decision, fsynced before the client reply externalizes it."""

    tid: str
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


@dataclass(frozen=True)
class CoordFinishWal:
    """All writeback acks arrived; the decision needs no re-drive."""

    tid: str


def fold_decisions(records: Iterable[object]
                   ) -> Tuple[Dict[str, str], List[CoordDecisionWal]]:
    """Decided minus finished, over a WAL image in append order.

    Returns ``(finished, owed)``: ``{tid: decision}`` for decisions whose
    finish record is durable, and the decision records whose writeback
    phase a restarted coordinator still owes its participants — the
    client already saw the reply — in append order, which is
    deterministic under a fixed seed.
    """
    decided: Dict[str, CoordDecisionWal] = {}
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


# --------------------------------------------------------------------------
# Carousel participant / OCC prepared-set redo.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TapirPrepareWal:
    """A successful PREPARE validation, fsynced before PREPARE_OK."""

    tid: str
    # ((key, version), ...) as validated
    read_versions: Tuple
    write_keys: Tuple[str, ...]


@dataclass(frozen=True)
class TapirFinalizeWal:
    """A consensus FINALIZE outcome adopted by this replica."""

    tid: str
    result: str


@dataclass(frozen=True)
class TapirResolveWal:
    """Commit/abort resolution, fsynced before the ack."""

    tid: str
    commit: bool
    # ((key, value, version), ...) in application order
    writes: Tuple
