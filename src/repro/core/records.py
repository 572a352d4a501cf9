"""Raft log commands used by Carousel.

Participant partitions replicate prepare decisions and writebacks; the
coordinating consensus group replicates the transaction's read/write sets,
its write data, and its final decision (§4.1, §4.3).  Followers apply these
records to mirror the state a replacement leader will need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.core.messages import PartitionSets
from repro.txn import TID


@dataclass(frozen=True, slots=True)
class PrepareRecord:
    """Participant group: the leader's prepare decision for one
    transaction, with the read/write sets and versions backing it."""

    tid: TID
    partition_id: str
    decision: str  # PREPARED or ABORT
    read_keys: Tuple[str, ...]
    write_keys: Tuple[str, ...]
    read_versions: Tuple[Tuple[str, int], ...]
    term: int
    coordinator_id: str
    coord_group_id: str
    #: The client's low-water mark: applying this record forgets the
    #: client's resolved transactions below it.
    low_water: int = 0


@dataclass(frozen=True, slots=True)
class CommitRecord:
    """Participant group: the writeback — final decision plus updates."""

    tid: TID
    partition_id: str
    decision: str  # "commit" or "abort"
    writes: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True, slots=True)
class CoordSetsRecord:
    """Coordinating group: the transaction's participants and key sets."""

    tid: TID
    client_id: str
    participants: Tuple[Tuple[str, PartitionSets], ...]
    #: The client's low-water mark capped by the leader's lowest
    #: unfinished transaction of that client in this group: applying
    #: this record forgets the client's finished transactions below it.
    low_water: int = 0


@dataclass(frozen=True, slots=True)
class CoordWriteDataRecord:
    """Coordinating group: the client's write values and read versions."""

    tid: TID
    writes: Tuple[Tuple[str, Any], ...]
    read_versions: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True, slots=True)
class CoordDecisionRecord:
    """Coordinating group: the final commit/abort decision (§4.1.3)."""

    tid: TID
    decision: str
