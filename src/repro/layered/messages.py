"""Messages for the layered (sequential 2PC over consensus) baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.core.messages import PartitionSets
from repro.sim.message import Message
from repro.txn import TID


@dataclass
class LayeredRead(Message):
    """Client -> participant leader: plain read round (no piggybacking)."""

    tid: TID = None
    partition_id: str = ""
    keys: Tuple[str, ...] = ()


@dataclass
class LayeredReadReply(Message):
    tid: TID = None
    partition_id: str = ""
    values: Dict[str, Tuple[Any, int]] = field(default_factory=dict)


@dataclass
class LayeredCommitRequest(Message):
    """Client -> coordinator: begin 2PC after the read round completes."""

    tid: TID = None
    client_id: str = ""
    group_id: str = ""
    participants: Dict[str, PartitionSets] = field(default_factory=dict)
    writes: Dict[str, Any] = field(default_factory=dict)
    read_versions: Dict[str, int] = field(default_factory=dict)
    #: The client's lowest unfinished seq (its low-water mark).
    low_water: int = 0


@dataclass
class LayeredPrepare(Message):
    """Coordinator -> participant leader: 2PC phase one."""

    tid: TID = None
    partition_id: str = ""
    read_versions: Tuple[Tuple[str, int], ...] = ()
    write_keys: Tuple[str, ...] = ()
    #: The client's low-water mark, forwarded from its commit request.
    low_water: int = 0


@dataclass
class LayeredPrepareAck(Message):
    """Participant leader -> coordinator, after replicating its vote."""

    tid: TID = None
    partition_id: str = ""
    decision: str = ""  # "prepared" or "abort"


@dataclass
class LayeredReply(Message):
    """Coordinator -> client, after the decision is replicated."""

    tid: TID = None
    committed: bool = False
    reason: str = ""


@dataclass
class LayeredWriteback(Message):
    """Coordinator -> participant leader: 2PC phase two."""

    tid: TID = None
    partition_id: str = ""
    decision: str = ""  # "commit" or "abort"
    writes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class LayeredWritebackAck(Message):
    tid: TID = None
    partition_id: str = ""


# Replicated log records -------------------------------------------------

@dataclass(frozen=True, slots=True)
class LayeredPrepareRecord:
    """Participant group: the leader's 2PC vote."""

    tid: TID
    partition_id: str
    decision: str
    read_keys: Tuple[str, ...]
    write_keys: Tuple[str, ...]
    read_versions: Tuple[Tuple[str, int], ...]
    #: The client's low-water mark: applying this record forgets the
    #: client's resolved transactions below it.
    low_water: int = 0


@dataclass(frozen=True, slots=True)
class LayeredCommitRecord:
    """Participant group: 2PC phase two — decision plus updates."""

    tid: TID
    partition_id: str
    decision: str
    writes: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True, slots=True)
class LayeredDecisionRecord:
    """Coordinating group: the transaction's decision (replicated before
    the client learns it — the layered architecture's extra round trip)."""

    tid: TID
    decision: str
    #: The client's low-water mark: applying this record forgets the
    #: client's finished transactions below it.
    low_water: int = 0
