"""Carousel protocol messages.

Naming follows the phases in §4.1 and Figure 2: the client piggybacks
prepare information on its read requests (:class:`ReadPrepareRequest`) and
simultaneously registers the transaction with its coordinator
(:class:`CoordPrepareRequest`).  Participants answer reads to the client
(:class:`ReadReply`) and prepare outcomes to the coordinator — directly from
every replica on CPC's fast path (:class:`FastVote`) and from the leader
after replication on the slow path (:class:`PrepareResult`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.sim.message import Message
from repro.txn import TID


@dataclass(frozen=True, slots=True)
class PartitionSets:
    """A transaction's read and write keys within one partition."""

    read_keys: Tuple[str, ...] = ()
    write_keys: Tuple[str, ...] = ()


@dataclass
class CoordPrepareRequest(Message):
    """Client -> coordinator, at transaction start (§4.1.4).

    Identifies all participants so the coordinator can replicate the
    transaction's read and write sets to its consensus group.
    """

    tid: TID = None
    client_id: str = ""
    group_id: str = ""  # the coordinating consensus group
    participants: Dict[str, PartitionSets] = field(default_factory=dict)
    #: The client's lowest unfinished seq (its low-water mark).
    low_water: int = 0


@dataclass
class ReadPrepareRequest(Message):
    """Client -> participant leader (Basic) or every replica (CPC).

    Carries the transaction's read/write keys for this partition and the
    coordinator's identity; ``want_read`` asks this replica to return read
    values (true for the leader and for a replica local to the client,
    §4.4.1); ``fast_path`` marks CPC mode, in which the recipient casts a
    fast vote even if it is a follower.
    """

    tid: TID = None
    partition_id: str = ""
    coordinator_id: str = ""
    coord_group_id: str = ""
    read_keys: Tuple[str, ...] = ()
    write_keys: Tuple[str, ...] = ()
    want_read: bool = True
    fast_path: bool = False
    #: The client's lowest unfinished seq (its low-water mark).
    low_water: int = 0


@dataclass
class ReadReply(Message):
    """Participant -> client: values and versions for this partition's
    read keys."""

    tid: TID = None
    partition_id: str = ""
    replica_id: str = ""
    from_leader: bool = True
    #: key -> (value, version)
    values: Dict[str, Tuple[Any, int]] = field(default_factory=dict)


@dataclass
class FastVote(Message):
    """Replica -> coordinator: CPC fast-path prepare vote (§4.2)."""

    tid: TID = None
    partition_id: str = ""
    replica_id: str = ""
    is_leader: bool = False
    decision: str = ""  # PREPARED or ABORT
    read_versions: Tuple[Tuple[str, int], ...] = ()
    term: int = 0


@dataclass
class PrepareResult(Message):
    """Participant leader -> coordinator after the prepare decision is
    replicated (Basic prepare phase / CPC slow path)."""

    tid: TID = None
    partition_id: str = ""
    decision: str = ""
    read_versions: Tuple[Tuple[str, int], ...] = ()


@dataclass
class CommitRequest(Message):
    """Client -> coordinator: commit (with write values) or abort."""

    tid: TID = None
    abort: bool = False
    writes: Dict[str, Any] = field(default_factory=dict)
    #: Versions the client actually read (may come from a local follower);
    #: the coordinator uses these to detect stale reads (§4.4.1).
    read_versions: Dict[str, int] = field(default_factory=dict)


@dataclass
class TxnReply(Message):
    """Coordinator -> client: transaction outcome."""

    tid: TID = None
    committed: bool = False
    reason: str = ""


@dataclass
class Writeback(Message):
    """Coordinator -> participant leader: commit decision plus this
    partition's updates (§4.1.3)."""

    tid: TID = None
    partition_id: str = ""
    decision: str = ""  # "commit" or "abort"
    writes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class WritebackAck(Message):
    """Participant leader -> coordinator: writeback replicated."""

    tid: TID = None
    partition_id: str = ""


@dataclass
class ClientHeartbeat(Message):
    """Client -> coordinator during an open transaction (§4.3.1)."""

    tid: TID = None


@dataclass
class ReadOnlyRequest(Message):
    """Client -> participant leader: one-roundtrip read-only path
    (§4.4.2)."""

    tid: TID = None
    partition_id: str = ""
    keys: Tuple[str, ...] = ()


@dataclass
class ReadOnlyReply(Message):
    """Participant leader -> client: values, or a conflict abort."""

    tid: TID = None
    partition_id: str = ""
    ok: bool = True
    values: Dict[str, Tuple[Any, int]] = field(default_factory=dict)


@dataclass
class PrepareQuery(Message):
    """Recovered coordinator -> participant leader: re-request a prepare
    result (§4.3.3, coordinator failover).

    Carries the partition's read/write key sets so a leader that never saw
    the original prepare (it died with a predecessor) can prepare afresh.
    """

    tid: TID = None
    partition_id: str = ""
    coordinator_id: str = ""
    coord_group_id: str = ""
    read_keys: Tuple[str, ...] = ()
    write_keys: Tuple[str, ...] = ()
