"""TAPIR wire messages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.sim.message import Message
from repro.txn import TID

#: Replica prepare results (after TAPIR's OCC validation).
PREPARE_OK = "ok"
PREPARE_ABSTAIN = "abstain"   # conflicts with another prepared transaction
PREPARE_ABORT = "abort"       # validation failed outright (stale read)


@dataclass
class TapirRead(Message):
    """Client -> closest replica: versioned read."""

    tid: TID = None
    partition_id: str = ""
    keys: Tuple[str, ...] = ()


@dataclass
class TapirReadReply(Message):
    """Replica -> client: values and versions."""

    tid: TID = None
    partition_id: str = ""
    values: Dict[str, Tuple[Any, int]] = field(default_factory=dict)


@dataclass
class TapirPrepare(Message):
    """Client -> every replica: IR consensus prepare."""

    tid: TID = None
    partition_id: str = ""
    read_versions: Tuple[Tuple[str, int], ...] = ()
    write_keys: Tuple[str, ...] = ()
    #: The client's low-water mark (:attr:`TapirClient.low_water`).
    low_water: int = 0


@dataclass
class TapirPrepareReply(Message):
    """Replica -> client: this replica's prepare result."""

    tid: TID = None
    partition_id: str = ""
    replica_id: str = ""
    result: str = PREPARE_OK


@dataclass
class TapirFinalize(Message):
    """Client -> replicas: IR slow path — install the majority result."""

    tid: TID = None
    partition_id: str = ""
    result: str = PREPARE_OK


@dataclass
class TapirFinalizeAck(Message):
    """Replica -> client: slow-path result installed."""

    tid: TID = None
    partition_id: str = ""
    replica_id: str = ""


@dataclass
class TapirCommit(Message):
    """Client -> every replica: final decision plus writes.

    ``write_versions`` carries the version each write installs at — the
    transaction's read version + 1, standing in for TAPIR's transaction
    timestamp — so replicas apply commits order-independently: a delayed
    or retransmitted commit arriving after a later transaction's commit
    cannot clobber the newer value.  Keys absent from the map (blind
    writes) fall back to the replica's local version + 1.
    """

    tid: TID = None
    partition_id: str = ""
    commit: bool = True
    writes: Dict[str, Any] = field(default_factory=dict)
    write_versions: Dict[str, int] = field(default_factory=dict)
    #: The client's low-water mark (:attr:`TapirClient.low_water`).
    low_water: int = 0


@dataclass
class TapirCommitAck(Message):
    """Replica -> client: decision applied."""

    tid: TID = None
    partition_id: str = ""
    replica_id: str = ""
