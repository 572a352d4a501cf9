"""Simulated-durable write-ahead logging.

The fail-stop model in :mod:`repro.sim.failure` lets a node crash and
later resume with its in-memory state intact.  The production-relevant
failure class — power-cycle a machine and bring it back with only what
it fsynced — needs a durability boundary.  :class:`WriteAheadLog` is
that boundary: protocol code appends records and fsyncs them; a crash
truncates everything that was not durable at the instant of power loss
(optionally leaving a torn tail of the in-flight sync window); a restart
replays the surviving image into a freshly constructed node.  The log
folds its durable prefix as it grows, so an image holds the net effect
of the history rather than all of it.

Everything is deterministic and charged to virtual time: fsync latency
is billed to the host node's CPU-queue model, never to the kernel's
event heap, so a run with the WAL enabled at the default zero latency
is byte-identical to one without it.
"""

from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    CoordDecisionWal,
    CoordFinishWal,
    CoordMarkWal,
    OccPrepareWal,
    RaftAppendRecord,
    RaftTermRecord,
    TapirFinalizeWal,
    TapirPrepareWal,
    TapirResolveWal,
)

__all__ = [
    "WriteAheadLog",
    "RaftTermRecord",
    "RaftAppendRecord",
    "CoordDecisionWal",
    "CoordFinishWal",
    "CoordMarkWal",
    "OccPrepareWal",
    "TapirPrepareWal",
    "TapirFinalizeWal",
    "TapirResolveWal",
]
