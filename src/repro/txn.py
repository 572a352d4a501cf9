"""Transaction identifiers, the 2FI transaction spec, and results.

The 2-round Fixed-set Interactive (2FI) model (§3.2) is captured by
:class:`TransactionSpec`: all read and write **keys** are fixed up front,
but write **values** are computed from the read results by an arbitrary
client function, which may also abort.  Both the Carousel client and the
TAPIR baseline consume the same spec, so workloads drive either system
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

#: Transaction outcome reasons, for abort-rate breakdowns.
REASON_COMMITTED = "committed"
REASON_CLIENT_ABORT = "client_abort"
REASON_CONFLICT = "conflict"
REASON_STALE_READ = "stale_read"
REASON_FAILURE = "failure"
REASON_TIMEOUT = "timeout"


@dataclass(frozen=True, order=True)
class TID:
    """Transaction id: the issuing client's id plus a client-local counter
    (§3.3)."""

    client_id: str
    seq: int

    def __str__(self) -> str:
        return f"{self.client_id}:{self.seq}"


#: A client's write computation: reads -> writes, or None to abort.
WriteFunction = Callable[[Dict[str, Any]], Optional[Dict[str, Any]]]


def _write_all_marker(reads: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    raise NotImplementedError  # pragma: no cover - replaced in __post_init__


@dataclass
class TransactionSpec:
    """One 2FI transaction: fixed key sets plus a write-value function.

    Parameters
    ----------
    read_keys / write_keys:
        The fixed key sets.  An empty ``write_keys`` makes this a read-only
        transaction, eligible for the read-only optimization (§4.4.2).
    compute_writes:
        Called with the read results (``{key: value}``) after the read round.
        Returns ``{key: value}`` for some or all of the write keys, or
        ``None`` to abort the transaction (the client is allowed to abort
        after seeing the reads, §3.2).  Defaults to writing ``None`` to every
        write key, which is only useful in tests.
    txn_type:
        Label for per-type statistics (e.g. Retwis "post_tweet").
    """

    read_keys: Tuple[str, ...]
    write_keys: Tuple[str, ...]
    compute_writes: Optional[WriteFunction] = None
    txn_type: str = "generic"

    def __post_init__(self) -> None:
        self.read_keys = tuple(dict.fromkeys(self.read_keys))
        self.write_keys = tuple(dict.fromkeys(self.write_keys))
        if self.compute_writes is None:
            keys = self.write_keys
            self.compute_writes = lambda reads: {k: None for k in keys}

    @property
    def is_read_only(self) -> bool:
        return not self.write_keys

    def all_keys(self) -> Tuple[str, ...]:
        """Read and write keys combined, de-duplicated, in order."""
        return tuple(dict.fromkeys(self.read_keys + self.write_keys))

    def run_write_function(self, reads: Dict[str, Any]
                           ) -> Optional[Dict[str, Any]]:
        """Apply the write function and validate its output keys."""
        writes = self.compute_writes(reads)
        if writes is None:
            return None
        unknown = set(writes) - set(self.write_keys)
        if unknown:
            raise ValueError(
                f"write function produced keys outside the declared write "
                f"set: {sorted(unknown)}")
        return writes


@dataclass
class TxnResult:
    """Final outcome of one transaction attempt."""

    tid: TID
    committed: bool
    latency_ms: float
    reason: str
    txn_type: str = "generic"
    reads: Dict[str, Any] = field(default_factory=dict)
    #: The store version each read returned (0: the key was absent).
    versions: Dict[str, int] = field(default_factory=dict)
