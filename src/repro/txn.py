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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Transaction outcome reasons, for abort-rate breakdowns.
REASON_COMMITTED = "committed"
REASON_CLIENT_ABORT = "client_abort"
REASON_CONFLICT = "conflict"
REASON_STALE_READ = "stale_read"
REASON_FAILURE = "failure"
REASON_TIMEOUT = "timeout"


@dataclass(frozen=True, order=True, slots=True)
class TID:
    """Transaction id: the issuing client's id plus a client-local counter
    (§3.3)."""

    client_id: str
    seq: int

    def __str__(self) -> str:
        return f"{self.client_id}:{self.seq}"


class ClientMarks:
    """Low-water marks, and the tids a server still holds above them.

    A client's mark is the lowest seq it has not finished (it rides on
    the requests the client already sends): every tid of that client
    below it has its outcome at the client, so a server may forget what
    it keeps for such a tid once its own part in it is done.  Marks are
    kept per *scope*.  A participant's scope is the client id.  A
    coordinator's is ``(group id, client id)``: each coordinating
    group's records carry the mark that group's leader vouches for, and
    it says nothing of what another group's leader still drives.  A
    server holds each tid it keeps state for under its scope;
    :meth:`advance` raises a scope's mark and hands back the tids held
    below it, which the server forgets or holds again.  Both maps are
    bounded by the scopes and their in-flight transactions.
    """

    __slots__ = ("marks", "_held")

    def __init__(self) -> None:
        self.marks: Dict[Any, int] = {}
        # scope -> seq -> tid: keyed by the int, whose hash is cheap.
        self._held: Dict[Any, Dict[int, TID]] = {}

    def below(self, tid: TID, scope: Any = None) -> bool:
        """Whether ``tid`` is below its scope's mark (default scope: its
        client): its client has finished it, and all before it."""
        return tid.seq < self.marks.get(
            tid.client_id if scope is None else scope, 0)

    def hold(self, tid: TID, scope: Any = None) -> None:
        """Note that state is kept for ``tid`` (idempotent)."""
        if scope is None:
            scope = tid.client_id
        held = self._held.get(scope)
        if held is None:
            held = self._held[scope] = {}
        held[tid.seq] = tid

    def held(self, scope: Any) -> List[TID]:
        """The tids held under ``scope``, in hold order."""
        return list(self._held.get(scope, {}).values())

    def advance(self, scope: Any, mark: int) -> List[TID]:
        """Raise ``scope``'s mark to ``mark``; returns (and stops holding)
        the tids held below it, in hold order."""
        if mark <= self.marks.get(scope, 0):
            return []
        self.marks[scope] = mark
        held = self._held.get(scope)
        if not held:
            return []
        released = [tid for seq, tid in held.items() if seq < mark]
        for tid in released:
            del held[tid.seq]
        return released

    def forgotten(self, tid: TID, *tracked: Any, scope: Any = None) -> bool:
        """Below its mark and in none of the ``tracked`` maps: its client
        has the outcome and this server no longer remembers it, so any
        message or record about it is stale."""
        if not self.below(tid, scope):
            return False
        for remembered in tracked:
            if tid in remembered:
                return False
        return True

    # -- the participant GC, shared by Carousel and the layered baseline --

    def settled(self, tid: TID, resolved: Dict[TID, str],
                prepared: Dict[TID, Any]) -> bool:
        """Resolved here, or forgotten with no prepare entry left: a
        request or writeback for ``tid`` is answered as resolved."""
        return tid in resolved or self.forgotten(tid, prepared)

    def forget_resolved(self, client_id: str, mark: int,
                        resolved: Dict[TID, str], prepared: Dict[TID, Any],
                        pending: Any) -> None:
        """Apply a record carrying ``client_id``'s ``mark``: forget the
        client's resolved transactions below it (outcome and prepare
        entry); one prepared but not yet resolved stays held, its
        writeback still due; a pending entry no prepare backs goes (its
        outcome was settled without this replica)."""
        for tid in self.advance(client_id, mark):
            if resolved.pop(tid, None) is not None:
                prepared.pop(tid, None)
            elif tid in prepared:
                self.hold(tid)
            else:
                pending.remove(tid)


def applied_outcomes(member: Any, record_type: type) -> Dict[TID, str]:
    """Every writeback outcome (``record_type`` records) in ``member``'s
    applied Raft log, in apply order, the first per transaction winning:
    what ``resolved`` held before the GC forgot any of it."""
    outcomes: Dict[TID, str] = {}
    if member is not None:
        for command in member.applied_commands():
            if isinstance(command, record_type):
                outcomes.setdefault(command.tid, command.decision)
    return outcomes


def applied_outcome(member: Any, record_type: type,
                    tid: TID) -> Optional[str]:
    """``tid``'s writeback outcome in ``member``'s applied Raft log, or
    ``None`` if none applied.  Searched newest first, so a recently
    forgotten transaction is found near the tail; every writeback record
    of one transaction carries its coordinator's one decision."""
    if member is not None:
        for command in member.applied_commands(newest_first=True):
            if isinstance(command, record_type) and command.tid == tid:
                return command.decision
    return None


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


@dataclass(slots=True)
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
