"""The 2FI client shell every system's client library shares.

The paper gives all systems one client contract (Figure 1): ``Begin``
allocates a transaction id, the read round collects values for a fixed
key set, the write function turns them into write values (or aborts),
and the commit round ends in one result.  :class:`TxnClient` owns that
contract — TID allocation (client id + counter, §3.3), registration and
``txn_begin`` tracing, grouping the key sets by partition, absorbing read
replies (first reply per partition wins, §4.4.1), running the write
function, the retransmission timer on one :class:`RetryPolicy`,
phase changes and their spans (:meth:`_goto`) and the single completion
path (counters, :class:`~repro.txn.TxnResult`, callbacks).  A protocol's
client keeps only what is protocol: which messages a phase sends, which
replies end it, the phases between ``read`` and ``done``
(``TRANSITIONS``), and any state of its own (:meth:`_start`,
:meth:`_resend`, ``HANDLERS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, ClassVar, Dict, List,
                    Optional, Set, Tuple)

from repro.sim.node import Node, goto
from repro.txn import REASON_COMMITTED, TID, TransactionSpec, TxnResult

if TYPE_CHECKING:  # repro.core's package init imports a TxnClient subclass
    from repro.core.backoff import RetryPolicy

#: The two phases every client shares; protocols add their own between.
PHASE_READ = "read"
PHASE_DONE = "done"

CompletionCallback = Callable[[TxnResult], None]

#: One partition's share of a transaction: (pid, read keys, write keys).
KeyGroup = Tuple[str, Tuple[str, ...], Tuple[str, ...]]


@dataclass
class ClientTxn:
    """Client-side state of one in-flight transaction."""

    #: Timer fields :meth:`TxnClient._complete` cancels, in order.
    TIMERS: ClassVar[Tuple[str, ...]] = ("retry_timer",)

    tid: TID
    spec: TransactionSpec
    on_complete: Optional[CompletionCallback]
    started_ms: float
    phase: str = PHASE_READ
    #: Partitions we still need a read reply from.
    awaiting_reads: Set[str] = field(default_factory=set)
    values: Dict[str, Any] = field(default_factory=dict)
    versions: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, Any] = field(default_factory=dict)
    retry_timer: Any = None
    retries: int = 0
    #: Tracing: the currently-open client phase span.
    phase_span: Any = None


class TxnClient(Node):
    """An application server running a 2FI client library (§3.3)."""

    #: The :class:`ClientTxn` subclass holding this protocol's state.
    txn_class = ClientTxn
    #: System name reported to the tracer at ``txn_begin``.
    system = ""

    def __init__(self, node_id: str, dc: str, kernel, network, directory,
                 partitioner, retry_policy: RetryPolicy,
                 result_hook: Optional[CompletionCallback] = None):
        super().__init__(node_id, dc, kernel, network)
        self.directory = directory
        self.partitioner = partitioner
        self.retry_policy = retry_policy
        self.result_hook = result_hook
        self._counter = 0
        self._active: Dict[TID, ClientTxn] = {}
        self.submitted = 0
        self.committed = 0
        self.aborted = 0

    # ------------------------------------------------------------------
    # Public API (Figure 1)
    # ------------------------------------------------------------------
    def begin(self) -> TID:
        """Allocate a transaction id (client id + local counter)."""
        self._counter += 1
        return TID(self.node_id, self._counter)

    def submit(self, spec: TransactionSpec,
               on_complete: Optional[CompletionCallback] = None
               ) -> Optional[TID]:
        """Run one 2FI transaction; completion is reported via callback."""
        txn = self._register(spec, on_complete)
        read_groups = self.partitioner.group_by_partition(spec.read_keys)
        write_groups = self.partitioner.group_by_partition(spec.write_keys)
        groups = [(pid, tuple(read_groups.get(pid, ())),
                   tuple(write_groups.get(pid, ())))
                  for pid in sorted(set(read_groups) | set(write_groups))]
        if not groups:
            self._complete(txn, True, REASON_COMMITTED)
            return txn.tid
        txn.awaiting_reads = {pid for pid, read_keys, __ in groups
                              if read_keys}
        self._start(txn, groups)
        self._arm_retry(txn)
        return txn.tid

    def _register(self, spec: TransactionSpec,
                  on_complete: Optional[CompletionCallback]) -> ClientTxn:
        tid = self.begin()
        txn = self.txn_class(tid=tid, spec=spec, on_complete=on_complete,
                             started_ms=self.kernel.now)
        self._active[tid] = txn
        self.submitted += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.txn_begin(tid, system=self.system, client=self.node_id,
                             dc=self.dc)
        return txn

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def _start(self, txn: ClientTxn, groups: List[KeyGroup]) -> None:
        """Send the first phase of ``txn`` over its (non-empty, sorted by
        partition id) key groups."""
        raise NotImplementedError

    def _resend(self, txn: ClientTxn) -> None:
        """Retransmit the current phase of a stalled ``txn``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Read round and write function
    # ------------------------------------------------------------------
    def _absorb_read(self, msg, phase: str = PHASE_READ
                     ) -> Optional[ClientTxn]:
        """Fold one partition's read reply into its transaction; returns
        the transaction when this reply completed the read round."""
        txn = self._active.get(msg.tid)
        if txn is None or txn.phase != phase:
            return None
        if msg.partition_id not in txn.awaiting_reads:
            return None  # a slower replica lost the race (§4.4.1: first wins)
        txn.awaiting_reads.discard(msg.partition_id)
        for key, (value, version) in msg.values.items():
            txn.values[key] = value
            txn.versions[key] = version
        return None if txn.awaiting_reads else txn

    def _compute_writes(self, txn: ClientTxn) -> bool:
        """Run the write function over the values read; ``False`` when the
        application chose to abort (§3.2)."""
        reads = {k: txn.values.get(k) for k in txn.spec.read_keys}
        writes = txn.spec.run_write_function(reads)
        if writes is None:
            return False
        txn.writes = writes
        return True

    def _goto(self, txn: ClientTxn, phase: str,
              span: Optional[str] = None) -> None:
        """Move ``txn`` to ``phase`` and, when tracing, into a ``span``
        phase span.  The protocol client's ``TRANSITIONS`` table (phase
        -> the phases it may enter; first key ``read``) must declare the
        step."""
        txn.phase = goto(self, txn.phase, phase)
        if span is not None:
            self._enter_span(txn, span)

    def _enter_span(self, txn: ClientTxn, kind: str) -> None:
        """Tracing: close the open phase span and open a ``kind`` one."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.span_end(txn.phase_span)
            txn.phase_span = tracer.span_begin(
                txn.tid, kind, self.node_id, self.dc)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete(self, txn: ClientTxn, committed: bool,
                  reason: str) -> None:
        if txn.phase == PHASE_DONE:
            return
        self._goto(txn, PHASE_DONE)
        tracer = self.tracer
        if tracer.enabled:
            tracer.span_end(txn.phase_span)
            txn.phase_span = None
            tracer.txn_end(txn.tid, committed, reason)
        for name in txn.TIMERS:
            self._cancel_timer(txn, name)
        self._active.pop(txn.tid, None)
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        result = TxnResult(
            tid=txn.tid, committed=committed,
            latency_ms=self.kernel.now - txn.started_ms,
            reason=reason, txn_type=txn.spec.txn_type,
            reads=dict(txn.values), versions=dict(txn.versions))
        if txn.on_complete is not None:
            txn.on_complete(result)
        if self.result_hook is not None:
            self.result_hook(result)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_retry(self, txn: ClientTxn) -> None:
        # Capped exponential backoff keyed by this transaction's retry
        # count; the degenerate policy is the historical fixed interval.
        delay = self.retry_policy.delay_ms(txn.retries, self.kernel.random)
        txn.retry_timer = self.set_timer(delay, self._retry, txn)

    def _retry(self, txn: ClientTxn) -> None:
        """Retransmit the current phase and re-arm."""
        if txn.phase == PHASE_DONE:
            return
        txn.retries += 1
        self._resend(txn)
        self._arm_retry(txn)

    def _cancel_timer(self, txn: ClientTxn, name: str) -> None:
        timer = getattr(txn, name)
        if timer is not None:
            timer.cancel()
            setattr(txn, name, None)
