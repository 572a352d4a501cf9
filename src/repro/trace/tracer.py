"""Span-based distributed tracing in virtual time.

The tracer attaches to a :class:`~repro.sim.kernel.Kernel` and observes a
simulation without perturbing it: it consumes no randomness, schedules no
events, and changes no protocol state, so a traced run is byte-for-byte
identical (in virtual time) to an untraced one.

Two kinds of records are collected per transaction:

* **Spans** — protocol phases (read, prepare, CPC fast/slow, commit,
  writeback, Raft replication) opened and closed by instrumentation hooks
  in the protocol layers.
* **Message annotations** — one :class:`MessageAnn` per network send, with
  source/destination datacenter, wire bytes, and whether the hop crossed a
  datacenter boundary.

Causal provenance
-----------------
Every kernel event carries a :class:`TraceCtx`: the transaction it belongs
to, the number of cross-datacenter hops on the causal chain that produced
it, and the last message on that chain.  The kernel captures the current
context into each event it schedules and restores it before running the
event's callback; the network derives a child context for each delivery
(incrementing ``wan_hops`` on cross-DC hops).  When a transaction
completes, the context of the completing event *is* the realized critical
path, and its ``wan_hops / 2`` is the transaction's **sequential WAN
round-trip count** — the quantity the Carousel paper's entire argument is
about (Basic = 2, CPC fast path = 1, §4).

Joins (an event that logically waits on *several* chains but is triggered
by a timer, like TAPIR's fast-path timeout) are handled explicitly with
:meth:`Tracer.absorb`, which deepens the current context to the deepest
dependency.

The disabled default, :data:`NULL_TRACER`, makes every hook a no-op so the
simulator's hot path pays a single ``tracer.enabled`` attribute check.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Span kinds used by the built-in instrumentation.
SPAN_READ = "read"
SPAN_READ_ONLY = "read-only"
SPAN_PREPARE = "prepare"
SPAN_CPC_FAST = "cpc-fast"
SPAN_CPC_SLOW = "cpc-slow"
SPAN_COMMIT = "commit"
SPAN_WRITEBACK = "writeback"
SPAN_RAFT = "raft-replication"
#: Fault-injection events (crash/recover/partition/heal/link faults);
#: recorded with ``tid=None`` so they land in ``orphan_spans`` and render
#: alongside — not inside — protocol transactions.
SPAN_NEMESIS = "nemesis"
#: Recovery activity: WAL restore after a power cycle and §4.3.3
#: leader-failover participant recovery; recorded with ``tid=None``.
SPAN_RECOVERY = "recovery"


class TraceCtx:
    """Causal context carried by kernel events.

    ``wan_hops`` counts the cross-datacenter message hops on the causal
    chain from the transaction's submission to this point; ``last_msg`` is
    the :class:`MessageAnn` of the chain's most recent message (its
    ``parent`` links form the full chain).
    """

    __slots__ = ("tid", "wan_hops", "last_msg")

    def __init__(self, tid: Any, wan_hops: int = 0,
                 last_msg: Optional["MessageAnn"] = None):
        self.tid = tid
        self.wan_hops = wan_hops
        self.last_msg = last_msg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceCtx {self.tid} hops={self.wan_hops}>"


class MessageAnn:
    """Annotation of one network send: endpoints, bytes, WAN classification.

    ``parent`` is the annotation of the previous message on the causal
    chain (or ``None`` at the chain's root); ``wan_hops`` is the chain
    depth *including* this hop.
    """

    __slots__ = ("msg_id", "parent", "tid", "msg_type", "src", "src_dc",
                 "dst", "dst_dc", "size_bytes", "cross_dc", "send_ms",
                 "recv_ms", "wan_hops")

    def __init__(self, msg_id: int, parent: Optional["MessageAnn"],
                 tid: Any, msg_type: str, src: str, src_dc: str,
                 dst: str, dst_dc: str, size_bytes: int, cross_dc: bool,
                 send_ms: float, recv_ms: float, wan_hops: int):
        self.msg_id = msg_id
        self.parent = parent
        self.tid = tid
        self.msg_type = msg_type
        self.src = src
        self.src_dc = src_dc
        self.dst = dst
        self.dst_dc = dst_dc
        self.size_bytes = size_bytes
        self.cross_dc = cross_dc
        self.send_ms = send_ms
        self.recv_ms = recv_ms
        self.wan_hops = wan_hops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = "WAN" if self.cross_dc else "local"
        return (f"<MessageAnn #{self.msg_id} {self.msg_type} "
                f"{self.src}->{self.dst} [{span}] hops={self.wan_hops}>")


class Span:
    """One traced protocol phase on one node.

    ``end_ms`` is ``None`` while the span is open.  A *point* span has
    ``start_ms == end_ms``.
    """

    __slots__ = ("span_id", "tid", "kind", "node", "dc", "start_ms",
                 "end_ms", "detail")

    def __init__(self, span_id: int, tid: Any, kind: str, node: str,
                 dc: str, start_ms: float,
                 end_ms: Optional[float] = None, detail: str = ""):
        self.span_id = span_id
        self.tid = tid
        self.kind = kind
        self.node = node
        self.dc = dc
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.detail = detail

    @property
    def duration_ms(self) -> Optional[float]:
        """Span length in ms, or ``None`` while still open."""
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.kind} @{self.node} "
                f"[{self.start_ms:.1f}..{self.end_ms}]>")


class TxnTrace:
    """Everything recorded about one traced transaction."""

    def __init__(self, tid: Any, system: str = "", client: str = "",
                 dc: str = "", start_ms: float = 0.0):
        self.tid = tid
        self.system = system
        self.client = client
        self.dc = dc
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.committed: Optional[bool] = None
        self.reason = ""
        #: Cross-DC hop count of the completing event's context, set at
        #: ``txn_end``; ``None`` until the transaction completes.
        self.wan_hops: Optional[int] = None
        #: Last message on the realized critical path.
        self.final_msg: Optional[MessageAnn] = None
        self.spans: List[Span] = []
        self.messages: List[MessageAnn] = []

    # -- derived quantities --------------------------------------------
    def latency_ms(self) -> Optional[float]:
        """Submission-to-completion latency, or ``None`` if unfinished."""
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def critical_path(self) -> List[MessageAnn]:
        """The realized chain of messages that gated completion, in send
        order (root first)."""
        path: List[MessageAnn] = []
        ann = self.final_msg
        while ann is not None:
            path.append(ann)
            ann = ann.parent
        path.reverse()
        return path

    def sequential_wan_hops(self) -> int:
        """Cross-DC hops on the critical path (the context counter when
        set, else a walk of the message chain)."""
        if self.wan_hops is not None:
            return self.wan_hops
        return sum(1 for ann in self.critical_path() if ann.cross_dc)

    def sequential_wanrt(self) -> float:
        """Sequential wide-area round trips: critical-path WAN hops / 2."""
        return self.sequential_wan_hops() / 2.0

    def wanrt_between(self, start_ms: float, end_ms: float) -> float:
        """Sequential WANRT contributed by critical-path messages sent and
        received within ``[start_ms, end_ms]`` (e.g. one phase span)."""
        hops = sum(1 for ann in self.critical_path()
                   if ann.cross_dc
                   and ann.send_ms >= start_ms - 1e-9
                   and ann.recv_ms <= end_ms + 1e-9)
        return hops / 2.0

    # -- span lookups ---------------------------------------------------
    def span(self, kind: str) -> Optional[Span]:
        """The first span of ``kind``, or ``None``."""
        for span in self.spans:
            if span.kind == kind:
                return span
        return None

    def spans_of(self, kind: str) -> List[Span]:
        """All spans of ``kind``, in creation order."""
        return [span for span in self.spans if span.kind == kind]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TxnTrace {self.tid} {self.system} "
                f"spans={len(self.spans)} msgs={len(self.messages)}>")


class NullTracer:
    """Disabled tracer: every hook is a cheap no-op.

    A kernel's default tracer is the shared :data:`NULL_TRACER` instance,
    so with tracing off the simulator's hot path pays one attribute check
    (``tracer.enabled``) per guarded site and nothing else.
    """

    enabled = False

    def __init__(self) -> None:
        self.current: Optional[TraceCtx] = None

    def txn_begin(self, tid: Any, system: str = "", client: str = "",
                  dc: str = "") -> Optional[TxnTrace]:
        """No-op; returns ``None``."""
        return None

    def txn_end(self, tid: Any, committed: bool, reason: str = "") -> None:
        """No-op."""

    def span_begin(self, tid: Any, kind: str, node: str = "",
                   dc: str = "", detail: str = "") -> Optional[Span]:
        """No-op; returns ``None``."""
        return None

    def span_end(self, span: Optional[Span],
                 detail: Optional[str] = None) -> None:
        """No-op (and ``None``-safe when tracing was off at span start)."""

    def add_span(self, tid: Any, kind: str, node: str = "", dc: str = "",
                 start_ms: Optional[float] = None,
                 detail: str = "") -> Optional[Span]:
        """No-op; returns ``None``."""
        return None

    def point(self, tid: Any, kind: str, node: str = "", dc: str = "",
              detail: str = "") -> Optional[Span]:
        """No-op; returns ``None``."""
        return None

    def on_send(self, msg: Any, src: Any, dst: Any,
                delay: float) -> Optional[TraceCtx]:
        """No-op; returns ``None``."""
        return None

    def absorb(self, ctx: Optional[TraceCtx]) -> None:
        """No-op."""


#: The shared disabled tracer installed on every kernel by default.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """A recording tracer.  Attach to a kernel, run, inspect/export.

    Usage::

        tracer = Tracer(cluster.kernel)     # installs itself
        ... run the workload ...
        for txn in tracer.transactions():
            print(txn.sequential_wanrt())
    """

    enabled = True

    def __init__(self, kernel: Any = None):
        super().__init__()
        self.kernel: Any = None
        self.txns: Dict[Any, TxnTrace] = {}
        #: Spans/messages with no (or an unknown) transaction id, e.g.
        #: Raft no-op replication or background heartbeats.
        self.orphan_spans: List[Span] = []
        self.orphan_messages: List[MessageAnn] = []
        self._next_msg_id = 0
        self._next_span_id = 0
        if kernel is not None:
            self.attach(kernel)

    # -- lifecycle ------------------------------------------------------
    def attach(self, kernel: Any) -> "Tracer":
        """Install this tracer on ``kernel`` and start observing."""
        self.kernel = kernel
        kernel.tracer = self
        return self

    def detach(self) -> None:
        """Restore the kernel's disabled default tracer."""
        if self.kernel is not None and self.kernel.tracer is self:
            self.kernel.tracer = NULL_TRACER

    def _now(self) -> float:
        return self.kernel.now if self.kernel is not None else 0.0

    # -- transaction lifecycle -----------------------------------------
    def txn_begin(self, tid: Any, system: str = "", client: str = "",
                  dc: str = "") -> TxnTrace:
        """Open a transaction trace and root a fresh causal context."""
        trace = TxnTrace(tid=tid, system=system, client=client, dc=dc,
                         start_ms=self._now())
        self.txns[tid] = trace
        self.current = TraceCtx(tid, 0, None)
        return trace

    def txn_end(self, tid: Any, committed: bool, reason: str = "") -> None:
        """Close a transaction trace; the current context's WAN-hop depth
        becomes the transaction's sequential critical-path count."""
        trace = self.txns.get(tid)
        if trace is None:
            return
        trace.end_ms = self._now()
        trace.committed = committed
        trace.reason = reason
        ctx = self.current
        if ctx is not None and ctx.tid == tid:
            trace.wan_hops = ctx.wan_hops
            trace.final_msg = ctx.last_msg

    # -- spans ----------------------------------------------------------
    def _record_span(self, span: Span) -> Span:
        trace = self.txns.get(span.tid)
        if trace is not None:
            trace.spans.append(span)
        else:
            self.orphan_spans.append(span)
        return span

    def span_begin(self, tid: Any, kind: str, node: str = "",
                   dc: str = "", detail: str = "") -> Span:
        """Open a span at the current virtual time."""
        span = Span(self._next_span_id, tid, kind, node, dc,
                    start_ms=self._now(), detail=detail)
        self._next_span_id += 1
        return self._record_span(span)

    def span_end(self, span: Optional[Span],
                 detail: Optional[str] = None) -> None:
        """Close ``span`` now (``None``-safe; idempotent)."""
        if span is None:
            return
        if span.end_ms is None:
            span.end_ms = self._now()
        if detail is not None:
            span.detail = detail

    def add_span(self, tid: Any, kind: str, node: str = "", dc: str = "",
                 start_ms: Optional[float] = None,
                 detail: str = "") -> Span:
        """Record a completed span retroactively, ending now."""
        now = self._now()
        start = now if start_ms is None else start_ms
        span = Span(self._next_span_id, tid, kind, node, dc,
                    start_ms=start, end_ms=now, detail=detail)
        self._next_span_id += 1
        return self._record_span(span)

    def point(self, tid: Any, kind: str, node: str = "", dc: str = "",
              detail: str = "") -> Span:
        """Record an instantaneous (zero-duration) span."""
        return self.add_span(tid, kind, node=node, dc=dc, detail=detail)

    # -- network hook ---------------------------------------------------
    def on_send(self, msg: Any, src: Any, dst: Any,
                delay: float) -> TraceCtx:
        """Annotate one send; called by the network.  Returns the derived
        context the delivery event will carry."""
        parent_ctx = self.current
        cross = src.dc != dst.dc
        if parent_ctx is not None:
            tid = parent_ctx.tid
            hops = parent_ctx.wan_hops + (1 if cross else 0)
            parent = parent_ctx.last_msg
        else:
            tid = None
            hops = 1 if cross else 0
            parent = None
        now = self._now()
        ann = MessageAnn(
            msg_id=self._next_msg_id, parent=parent, tid=tid,
            msg_type=msg.type_name, src=src.node_id, src_dc=src.dc,
            dst=dst.node_id, dst_dc=dst.dc, size_bytes=msg.size_bytes(),
            cross_dc=cross, send_ms=now, recv_ms=now + delay,
            wan_hops=hops)
        self._next_msg_id += 1
        trace = self.txns.get(tid)
        if trace is not None:
            trace.messages.append(ann)
        else:
            self.orphan_messages.append(ann)
        return TraceCtx(tid, hops, ann)

    # -- joins ----------------------------------------------------------
    def absorb(self, ctx: Optional[TraceCtx]) -> None:
        """Merge a remembered dependency context into the current one.

        Used at *join points* the event chain cannot see — a handler
        triggered by a timer whose decision causally depends on earlier
        message arrivals (e.g. TAPIR's fast-path timeout reading the votes
        collected so far).  Deepens the current context to the dependency's
        depth; never shallows it.
        """
        if ctx is None:
            return
        cur = self.current
        if cur is None or ctx.wan_hops > cur.wan_hops:
            self.current = ctx

    # -- accessors ------------------------------------------------------
    def transactions(self) -> List[TxnTrace]:
        """All transaction traces, in begin order."""
        return list(self.txns.values())

    def get(self, tid: Any) -> Optional[TxnTrace]:
        """The trace for ``tid``, or ``None``."""
        return self.txns.get(tid)

    def sends(self) -> List[MessageAnn]:
        """Every annotated send, transactions' and orphans', in send
        order."""
        anns = list(self.orphan_messages)
        for trace in self.txns.values():
            anns.extend(trace.messages)
        return sorted(anns, key=lambda ann: ann.msg_id)
