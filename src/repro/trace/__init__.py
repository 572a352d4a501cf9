"""Virtual-time distributed tracing with WAN-RTT accounting.

See :mod:`repro.trace.tracer` for the tracer and data model,
:mod:`repro.trace.invariants` for the paper's WANRT claims as executable
checks, :mod:`repro.trace.export` for Chrome ``trace_event`` / plain-text
output, and :mod:`repro.trace.scenarios` for the traced scenarios behind
Figures 2–3 and ``python -m repro trace`` — every trace is a
:class:`repro.scenario.Scenario` run with ``trace=True``.

This package init deliberately does *not* import the scenarios: the
kernel imports :mod:`repro.trace.tracer` (for the disabled default
tracer), and the scenarios import the clusters, which import the kernel
— callers import :mod:`repro.trace.scenarios` themselves.
"""

from repro.trace.export import (chrome_trace_json, render_timeline,
                                to_chrome_trace)
from repro.trace.invariants import (InvariantReport, InvariantViolation,
                                    check_transaction, classify)
from repro.trace.tracer import (NULL_TRACER, SPAN_COMMIT, SPAN_CPC_FAST,
                                SPAN_CPC_SLOW, SPAN_PREPARE, SPAN_RAFT,
                                SPAN_READ, SPAN_READ_ONLY, SPAN_WRITEBACK,
                                MessageAnn, NullTracer, Span, TraceCtx,
                                Tracer, TxnTrace)

__all__ = [
    "NULL_TRACER", "NullTracer", "Tracer", "TraceCtx", "MessageAnn",
    "Span", "TxnTrace",
    "SPAN_READ", "SPAN_READ_ONLY", "SPAN_PREPARE", "SPAN_CPC_FAST",
    "SPAN_CPC_SLOW", "SPAN_COMMIT", "SPAN_WRITEBACK", "SPAN_RAFT",
    "InvariantReport", "InvariantViolation", "check_transaction",
    "classify",
    "to_chrome_trace", "chrome_trace_json", "render_timeline",
]
