"""Checkers for the paper's sequential-WANRT claims.

Carousel's headline numbers are *counts* of sequential wide-area round
trips on a committing transaction's critical path (§1, §4):

* Basic: 2 WANRT (read/prepare round + commit round).
* CPC fast path: 1 WANRT beyond the read round — with local-replica
  reads serving the read round locally, 1 WANRT total.
* Read-only optimization: 1 WANRT (the read round is the transaction).
* Layered 2PC-over-consensus baseline: ≥ 3 WANRT.
* TAPIR: fast path 1 WANRT beyond the read round; slow path ≥ 2.

:func:`check_transaction` classifies a traced transaction by its spans
and asserts its measured critical-path WANRT against the claim; an
aborted transaction is reported with no claim applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.trace.tracer import SPAN_READ, TxnTrace


class InvariantViolation(AssertionError):
    """A traced transaction contradicts the paper's WANRT claim."""


@dataclass
class InvariantReport:
    """Outcome of checking one transaction against its variant's claim."""

    variant: str
    measured_wanrt: float
    expected_min: float
    expected_max: float
    ok: bool
    detail: str = ""
    #: ``False`` for an aborted transaction: the claims describe commits.
    claimed: bool = True

    def __str__(self) -> str:
        if not self.claimed:
            return (f"[no claim] {self.variant}: measured "
                    f"{self.measured_wanrt:g} WANRT, no claim applies — "
                    f"{self.detail}")
        verdict = "ok" if self.ok else "VIOLATION"
        if math.isinf(self.expected_max):
            expected = f">={self.expected_min:g}"
        elif self.expected_min == self.expected_max:
            expected = f"=={self.expected_min:g}"
        else:
            expected = f"in [{self.expected_min:g}, {self.expected_max:g}]"
        return (f"[{verdict}] {self.variant}: measured "
                f"{self.measured_wanrt:g} WANRT, paper claims {expected}"
                f"{' — ' + self.detail if self.detail else ''}")


def _read_phase_wanrt(txn: TxnTrace) -> float:
    """WANRT spent inside the client's read span (0 with local reads)."""
    read = txn.span(SPAN_READ)
    if read is None or read.end_ms is None:
        return 0.0
    return txn.wanrt_between(read.start_ms, read.end_ms)


def classify(txn: TxnTrace) -> Tuple[str, float, float]:
    """Map a traced transaction to (variant, min WANRT, max WANRT).

    The variant is inferred from the system label and the spans actually
    recorded (e.g. a Carousel fast-mode transaction that fell back to the
    slow path carries a ``cpc-slow`` span).
    """
    # Imported here: the table imports the clusters, which import the
    # kernel, which imports this package (see ``repro/trace/__init__``).
    from repro import systems

    entry = systems.TABLE.get(txn.system)
    if entry is None:
        return (txn.system or "unknown", 0.0, math.inf)
    claim = next(c for c in entry.wanrt
                 if c.when_span is None or txn.spans_of(c.when_span))
    # "Beyond the read round": exactly that many WANRT on top of
    # whatever the read cost (0 when a local replica served it).
    base = _read_phase_wanrt(txn) if claim.beyond_read else 0.0
    return (claim.variant, claim.lo + base, claim.hi + base)


def check_transaction(txn: TxnTrace) -> InvariantReport:
    """Check one committed transaction's measured WANRT against its claim.

    Also cross-validates the context counter against an independent walk
    of the critical-path message chain.  Raises
    :class:`InvariantViolation` on any mismatch.  An aborted transaction
    is reported with its variant and measured WANRT and no claim applied.
    """
    if txn.committed is None:
        raise InvariantViolation(f"txn {txn.tid} never completed")
    path_hops = sum(1 for ann in txn.critical_path() if ann.cross_dc)
    if txn.wan_hops is not None and txn.wan_hops != path_hops:
        raise InvariantViolation(
            f"txn {txn.tid}: context counter says {txn.wan_hops} WAN hops "
            f"but the critical-path walk finds {path_hops}")
    variant, lo, hi = classify(txn)
    measured = txn.sequential_wanrt()
    if not txn.committed:
        return InvariantReport(
            variant=variant, measured_wanrt=measured, expected_min=lo,
            expected_max=hi, ok=True, claimed=False,
            detail=f"txn {txn.tid} aborted ({txn.reason}), "
                   f"{path_hops} WAN hops")
    ok = (lo - 1e-9) <= measured <= (hi + 1e-9)
    report = InvariantReport(
        variant=variant, measured_wanrt=measured,
        expected_min=lo, expected_max=hi, ok=ok,
        detail=f"txn {txn.tid}, {path_hops} WAN hops")
    if not ok:
        raise InvariantViolation(str(report))
    return report
