"""The harness's own load generator and the end-to-end arithmetic.

The program under test only ever receives generated
:class:`~repro.txn.TransactionSpec` objects through ``client.submit``.
Arrival times come from a string-seeded RNG owned by the harness, never
from ``kernel.random``, so the offered traffic is the same whichever
system or commit is measured.

Clients are closed-loop as in the paper (§6.2): one outstanding
transaction each.  With an arrival process (``offered_tps > 0``) a
Poisson stream is dealt round-robin to the client pool and an arrival
that finds its client busy waits in that client's backlog, so requests
that fall due while a partition has no leader are still counted.
Without one, every client resubmits as soon as its reply arrives.

A workload with a fault schedule also gets *probes*: a few clients kept
out of the pool send one single-key read-modify-write on the victim
partition every :data:`PROBE_PERIOD_MS`, on schedule and without waiting
for replies.  The pool alone cannot tell when service resumes — within a
second or two of the crash nearly every pool client is stuck on a
request it sent to the dead leader — so time without service is read off
the probes.

All times are milliseconds on the runtime's own clock (``kernel.now``:
virtual under the DES, wall under asyncio).
"""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_left
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.txn import TransactionSpec


class Txn:
    """One generated transaction and what became of it."""

    __slots__ = ("client", "due_ms", "submit_ms", "reply_ms", "committed",
                 "tid", "write_keys", "result", "probe")

    def __init__(self, client: int, due_ms: float, spec,
                 probe: bool = False) -> None:
        self.client = client
        self.due_ms = due_ms
        self.probe = probe
        self.submit_ms: Optional[float] = None
        self.reply_ms: Optional[float] = None
        self.committed: Optional[bool] = None
        self.tid: Any = None
        self.write_keys: Tuple[str, ...] = spec.write_keys
        self.result: Any = None


#: Each probing client sends one probe per period.
PROBE_PERIOD_MS = 250.0


class LoadDriver:
    """Deals generated transactions to a pool of a cluster's clients."""

    def __init__(self, cluster, generator, offered_tps: float,
                 seed: int, probers: Sequence[Any] = ()) -> None:
        self.kernel = cluster.kernel
        self.probers = list(probers)
        self.clients = [c for c in cluster.clients if c not in self.probers]
        self.generator = generator
        self.offered_tps = offered_tps
        self._arrivals = random.Random(f"ledger-arrivals:{seed}")
        self._next_client = 0
        self._busy = [False] * len(self.clients)
        self._backlog: List[Deque[Tuple[Txn, Any]]] = [
            deque() for _ in self.clients]
        self._end_at = 0.0
        #: Probes go on until here (past the end of the load, if service
        #: has to be seen resuming); the drain waits for it.
        self.probe_until_ms = 0.0
        self.txns: List[Txn] = []
        self.outstanding = 0

    # ------------------------------------------------------------------
    def start(self, duration_ms: float) -> None:
        """Begin offering load now, for ``duration_ms`` of runtime clock."""
        self._end_at = self.kernel.now + duration_ms
        if self.offered_tps > 0:
            self._schedule_arrival(self.kernel.now)
        else:
            for index in range(len(self.clients)):
                self._resubmit(index)

    def start_probes(self, keys: Sequence[str], until_ms: float) -> None:
        """Probe ``keys[i]`` from ``probers[i]`` until ``until_ms``, the
        probers' schedules staggered evenly over one period."""
        self.probe_until_ms = until_ms
        for i, (client, key) in enumerate(zip(self.probers, keys)):
            offset = PROBE_PERIOD_MS * i / len(self.probers)
            self.kernel.schedule(offset, self._probe, client, key)

    def _probe(self, client, key: str) -> None:
        now = self.kernel.now
        if now >= self.probe_until_ms:
            return
        spec = TransactionSpec(
            read_keys=(key,), write_keys=(key,), txn_type="probe",
            compute_writes=lambda reads: {key: (reads.get(key) or 0) + 1})
        txn = Txn(-1, now, spec, probe=True)
        self.txns.append(txn)
        self.outstanding += 1
        txn.submit_ms = now
        txn.tid = client.submit(
            spec, lambda result, t=txn: self._record_reply(t, result))
        self.kernel.schedule(PROBE_PERIOD_MS, self._probe, client, key)

    def _record_reply(self, txn: Txn, result) -> None:
        txn.reply_ms = self.kernel.now
        txn.committed = bool(result.committed)
        txn.result = result
        self.outstanding -= 1

    def _schedule_arrival(self, after_ms: float) -> None:
        due = after_ms + self._arrivals.expovariate(self.offered_tps / 1000.0)
        if due < self._end_at:
            self.kernel.schedule_at(due, self._arrive, due)

    def _arrive(self, due_ms: float) -> None:
        index = self._next_client % len(self.clients)
        self._next_client += 1
        spec = self.generator.next_spec()
        txn = Txn(index, due_ms, spec)
        self.txns.append(txn)
        self.outstanding += 1
        if self._busy[index]:
            self._backlog[index].append((txn, spec))
        else:
            self._submit(txn, spec)
        self._schedule_arrival(due_ms)

    def _resubmit(self, index: int) -> None:
        now = self.kernel.now
        if now >= self._end_at:
            return
        spec = self.generator.next_spec()
        txn = Txn(index, now, spec)
        self.txns.append(txn)
        self.outstanding += 1
        self._submit(txn, spec)

    def _submit(self, txn: Txn, spec) -> None:
        self._busy[txn.client] = True
        txn.submit_ms = self.kernel.now
        txn.tid = self.clients[txn.client].submit(
            spec, lambda result, t=txn: self._on_reply(t, result))

    def _on_reply(self, txn: Txn, result) -> None:
        self._record_reply(txn, result)
        backlog = self._backlog[txn.client]
        if backlog:
            self._submit(*backlog.popleft())
        else:
            self._busy[txn.client] = False
            if self.offered_tps <= 0:
                self._resubmit(txn.client)


# ----------------------------------------------------------------------
# End-to-end arithmetic
# ----------------------------------------------------------------------

def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in 0..100)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


#: One measured slice of the window: runtime-clock bounds and the wall
#: seconds the slice took to execute.
Slice = Tuple[float, float, float]


def window_metrics(txns: Sequence[Txn], slices: Sequence[Slice],
                   crash_ms: Optional[float]) -> Dict[str, float]:
    """The run's traffic metrics from its transaction records.

    Samples are committed transactions whose reply fell inside the
    window (the union of ``slices``).  Throughput is all of them over all
    the wall seconds the window took.  The two latency percentiles are
    each the **median over slices** of the slice's own value: a host
    hiccup, a garbage-collection pause or the injected outage stretches
    the tail of the slices it touches, and as long as those are the
    minority the median does not move (over 30 identical runs this
    halved the run-to-run spread of the 95th percentile against the
    pooled one).  ``slice_committed_per_wall_s`` is the same robust
    reading of throughput, ``latency_p99_ms`` the pooled tail with
    pauses and outage included.

    The latency percentiles are over *read-write* transactions, the
    2FI transactions the protocols differ on.  Half of Retwis is
    one-round read-only transactions, several times faster under
    asyncio, so the all-transaction median sits on the edge between two
    modes and jumps between them from run to run; it is kept as
    ``latency_all_p50_ms``.
    """
    w0, w1 = slices[0][0], slices[-1][1]
    in_window = [t for t in txns if not t.probe
                 and t.reply_ms is not None and w0 <= t.reply_ms < w1]
    committed = sorted((t for t in in_window if t.committed),
                       key=lambda t: t.reply_ms)
    replies = [t.reply_ms for t in committed]
    rates, p50s, p95s = [], [], []
    for start, end, wall_s in slices:
        in_slice = committed[bisect_left(replies, start):
                             bisect_left(replies, end)]
        rates.append(len(in_slice) / wall_s)
        latencies = sorted(t.reply_ms - t.submit_ms for t in in_slice
                           if t.write_keys)
        if latencies:
            p50s.append(percentile(latencies, 50))
            p95s.append(percentile(latencies, 95))
    latencies = sorted(t.reply_ms - t.submit_ms for t in committed)
    writers = sorted(t.reply_ms - t.submit_ms for t in committed
                     if t.write_keys)
    unavailable_ms = 0.0
    if crash_ms is not None:
        after = [t.reply_ms for t in txns
                 if t.probe and t.committed and t.submit_ms >= crash_ms]
        # No probe committed by the end of the drain reads as
        # unavailable for the whole rest of the window.
        unavailable_ms = (min(after) if after else w1) - crash_ms
    n_done = len(in_window)
    return {
        "committed_per_wall_s":
            len(committed) / sum(wall_s for _, _, wall_s in slices),
        "slice_committed_per_wall_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50s) if p50s else 0.0,
        "latency_p95_ms": statistics.median(p95s) if p95s else 0.0,
        "latency_p99_ms": percentile(writers, 99),
        "latency_all_p50_ms": percentile(latencies, 50),
        "commit_share": len(committed) / n_done if n_done else 0.0,
        "unavailable_ms": unavailable_ms,
        "samples": float(len(committed)),
    }
