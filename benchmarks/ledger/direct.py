"""Direct timings: one layer's public functions, in isolation.

Where :mod:`repro.perf.suites` already has a suite for a layer (kernel
churn, timer cancel, network send, Zipf draws) its single-repetition
entry point is reused instead of writing a second copy; the remaining
layers are timed here through their public classes.  Every figure is the
median of :data:`REPS` repetitions, in wall-clock microseconds.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.core.occ import PendingList, PendingTxn
from repro.perf.suites import run_suite_rep
from repro.raft.node import RaftHost, RaftMember
from repro.runtime.wire import WireError, decode_message, encode_message
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.topology import uniform_topology
from repro.store.kvstore import VersionedKVStore
from repro.txn import TID
from repro.wal.log import WriteAheadLog
from repro.wal.records import RaftTermRecord
from repro.workloads import RetwisWorkload

from spans import SpanLog

REPS = 3


def _us_per_op(fn: Callable[[], int]) -> float:
    """Median over :data:`REPS` of wall µs per operation; ``fn`` runs one
    repetition and returns how many operations it performed."""
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        ops = fn()
        samples.append((time.perf_counter() - start) * 1e6 / ops)
    return statistics.median(samples)


def _suite_us(name: str) -> float:
    """µs per unit of one existing ``repro.perf`` micro-suite (its own
    timed region, quick scale)."""
    samples = []
    for _ in range(REPS):
        rep = run_suite_rep(name, "quick")
        samples.append(rep.wall_seconds * 1e6 / rep.units_processed)
    return statistics.median(samples)


class _BareHost(RaftHost):
    """A Raft host with no application on top."""

    def handle_app_message(self, msg: Any) -> None:  # pragma: no cover
        raise TypeError(f"unexpected message {msg!r}")


def _raft_replicate(entries: int = 2000) -> Tuple[float, float]:
    """``(µs, kernel events)`` per entry replicated and committed on a
    three-node group, one datacenter each, 10 ms apart."""
    samples = []
    events = 0.0
    for _ in range(REPS):
        kernel = Kernel(seed=31)
        network = Network(kernel, uniform_topology(3, 10.0))
        ids = [f"r{i}" for i in range(3)]
        hosts = [_BareHost(nid, f"dc{i}", kernel, network)
                 for i, nid in enumerate(ids)]
        members = [RaftMember(host, "g", ids, bootstrap_leader=ids[0])
                   for host in hosts]
        for host in hosts:
            host.start_raft()
        kernel.run(until=500.0)
        leader = members[0]
        committed = []
        executed = kernel.events_executed
        start = time.perf_counter()
        for i in range(entries):
            leader.propose(("cmd", i), committed.append)
            kernel.run(until=kernel.now + 1.0)
        kernel.run(until=kernel.now + 100.0)
        samples.append((time.perf_counter() - start) * 1e6 / entries)
        if len(committed) != entries:
            raise RuntimeError("direct.raft: not every entry committed")
        events = (kernel.events_executed - executed) / entries
    return statistics.median(samples), events


def _occ_check(pending: int = 1000, checks: int = 20_000) -> float:
    plist = PendingList()
    for i in range(pending):
        keys = frozenset(f"k{4 * i + j}" for j in range(4))
        plist.add(PendingTxn(TID("c", i), keys, keys, (), 1, "coord"))
    probe = TID("c", -1)
    reads = [f"k{i}" for i in range(5000, 5004)]

    def once() -> int:
        conflicts = plist.conflicts
        for _ in range(checks):
            conflicts(probe, reads, reads)
        return checks

    return _us_per_op(once)


def _store(ops: int = 50_000) -> Tuple[float, float]:
    keys = [f"user{i}" for i in range(ops)]
    store = VersionedKVStore()
    version = [0]

    def write() -> int:
        version[0] += 1
        v = version[0]
        put = store.write
        for key in keys:
            put(key, "x", v)
        return ops

    def read() -> int:
        get = store.read
        for key in keys:
            get(key)
        return ops

    write_us = _us_per_op(write)
    return _us_per_op(read), write_us


def _wal(records: int = 20_000) -> Tuple[float, float]:
    record = RaftTermRecord(group_id="g", term=1, voted_for="r0")
    logs = []

    def append() -> int:
        wal = WriteAheadLog("direct")
        for _ in range(records):
            wal.append(record)
        logs.append(wal)
        return records

    append_us = _us_per_op(append)
    return append_us, _us_per_op(lambda: len(logs[-1].replay()))


def _next_spec(specs: int = 20_000) -> float:
    generator = RetwisWorkload(n_keys=100_000, seed=7)

    def once() -> int:
        for _ in range(specs):
            generator.next_spec()
        return specs

    return _us_per_op(once)


def _wire(corpus: Mapping[str, Any], weights: Mapping[str, int],
          rounds: int = 200) -> Tuple[float, float, float]:
    """``(encode µs, decode µs, bytes)`` per message over one real
    message of every kind the run sent, weighted by how many it sent.
    A kind the codec cannot encode is left out (today: a ``RequestVote``
    carrying pending transactions, seen only after the injected crash)."""
    encoded = {}
    for kind, msg in sorted(corpus.items()):
        try:
            encoded[kind] = encode_message(msg)
        except WireError:
            continue
    total = sum(weights[kind] for kind in encoded)
    encode_us = decode_us = size = 0.0
    for kind, data in encoded.items():
        share = weights[kind] / total
        msg = corpus[kind]

        def encode(msg=msg) -> int:
            for _ in range(rounds):
                encode_message(msg)
            return rounds

        def decode(data=data) -> int:
            for _ in range(rounds):
                decode_message(data)
            return rounds

        encode_us += share * _us_per_op(encode)
        decode_us += share * _us_per_op(decode)
        size += share * len(data)
    return encode_us, decode_us, size


def direct_timings(spans: SpanLog, corpus: Mapping[str, Any],
                   weights: Mapping[str, int]) -> Dict[str, float]:
    """Every direct metric, each timed under a ``direct.<layer>`` span."""
    out: Dict[str, float] = {}
    with spans.span("direct.sim.kernel"):
        out["sim.kernel.churn_us_per_event"] = _suite_us("kernel-churn-heap")
        out["sim.kernel.timer_cancel_us_per_op"] = \
            _suite_us("timer-cancel-heap")
    with spans.span("direct.sim.network"):
        out["sim.network.send_us_per_msg"] = _suite_us("net-send")
    with spans.span("direct.runtime.wire"):
        (out["runtime.wire.encode_us_per_msg"],
         out["runtime.wire.decode_us_per_msg"],
         out["runtime.wire.bytes_per_msg"]) = _wire(corpus, weights)
    with spans.span("direct.raft"):
        (out["raft.replicate_us_per_entry"],
         out["raft.events_per_entry"]) = _raft_replicate()
    with spans.span("direct.core"):
        out["core.occ.check_us"] = _occ_check()
    with spans.span("direct.store"):
        out["store.read_us"], out["store.write_us"] = _store()
    with spans.span("direct.wal"):
        (out["wal.append_sync_us"],
         out["wal.replay_us_per_record"]) = _wal()
    with spans.span("direct.workloads"):
        out["workloads.zipf_us_per_draw"] = _suite_us("zipf-approx")
        out["workloads.next_spec_us"] = _next_spec()
    return out
