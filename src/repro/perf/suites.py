"""The benchmark suites behind ``python -m repro perf``.

Each suite exercises one layer of the stack, times it with
``time.perf_counter`` (this package is the detlint-sanctioned home for
wall-clock reads), and reports a :class:`SuiteResult` carrying both the
host-dependent rate and the deterministic operation counters described
in :mod:`repro.perf.schema`.

Microbenchmarks
    ``kernel-churn-heap``
                         raw event schedule/fire throughput
    ``timer-cancel-heap``
                         the protocol-timeout pattern (schedule a far
                         timeout, cancel it shortly after)
    ``net-send``         network send/deliver on the zero-allocation fast
                         path (no tracing, no fault models)
    ``net-send-traced``  the same traffic with a recording tracer and
                         link-fault models installed (slow path)
    ``zipf-approx``      workload key generation

End-to-end
    ``e2e-<system>``     committed transactions/sec under the Retwis
                         driver for every system in :mod:`repro.systems`.

All suites seed their kernels explicitly, so the op counters of a given
(suite, scale) pair are stable across hosts and runs.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import systems
from repro.perf.schema import SCHEMA_VERSION
from repro.sim.kernel import Kernel
from repro.sim.message import Message
from repro.sim.network import LinkFaults, Network
from repro.sim.node import Node
from repro.sim.topology import uniform_topology

SCALES = ("quick", "full")


@dataclass
class SuiteResult:
    """One suite's measurement: what ran, how fast, and exactly how much
    simulated work it did."""

    name: str
    unit: str
    units_processed: int
    wall_seconds: float
    ops: Dict[str, int] = field(default_factory=dict)

    @property
    def rate_per_sec(self) -> float:
        """Units per wall-clock second (0 when nothing was timed)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.units_processed / self.wall_seconds

    def to_json(self) -> Dict[str, object]:
        """This result as a BENCH-document suite entry."""
        return {
            "unit": self.unit,
            "units_processed": self.units_processed,
            "wall_seconds": self.wall_seconds,
            "rate_per_sec": self.rate_per_sec,
            "ops": dict(sorted(self.ops.items())),
        }


# ----------------------------------------------------------------------
# kernel microbenchmarks

#: Microbenchmark repetitions; the reported wall time is the *minimum*
#: (the standard defence against scheduler noise on shared hosts — the
#: fastest rep is the one least disturbed by the OS).  Ops are identical
#: across reps by construction, so only the timing benefits.  Each
#: ``_bench_*`` function below runs exactly ONE rep; repetition and the
#: best-of merge live in :func:`merge_reps`, so a sweep executor can
#: fan the reps out as independent specs and merge them identically.
_MICRO_REPS = 3


def _bench_kernel_churn(scale: str) -> SuiteResult:
    """Self-rescheduling event chains: the kernel's steady-state churn.

    64 concurrent chains each fire and immediately reschedule themselves
    at an exponential gap, so the queue holds a stable population while
    events pour through it — the common case for every protocol timer
    and message delivery in the simulator.
    """
    n_events = 150_000 if scale == "quick" else 1_500_000

    def once() -> SuiteResult:
        kernel = Kernel(seed=11)
        expovariate = kernel.random.expovariate
        schedule = kernel.schedule

        def tick() -> None:
            schedule(expovariate(1.0), tick)

        for _ in range(64):
            schedule(expovariate(1.0), tick)
        start = time.perf_counter()
        executed = kernel.run(max_events=n_events)
        wall = time.perf_counter() - start
        return SuiteResult(name="kernel-churn-heap",
                           unit="events", units_processed=executed,
                           wall_seconds=wall, ops=kernel.op_counters())

    return once()


def _bench_timer_cancel(scale: str) -> SuiteResult:
    """The protocol-timeout pattern: almost every scheduled timer is
    cancelled before it fires.

    512 chains each keep one outstanding 100 ms timeout; every operation
    cancels the previous timeout and arms a new one, then reschedules
    itself ~0.5 ms out.  Roughly half of all scheduled events die by
    cancellation, which is exactly the load the heap's lazy compaction
    exists for.
    """
    n_events = 60_000 if scale == "quick" else 600_000
    chains = 512

    def once() -> SuiteResult:
        kernel = Kernel(seed=12)
        expovariate = kernel.random.expovariate
        schedule = kernel.schedule
        timeouts: List[Optional[object]] = [None] * chains

        def on_timeout() -> None:  # pragma: no cover - always cancelled
            pass

        def op(chain: int) -> None:
            pending = timeouts[chain]
            if pending is not None:
                pending.cancel()
            timeouts[chain] = schedule(100.0, on_timeout)
            schedule(expovariate(2.0), op, chain)

        for chain in range(chains):
            schedule(expovariate(2.0), op, chain)
        start = time.perf_counter()
        executed = kernel.run(max_events=n_events)
        wall = time.perf_counter() - start
        return SuiteResult(name="timer-cancel-heap",
                           unit="events", units_processed=executed,
                           wall_seconds=wall, ops=kernel.op_counters())

    return once()


# ----------------------------------------------------------------------
# network microbenchmarks


class _Ping(Message):
    """Minimal fixed-size message for the network benchmarks."""

    def size_bytes(self) -> int:
        return 64


class _EchoNode(Node):
    """Bounces every message straight back to its sender."""

    def handle_message(self, msg: Message) -> None:
        self.send(msg.src, _Ping())


def _build_echo_pairs(kernel: Kernel, pairs: int):
    topology = uniform_topology(2, 10.0)
    network = Network(kernel, topology, jitter_fraction=0.02)
    endpoints = []
    for i in range(pairs):
        a = _EchoNode(f"a{i}", "dc0", kernel, network)
        b = _EchoNode(f"b{i}", "dc1", kernel, network)
        endpoints.append((a, b))
    return network, endpoints


def _net_ops(kernel: Kernel, network: Network) -> Dict[str, int]:
    ops = kernel.op_counters()
    ops["messages_sent"] = network.messages_sent
    ops["messages_delivered"] = network.messages_delivered
    ops["messages_dropped"] = network.messages_dropped
    return ops


def _bench_net_send(scale: str) -> SuiteResult:
    """Cross-DC ping-pong on the network fast path: no accounting, no
    fault models, no tracer — the branch the overhaul optimizes."""
    n_events = 100_000 if scale == "quick" else 1_000_000

    def once() -> SuiteResult:
        kernel = Kernel(seed=13)
        network, endpoints = _build_echo_pairs(kernel, pairs=32)
        assert network._fast, "fast path must be active for net-send"
        for a, b in endpoints:
            a.send(b.node_id, _Ping())
        start = time.perf_counter()
        kernel.run(max_events=n_events)
        wall = time.perf_counter() - start
        return SuiteResult(name="net-send", unit="messages",
                           units_processed=network.messages_delivered,
                           wall_seconds=wall,
                           ops=_net_ops(kernel, network))

    return once()


def _bench_net_send_traced(scale: str) -> SuiteResult:
    """The same ping-pong traffic with a recording tracer attached and a
    link-fault model installed, forcing the fully-instrumented slow
    path.  Comparing against ``net-send`` prices the instrumentation."""
    from repro.trace.tracer import Tracer

    n_events = 100_000 if scale == "quick" else 1_000_000

    def once() -> SuiteResult:
        kernel = Kernel(seed=13)
        network, endpoints = _build_echo_pairs(kernel, pairs=32)
        Tracer(kernel)
        faults = LinkFaults(drop_prob=0.001, dup_prob=0.001)
        for a, b in endpoints:
            network.set_link_faults(a.node_id, b.node_id, faults)
        assert not network._fast, \
            "slow path must be active for net-send-traced"
        for a, b in endpoints:
            a.send(b.node_id, _Ping())
        start = time.perf_counter()
        kernel.run(max_events=n_events)
        wall = time.perf_counter() - start
        return SuiteResult(name="net-send-traced", unit="messages",
                           units_processed=network.messages_delivered,
                           wall_seconds=wall,
                           ops=_net_ops(kernel, network))

    return once()


# ----------------------------------------------------------------------
# workload-generation microbenchmarks


def _bench_zipf(scale: str) -> SuiteResult:
    """Zipfian rank draws at the paper's theta = 0.75.  ``rank_sum`` is a
    deterministic checksum over the drawn ranks: any change to the
    sampler's draw stream shows up as an exact op-counter diff."""
    from repro.workloads.zipf import ZipfianGenerator

    n_keys = 100_000 if scale == "quick" else 1_000_000
    n_draws = 200_000 if scale == "quick" else 2_000_000

    def once() -> SuiteResult:
        rng = Kernel(seed=17).random
        generator = ZipfianGenerator(n_keys, theta=0.75, rng=rng)
        next_rank = generator.next
        rank_sum = 0
        start = time.perf_counter()
        for _ in range(n_draws):
            rank_sum += next_rank()
        wall = time.perf_counter() - start
        return SuiteResult(name="zipf-approx", unit="keys",
                           units_processed=n_draws, wall_seconds=wall,
                           ops={"draws": n_draws, "n_keys": n_keys,
                                "rank_sum": rank_sum})

    return once()


# ----------------------------------------------------------------------
# end-to-end system benchmarks


def _bench_e2e(system: str, scale: str) -> SuiteResult:
    """Committed transactions/sec under the Retwis driver.

    Uses a small uniform three-DC deployment (the §6.4 local-cluster
    shape) rather than the full EC2 topology so the quick scale stays
    CI-friendly; the point is tracking end-to-end simulator throughput,
    not reproducing a paper figure.
    """
    from repro.bench.cluster import DeploymentSpec
    from repro.workloads.driver import COMMITTED, ABORTED, WorkloadDriver
    from repro.workloads.retwis import RetwisWorkload

    duration_ms = 3_000.0 if scale == "quick" else 20_000.0
    target_tps = 200.0 if scale == "quick" else 400.0
    spec = DeploymentSpec(topology=uniform_topology(3, 10.0),
                          n_partitions=3, seed=23, clients_per_dc=4)
    cluster = systems.build(system, spec)
    workload = RetwisWorkload(n_keys=10_000, seed=24)
    driver = WorkloadDriver(cluster, workload, target_tps=target_tps,
                            duration_ms=duration_ms, warmup_ms=500.0,
                            cooldown_ms=500.0, closed_loop=True,
                            arrival_batch=16)
    start = time.perf_counter()
    stats = driver.run()
    wall = time.perf_counter() - start
    committed = stats.outcomes.count(COMMITTED)
    ops = cluster.op_counters()
    ops["committed"] = committed
    ops["aborted"] = stats.outcomes.count(ABORTED)
    ops["submitted"] = stats.submitted
    return SuiteResult(name=f"e2e-{system}", unit="txns",
                       units_processed=committed, wall_seconds=wall,
                       ops=ops)


# ----------------------------------------------------------------------
# registry

#: Single-rep builders, in registry (report) order.
_SUITE_BUILDERS: Dict[str, Callable[[str], SuiteResult]] = {
    "kernel-churn-heap": _bench_kernel_churn,
    "timer-cancel-heap": _bench_timer_cancel,
    "net-send": _bench_net_send,
    "net-send-traced": _bench_net_send_traced,
    "zipf-approx": _bench_zipf,
    **{f"e2e-{system}": (lambda s, _sys=system: _bench_e2e(_sys, s))
       for system in systems.SYSTEMS},
}

#: Repetitions per suite: microbenchmarks run best-of-``_MICRO_REPS``,
#: the long e2e suites run once.
SUITE_REPS: Dict[str, int] = {
    name: (1 if name.startswith("e2e-") else _MICRO_REPS)
    for name in _SUITE_BUILDERS
}


def run_suite_rep(name: str, scale: str) -> SuiteResult:
    """Run exactly one repetition of ``name`` — the unit of work a sweep
    worker executes for a ``perf-suite`` run spec."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of "
                         f"{SCALES}")
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITE_BUILDERS[name](scale)


def merge_reps(reps: List[SuiteResult]) -> SuiteResult:
    """Best-of merge: keep the rep with the lowest wall time.

    Reps of a deterministic suite must agree on every op counter; a
    divergence means the suite is not actually deterministic, which
    would silently corrupt CI's exact ops comparison — so it is an
    error, not a warning.
    """
    best = reps[0]
    for rep in reps[1:]:
        if (rep.ops != best.ops
                or rep.units_processed != best.units_processed):
            raise RuntimeError(
                f"suite {best.name!r}: op counters diverged across "
                "repetitions; the suite is not deterministic")
        if rep.wall_seconds < best.wall_seconds:
            best = rep
    return best


def _run_suite(name: str, scale: str) -> SuiteResult:
    return merge_reps([run_suite_rep(name, scale)
                       for _ in range(SUITE_REPS[name])])


#: Compatibility registry: ``SUITES[name](scale)`` runs the full
#: best-of-reps suite in-process, exactly as before the sweep executor.
SUITES: Dict[str, Callable[[str], SuiteResult]] = {
    name: (lambda s, _n=name: _run_suite(_n, s))
    for name in _SUITE_BUILDERS
}


def run_suites(names: Optional[List[str]] = None, scale: str = "quick",
               progress: Optional[Callable[[str], None]] = None,
               executor=None) -> Dict[str, SuiteResult]:
    """Run the requested suites (all of them by default) and return
    ``{name: SuiteResult}`` in registry order.

    With a multi-worker ``executor`` (a
    :class:`repro.sweep.executor.SweepExecutor` with ``jobs > 1``),
    every repetition of every suite becomes an independent run spec and
    the reps fan out across worker processes; each suite's reps are then
    merged with :func:`merge_reps`, so ops match the sequential path
    exactly and only the wall-clock timing differs.  Perf specs are
    never cached — rates must be measured fresh on every run.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of "
                         f"{SCALES}")
    if names is None:
        names = list(_SUITE_BUILDERS)
    unknown = [name for name in names if name not in _SUITE_BUILDERS]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}; "
                         f"known: {', '.join(_SUITE_BUILDERS)}")
    selected = [name for name in _SUITE_BUILDERS if name in names]

    if executor is None or getattr(executor, "jobs", 1) <= 1:
        results: Dict[str, SuiteResult] = {}
        for name in selected:
            if progress is not None:
                progress(name)
            results[name] = _run_suite(name, scale)
        return results

    from repro.sweep.kinds import perf_suite_spec

    specs = []
    for name in selected:
        for rep in range(SUITE_REPS[name]):
            specs.append(perf_suite_spec(name, scale, rep))
    if progress is not None:
        progress(f"{len(specs)} suite reps across "
                 f"{executor.jobs} workers")
    flat = executor.run(specs)
    merged: Dict[str, SuiteResult] = {}
    cursor = 0
    for name in selected:
        reps = SUITE_REPS[name]
        merged[name] = merge_reps(flat[cursor:cursor + reps])
        cursor += reps
    return merged


def bench_document(results: Dict[str, SuiteResult], label: str,
                   scale: str, jobs: int = 1,
                   cache_stats: Optional[Dict[str, int]] = None
                   ) -> Dict[str, object]:
    """Assemble a schema-valid BENCH document from suite results.

    ``jobs`` and the host's CPU count are recorded in the ``host`` block
    (informational: two files may differ there and still be ops-exact
    equal); ``cache_stats`` (``{"hits": .., "misses": ..}``) records
    sweep-cache behaviour for the run that produced the document.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "scale": scale,
        "created_unix": time.time(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "implementation": sys.implementation.name,
            "cpu_count": os.cpu_count() or 1,
            "jobs": jobs,
        },
        "suites": {name: result.to_json()
                   for name, result in results.items()},
    }
    if cache_stats is not None:
        doc["cache"] = {"hits": int(cache_stats.get("hits", 0)),
                        "misses": int(cache_stats.get("misses", 0))}
    return doc
