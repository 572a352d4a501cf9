"""Running one workload: setup, settle, load, drain — on either runtime.

Both engines drive the unmodified public builders from outside and
return a :class:`Run`: the transaction records, the measured slices of
the window, and an oracle adapter over the final replicated state for
the verify step.  ``probe`` (a :class:`layers.LayerProbe` factory) is
only passed by the traced pass; end-to-end numbers always come from a
run without one.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.cluster import (
    CarouselCluster,
    DeploymentSpec,
    LayeredCluster,
    TapirCluster,
)
from repro.core.config import BASIC, FAST, CarouselConfig
from repro.runtime.aio import DRIVER_PROC, AioRuntime, proc_for
from repro.runtime.harness import merge_snapshots, snapshot_cluster
from repro.sim.failure import FailureInjector
from repro.sim.topology import uniform_topology
from repro.workloads import RetwisWorkload, YcsbTWorkload

import spec as ledger
from load import LoadDriver, Slice, percentile
from spans import SpanLog
from verify import LiveClusterAdapter, StoredSnapshotAdapter

#: Partition whose leader the fault schedule crashes.
VICTIM_PARTITION = "p0"
#: Length of one slice of the window on the runtime's clock.  Short, so
#: that a hiccup touches few of them; long enough for the 95th percentile
#: of a slice to have samples beyond it (40 to 110 read-write commits
#: per slice on the six workloads).
_SLICE_MS = 250.0
_PROBE_AFTER_CRASH_MS = 12_000.0


@dataclass
class Run:
    """Everything one pass over a workload produced."""

    workload: ledger.Workload
    driver: LoadDriver
    #: The measurement window, cut into slices of about :data:`_SLICE_MS`.
    slices: List[Slice]
    adapter: Any
    setup_s: float
    load_wall_s: float
    load_bounds_ms: Tuple[float, float]
    crash_ms: Optional[float] = None
    loop_lag_p99_ms: float = 0.0
    probe: Any = None


def build_cluster(wl: ledger.Workload, seed: int, runtime=None,
                  topology=None):
    """One deployment of ``wl.system`` with the builders' defaults."""
    # A fault schedule adds one probing client per datacenter.
    spec = DeploymentSpec(
        topology=topology, n_partitions=wl.n_datacenters, seed=seed,
        clients_per_dc=wl.clients_per_dc + bool(wl.crash_at_share))
    if wl.system == "tapir":
        return TapirCluster(spec, runtime=runtime)
    if wl.system == "layered":
        return LayeredCluster(spec, runtime=runtime)
    mode = FAST if wl.system == "carousel-fast" else BASIC
    return CarouselCluster(spec, CarouselConfig(mode=mode), runtime=runtime)


def build_generator(wl: ledger.Workload, seed: int):
    """The workload generator (its own seeded RNG)."""
    if wl.traffic == "retwis":
        return RetwisWorkload(n_keys=wl.n_keys, theta=wl.theta,
                              value_size=wl.value_size, seed=seed)
    return YcsbTWorkload(n_keys=wl.n_keys, theta=wl.theta,
                         value_size=wl.value_size, seed=seed)


def _setup_only(wl: ledger.Workload, driver: LoadDriver,
                setup_s: float) -> Run:
    """What a pass with no load phase returns: its set-up time."""
    return Run(wl, driver, [], None, setup_s, 0.0, (0.0, 0.0))


def _victim_keys(cluster, n: int) -> List[str]:
    """``n`` distinct probe keys that live on the victim partition."""
    keys: List[str] = []
    i = 0
    while len(keys) < n:
        key = f"probe:{i}"
        if cluster.ring.partition_for(key) == VICTIM_PARTITION:
            keys.append(key)
        i += 1
    return keys


def _slice_edges(start_ms: float, load_ms: float) -> List[float]:
    """Edges of the window's slices: the load phase minus warm-up and
    cool-down, cut into equal parts of about :data:`_SLICE_MS`."""
    w0 = start_ms + load_ms * ledger.WARMUP_SHARE
    w1 = start_ms + load_ms * (1.0 - ledger.COOLDOWN_SHARE)
    n = max(1, round((w1 - w0) / _SLICE_MS))
    return [w0 + (w1 - w0) * i / n for i in range(n + 1)]


# ----------------------------------------------------------------------
# DES
# ----------------------------------------------------------------------

def run_des(wl: ledger.Workload, seed: int, load_ms: float,
            t_spawn: float, spans: SpanLog,
            probe: Optional[Callable[..., Any]] = None) -> Run:
    """One pass under the discrete-event runtime (virtual clock)."""
    with spans.span("setup"):
        cluster = build_cluster(wl, seed)
        kernel = cluster.kernel
        generator = build_generator(wl, seed + 1)
        probers = [cluster.client(dc, wl.clients_per_dc)
                   for dc in cluster.client_dcs()] if wl.crash_at_share else []
        driver = LoadDriver(cluster, generator, wl.offered_tps, seed, probers)
        probe = probe(wl, [cluster]) if probe else None
    with spans.span("settle", kernel):
        kernel.run(until=kernel.now + ledger.SETTLE_MS)
    start = kernel.now
    setup_s = time.time() - t_spawn
    if load_ms <= 0:
        return _setup_only(wl, driver, setup_s)
    crash_ms = None
    if wl.crash_at_share:
        crash_ms = start + load_ms * wl.crash_at_share
        victim = cluster.leader_of(VICTIM_PARTITION).node_id
        injector = FailureInjector(kernel, cluster.network)
        injector.crash_at(victim, crash_ms)
        injector.restart_at(victim, crash_ms + wl.restart_after_ms)

    edges = _slice_edges(start, load_ms)
    slices: List[Slice] = []
    with spans.span("load", kernel):
        if probe:
            probe.load_begin()
        t_load = time.perf_counter()
        driver.start(load_ms)
        if probers:
            # Long enough after the crash to see service resume even on
            # the seeds where recovery takes 9 s.
            driver.start_probes(
                _victim_keys(cluster, len(probers)),
                max(start + load_ms, crash_ms + _PROBE_AFTER_CRASH_MS))
        kernel.run(until=edges[0])
        for a, b in zip(edges, edges[1:]):
            t_slice = time.perf_counter()
            kernel.run(until=b)
            slices.append((a, b, time.perf_counter() - t_slice))
        kernel.run(until=start + load_ms)
        load_wall_s = time.perf_counter() - t_load
        if probe:
            probe.load_end()
    with spans.span("drain", kernel):
        deadline = kernel.now + ledger.DRAIN_MS["des"]
        while (driver.outstanding or kernel.now < driver.probe_until_ms) \
                and kernel.now < deadline:
            kernel.run(until=kernel.now + 500.0)
        kernel.run(until=kernel.now + ledger.QUIESCE_MS["des"])
    return Run(wl, driver, slices, LiveClusterAdapter(wl.system, cluster),
               setup_s, load_wall_s, (start, start + load_ms),
               crash_ms=crash_ms, probe=probe)


# ----------------------------------------------------------------------
# asyncio / TCP
# ----------------------------------------------------------------------

async def _loop_lag(samples: List[float], period_s: float = 0.010) -> None:
    """Heartbeat coroutine: how late each 10 ms sleep wakes up."""
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + period_s
        await asyncio.sleep(period_s)
        samples.append((loop.time() - due) * 1000.0)


async def _run_aio(wl: ledger.Workload, seed: int, load_ms: float,
                   t_spawn: float, spans: SpanLog, probe) -> Run:
    loop = asyncio.get_running_loop()
    topology = uniform_topology(wl.n_datacenters, 10.0)
    procs = [DRIVER_PROC] + [proc_for("server", dc)
                             for dc in topology.datacenters]
    runtimes = {proc: AioRuntime(proc, seed, topology, loop)
                for proc in procs}
    lag: List[float] = []
    lag_task = None
    try:
        with spans.span("setup"):
            table = {}
            for proc, rt in runtimes.items():
                table[proc] = ("127.0.0.1", await rt.start())
            for rt in runtimes.values():
                rt.network.set_addresses(table)
            clusters = {proc: build_cluster(wl, seed, runtime=rt,
                                            topology=topology)
                        for proc, rt in runtimes.items()}
            front = clusters[DRIVER_PROC]
            kernel = front.kernel
            generator = build_generator(wl, seed + 1)
            driver = LoadDriver(front, generator, wl.offered_tps, seed)
            probe = probe(wl, list(clusters.values())) if probe else None
        with spans.span("settle", kernel):
            await asyncio.sleep(ledger.SETTLE_MS / 1000.0)
        setup_s = time.time() - t_spawn
        if load_ms <= 0:
            return _setup_only(wl, driver, setup_s)

        lag_task = loop.create_task(_loop_lag(lag))
        start = kernel.now
        with spans.span("load", kernel):
            if probe:
                probe.load_begin()
            t_load = time.perf_counter()
            driver.start(load_ms)
            await asyncio.sleep(load_ms / 1000.0)
            load_wall_s = time.perf_counter() - t_load
            if probe:
                probe.load_end()
        end = kernel.now
        lag_task.cancel()
        with spans.span("drain", kernel):
            deadline = kernel.now + ledger.DRAIN_MS["aio"]
            while driver.outstanding and kernel.now < deadline:
                await asyncio.sleep(0.05)
            await asyncio.sleep(ledger.QUIESCE_MS["aio"] / 1000.0)
        merged = merge_snapshots([snapshot_cluster(wl.system, c)
                                  for c in clusters.values()])
    finally:
        if lag_task is not None:
            lag_task.cancel()
        for rt in runtimes.values():
            await rt.close()
    edges = _slice_edges(start, min(load_ms, end - start))
    slices = [(a, b, (b - a) / 1000.0) for a, b in zip(edges, edges[1:])]
    adapter = StoredSnapshotAdapter(merged, front.ring, front.directory,
                                    front.partition_ids,
                                    clients=front.clients)
    return Run(wl, driver, slices, adapter, setup_s, load_wall_s,
               (start, end), probe=probe,
               loop_lag_p99_ms=percentile(sorted(lag), 99))


def run_aio(wl: ledger.Workload, seed: int, load_ms: float,
            t_spawn: float, spans: SpanLog, probe=None) -> Run:
    """One pass under the asyncio/TCP runtime: the driver and one
    runtime per datacenter share this process's event loop, and every
    client-server and server-server message crosses a localhost TCP
    socket through the wire codec.  No message delay is injected, so
    latency is processor plus loopback time only."""
    return asyncio.run(_run_aio(wl, seed, load_ms, t_spawn, spans, probe))


ENGINES: Dict[str, Callable[..., Run]] = {"des": run_des, "aio": run_aio}
