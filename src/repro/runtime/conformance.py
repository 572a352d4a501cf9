"""Differential conformance: the DES oracle vs. the asyncio/TCP backend.

The same seeded workload is driven through the same protocol classes on
both runtimes and the outcomes are compared:

* **decisions** — every transaction must reach the same commit/abort
  decision (and the same transaction id) on both backends;
* **state** — the final replicated state must be identical, and must
  independently satisfy the chaos value-parity and decision-consistency
  oracles (:mod:`repro.chaos.oracles`) on *each* backend;
* **traffic** — per-message-type send counts are reconciled against the
  static message graph (:mod:`repro.analysis.msggraph`): every observed
  type must be a declared message of the system's protocols, and the
  counts of request-driven types must match exactly across backends.
  Time-driven types (Raft heartbeats/elections, client failure-detector
  heartbeats) are exempt from count equality — wall clocks and virtual
  clocks legitimately tick differently — but still protocol-checked.

The workload is *sequential* (one transaction in flight at a time, keys
drawn from a dedicated string-seeded RNG), which makes the commit/abort
decision of every transaction a pure function of the protocol rather
than of racing timers, so the differential assertion is exact instead of
statistical.  The asyncio deployment runs every logical process of the
placement (driver + one per datacenter) inside one event loop, with all
inter-process traffic crossing real localhost TCP sockets through the
wire codec — the same code path ``python -m repro serve`` uses across OS
processes.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import systems
from repro.analysis.msggraph import build_graph_from_paths
from repro.bench.cluster import DeploymentSpec
from repro.chaos.oracles import ResultRow, check_decisions, check_stores
from repro.core.backoff import RetryPolicy
from repro.raft.node import RaftConfig
from repro.runtime.aio import AioRuntime
from repro.runtime.harness import (
    SnapshotAdapter,
    merge_snapshots,
    snapshot_cluster,
)
from repro.sim.topology import ec2_five_regions
from repro.txn import TransactionSpec

#: Message types whose counts are driven by clocks, not by requests:
#: Raft heartbeats and elections, and the client failure-detector
#: heartbeat.  Wall time and virtual time tick differently, so only the
#: *request-driven* types must match count-for-count.
TIME_DRIVEN = frozenset({
    "AppendEntries", "AppendEntriesReply",
    "RequestVote", "RequestVoteReply",
    "ClientHeartbeat",
})

# Conformance timing profile: fast Raft heartbeats so followers apply
# promptly on both clocks, and retry/timeout bases far above localhost
# (and simulated WAN) round trips so no retransmission or slow-path
# timer fires on either backend during a healthy sequential run.
CONFORM_TIMING = systems.Timing(
    raft=RaftConfig(election_timeout_min_ms=1500.0,
                    election_timeout_max_ms=3000.0,
                    heartbeat_interval_ms=100.0),
    retry=RetryPolicy(base_ms=3000.0, multiplier=2.0, max_ms=12_000.0,
                      jitter_fraction=0.1),
    client_heartbeat_ms=500.0,
    tapir_fast_path_timeout_ms=2000.0)


@dataclass
class ConformanceOptions:
    """Knobs for one differential run (defaults match the CLI)."""

    #: Sequential transactions per run.
    rounds: int = 12
    #: Distinct workload keys (``wk0..wkN-1``), all starting absent.
    n_keys: int = 4
    #: Fraction of transactions incrementing two keys (cross-partition).
    pair_fraction: float = 0.4
    #: Virtual settle/drain for the DES side (ms).
    settle_ms: float = 600.0
    drain_ms: float = 2000.0
    #: Per-transaction liveness bound on the DES side (virtual ms).
    txn_timeout_ms: float = 30_000.0
    #: Inter-transaction settle on the DES side (virtual ms).  Carousel
    #: acknowledges the client *before* writebacks reach every replica,
    #: so back-to-back transactions would race the previous write's
    #: propagation — a race that legitimately resolves differently on a
    #: virtual vs. a wall clock.  The gap lets each transaction's
    #: writebacks apply everywhere, making every decision a pure
    #: function of the protocol.
    gap_ms: float = 800.0
    #: Wall-clock settle/drain for the asyncio side (seconds).
    settle_s: float = 0.3
    drain_s: float = 1.0
    #: Per-transaction liveness bound on the asyncio side (seconds).
    txn_timeout_s: float = 20.0
    #: Inter-transaction settle on the asyncio side (seconds); covers a
    #: few Raft heartbeats so follower replicas apply the previous
    #: transaction's writeback before the next read-prepare fans out.
    gap_s: float = 0.4


@dataclass
class ConformanceResult:
    """Verdict of one ``(system, seed)`` differential run."""

    system: str
    seed: int
    rounds: int = 0
    committed: int = 0
    aborted: int = 0
    violations: List[str] = field(default_factory=list)
    counts_des: Dict[str, int] = field(default_factory=dict)
    counts_aio: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def build_conformance_plan(seed: int, opts: ConformanceOptions,
                           n_clients: int, keys: Sequence[str]
                           ) -> List[Tuple[int, Tuple[str, ...]]]:
    """The seeded sequential plan: ``(client_index, keys)`` rows, drawn
    from ``random.Random(f"conform:{seed}")`` — independent of both
    backends' kernel RNGs, so the submitted workload is identical by
    construction."""
    rng = random.Random(f"conform:{seed}")
    plan: List[Tuple[int, Tuple[str, ...]]] = []
    for _ in range(opts.rounds):
        client = rng.randrange(n_clients)
        if len(keys) >= 2 and rng.random() < opts.pair_fraction:
            picked = tuple(sorted(rng.sample(list(keys), 2)))
        else:
            picked = (keys[rng.randrange(len(keys))],)
        plan.append((client, picked))
    return plan


def increment_spec(keys: Tuple[str, ...]) -> TransactionSpec:
    """Read-modify-write increment of each key (the oracle workload)."""
    def compute(reads: Dict[str, Any]) -> Dict[str, Any]:
        return {k: (reads.get(k) or 0) + 1 for k in keys}

    return TransactionSpec(read_keys=keys, write_keys=keys,
                           compute_writes=compute, txn_type="conform-incr")


# ---------------------------------------------------------------------------
# DES side
# ---------------------------------------------------------------------------

def run_des_side(system: str, seed: int, opts: ConformanceOptions,
                 plan: Sequence[Tuple[int, Tuple[str, ...]]]
                 ) -> Tuple[Any, List[ResultRow], dict, List[str]]:
    """Drive ``plan`` sequentially through the DES backend.

    Returns ``(cluster, results, snapshot, violations)`` where
    ``snapshot`` includes sender-side per-type counts collected through
    the network's trace hook (whose jitter draws are bit-identical to
    the fast path, so counting does not perturb the simulation).
    """
    cluster = systems.build(system, DeploymentSpec(seed=seed),
                            CONFORM_TIMING)
    counts: Dict[str, int] = {}

    def _count(msg, delay_ms: float) -> None:
        name = msg.type_name
        counts[name] = counts.get(name, 0) + 1

    cluster.network.trace_hook = _count
    kernel = cluster.kernel
    violations: List[str] = []
    kernel.run(until=kernel.now + opts.settle_ms)
    results: List[ResultRow] = []
    for i, (client_index, picked) in enumerate(plan):
        client = cluster.clients[client_index]
        spec = increment_spec(picked)
        done = len(results)
        kernel.spawn(lambda c=client, s=spec, ks=picked: c.submit(
            s, lambda res, ks=ks: results.append((ks, res))))
        deadline = kernel.now + opts.txn_timeout_ms
        while len(results) <= done and kernel.now < deadline:
            kernel.run(until=min(kernel.now + 100.0, deadline))
        if len(results) <= done:
            violations.append(
                f"des: transaction {i} on {client.node_id} got no "
                f"terminal response within {opts.txn_timeout_ms:.0f} "
                "virtual ms")
            break
        kernel.run(until=kernel.now + opts.gap_ms)
    kernel.run(until=kernel.now + opts.drain_ms)
    cluster.network.trace_hook = None
    snapshot = snapshot_cluster(system, cluster)
    snapshot["sent_by_type"] = counts
    return cluster, results, snapshot, violations


# ---------------------------------------------------------------------------
# asyncio side (in-process multi-runtime deployment over localhost TCP)
# ---------------------------------------------------------------------------

async def drive_plan_async(driver_cluster: Any,
                           plan: Sequence[Tuple[int, Tuple[str, ...]]],
                           opts: ConformanceOptions
                           ) -> Tuple[List[ResultRow], List[str]]:
    """Drive ``plan`` sequentially through a driver cluster's clients on
    the current event loop (shared by the in-process conformance run and
    the multi-process ``repro cluster`` driver)."""
    results: List[ResultRow] = []
    violations: List[str] = []
    for i, (client_index, picked) in enumerate(plan):
        client = driver_cluster.clients[client_index]
        spec = increment_spec(picked)
        arrived = asyncio.Event()

        def _hook(res, ks=picked, ev=arrived):
            results.append((ks, res))
            ev.set()

        client.submit(spec, _hook)
        try:
            await asyncio.wait_for(arrived.wait(),
                                   timeout=opts.txn_timeout_s)
        except asyncio.TimeoutError:
            violations.append(
                f"aio: transaction {i} on {client.node_id} got no "
                f"terminal response within {opts.txn_timeout_s:.0f} s")
            break
        await asyncio.sleep(opts.gap_s)
    return results, violations


async def run_aio_side(system: str, seed: int, opts: ConformanceOptions,
                       plan: Sequence[Tuple[int, Tuple[str, ...]]]
                       ) -> Tuple[Any, List[ResultRow], dict, List[str]]:
    """Drive ``plan`` through the asyncio/TCP backend.

    Builds one :class:`AioRuntime` per logical process (driver + one per
    datacenter) on the current loop; every process builds the same
    deployment and constructs only the nodes it hosts, so all
    server<->server and client<->server traffic crosses real sockets.
    """
    loop = asyncio.get_running_loop()
    topology = ec2_five_regions()
    procs = ["driver"] + [f"dc-{dc}" for dc in topology.datacenters]
    runtimes = {proc: AioRuntime(proc, seed, topology, loop)
                for proc in procs}
    try:
        table: Dict[str, Tuple[str, int]] = {}
        for proc, rt in runtimes.items():
            port = await rt.start()
            table[proc] = ("127.0.0.1", port)
        for rt in runtimes.values():
            rt.network.set_addresses(table)
        spec = DeploymentSpec(seed=seed, topology=topology)
        clusters = {proc: systems.build(system, spec, CONFORM_TIMING, rt)
                    for proc, rt in runtimes.items()}
        driver = clusters["driver"]
        await asyncio.sleep(opts.settle_s)
        results, violations = await drive_plan_async(driver, plan, opts)
        await asyncio.sleep(opts.drain_s)

        merged = merge_snapshots(
            [snapshot_cluster(system, cluster)
             for cluster in clusters.values()])
        return driver, results, merged, violations
    finally:
        for rt in runtimes.values():
            await rt.close()


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------

def _message_graph():
    root = Path(__file__).resolve().parents[1]  # src/repro
    return build_graph_from_paths([str(root)])


def reconcile_counts(system: str, counts_des: Dict[str, int],
                     counts_aio: Dict[str, int],
                     graph=None) -> List[str]:
    """Check both backends' traffic against the static message graph.

    Every observed type must be a declared wire message of one of the
    system's protocols, and request-driven types must match
    count-for-count across backends (:data:`TIME_DRIVEN` types only
    need protocol membership).
    """
    if graph is None:
        graph = _message_graph()
    allowed = systems.get(system).protocols
    violations: List[str] = []
    for backend, counts in (("des", counts_des), ("aio", counts_aio)):
        for name in sorted(counts):
            definition = graph.messages.get(name)
            if definition is None:
                violations.append(
                    f"{backend}: sent {name!r}, which is not a message "
                    "type in the static graph")
            elif definition.protocol not in allowed:
                violations.append(
                    f"{backend}: sent {name!r} from protocol "
                    f"{definition.protocol!r}, outside {system}'s "
                    f"protocols {sorted(allowed)}")
    des_types = {n for n in counts_des if n not in TIME_DRIVEN}
    aio_types = {n for n in counts_aio if n not in TIME_DRIVEN}
    for name in sorted(des_types | aio_types):
        if counts_des.get(name, 0) != counts_aio.get(name, 0):
            violations.append(
                f"count mismatch for {name}: des={counts_des.get(name, 0)} "
                f"aio={counts_aio.get(name, 0)}")
    return violations


def _check_oracles(backend: str, cluster: Any, merged: dict,
                   results: Sequence[ResultRow],
                   keys: Sequence[str]) -> List[str]:
    adapter = SnapshotAdapter(merged, cluster.ring, cluster.directory,
                              cluster.partition_ids,
                              clients=cluster.clients)
    violations = []
    for v in check_decisions(adapter, results):
        violations.append(f"{backend}: {v}")
    for v in check_stores(adapter, results, keys):
        violations.append(f"{backend}: {v}")
    return violations


def evaluate(system: str, seed: int,
             plan: Sequence[Tuple[int, Tuple[str, ...]]],
             keys: Sequence[str],
             des_cluster: Any, des_results: List[ResultRow],
             des_snapshot: dict,
             aio_cluster: Any, aio_results: List[ResultRow],
             aio_merged: dict,
             violations: List[str], graph=None) -> ConformanceResult:
    """Compare one DES run against one asyncio run of the same plan."""
    result = ConformanceResult(
        system=system, seed=seed, rounds=len(plan),
        committed=sum(1 for _, r in des_results if r.committed),
        aborted=sum(1 for _, r in des_results if not r.committed),
        counts_des=dict(des_snapshot["sent_by_type"]),
        counts_aio=dict(aio_merged["sent_by_type"]))

    # Per-transaction decisions, in submission order (the workload is
    # sequential, so arrival order == submission order on both sides).
    if len(des_results) != len(aio_results):
        violations.append(
            f"terminal responses differ: des={len(des_results)} "
            f"aio={len(aio_results)}")
    for i, ((_, des_r), (_, aio_r)) in enumerate(
            zip(des_results, aio_results)):
        if des_r.tid != aio_r.tid:
            violations.append(
                f"txn {i}: tid differs: des={des_r.tid} aio={aio_r.tid}")
        if des_r.committed != aio_r.committed:
            violations.append(
                f"txn {i} ({des_r.tid}): decision differs: "
                f"des={'commit' if des_r.committed else 'abort'} "
                f"aio={'commit' if aio_r.committed else 'abort'}")

    # Final replicated state: byte-equal stores, and each backend must
    # independently satisfy the chaos value-parity/decision oracles.
    des_merged = merge_snapshots([des_snapshot])
    if des_merged["stores"] != aio_merged["stores"]:
        diff_nodes = sorted(
            node for node in set(des_merged["stores"])
            | set(aio_merged["stores"])
            if des_merged["stores"].get(node) !=
            aio_merged["stores"].get(node))
        violations.append(
            f"final replicated state differs at: {', '.join(diff_nodes)}")
    violations += _check_oracles("des", des_cluster, des_merged,
                                 des_results, keys)
    violations += _check_oracles("aio", aio_cluster, aio_merged,
                                 aio_results, keys)

    violations += reconcile_counts(system, result.counts_des,
                                   result.counts_aio, graph=graph)
    result.violations = violations
    return result


def run_conformance(system: str, seed: int,
                    opts: Optional[ConformanceOptions] = None,
                    graph=None) -> ConformanceResult:
    """One full differential run of ``system`` at ``seed``."""
    opts = opts or ConformanceOptions()
    system = systems.canonical(system)
    keys = [f"wk{i}" for i in range(opts.n_keys)]
    n_clients = len(ec2_five_regions().datacenters)
    plan = build_conformance_plan(seed, opts, n_clients, keys)

    des_cluster, des_results, des_snapshot, violations = \
        run_des_side(system, seed, opts, plan)
    aio_cluster, aio_results, aio_merged, aio_violations = \
        asyncio.run(run_aio_side(system, seed, opts, plan))
    return evaluate(system, seed, plan, keys,
                    des_cluster, des_results, des_snapshot,
                    aio_cluster, aio_results, aio_merged,
                    list(violations) + aio_violations, graph=graph)


def format_result(result: ConformanceResult) -> str:
    """One human-readable block per run, counts included."""
    lines = [f"{result.system} seed={result.seed}: "
             f"{'OK' if result.ok else 'FAIL'} "
             f"({result.rounds} txns, {result.committed} committed, "
             f"{result.aborted} aborted)"]
    names = sorted(set(result.counts_des) | set(result.counts_aio))
    for name in names:
        des = result.counts_des.get(name, 0)
        aio = result.counts_aio.get(name, 0)
        marker = "" if des == aio else \
            ("  (time-driven)" if name in TIME_DRIVEN else "  (MISMATCH)")
        lines.append(f"    {name:<24} des={des:<6} aio={aio:<6}{marker}")
    for violation in result.violations:
        lines.append(f"    VIOLATION: {violation}")
    return "\n".join(lines)
