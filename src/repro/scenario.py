"""One scenario, one run, one judge.

A :class:`Scenario` is everything a run is made of; :func:`run` turns it
into a :class:`Run` — one detached shape on both runtimes — and ends by
calling :func:`judge`, which applies the same oracles
(:mod:`repro.chaos.oracles`) to every run through a
:class:`~repro.runtime.harness.SnapshotAdapter` over its snapshot, so no
caller can skip one.  ``repro chaos`` is a scenario with a nemesis;
``repro conform`` and ``repro cluster`` run one scenario on two runtimes
and compare the runs.  The one driver (:func:`_drive`) is written against
the kernel API both runtimes share (``now``, ``schedule_at``, ``spawn``)
and yields the clock times to advance to: only the advancing differs.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Any, Awaitable, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.chaos.nemesis import (Nemesis, NemesisEvent, apply_schedule,
                                 schedule_horizon)
from repro.chaos.oracles import (ClientCounters, ClusterAdapter,
                                 OracleViolation, ResultRow,
                                 check_decisions, check_durability,
                                 check_liveness, check_stores)
from repro.runtime.aio import DRIVER_PROC, AioRuntime, follow, proc_for
from repro.runtime.harness import (SnapshotAdapter, merge_snapshots,
                                   snapshot_cluster)
from repro.sim.failure import FailureInjector
from repro.sim.stats import link_fault_summary, restart_summary
from repro.trace.tracer import Tracer
from repro.workloads.plans import PlanRow, increment_spec

#: The two runtimes a scenario runs on.
DES = "des"
AIO = "aio"

#: Virtual ms the final power-cycle phase runs: long enough for every
#: group to elect a leader from scratch (400–800 ms timeouts, with
#: retries for split votes), commit its term no-op, and re-apply its log.
RESTART_VERIFY_MS = 15_000.0


@dataclass(frozen=True)
class StopRule:
    """How far the driver advances the clock (ms on the runtime's clock):
    a lead-in, then ``poll_ms`` steps while waiting — up to
    ``txn_timeout_ms`` for each sequential row's response, followed by a
    ``gap_ms`` settle, and up to ``quiesce_ms`` for every client to go
    idle — then ``drain_ms`` more so server-side retransmissions settle
    too."""

    settle_ms: float
    poll_ms: float
    quiesce_ms: float
    drain_ms: float
    txn_timeout_ms: float = 0.0
    gap_ms: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """Everything one run is made of (see the module docstring)."""

    system: str
    deployment: DeploymentSpec
    timing: systems.Timing
    seed: int
    plan: Tuple[PlanRow, ...]
    stop: StopRule
    #: ``TxnResult.txn_type`` of the plan's increments.
    txn_type: str
    #: DES only.
    nemesis: Optional[Nemesis] = None
    runtime: str = DES
    #: Attach a recording tracer (DES only; costs memory).
    trace: bool = False


@dataclass
class Run:
    """What one scenario produced, detached from the live deployment
    (picklable unless a tracer is attached)."""

    scenario: Scenario
    #: ``(write_keys, TxnResult)`` per terminal response, arrival order.
    history: List[ResultRow]
    clients: List[ClientCounters]
    #: The merged replicated state once the run quiesced, with per-type
    #: send counts (:func:`~repro.runtime.harness.merge_snapshots`).
    snapshot: dict
    #: Kernel and transport counters of the process hosting the clients.
    op_counters: Dict[str, int]
    #: The deployment's key placement, for the oracles' adapter.
    ring: Any
    directory: Any
    #: The state rebuilt from WAL images by a final power cycle.
    restart_snapshot: Optional[dict] = None
    #: DES only: the nemesis events injected, the failure injector's log,
    #: and the ``repro.sim.stats`` restart and link-fault summaries.
    schedule: List[NemesisEvent] = field(default_factory=list)
    nemesis_log: List[Tuple[float, str, str]] = field(default_factory=list)
    restart_counts: List[Tuple[str, int]] = field(default_factory=list)
    link_rows: List[Tuple] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    violations: List[OracleViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every oracle passed."""
        return not self.violations

    @property
    def committed(self) -> int:
        return sum(1 for __, result in self.history if result.committed)

    @property
    def aborted(self) -> int:
        return len(self.history) - self.committed


def judge(run: Run) -> Run:
    """Apply every oracle to ``run`` and record its violations, in a
    fixed order: liveness, decisions, stores, then — when the scenario
    power-cycles — durability on the quiesced state (a commit missing
    there is already lost, whatever RAM still holds) and again on the
    state rebuilt from WAL images."""
    def view(snapshot: dict) -> SnapshotAdapter:
        return SnapshotAdapter(snapshot, run.ring, run.directory,
                               run.ring.partitions)

    history = run.history
    keys = sorted({key for __, __, reads, __ in run.scenario.plan
                   for key in reads})
    quiesced = view(run.snapshot)
    violations = check_liveness(run.clients, len(run.scenario.plan),
                                history)
    violations += check_decisions(quiesced, history)
    violations += check_stores(quiesced, history, keys)
    if run.restart_snapshot is not None:
        violations += check_durability(quiesced, history, keys)
        violations += check_durability(view(run.restart_snapshot), history,
                                       keys)
    run.violations = violations
    return run


def run(scenario: Scenario, planted_bug: Optional[Callable[[], Any]] = None
        ) -> Run:
    """Run ``scenario`` and judge it.  ``planted_bug`` is a
    context-manager factory from :mod:`repro.chaos.bugs`, active for the
    whole run, cluster construction included."""
    with planted_bug() if planted_bug is not None else nullcontext():
        if scenario.runtime == DES:
            return _run_des(scenario)
        return asyncio.run(_run_in_process(scenario))


def _drive(scenario: Scenario, adapter: ClusterAdapter,
           history: List[ResultRow], horizon: float = 0.0,
           heal: Optional[Callable[[], None]] = None) -> Iterator[float]:
    """Submit the plan and yield each clock time to advance to: timed
    rows up front, then (with a ``heal``) on to ``horizon`` and heal —
    the liveness oracle's clock starts there — then the sequential rows
    one at a time, then poll until every client is idle and drain past
    that, giving up at the bound (the liveness oracle reports the rest).
    """
    kernel = adapter.cluster.kernel
    clients = adapter.cluster.clients
    stop = scenario.stop

    def submit(index: int, reads: Tuple[str, ...],
               increments: Tuple[str, ...]) -> None:
        clients[index].submit(
            increment_spec(reads, increments, scenario.txn_type),
            lambda res: history.append((increments, res)))

    for at, index, reads, increments in scenario.plan:
        if at is not None:
            kernel.schedule_at(at, submit, index, reads, increments)
    if heal is not None:
        yield horizon
        heal()
    for at, index, reads, increments in scenario.plan:
        if at is not None:
            continue
        answered = len(history) + 1
        kernel.spawn(submit, index, reads, increments)
        deadline = kernel.now + stop.txn_timeout_ms
        while len(history) < answered and kernel.now < deadline:
            yield min(kernel.now + stop.poll_ms, deadline)
        if len(history) < answered:
            break
        yield kernel.now + stop.gap_ms
    deadline = kernel.now + stop.quiesce_ms
    idle_at: Optional[float] = None
    while kernel.now < deadline:
        yield min(kernel.now + stop.poll_ms, deadline)
        if idle_at is None and len(history) >= len(scenario.plan) and all(
                adapter.client_quiesced(c) for c in adapter.clients()):
            idle_at = kernel.now
        if idle_at is not None and kernel.now - idle_at >= stop.drain_ms:
            break


def _run_des(scenario: Scenario) -> Run:
    cluster = systems.build(scenario.system, scenario.deployment,
                            scenario.timing)
    sent: Dict[str, int] = {}

    def count(msg, delay_ms: float) -> None:
        sent[msg.type_name] = sent.get(msg.type_name, 0) + 1

    # Draw-for-draw identical to the network's fast path (its docstring).
    cluster.network.trace_hook = count
    kernel = cluster.kernel
    adapter = ClusterAdapter(scenario.system, cluster)

    def snapshot() -> dict:
        return merge_snapshots([snapshot_cluster(scenario.system, cluster),
                                {"sent_by_type": sent}])

    kernel.run(until=kernel.now + scenario.stop.settle_ms)
    tracer = Tracer(kernel) if scenario.trace else None
    injector = FailureInjector(kernel, cluster.network)
    nemesis = scenario.nemesis
    schedule: List[NemesisEvent] = []
    horizon, heal = 0.0, None
    if nemesis is not None:
        schedule = nemesis.expand(scenario.seed, adapter)
        apply_schedule(injector, schedule, adapter.server_ids())
        # Past the last fault's undo and the end of the fault window.
        horizon = max(schedule_horizon(schedule), nemesis.end_ms)
        heal = injector.heal_everything_now
    history: List[ResultRow] = []
    for target in _drive(scenario, adapter, history, horizon, heal):
        kernel.run(until=target)
    quiesced = snapshot()
    clients = adapter.client_counters()
    restarted = None
    if nemesis is not None and nemesis.restart_weight > 0:
        # Power-cycle every server so all RAM state is gone, and give the
        # groups time to re-elect and re-apply their logs from the WAL.
        for node_id in adapter.server_ids():
            injector.restart_now(node_id)
        kernel.run(until=kernel.now + RESTART_VERIFY_MS)
        restarted = snapshot()
    if tracer is not None:
        tracer.detach()
    return judge(Run(
        scenario=scenario, history=history, clients=clients,
        snapshot=quiesced, op_counters=cluster.op_counters(),
        ring=cluster.ring, directory=cluster.directory,
        restart_snapshot=restarted, schedule=schedule,
        nemesis_log=list(injector.log),
        restart_counts=restart_summary(cluster.network),
        link_rows=link_fault_summary(cluster.network), tracer=tracer))


async def run_async(scenario: Scenario, runtimes: Sequence[Any],
                    gather: Optional[Callable[[], Awaitable[List[dict]]]]
                    = None) -> Run:
    """Run an ``aio`` scenario on asyncio runtimes of the running loop —
    started and addressed; the first hosts the clients — and judge it.
    ``gather`` returns the snapshots of processes hosted elsewhere
    (``repro cluster``'s serve children)."""
    clusters = [systems.build(scenario.system, scenario.deployment,
                              scenario.timing, runtime)
                for runtime in runtimes]
    adapter = ClusterAdapter(scenario.system, clusters[0])
    kernel = adapter.cluster.kernel
    history: List[ResultRow] = []
    await follow(kernel, [kernel.now + scenario.stop.settle_ms])
    await follow(kernel, _drive(scenario, adapter, history))
    snapshots = [snapshot_cluster(scenario.system, c) for c in clusters]
    if gather is not None:
        snapshots += await gather()
    return judge(Run(
        scenario=scenario, history=history,
        clients=adapter.client_counters(),
        snapshot=merge_snapshots(snapshots),
        op_counters=adapter.cluster.op_counters(),
        ring=adapter.ring, directory=adapter.cluster.directory))


async def _run_in_process(scenario: Scenario) -> Run:
    # Every logical process of the placement on this loop; traffic
    # between them still crosses localhost TCP through the wire codec.
    loop = asyncio.get_running_loop()
    topology = scenario.deployment.topology
    runtimes = [AioRuntime(proc, scenario.seed, topology, loop)
                for proc in [DRIVER_PROC] + [proc_for("server", dc)
                                             for dc in topology.datacenters]]
    try:
        table: Dict[str, Tuple[str, int]] = {}
        for runtime in runtimes:
            table[runtime.proc] = ("127.0.0.1", await runtime.start())
        for runtime in runtimes:
            runtime.network.set_addresses(table)
        return await run_async(scenario, runtimes)
    finally:
        for runtime in runtimes:
            await runtime.close()
