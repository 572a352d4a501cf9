"""One chaos run: cluster + workload + nemesis schedule + oracles.

A run builds a fresh deterministic cluster for the requested system,
schedules a seeded increment workload and a seeded nemesis timeline up
front, advances virtual time past the last fault, heals everything, waits
for quiescence, and then evaluates the safety and liveness oracles
(:mod:`repro.chaos.oracles`).  Everything is derived from the run seed —
re-running the same ``(system, seed, schedule)`` triple is byte-identical,
which is what lets :mod:`repro.chaos.minimize` replay subsequences.

Timing uses the aggressive chaos profile: fast Raft elections, fast
client heartbeats, and an 800 ms retransmission base with exponential
backoff (multiplier 2, cap 6.4 s, 10 % deterministic jitter) so lost
messages are retried promptly without synchronized retry storms.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.chaos.nemesis import (
    NemesisEvent,
    apply_schedule,
    generate_schedule,
    schedule_horizon,
)
from repro.chaos.oracles import (
    OracleAdapter,
    OracleViolation,
    ResultRow,
    check_decisions,
    check_durability,
    check_liveness,
    check_stores,
)
from repro.core.backoff import RetryPolicy
from repro.raft.node import RaftConfig
from repro.sim.failure import FailureInjector
from repro.sim.stats import link_fault_summary, restart_summary
from repro.trace.tracer import Tracer
from repro.txn import TransactionSpec

#: Virtual ms the cluster runs before anything else happens (heartbeats
#: establish; leaders are bootstrap-assigned so no elections are needed).
_SETTLE_MS = 600.0

#: The aggressive chaos profile (see the module docstring).
CHAOS_TIMING = systems.Timing(
    raft=RaftConfig(election_timeout_min_ms=400.0,
                    election_timeout_max_ms=800.0,
                    heartbeat_interval_ms=100.0),
    retry=RetryPolicy(base_ms=800.0, multiplier=2.0, max_ms=6400.0,
                      jitter_fraction=0.1),
    client_heartbeat_ms=500.0)

#: Virtual ms the final-restart verification phase runs: long enough for
#: every group to elect a leader from scratch (400–800 ms timeouts, with
#: retries for split votes), commit its term no-op, and re-apply its log.
_RESTART_VERIFY_MS = 15_000.0


@dataclass
class ChaosOptions:
    """Knobs for one chaos run (defaults match the CLI)."""

    #: Number of workload transactions per run.
    rounds: int = 25
    #: Distinct workload keys (``ck0..ckN-1``), all starting absent.
    n_keys: int = 4
    #: Fraction of transactions touching two keys (cross-partition 2PC).
    pair_fraction: float = 0.4
    #: Quiet lead-in before the first submission or fault.
    warmup_ms: float = 1000.0
    #: Width of the submission/fault window.
    window_ms: float = 15_000.0
    #: Hard bound on post-heal convergence time (liveness bound).
    quiescence_ms: float = 60_000.0
    #: Extra settle time after the last client goes idle, so server-side
    #: writeback/commit retransmissions (capped at 6.4 s) drain too.
    drain_ms: float = 8000.0
    #: Nemesis events per generated schedule.
    n_events: int = 6
    #: Extra sampling weight for power-cycle (``restart``) events; the
    #: default of 0 keeps pre-existing seeded timelines byte-identical.
    restart_weight: int = 0
    #: After the normal oracles pass judgment on the quiesced state,
    #: power-cycle *every* server and run the durability oracle against
    #: the state rebuilt purely from WAL images.
    final_restart: bool = False
    #: Attach a recording tracer (costs memory; used for counterexamples).
    trace: bool = False


@dataclass
class ChaosRunResult:
    """Everything one chaos run produced."""

    system: str
    seed: int
    schedule: List[NemesisEvent]
    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    violations: List[OracleViolation] = field(default_factory=list)
    #: ``(time_ms, action, subject)`` from the failure injector.
    nemesis_log: List[Tuple[float, str, str]] = field(default_factory=list)
    #: ``(node_id, restarts)`` for every node that power-cycled (includes
    #: the final-restart verification phase when enabled).
    restart_counts: List[Tuple[str, int]] = field(default_factory=list)
    #: Per-link fault counters (see ``repro.sim.stats.link_fault_summary``).
    link_rows: List[Tuple] = field(default_factory=list)
    messages_dropped: int = 0
    messages_delivered: int = 0
    #: The recording tracer, when ``ChaosOptions.trace`` was set.
    tracer: Optional[Tracer] = None
    #: ``(write_keys, TxnResult)`` per terminal response, arrival order.
    results: List[ResultRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every oracle passed."""
        return not self.violations


class ClusterAdapter(OracleAdapter):
    """Uniform post-run access to live cluster internals for the oracles
    and the nemesis; the :mod:`repro.systems` row of ``system`` says
    where the server nodes and their replicated state live."""

    def __init__(self, system: str, cluster: Any):
        self.system = system
        self.entry = systems.get(system)
        self.cluster = cluster
        self.ring = cluster.ring
        self.partition_ids = cluster.partition_ids

    def clients(self) -> List[Any]:
        """All workload clients, construction order."""
        return list(self.cluster.clients)

    def server_ids(self) -> List[str]:
        """Sorted server node ids — the nemesis's victim pool."""
        return sorted(self.entry.nodes(self.cluster))

    def replica_groups(self) -> List[Tuple[str, ...]]:
        """The replica node-id set of every consensus group (for TAPIR,
        of every partition), sorted — the correlated-restart targets."""
        groups = set()
        for pid in self.cluster.partition_ids:
            groups.add(tuple(sorted(
                r.node_id for r in self.cluster.replicas_of(pid))))
        return sorted(groups)

    def stores_for_key(self, key: str) -> List[Tuple[str, Any]]:
        """``(node_id, VersionedKVStore)`` for every replica of ``key``."""
        pid = self.cluster.ring.partition_for(key)
        return [(replica.node_id, store) for replica, store in zip(
            self.cluster.replicas_of(pid), self.cluster.stores_of(pid))]

    def resolved_for_pid(self, pid: str) -> List[Tuple[str, Dict]]:
        """``(location, {tid: "commit"|"abort"})`` per replica of ``pid``."""
        return [(f"{replica.node_id}/{pid}",
                 self.entry.replica_state(replica, pid)[1])
                for replica in self.cluster.replicas_of(pid)]


def candidate_links(adapter: ClusterAdapter) -> List[Tuple[str, str]]:
    """Endpoint pairs the nemesis may degrade, restricted to links that
    actually carry protocol traffic (degrading a silent link tests
    nothing): intra-group Raft links, leader-to-leader links
    (coordinator prepares and writebacks), and client-to-server links.
    TAPIR replicas never talk to each other — IR is client-driven — so
    its candidates are the client/replica pairs.  Server/server links
    appear three times so the nemesis samples them more often: that is
    where replication and 2PC traffic concentrates.  Deterministic
    order."""
    cluster = adapter.cluster
    clients = sorted(c.node_id for c in adapter.clients())
    links = set()
    if adapter.entry.leaderless:
        for client_id in clients:
            for replica_id in adapter.server_ids():
                links.add((client_id, replica_id))
    else:
        leaders = []
        for pid in cluster.partition_ids:
            info = cluster.directory.lookup(pid)
            leaders.append(info.leader)
            replicas = list(info.replicas)
            for i, a in enumerate(replicas):
                for b in replicas[i + 1:]:
                    links.add(tuple(sorted((a, b))))
        for i, a in enumerate(leaders):
            for b in leaders[i + 1:]:
                if a != b:
                    links.add(tuple(sorted((a, b))))
        servers_by_dc: Dict[str, List[str]] = {}
        servers = adapter.entry.nodes(cluster)
        for server_id in adapter.server_ids():
            server = servers[server_id]
            servers_by_dc.setdefault(server.dc, []).append(server_id)
        client_links = set()
        for client in adapter.clients():
            for leader in leaders:
                client_links.add((client.node_id, leader))
            # Fast-mode local reads talk to same-datacenter replicas.
            for server_id in servers_by_dc.get(client.dc, ()):
                client_links.add((client.node_id, server_id))
        return sorted(links) * 3 + sorted(client_links)
    return sorted(links)


def _increment_spec(keys: Tuple[str, ...]) -> TransactionSpec:
    """Read-modify-write increment of each key (the oracle workload)."""
    def compute(reads: Dict[str, Any]) -> Dict[str, Any]:
        return {k: (reads.get(k) or 0) + 1 for k in keys}

    return TransactionSpec(read_keys=keys, write_keys=keys,
                           compute_writes=compute, txn_type="chaos-incr")


def build_workload_plan(seed: int, opts: ChaosOptions, n_clients: int,
                        keys: Sequence[str]
                        ) -> List[Tuple[float, int, Tuple[str, ...]]]:
    """The seeded submission plan: ``(at_ms, client_index, keys)`` rows.

    Drawn from ``random.Random(f"workload:{seed}")``, independent of the
    nemesis and kernel RNGs, so the workload is identical whether the run
    replays a full schedule or a minimized subsequence.
    """
    rng = random.Random(f"workload:{seed}")
    plan: List[Tuple[float, int, Tuple[str, ...]]] = []
    for _ in range(opts.rounds):
        at = opts.warmup_ms + rng.uniform(0.0, opts.window_ms)
        client = rng.randrange(n_clients)
        if len(keys) >= 2 and rng.random() < opts.pair_fraction:
            picked = tuple(sorted(rng.sample(list(keys), 2)))
        else:
            picked = (keys[rng.randrange(len(keys))],)
        plan.append((at, client, picked))
    plan.sort()
    return plan


def run_chaos(system: str, seed: int,
              opts: Optional[ChaosOptions] = None,
              schedule: Optional[Sequence[NemesisEvent]] = None,
              planted_bug: Optional[Callable[[], Any]] = None
              ) -> ChaosRunResult:
    """Run one seeded chaos scenario and evaluate every oracle.

    ``schedule`` overrides the generated nemesis timeline (used by the
    minimizer to replay subsequences); ``planted_bug`` is a context-
    manager factory from :mod:`repro.chaos.bugs` that stays active for
    the whole run (used to validate that the oracles catch known bugs).
    """
    opts = opts or ChaosOptions()
    canon = systems.canonical(system)
    guard = planted_bug() if planted_bug is not None else nullcontext()
    with guard:
        cluster = systems.build(canon, DeploymentSpec(seed=seed),
                                CHAOS_TIMING)
        kernel = cluster.kernel
        adapter = ClusterAdapter(canon, cluster)
        kernel.run(until=_SETTLE_MS)
        tracer = Tracer(kernel) if opts.trace else None

        servers = adapter.server_ids()
        if schedule is None:
            schedule = generate_schedule(
                seed, servers, candidate_links(adapter),
                start_ms=opts.warmup_ms,
                end_ms=opts.warmup_ms + opts.window_ms,
                n_events=opts.n_events,
                restart_weight=opts.restart_weight,
                groups=adapter.replica_groups())
        schedule = list(schedule)
        injector = FailureInjector(kernel, cluster.network)
        apply_schedule(injector, schedule, servers)

        keys = [f"ck{i}" for i in range(opts.n_keys)]
        plan = build_workload_plan(seed, opts, len(cluster.clients), keys)
        results: List[ResultRow] = []
        for at, client_index, picked in plan:
            client = cluster.clients[client_index]
            spec = _increment_spec(picked)

            def _submit(client=client, spec=spec, picked=picked):
                client.submit(
                    spec, lambda res, ks=picked: results.append((ks, res)))

            kernel.schedule_at(at, _submit)
        expected = len(plan)

        # Run past the last scheduled fault, then heal the world: the
        # liveness oracle's clock starts at the final heal.
        horizon = max(schedule_horizon(schedule),
                      opts.warmup_ms + opts.window_ms)
        kernel.run(until=horizon)
        injector.heal_everything_now()

        # Quiescence: poll until every client is idle, then drain long
        # enough for server-side retransmissions to settle; give up (and
        # let the liveness oracle report it) at the quiescence bound.
        deadline = kernel.now + opts.quiescence_ms
        done_at: Optional[float] = None
        while kernel.now < deadline:
            kernel.run(until=min(kernel.now + 250.0, deadline))
            if done_at is None and len(results) >= expected and all(
                    adapter.client_quiesced(c) for c in adapter.clients()):
                done_at = kernel.now
            if done_at is not None and kernel.now - done_at >= opts.drain_ms:
                break

        violations = []
        violations.extend(check_liveness(adapter, expected, results))
        violations.extend(check_decisions(adapter, results))
        violations.extend(check_stores(adapter, results, keys))

        if opts.final_restart:
            # Durability verification, in two judgments.  First on the
            # quiesced state: a committed write absent (or an aborted
            # one present) here is already lost, whatever RAM still
            # holds.  Then power-cycle every server so all RAM state is
            # gone, give the groups time to re-elect and re-apply their
            # logs from the rebuilt WAL state, and judge again — this
            # time nothing can hide in volatile survivorship.
            violations.extend(check_durability(adapter, results, keys))
            for node_id in servers:
                injector.restart_now(node_id)
            kernel.run(until=kernel.now + _RESTART_VERIFY_MS)
            violations.extend(check_durability(adapter, results, keys))

        if tracer is not None:
            tracer.detach()
        return ChaosRunResult(
            system=canon, seed=seed, schedule=schedule,
            submitted=expected,
            committed=sum(1 for _, r in results if r.committed),
            aborted=sum(1 for _, r in results if not r.committed),
            violations=violations,
            nemesis_log=list(injector.log),
            restart_counts=restart_summary(cluster.network),
            link_rows=link_fault_summary(cluster.network),
            messages_dropped=cluster.network.messages_dropped,
            messages_delivered=cluster.network.messages_delivered,
            tracer=tracer, results=results)
