"""Experiment definitions: one entry per paper table/figure.

Both the pytest benchmarks (``benchmarks/``) and the command-line runner
(``python -m repro``) drive experiments through this module, so the
parameters live in exactly one place.  See DESIGN.md's per-experiment
index for the mapping to the paper.

Every figure experiment is expressed as a list of
:class:`~repro.sweep.spec.RunSpec` descriptors (one per curve point) and
executed through a :class:`~repro.sweep.executor.SweepExecutor`, so the
same definitions run sequentially, across worker processes
(``--jobs N``), or straight out of the content-addressed result cache —
with byte-identical merged output in every case.  Results are
:class:`~repro.bench.runner.RunRecord` summaries (detached stats + op
counters), not live clusters; only the Figure 7 bandwidth experiment
still returns :class:`ExperimentResult`, because it inspects per-node
cluster internals.
"""

from __future__ import annotations

from typing import Dict, List

from repro import systems
from repro.bench.runner import ExperimentResult, RunRecord, run_workload
from repro.sim.topology import ec2_five_regions, uniform_topology
from repro.sweep.kinds import figure_spec

QUICK = "quick"
FULL = "full"
#: CI-smoke scale: the same experiment shapes at a fraction of the
#: virtual time and keyspace, small enough for test suites and cache-
#: warming CI steps.
SMOKE = "smoke"

SCALES = (SMOKE, QUICK, FULL)

#: Calibrated per-message CPU costs (ms) for the local-cluster throughput
#: experiments.  The paper's Go implementations have different per-request
#: costs; these reproduce the measured single-system peaks (§6.4.1):
#: TAPIR ~5000 tps, Carousel Fast leveling near 8000, Basic highest.
SERVICE_TIME_MS = {
    "tapir": 0.085,
    "carousel-basic": 0.016,
    "carousel-fast": 0.016,
}

#: TAPIR's fast-path timeout on the 5 ms local cluster (its EC2 default of
#: 250 ms would dwarf every other latency there).
TAPIR_LOCAL_TIMEOUT_MS = 50.0


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")


def latency_run_params(scale: str = QUICK) -> dict:
    """Run windows for the EC2 latency experiments (Figures 4 and 8).

    ``full`` is the paper's method: 90 s runs with the first and last
    30 s discarded, 10 M keys.  ``quick`` keeps the same shapes with
    shorter windows and a 1 M keyspace; ``smoke`` shrinks them further
    for test suites and CI cache warming.
    """
    _check_scale(scale)
    if scale == FULL:
        return dict(duration_ms=90_000.0, warmup_ms=30_000.0,
                    cooldown_ms=30_000.0, n_keys=10_000_000)
    if scale == SMOKE:
        return dict(duration_ms=2_000.0, warmup_ms=500.0,
                    cooldown_ms=500.0, n_keys=20_000)
    return dict(duration_ms=12_000.0, warmup_ms=3_000.0,
                cooldown_ms=3_000.0, n_keys=1_000_000)


def sweep_targets(scale: str = QUICK) -> List[float]:
    _check_scale(scale)
    if scale == FULL:
        return [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000,
                10000]
    if scale == SMOKE:
        return [1000, 5000]
    return [1000, 3000, 5000, 6500, 8000, 10000]


def sweep_run_params(scale: str = QUICK) -> dict:
    _check_scale(scale)
    if scale == FULL:
        return dict(duration_ms=10_000.0, warmup_ms=3_000.0,
                    cooldown_ms=1_000.0, n_keys=10_000_000)
    if scale == SMOKE:
        return dict(duration_ms=800.0, warmup_ms=250.0,
                    cooldown_ms=100.0, n_keys=20_000)
    return dict(duration_ms=2_000.0, warmup_ms=600.0, cooldown_ms=200.0,
                n_keys=1_000_000)


# ----------------------------------------------------------------------
# sweep spec builders: one RunSpec per curve point


def fig4_specs(scale: str = QUICK) -> List:
    """Figure 4 run specs: Retwis latency, EC2 topology, 200 tps."""
    params = latency_run_params(scale)
    return [
        figure_spec(system=system, workload="retwis", target_tps=200.0,
                    topology=ec2_five_regions(), seed=4,
                    clients_per_dc=8, label=f"fig4:{system}", **params)
        for system in systems.EVALUATED
    ]


def fig8_specs(scale: str = QUICK) -> List:
    """Figure 8 run specs: YCSB+T latency, EC2 topology, 200 tps."""
    params = latency_run_params(scale)
    return [
        figure_spec(system=system, workload="ycsbt", target_tps=200.0,
                    topology=ec2_five_regions(), seed=8,
                    clients_per_dc=8, label=f"fig8:{system}", **params)
        for system in systems.EVALUATED
    ]


def sweep_specs(scale: str = QUICK) -> List:
    """Figure 5/6 run specs: the closed-loop throughput sweep on the
    uniform 5 ms cluster, one spec per (system, target) point."""
    topo = uniform_topology(5, 5.0)
    params = sweep_run_params(scale)
    return [
        figure_spec(system=system, workload="retwis", target_tps=target,
                    topology=topo, seed=6, clients_per_dc=40,
                    closed_loop=True,
                    server_service_time_ms=SERVICE_TIME_MS[system],
                    tapir_fast_path_timeout_ms=TAPIR_LOCAL_TIMEOUT_MS,
                    label=f"fig5:{system}@{target:g}", **params)
        for system in systems.EVALUATED
        for target in sweep_targets(scale)
    ]


def _run_specs(specs: List, executor=None) -> List[RunRecord]:
    """Execute figure specs through ``executor`` (a fresh sequential,
    cacheless executor when omitted), preserving spec order."""
    if executor is None:
        from repro.sweep.executor import SweepExecutor

        executor = SweepExecutor(jobs=1, cache=None)
    return executor.run(specs)


# ----------------------------------------------------------------------
# experiments


def fig4_experiment(scale: str = QUICK,
                    executor=None) -> Dict[str, RunRecord]:
    """Figure 4: Retwis latency CDFs, EC2 topology, 200 tps."""
    return dict(zip(systems.EVALUATED,
                    _run_specs(fig4_specs(scale), executor)))


def fig8_experiment(scale: str = QUICK,
                    executor=None) -> Dict[str, RunRecord]:
    """Figure 8: YCSB+T latency CDFs, EC2 topology, 200 tps."""
    return dict(zip(systems.EVALUATED,
                    _run_specs(fig8_specs(scale), executor)))


def throughput_sweep_experiment(scale: str = QUICK, executor=None
                                ) -> Dict[str, List[RunRecord]]:
    """Figures 5 and 6: Retwis on the uniform 5 ms cluster, closed-loop
    clients, sweeping the target throughput."""
    records = iter(_run_specs(sweep_specs(scale), executor))
    n_targets = len(sweep_targets(scale))
    return {system: [next(records) for _ in range(n_targets)]
            for system in systems.EVALUATED}


def bandwidth_experiment(scale: str = QUICK
                         ) -> Dict[str, ExperimentResult]:
    """Figure 7: bandwidth at a 5000 tps target, uniform 5 ms cluster.

    Runs in-process and returns live :class:`ExperimentResult` objects:
    :func:`bandwidth_roles` reads per-node counters off the cluster,
    which a detached record deliberately does not carry.
    """
    topo = uniform_topology(5, 5.0)
    params = sweep_run_params(scale)
    return {
        system: run_workload(
            system, "retwis", target_tps=5000.0, topology=topo,
            seed=7, clients_per_dc=40, closed_loop=True,
            server_service_time_ms=SERVICE_TIME_MS[system],
            tapir_fast_path_timeout_ms=TAPIR_LOCAL_TIMEOUT_MS,
            account_bandwidth=True, **params)
        for system in systems.EVALUATED
    }


def bandwidth_roles(result: ExperimentResult) -> Dict[str, float]:
    """Average per-node send/receive Mbps by role, for Figure 7."""
    cluster = result.cluster
    network = cluster.network
    clients = [c.node_id for c in cluster.clients]
    if hasattr(cluster, "servers"):
        leader_ids = {cluster.directory.lookup(pid).leader
                      for pid in cluster.partition_ids}
        leaders = [s for s in cluster.servers if s in leader_ids]
        followers = [s for s in cluster.servers if s not in leader_ids]
    else:
        # TAPIR is leaderless; the paper reports its replicas under the
        # "Leader/TAPIR server" bars.
        leaders = list(cluster.replicas)
        followers = []

    def avg(nodes):
        if not nodes:
            return (0.0, 0.0)
        sends, recvs = zip(*(network.bandwidth_mbps(n) for n in nodes))
        return (sum(sends) / len(nodes), sum(recvs) / len(nodes))

    client_send, client_recv = avg(clients)
    leader_send, leader_recv = avg(leaders)
    follower_send, follower_recv = avg(followers)
    return {
        "client_send": client_send, "client_recv": client_recv,
        "leader_send": leader_send, "leader_recv": leader_recv,
        "follower_send": follower_send, "follower_recv": follower_recv,
    }


def latency_recorders(results: Dict[str, RunRecord]):
    return {systems.get(s).label: r.stats.latency
            for s, r in results.items()}


def sweep_series(sweep: Dict[str, List[RunRecord]]):
    return {
        systems.get(system).label: [
            (r.target_tps, r.stats.committed_tps, r.stats.abort_rate)
            for r in points]
        for system, points in sweep.items()
    }
