"""Standardized experiment runner used by every benchmark.

``run_workload`` builds a deployment of one system from the
:mod:`repro.systems` table, drives a workload at a target throughput, and
returns the measured statistics — one call per curve point in the paper's
figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.sim.topology import Topology, ec2_five_regions
from repro.workloads.driver import WorkloadDriver, WorkloadStats
from repro.workloads.retwis import RetwisWorkload
from repro.workloads.ycsbt import YcsbTWorkload


@dataclass
class RunRecord:
    """The detachable summary of one run: everything the figure reports
    need (measured statistics plus deterministic op counters), nothing
    that drags a live kernel along.  Picklable, so records cross process
    boundaries in sweeps, and JSON-serializable, so they live in the
    sweep result cache."""

    system: str
    target_tps: float
    stats: WorkloadStats
    op_counters: Dict[str, int]

    @property
    def label(self) -> str:
        return systems.get(self.system).label

    def to_json(self) -> Dict[str, object]:
        """Canonical JSON form (sorted op counters) for the sweep
        result cache; inverse of :meth:`from_json`."""
        return {
            "system": self.system,
            "target_tps": self.target_tps,
            "stats": self.stats.to_json(),
            "op_counters": dict(sorted(self.op_counters.items())),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "RunRecord":
        return cls(
            system=doc["system"],
            target_tps=float(doc["target_tps"]),
            stats=WorkloadStats.from_json(doc["stats"]),
            op_counters={str(k): int(v)
                         for k, v in doc["op_counters"].items()},
        )


@dataclass
class ExperimentResult:
    """One (system, workload, target-tps) measurement."""

    system: str
    target_tps: float
    stats: WorkloadStats
    cluster: object
    driver: WorkloadDriver

    @property
    def label(self) -> str:
        return systems.get(self.system).label

    @property
    def op_counters(self) -> Dict[str, int]:
        """Deterministic simulator-work counters for this run
        (:meth:`repro.bench.cluster._BaseCluster.op_counters`)."""
        return self.cluster.op_counters()

    def record(self) -> RunRecord:
        """Detach the picklable summary (stats + op counters) from the
        live cluster/driver objects."""
        return RunRecord(system=self.system, target_tps=self.target_tps,
                         stats=self.stats, op_counters=self.op_counters)


def build_workload(name: str, n_keys: int, seed: int):
    if name == "retwis":
        return RetwisWorkload(n_keys=n_keys, seed=seed)
    if name == "ycsbt":
        return YcsbTWorkload(n_keys=n_keys, seed=seed)
    raise ValueError(f"unknown workload {name!r}")


def run_workload(system: str, workload: str, target_tps: float,
                 duration_ms: float, warmup_ms: float, cooldown_ms: float,
                 topology: Optional[Topology] = None,
                 n_keys: int = 1_000_000, seed: int = 0,
                 clients_per_dc: int = 8,
                 server_service_time_ms: float = 0.0,
                 account_bandwidth: bool = False,
                 tapir_fast_path_timeout_ms: Optional[float] = None,
                 closed_loop: bool = False
                 ) -> ExperimentResult:
    """Run one experiment point and return its measurements."""
    spec = DeploymentSpec(
        topology=topology or ec2_five_regions(),
        seed=seed, clients_per_dc=clients_per_dc,
        server_service_time_ms=server_service_time_ms)
    timing = None
    if tapir_fast_path_timeout_ms is not None:
        timing = systems.Timing(
            tapir_fast_path_timeout_ms=tapir_fast_path_timeout_ms)
    cluster = systems.build(system, spec, timing)
    generator = build_workload(workload, n_keys=n_keys, seed=seed + 1)
    driver = WorkloadDriver(cluster, generator, target_tps=target_tps,
                            duration_ms=duration_ms, warmup_ms=warmup_ms,
                            cooldown_ms=cooldown_ms,
                            closed_loop=closed_loop)
    stats = driver.run(account_bandwidth=account_bandwidth)
    return ExperimentResult(system=system, target_tps=target_tps,
                            stats=stats, cluster=cluster, driver=driver)
