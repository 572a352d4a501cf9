"""The ledger benchmark's workload table and metric declarations.

``BENCHMARK.json`` at the repository root is the declaration: it names
the workloads, the end-to-end metrics (unit, direction, regression
bound) and the per-layer metrics.  This module adds what the JSON
contract has no room for — each workload's deployment and traffic
parameters and the clock each metric is read on — and refuses to report
a metric the declaration does not name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Share of the load phase discarded at its start / end (the paper
#: discards the first and last third of a 90 s run; 2 s and 1 s of the
#: 30 s reference run here).
WARMUP_SHARE = 2.0 / 30.0
COOLDOWN_SHARE = 1.0 / 30.0

#: The traced pass repeats a workload at this share of its duration.
TRACED_SHARE = 1.0 / 3.0
#: ``--smoke`` scales every load duration by this (self-test only).
SMOKE_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (see README.md for the reasons)."""

    name: str
    runtime: str            # "des" (virtual clock) or "aio" (wall clock)
    system: str             # carousel-fast / carousel-basic / tapir / layered
    traffic: str            # retwis / ycsbt
    n_keys: int
    theta: float
    value_size: int
    clients_per_dc: int
    #: Poisson arrival rate offered to the closed-loop client pool;
    #: 0 means no arrival process — every client resubmits on reply.
    offered_tps: float
    #: ``des``: virtual seconds of load per ``--seconds``, fixed so the
    #: load phase takes about ``--seconds`` of wall time at the commit
    #: that defined the benchmark.  The work is fixed, not the time: a
    #: faster simulator finishes sooner and ``committed_per_wall_s``
    #: rises.  ``aio``: 1 (the load phase *is* wall time).
    virtual_s_per_s: float
    #: Fault schedule: crash the leader of partition ``p0`` after this
    #: share of the load phase (0 = fault-free) and power-cycle it back
    #: from its WAL image ``restart_after_ms`` later — a fixed delay, so
    #: a shorter pass (traced, smoke) sees the same outage.
    crash_at_share: float = 0.0
    restart_after_ms: float = 0.0

    @property
    def n_datacenters(self) -> int:
        # des: the paper's EC2 deployment (Table 1); aio: one logical
        # process per datacenter plus the driver, all in one event loop.
        return 5 if self.runtime == "des" else 3

    def load_ms(self, seconds: float) -> float:
        """Length of the load phase on the workload's own clock."""
        return seconds * self.virtual_s_per_s * 1000.0


_TABLE = (
    Workload("des-carousel-retwis", "des", "carousel-fast", "retwis",
             1_000_000, 0.75, 64, 40, 400.0, 1.7),
    Workload("des-tapir-retwis", "des", "tapir", "retwis",
             1_000_000, 0.75, 64, 40, 400.0, 3.0),
    Workload("des-layered-ycsbt-hot", "des", "layered", "ycsbt",
             1_000_000, 0.9, 64, 40, 300.0, 2.1),
    Workload("des-carousel-failover", "des", "carousel-basic", "retwis",
             1_000_000, 0.75, 64, 40, 400.0, 2.6, crash_at_share=0.65,
             restart_after_ms=6_500.0),
    Workload("aio-carousel-retwis", "aio", "carousel-fast", "retwis",
             100_000, 0.75, 64, 2, 0.0, 1.0),
    Workload("aio-tapir-ycsbt-1k", "aio", "tapir", "ycsbt",
             100_000, 0.75, 1024, 2, 0.0, 1.0),
)
WORKLOADS: Dict[str, Workload] = {w.name: w for w in _TABLE}

#: Drain after the load phase, on the workload's clock: how long the
#: harness waits for unfinished transactions before counting them as
#: failed, and the quiet period that lets followers apply the last
#: writebacks before the verify step reads their stores.
DRAIN_MS = {"des": 30_000.0, "aio": 5_000.0}
QUIESCE_MS = {"des": 2_000.0, "aio": 1_000.0}
SETTLE_MS = 500.0


def declaration() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def declared_units(kind: str) -> Dict[str, str]:
    """``{metric name: unit}`` for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in declaration()[kind]}


#: Metrics read on the runtime's own clock: virtual under the DES,
#: wall under asyncio.  Every other timing is wall-clock (its unit says
#: so); the rest are counts and ratios of counts.
_RUNTIME_CLOCK = frozenset({
    "latency_p50_ms", "latency_p95_ms", "driver.latency_p99_ms",
    "driver.latency_all_p50_ms", "driver.unavailable_ms",
    "driver.backlog_wait_ms_p95"})
_WALL_UNITS = frozenset({"s", "us", "1/s"})
_WALL_RATIOS = frozenset({"profile.overhead_ratio", "trace.overhead_ratio",
                          "runtime.aio.loop_lag_p99_ms"})


def metric_clock(name: str, unit: str, runtime: str) -> str:
    """The clock a metric is read on, for the printed table."""
    if name in _RUNTIME_CLOCK or name.startswith("phase."):
        return "virtual" if runtime == "des" else "wall"
    if unit in _WALL_UNITS or name in _WALL_RATIOS:
        return "wall"
    return "memory" if unit == "MiB" else "count"


def metrics_block(kind: str, values: Dict[str, float], runtime: str,
                  samples: int) -> Dict[str, dict]:
    """Attach unit, clock and sample count to measured ``values``; the
    names must be exactly the declared ones."""
    units = declared_units(kind)
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise RuntimeError(f"{kind} metrics drifted from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": units[name],
                   "clock": metric_clock(name, units[name], runtime),
                   "samples": samples}
            for name in units}


def workload_names() -> List[str]:
    """Declared workload names, in table order."""
    return [w["name"] for w in declaration()["workloads"]]
