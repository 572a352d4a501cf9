"""Traced scenarios: the single-transaction runs behind Figures 2–3.

:func:`traced_scenario` builds the :class:`~repro.scenario.Scenario`
that ``python -m repro trace``, ``trace-basic``/``trace-cpc``, protolint's
extra corpus cases and the divergence bisector all run with
:func:`repro.scenario.run`: the recording tracer attaches once the
deployment settles, so bootstrap noise stays out of the trace, and the
run is judged like any other.

Each *shape* (:data:`SHAPES`) mirrors one of the paper's constructions.
The traced client sits in ``us-west`` (:data:`CLIENT_DC`):

* ``fig2`` — one key on a partition led from the client's datacenter,
  one led remotely (Figure 2's participants in DC1 and DC2);
* ``cpc`` — two remote-led partitions with a replica in the client's
  datacenter, so the local-read optimization keeps the read round off
  the WAN and each fast quorum beats its leader's Raft slow path
  (§4.2, §4.4.1): the commit costs exactly 1 WANRT;
* ``read-only`` — the ``fig2`` keys, read and never incremented;
* ``rival`` — the ``fig2`` keys, with a rival increment of the same
  keys submitted from europe 1 ms earlier (Figure 3(b)'s conflicting
  prepare);
* ``slow-path`` — two partitions with no replica in the client's
  datacenter, and a rival increment from australia at the same instant:
  TAPIR's replicas disagree and its finalize round runs;
* ``fan-out`` — one key on every partition, the widest fan-out, so
  ordering bugs in coordinator loops have the most room to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.scenario import Run, Scenario, StopRule
from repro.workloads.plans import PlanRow

#: The traced client's datacenter.
CLIENT_DC = "us-west"

#: Settle before the first submission (elections and bootstrap), then
#: one transaction at a time with an 800 ms gap after each response, so
#: every writeback applies before the next transaction reads (as
#: conform's DES rule does).
STOP = StopRule(settle_ms=500.0, poll_ms=50.0, quiesce_ms=30_000.0,
                drain_ms=2000.0, txn_timeout_ms=30_000.0, gap_ms=800.0)
#: Spacing of the timed rows of a shape with a rival: a slow-path
#: transaction, its writebacks and the gap.
RIVAL_SPACING_MS = 2000.0


def _keys(cluster, wanted: Callable[[Any], bool], n: int
          ) -> Tuple[str, ...]:
    """The first ``n`` keys ``trace<i>`` on distinct partitions whose
    :class:`~repro.store.directory.PartitionInfo` ``wanted`` admits."""
    found: Dict[str, str] = {}
    for i in range(5000):
        key = f"trace{i}"
        pid = cluster.ring.partition_for(key)
        if pid not in found.values() and \
                wanted(cluster.directory.lookup(pid)):
            found[key] = pid
            if len(found) == n:
                return tuple(found)
    raise RuntimeError("could not find suitable trace keys")


def _fig2_keys(cluster) -> Tuple[str, ...]:
    return (_keys(cluster, lambda p: p.leader_datacenter() == CLIENT_DC, 1)
            + _keys(cluster, lambda p: p.leader_datacenter() != CLIENT_DC,
                    1))


def _cpc_keys(cluster) -> Tuple[str, ...]:
    return _keys(cluster, lambda p: CLIENT_DC in p.datacenters
                 and p.leader_datacenter() != CLIENT_DC, 2)


def _unreplicated_keys(cluster) -> Tuple[str, ...]:
    return _keys(cluster, lambda p: CLIENT_DC not in p.datacenters, 2)


def _fan_out_keys(cluster) -> Tuple[str, ...]:
    return _keys(cluster, lambda p: True, len(cluster.partition_ids))


@dataclass(frozen=True)
class Shape:
    """How one traced plan is built: its keys, whether its rows
    increment them, and the rival writer — its datacenter and head
    start in ms — incrementing the same keys, if any."""

    keys: Callable[[Any], Tuple[str, ...]]
    read_only: bool = False
    rival: Optional[Tuple[str, float]] = None


SHAPES: Dict[str, Shape] = {
    "fig2": Shape(_fig2_keys),
    "cpc": Shape(_cpc_keys),
    "read-only": Shape(_fig2_keys, read_only=True),
    "rival": Shape(_fig2_keys, rival=("europe", 1.0)),
    "slow-path": Shape(_unreplicated_keys, rival=("australia", 0.0)),
    "fan-out": Shape(_fan_out_keys),
}


def default_shape(system: str) -> str:
    """The shape whose commit path is the system's headline claim.

    CPC's fast quorums race their own leader's Raft slow path, so
    Carousel Fast needs remote-led partitions (``cpc``); every other
    system — TAPIR has no leader to race — runs Figure 2's keys."""
    entry = systems.get(system)
    return "cpc" if entry.fast_path and not entry.leaderless else "fig2"


def traced_scenario(system: str, shape: Optional[str] = None,
                    seed: int = 42, txns: int = 1) -> Scenario:
    """``txns`` traced transactions of ``shape`` (default:
    :func:`default_shape`) on ``system``."""
    shape = shape or default_shape(system)
    spec = SHAPES[shape]
    name = systems.canonical(system)
    deployment = DeploymentSpec(seed=seed, jitter_fraction=0.0)
    timing = systems.Timing()
    # Placement follows from the spec alone: an unstarted twin names the
    # keys and clients the run's own deployment will have.
    twin = systems.build(name, deployment, timing)
    keys = spec.keys(twin)
    dcs = [client.dc for client in twin.clients]
    client = dcs.index(CLIENT_DC)
    increments = () if spec.read_only else keys
    plan: List[PlanRow] = []
    for i in range(txns):
        if spec.rival is None:
            plan.append((None, client, keys, increments))
            continue
        rival_dc, lead_ms = spec.rival
        at = STOP.settle_ms + i * RIVAL_SPACING_MS
        plan.append((at, dcs.index(rival_dc), keys, keys))
        plan.append((at + lead_ms, client, keys, increments))
    return Scenario(system=name, deployment=deployment, timing=timing,
                    seed=seed, plan=tuple(plan), stop=STOP,
                    txn_type=f"traced-{shape}", trace=True)


def traced_transactions(run: Run) -> List[Any]:
    """The traced client's :class:`~repro.trace.tracer.TxnTrace` of each
    of its rows, in submission order (a rival's are left out)."""
    return [txn for txn in run.tracer.transactions()
            if txn.dc == CLIENT_DC]


def figure_sends(run: Run) -> List[Any]:
    """The protocol messages of a traced run, in send order.  Raft
    traffic is left out: Figures 2–3 draw replication as shaded boxes,
    not arrows."""
    from repro.raft.node import RaftHost
    raft = {cls.__name__ for cls in RaftHost.HANDLERS}
    return [ann for ann in run.tracer.sends() if ann.msg_type not in raft]


def render_figure(run: Run, title: str) -> str:
    """Figures 2–3 as text: one line per :func:`figure_sends` message."""
    lines = [title, "=" * len(title)]
    for ann in figure_sends(run):
        span = "WAN" if ann.cross_dc else "local"
        lines.append(f"{ann.send_ms:8.1f}ms  {ann.src:18s} -> "
                     f"{ann.dst:18s}  {ann.msg_type} [{span}]")
    return "\n".join(lines)
