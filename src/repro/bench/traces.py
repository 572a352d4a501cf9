"""Protocol message traces, reproducing Figures 2 and 3.

The paper's Figures 2 and 3 are message sequence diagrams of the basic
protocol and of CPC's fast/slow paths.  This module runs a single
transaction with the network's trace hook armed and renders the captured
messages as a timeline, so the benchmarks can regenerate (a textual form
of) those figures and assert their structural properties — which messages
flow, between which roles, in which order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.bench.cluster import CarouselCluster, DeploymentSpec
from repro.core.config import BASIC, FAST, CarouselConfig
from repro.raft.node import RaftHost
from repro.sim.topology import ec2_five_regions
from repro.txn import TransactionSpec


@dataclass
class TracedMessage:
    """One captured protocol message."""

    sent_at_ms: float
    src: str
    dst: str
    msg_type: str
    cross_dc: bool

    def __str__(self) -> str:
        span = "WAN" if self.cross_dc else "local"
        return (f"{self.sent_at_ms:8.1f}ms  {self.src:18s} -> "
                f"{self.dst:18s}  {self.msg_type} [{span}]")


def trace_transaction(mode: str = BASIC, seed: int = 42,
                      client_dc: str = "us-west",
                      keys: Optional[tuple] = None,
                      include_raft: bool = False,
                      conflicting_writer: bool = False
                      ) -> List[TracedMessage]:
    """Run one two-partition 2FI transaction and capture its messages.

    With ``conflicting_writer`` a second transaction on the same keys is
    started from another datacenter just before, reproducing Figure 3(b)'s
    conflicting-prepare scenario.
    """
    cluster = CarouselCluster(
        DeploymentSpec(seed=seed, jitter_fraction=0.0),
        CarouselConfig(mode=mode))
    cluster.run(500)
    if keys is None:
        keys = _pick_two_partition_keys(cluster, client_dc)
    trace: List[TracedMessage] = []
    nodes = cluster.network.nodes

    def hook(msg, delay_ms):
        # The figures draw replication as shaded boxes, not arrows.
        if not include_raft and type(msg) in RaftHost.HANDLERS:
            return
        msg_type = type(msg).__name__
        src_dc = nodes[msg.src].dc
        dst_dc = nodes[msg.dst].dc
        trace.append(TracedMessage(
            sent_at_ms=cluster.kernel.now, src=msg.src, dst=msg.dst,
            msg_type=msg_type, cross_dc=src_dc != dst_dc))

    results = []
    spec = TransactionSpec(
        read_keys=keys, write_keys=keys,
        compute_writes=lambda r: {k: "traced" for k in r},
        txn_type="traced")
    cluster.network.trace_hook = hook
    if conflicting_writer:
        other = cluster.client("europe")
        other_spec = TransactionSpec(
            read_keys=keys, write_keys=keys,
            compute_writes=lambda r: {k: "rival" for k in r},
            txn_type="rival")
        other.submit(other_spec, results.append)
        cluster.run(1.0)
    cluster.client(client_dc).submit(spec, results.append)
    cluster.run(5_000)
    cluster.network.trace_hook = None
    if not results:
        raise RuntimeError("traced transaction did not complete")
    return trace


def _pick_two_partition_keys(cluster, client_dc: str) -> tuple:
    """One key on a partition with a local leader, one on a remote one —
    the Figure 2 scenario (participants in DC1 and DC2)."""
    local_key = remote_key = None
    for i in range(5000):
        key = f"trace{i}"
        pid = cluster.ring.partition_for(key)
        leader_dc = cluster.directory.lookup(pid).leader_datacenter()
        if leader_dc == client_dc and local_key is None:
            local_key = key
        elif leader_dc != client_dc and remote_key is None:
            remote_key = key
        if local_key and remote_key:
            return (local_key, remote_key)
    raise RuntimeError("could not find suitable trace keys")


def render_trace(trace: List[TracedMessage], title: str) -> str:
    lines = [title, "=" * len(title)]
    lines.extend(str(msg) for msg in trace)
    return "\n".join(lines)


def message_types(trace: List[TracedMessage]) -> List[str]:
    return [msg.msg_type for msg in trace]
