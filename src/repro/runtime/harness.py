"""Cluster snapshots and control frames for the asyncio deployments.

Two concerns live here because they share the wire codec:

* **Snapshots** — a serializable view of one process's replicated state
  (per-partition store contents and resolved-outcome maps) plus its
  transport counters.  :func:`snapshot_cluster` extracts one from a live
  cluster object; :class:`SnapshotAdapter` is the view over merged
  snapshots that :func:`repro.scenario.judge` applies every oracle
  (:mod:`repro.chaos.oracles`) through, whichever runtime made the run.

* **Control frames** — the tiny orchestration vocabulary of the
  multi-process cluster (``python -m repro cluster``): address-table
  distribution, snapshot request/reply, readiness, shutdown.  Control
  dataclasses are deliberately **not** ``Message`` subclasses: they are
  runtime plumbing, not protocol traffic, so protolint's contracts
  (:mod:`repro.analysis.protolint`) and ``PROTOCOL.md`` stay untouched.
  On the wire they are framed like messages but open with ``{"c":``
  instead of ``{"t":``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import systems
from repro.chaos.oracles import OracleAdapter
from repro.store.kvstore import Record
from repro.runtime.wire import (
    WireError,
    decode_value,
    encode_value,
    parse_frame,
    register_extra,
)

# ---------------------------------------------------------------------------
# Control frames
# ---------------------------------------------------------------------------


@register_extra
@dataclass
class CtlPeers:
    """Driver -> serve: the full ``proc -> (host, port)`` address table."""

    addresses: dict = field(default_factory=dict)


@register_extra
@dataclass
class CtlSnapshotRequest:
    """Driver -> serve: reply with your cluster snapshot."""

    reply_to: str = "driver"


@register_extra
@dataclass
class CtlSnapshotReply:
    """Serve -> driver: one process's :func:`snapshot_cluster` result."""

    proc: str = ""
    snapshot: dict = field(default_factory=dict)


@register_extra
@dataclass
class CtlShutdown:
    """Driver -> serve: tear down and exit."""

    reason: str = "done"


_CONTROL_PREFIX = b'{"c":'


def encode_control(ctl: Any) -> bytes:
    """Serialize a control dataclass (framing is the caller's job)."""
    payload = encode_value(ctl)
    if not (isinstance(payload, dict) and "__dc" in payload):
        raise WireError(f"not a registered control dataclass: {ctl!r}")
    envelope = {"c": payload["__dc"], "f": payload["f"]}
    return json.dumps(envelope, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def is_control(data: bytes) -> bool:
    """Whether a frame is a control frame (vs. a protocol message)."""
    return data.startswith(_CONTROL_PREFIX)


def _build_control(envelope: dict) -> Any:
    if "c" not in envelope:
        raise WireError("control frame has no type")
    return decode_value({"__dc": envelope["c"], "f": envelope.get("f", {})})


def decode_control(data: bytes) -> Any:
    """Inverse of :func:`encode_control`; a malformed frame is a
    :class:`WireError`."""
    return parse_frame(data, _build_control)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def _store_contents(store) -> Dict[str, Tuple[Any, int]]:
    return {key: (record.value, record.version)
            for key, record in sorted(store.items())}


def snapshot_cluster(system: str, cluster: Any) -> dict:
    """Serializable replicated state of this process's share of ``cluster``.

    Shape (all wire-encodable)::

        {"stores":   {node_id: {pid: {key: (value, version)}}},
         "resolved": {node_id: {pid: {TID: "commit"|"abort"}}},
         "sent_by_type": {message_type: count}}
    """
    entry = systems.get(system)
    nodes = entry.nodes(cluster)
    stores: Dict[str, dict] = {node_id: {} for node_id in sorted(nodes)}
    resolved: Dict[str, dict] = {node_id: {} for node_id in stores}
    for pid in sorted(cluster.directory.partitions()):
        for node_id in cluster.directory.lookup(pid).replicas:
            if node_id in nodes:  # else hosted by another process
                store, decided = entry.replica_state(nodes[node_id], pid)
                stores[node_id][pid] = _store_contents(store)
                resolved[node_id][pid] = decided
    network = cluster.network
    return {
        "stores": stores,
        "resolved": resolved,
        "sent_by_type": dict(getattr(network, "sent_by_type", {})),
    }


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Union the per-process snapshots of one deployment."""
    merged: dict = {"stores": {}, "resolved": {}, "sent_by_type": {}}
    for snap in snapshots:
        for node_id, by_pid in snap.get("stores", {}).items():
            merged["stores"][node_id] = by_pid
        for node_id, by_pid in snap.get("resolved", {}).items():
            merged["resolved"][node_id] = by_pid
        for name, count in snap.get("sent_by_type", {}).items():
            merged["sent_by_type"][name] = \
                merged["sent_by_type"].get(name, 0) + count
    return merged


class _SnapshotStore:
    """Duck-typed read-only store over snapshotted ``{key: (v, ver)}``."""

    def __init__(self, contents: Dict[str, Tuple[Any, int]]):
        self._contents = contents

    def read(self, key: str) -> Record:
        return Record(*self._contents.get(key, (None, 0)))


class SnapshotAdapter(OracleAdapter):
    """The oracle-facing adapter interface of
    :class:`repro.chaos.oracles.ClusterAdapter`, backed by a merged
    snapshot instead of live cluster objects.

    ``ring``/``directory`` come from any process's cluster build — the
    builders populate them identically everywhere.  ``clients`` are the
    driver's live client objects (the driver hosts every client, so the
    liveness-side accessors need no snapshotting).
    """

    def __init__(self, merged: dict, ring: Any, directory: Any,
                 partition_ids: Sequence[str],
                 clients: Optional[Sequence[Any]] = None):
        self.merged = merged
        self.ring = ring
        self.directory = directory
        self.partition_ids = list(partition_ids)
        self._clients = list(clients or [])

    def clients(self) -> List[Any]:
        """All workload clients, construction order."""
        return list(self._clients)

    def stores_for_key(self, key: str) -> List[Tuple[str, Any]]:
        """``(node_id, store)`` for every replica of ``key``."""
        pid = self.ring.partition_for(key)
        out = []
        for node_id in self.directory.lookup(pid).replicas:
            contents = self.merged["stores"].get(node_id, {}).get(pid, {})
            out.append((node_id, _SnapshotStore(contents)))
        return out

    def resolved_for_pid(self, pid: str) -> List[Tuple[str, Dict]]:
        """``(location, {tid: decision})`` per replica of ``pid``."""
        out = []
        for node_id in self.directory.lookup(pid).replicas:
            resolved = self.merged["resolved"].get(node_id, {}).get(pid, {})
            out.append((f"{node_id}/{pid}", resolved))
        return out
