"""Safety and liveness oracles for chaos runs.

All oracles run *after* the final heal and a quiescence window, against
an adapter (:class:`OracleAdapter`) that gives them a
uniform view of clients, stores, and resolved-outcome maps across the
four systems.  The workload is increment-only and keys start absent, so
the expected store state is exact: a key's value **and** version must
both equal the number of committed transactions that wrote it.

* **liveness** — every submitted transaction got a terminal response,
  client counters balance, and no client still has work in flight.
* **decision-consistency** — no transaction is resolved ``commit`` at one
  replica/partition and ``abort`` at another (2PC atomicity), and every
  client-visible commit is durably resolved as a commit at every replica
  of every partition it wrote.
* **replica-divergence** — all replicas of a partition agree on each
  workload key's ``(value, version)``.
* **value-parity** — the agreed state equals the committed-increment
  count: fewer means a lost update, more means a double apply.
* **durability** — evaluated against state *rebuilt from WAL images*
  after every server is power-cycled: no client-visible commit may be
  lost (``durability-lost-commit``) and no aborted write may resurface
  (``durability-abort-resurfaced``).  The store checks split the
  value-parity accounting by direction; the decision checks compare
  client-visible outcomes against the rebuilt resolved maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import systems
from repro.txn import TxnResult

COMMIT = "commit"

#: A client result paired with the write-key set of its transaction.
ResultRow = Tuple[Tuple[str, ...], TxnResult]


@dataclass
class OracleViolation:
    """One oracle failure: which oracle, what happened, and — when known —
    the transaction and key involved (used to pull the causal trace)."""

    oracle: str
    detail: str
    tid: Any = None
    key: Optional[str] = None

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


class ClientCounters(NamedTuple):
    """One client's liveness counters, detached from the live node."""

    node_id: str
    submitted: int
    committed: int
    aborted: int
    #: Transactions still in flight (or queued).
    pending: int


class OracleAdapter:
    """What the oracles read a deployment's final state through.

    Subclasses supply ``ring``, ``partition_ids``, ``clients()``,
    ``stores_for_key(key) -> [(node_id, store)]`` and
    ``resolved_for_pid(pid) -> [(location, {tid: decision})]`` — from
    live cluster objects (:class:`ClusterAdapter`) or from merged
    per-process snapshots (:class:`repro.runtime.harness.SnapshotAdapter`).
    """

    def client_pending(self, client: Any) -> int:
        """Transactions this client still has in flight (or queued)."""
        pending = len(client._active)
        pending += len(getattr(client, "_queued", ()))
        return pending

    def client_quiesced(self, client: Any) -> bool:
        """No active/queued work and no unacknowledged commit rounds."""
        if self.client_pending(client):
            return False
        return not getattr(client, "_commits", None)

    def client_counters(self) -> List[ClientCounters]:
        """The liveness counters of every live client, construction
        order."""
        return [ClientCounters(c.node_id, c.submitted, c.committed,
                               c.aborted, self.client_pending(c))
                for c in self.clients()]

    def partitions_for(self, keys: Sequence[str]) -> List[str]:
        """Sorted partition ids holding ``keys``."""
        return sorted({self.ring.partition_for(k) for k in keys})

    def resolved_maps(self) -> List[Tuple[str, Dict]]:
        """Resolved-outcome maps for every replica of every partition."""
        out = []
        for pid in self.partition_ids:
            out.extend(self.resolved_for_pid(pid))
        return out


class ClusterAdapter(OracleAdapter):
    """Uniform access to live cluster internals for the oracles and the
    nemesis; the :mod:`repro.systems` row of ``system`` says where the
    server nodes and their replicated state live."""

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


def check_liveness(clients: Sequence[ClientCounters], expected: int,
                   results: Sequence[ResultRow]) -> List[OracleViolation]:
    """After the final heal + quiescence, everything must have terminated."""
    violations: List[OracleViolation] = []
    if len(results) < expected:
        violations.append(OracleViolation(
            "liveness",
            f"only {len(results)} of {expected} submitted transactions "
            "reached a terminal response after the final heal"))
    for client in clients:
        if client.submitted != client.committed + client.aborted:
            violations.append(OracleViolation(
                "liveness",
                f"{client.node_id}: submitted={client.submitted} != "
                f"committed={client.committed} + aborted={client.aborted}"))
        if client.pending:
            violations.append(OracleViolation(
                "liveness",
                f"{client.node_id}: {client.pending} transaction(s) still "
                "in flight after quiescence"))
    return violations


def check_decisions(adapter,
                    results: Sequence[ResultRow]) -> List[OracleViolation]:
    """2PC atomicity: one decision per transaction, everywhere."""
    violations: List[OracleViolation] = []
    decisions: Dict[Any, Dict[str, str]] = {}
    for location, resolved in adapter.resolved_maps():
        # Ordered: resolved insertion order is apply order, deterministic
        # under a fixed kernel seed.
        # detlint: ignore[values-fanout]
        for tid, decision in resolved.items():
            decisions.setdefault(tid, {})[location] = decision
    for tid in sorted(decisions, key=str):
        outcomes = sorted(set(decisions[tid].values()))
        if len(outcomes) > 1:
            where = ", ".join(f"{loc}={d}"
                              for loc, d in sorted(decisions[tid].items()))
            violations.append(OracleViolation(
                "decision-consistency",
                f"txn {tid} resolved inconsistently: {where}", tid=tid))
    # Client-visible commits must be resolved as commits at every replica
    # of every written partition (the writeback/commit retransmission
    # loops guarantee this once the network heals).
    for keys, result in results:
        if not result.committed:
            continue
        for pid in adapter.partitions_for(keys):
            for location, resolved in adapter.resolved_for_pid(pid):
                decision = resolved.get(result.tid)
                if decision != COMMIT:
                    found = "missing" if decision is None else decision
                    violations.append(OracleViolation(
                        "decision-consistency",
                        f"committed txn {result.tid} is {found} at "
                        f"{location}", tid=result.tid))
    return violations


def _committed_writes(results: Sequence[ResultRow]
                      ) -> Tuple[Dict[str, int], Dict[str, Any]]:
    """Per key: how many committed transactions wrote it, and the last."""
    counts: Dict[str, int] = {}
    last_tid: Dict[str, Any] = {}
    for write_keys, result in results:
        if result.committed:
            for key in write_keys:
                counts[key] = counts.get(key, 0) + 1
                last_tid[key] = result.tid
    return counts, last_tid


def check_stores(adapter, results: Sequence[ResultRow],
                 keys: Sequence[str]) -> List[OracleViolation]:
    """Replica agreement plus exact increment accounting per key."""
    violations: List[OracleViolation] = []
    committed_writes, last_tid = _committed_writes(results)
    for key in sorted(keys):
        want = committed_writes.get(key, 0)
        replicas = adapter.stores_for_key(key)
        states = []
        for node_id, store in replicas:
            record = store.read(key)
            value = 0 if record.value is None else record.value
            states.append((node_id, value, record.version))
        distinct = sorted({(value, version)
                           for _, value, version in states})
        if len(distinct) > 1:
            where = ", ".join(f"{n}=({v},v{ver})" for n, v, ver in states)
            violations.append(OracleViolation(
                "replica-divergence",
                f"key {key!r}: replicas disagree: {where}",
                tid=last_tid.get(key), key=key))
        for node_id, value, version in states:
            if value != want or version != want:
                violations.append(OracleViolation(
                    "value-parity",
                    f"key {key!r} at {node_id}: value={value} "
                    f"version={version}, expected {want} committed "
                    "increments", tid=last_tid.get(key), key=key))
    return violations


def check_durability(adapter, results: Sequence[ResultRow],
                     keys: Sequence[str]) -> List[OracleViolation]:
    """Committed writes survive a power cycle; aborted ones stay dead.

    Run after every server has been restarted from its WAL image, so the
    state inspected here is exactly what the durable records can rebuild
    — RAM-only survivals cannot mask a journaling hole.
    """
    violations: List[OracleViolation] = []
    committed_writes, last_tid = _committed_writes(results)
    for key in sorted(keys):
        want = committed_writes.get(key, 0)
        for node_id, store in adapter.stores_for_key(key):
            record = store.read(key)
            value = 0 if record.value is None else record.value
            if value < want or record.version < want:
                violations.append(OracleViolation(
                    "durability-lost-commit",
                    f"key {key!r} at {node_id} after restart: "
                    f"value={value} version={record.version}, expected "
                    f"{want} committed increments",
                    tid=last_tid.get(key), key=key))
            elif value > want or record.version > want:
                violations.append(OracleViolation(
                    "durability-abort-resurfaced",
                    f"key {key!r} at {node_id} after restart: "
                    f"value={value} version={record.version} exceeds "
                    f"{want} committed increments",
                    tid=last_tid.get(key), key=key))
    # Decision-level: every client-visible outcome must match the
    # rebuilt resolved maps of every partition the transaction wrote.
    for write_keys, result in results:
        for pid in adapter.partitions_for(write_keys):
            for location, resolved in adapter.resolved_for_pid(pid):
                decision = resolved.get(result.tid)
                if result.committed and decision != COMMIT:
                    found = "missing" if decision is None else decision
                    violations.append(OracleViolation(
                        "durability-lost-commit",
                        f"committed txn {result.tid} is {found} at "
                        f"{location} after restart", tid=result.tid))
                elif not result.committed and decision == COMMIT:
                    violations.append(OracleViolation(
                        "durability-abort-resurfaced",
                        f"aborted txn {result.tid} resolved as commit "
                        f"at {location} after restart", tid=result.tid))
    return violations
