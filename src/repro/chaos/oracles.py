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
from typing import Any, Dict, List, Optional, Sequence, Tuple

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


class OracleAdapter:
    """What the oracles read a deployment's final state through.

    Subclasses supply ``ring``, ``partition_ids``, ``clients()``,
    ``stores_for_key(key) -> [(node_id, store)]`` and
    ``resolved_for_pid(pid) -> [(location, {tid: decision})]`` — from
    live cluster objects (:class:`repro.chaos.runner.ClusterAdapter`) or
    from merged per-process snapshots
    (:class:`repro.runtime.harness.SnapshotAdapter`).
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
        return not getattr(client, "_commit_acks_pending", None)

    def partitions_for(self, keys: Sequence[str]) -> List[str]:
        """Sorted partition ids holding ``keys``."""
        return sorted({self.ring.partition_for(k) for k in keys})

    def resolved_maps(self) -> List[Tuple[str, Dict]]:
        """Resolved-outcome maps for every replica of every partition."""
        out = []
        for pid in self.partition_ids:
            out.extend(self.resolved_for_pid(pid))
        return out


def check_liveness(adapter, expected: int,
                   results: Sequence[ResultRow]) -> List[OracleViolation]:
    """After the final heal + quiescence, everything must have terminated."""
    violations: List[OracleViolation] = []
    if len(results) < expected:
        violations.append(OracleViolation(
            "liveness",
            f"only {len(results)} of {expected} submitted transactions "
            "reached a terminal response after the final heal"))
    for client in adapter.clients():
        if client.submitted != client.committed + client.aborted:
            violations.append(OracleViolation(
                "liveness",
                f"{client.node_id}: submitted={client.submitted} != "
                f"committed={client.committed} + aborted={client.aborted}"))
        pending = adapter.client_pending(client)
        if pending:
            violations.append(OracleViolation(
                "liveness",
                f"{client.node_id}: {pending} transaction(s) still in "
                "flight after quiescence"))
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


def check_stores(adapter, results: Sequence[ResultRow],
                 keys: Sequence[str]) -> List[OracleViolation]:
    """Replica agreement plus exact increment accounting per key."""
    violations: List[OracleViolation] = []
    committed_writes: Dict[str, int] = {}
    last_tid: Dict[str, Any] = {}
    for write_keys, result in results:
        if not result.committed:
            continue
        for key in write_keys:
            committed_writes[key] = committed_writes.get(key, 0) + 1
            last_tid[key] = result.tid
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
    committed_writes: Dict[str, int] = {}
    last_tid: Dict[str, Any] = {}
    for write_keys, result in results:
        if not result.committed:
            continue
        for key in write_keys:
            committed_writes[key] = committed_writes.get(key, 0) + 1
            last_tid[key] = result.tid
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
