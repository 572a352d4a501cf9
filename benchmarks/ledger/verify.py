"""The verify step every workload ends with.

Judged after the drain, against an oracle adapter over the final
replicated state (live :class:`~repro.chaos.runner.ClusterAdapter`
objects under the DES, a merged
:class:`~repro.runtime.harness.SnapshotAdapter` under asyncio):

* every live replica of a partition agrees on ``(value, version)`` for
  every key a submitted transaction wrote or a replica stores;
* each such key's version equals the number of client-visible committed
  transactions that wrote it — keys start absent — plus at most one per
  writer whose outcome is still unknown at the end of the drain;
* :func:`repro.chaos.oracles.check_decisions` passes: one decision per
  transaction everywhere, and every client-visible commit resolved as a
  commit at every live replica of every partition it wrote.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Set

from repro.chaos.oracles import check_decisions
from repro.chaos.runner import ClusterAdapter
from repro.runtime.harness import SnapshotAdapter

from load import Txn


class LiveClusterAdapter(ClusterAdapter):
    """:class:`ClusterAdapter` over the final state, restricted to
    replicas that are up: a crashed replica keeps its pre-crash state
    and is not part of the agreement the verify step checks.  The state
    no longer changes once the drain is over, so the per-partition
    resolved maps (which the base class rebuilds on every call, once per
    committed transaction) are built once."""

    def __init__(self, system: str, cluster: Any):
        super().__init__(system, cluster)
        self._resolved: Dict[str, list] = {}

    def _up(self, node_id: str) -> bool:
        return not self.cluster.network.node(node_id).crashed

    def stores_for_key(self, key):
        return [(node_id, store)
                for node_id, store in super().stores_for_key(key)
                if self._up(node_id)]

    def resolved_for_pid(self, pid):
        if pid not in self._resolved:
            self._resolved[pid] = [
                (location, resolved)
                for location, resolved in super().resolved_for_pid(pid)
                if self._up(location.split("/")[0])]
        return self._resolved[pid]

    def stored_keys(self) -> Set[str]:
        """Every key any live replica stores."""
        keys: Set[str] = set()
        for pid in self.cluster.partition_ids:
            for replica in self.cluster.replicas_of(pid):
                if self._up(replica.node_id):
                    store = replica.store if self.system == "tapir" \
                        else replica.partitions[pid].store
                    keys.update(key for key, _ in store.items())
        return keys


class StoredSnapshotAdapter(SnapshotAdapter):
    """:class:`SnapshotAdapter` that can also list what it stores."""

    def stored_keys(self) -> Set[str]:
        """Every key any snapshotted replica stores."""
        return {key for by_pid in self.merged["stores"].values()
                for contents in by_pid.values() for key in contents}


def verify(adapter: Any, txns: Sequence[Txn]) -> List[str]:
    """Every violation found, as one line each (empty = pass)."""
    replied = [(t.write_keys, t.result) for t in txns
               if t.result is not None]
    violations = [str(v) for v in check_decisions(adapter, replied)]
    committed_writes: Counter = Counter()
    unknown_writes: Counter = Counter()
    written = adapter.stored_keys()
    for t in txns:
        if t.submit_ms is None:
            continue  # still in a client's backlog: never reached the system
        written.update(t.write_keys)
        if t.committed:
            committed_writes.update(t.write_keys)
        elif t.reply_ms is None:
            unknown_writes.update(t.write_keys)
    for key in sorted(written):
        want = committed_writes[key]
        slack = unknown_writes[key]
        states = [(node_id, store.read(key))
                  for node_id, store in adapter.stores_for_key(key)]
        if not slack and len({(r.value, r.version)
                              for _, r in states}) > 1:
            where = ", ".join(f"{n}=v{r.version}" for n, r in states)
            violations.append(f"[replica-divergence] key {key!r}: {where}")
        for node_id, record in states:
            if not want <= record.version <= want + slack:
                violations.append(
                    f"[version-count] key {key!r} at {node_id}: version "
                    f"{record.version}, expected {want} committed writers"
                    + (f" (+{slack} unknown)" if slack else ""))
    return violations
