"""Directory service: where each partition's replicas and leader live.

The paper uses a directory service such as Chubby or ZooKeeper to track
partition locations (§3.3); clients cache the answers and refresh them
infrequently.  Because directory reads are cached and off the critical
path, we model the service as an in-process authority plus a client-side
cache object, rather than spending simulated round trips on lookups.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PartitionInfo:
    """Placement of one partition's consensus group (immutable: the
    replica lists are stored as tuples, and a leader change makes a new
    info)."""

    partition_id: str
    #: Replica node ids in group order.
    replicas: Tuple[str, ...]
    #: Datacenter of each replica, parallel to ``replicas``.
    datacenters: Tuple[str, ...]
    #: Node id of the current consensus group leader.
    leader: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", tuple(self.replicas))
        object.__setattr__(self, "datacenters", tuple(self.datacenters))
        if len(self.replicas) != len(self.datacenters):
            raise ValueError("replicas and datacenters length mismatch")
        if self.leader not in self.replicas:
            raise ValueError(f"leader {self.leader!r} not a replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError("duplicate replica ids")

    @property
    def replication_factor(self) -> int:
        return len(self.replicas)

    @property
    def fault_tolerance(self) -> int:
        """Maximum simultaneous failures tolerated: f where 2f+1 replicas."""
        return (len(self.replicas) - 1) // 2

    def leader_datacenter(self) -> str:
        """Datacenter of the current leader."""
        return self.datacenters[self.replicas.index(self.leader)]

    def replica_in(self, dc: str) -> Optional[str]:
        """The replica located in datacenter ``dc``, if any."""
        for node_id, node_dc in zip(self.replicas, self.datacenters):
            if node_dc == dc:
                return node_id
        return None

    def followers(self) -> List[str]:
        """Replicas other than the leader, in group order.

        Ordering contract: the result preserves ``replicas`` order (the
        registration order of the group), with the leader removed.  Fan-out
        loops over followers therefore iterate in a deterministic order
        that does not depend on hashing or on which node is leader.  A
        leader change only deletes one element; it never permutes the
        rest.  Tests pin this contract (test_followers_order).
        """
        return [r for r in self.replicas if r != self.leader]


class DirectoryService:
    """Authoritative registry of partition placements.

    Supports leader changes (tests exercise Raft elections).  It hands
    out the stored :class:`PartitionInfo` itself: the info is immutable
    and a leader change replaces it, so a cached view never sees
    authority state change under it.
    """

    def __init__(self) -> None:
        self._partitions: Dict[str, PartitionInfo] = {}

    def register(self, info: PartitionInfo) -> None:
        """Register a new partition placement (ids must be unique)."""
        if info.partition_id in self._partitions:
            raise ValueError(f"partition {info.partition_id!r} already "
                             "registered")
        self._partitions[info.partition_id] = info

    def lookup(self, partition_id: str) -> PartitionInfo:
        """The partition's current placement."""
        return self._partitions[partition_id]

    def partitions(self) -> List[str]:
        """All registered partition ids."""
        return list(self._partitions)

    def set_leader(self, partition_id: str, leader: str) -> None:
        """Record a leader change (e.g. after a Raft election)."""
        info = self._partitions[partition_id]
        if leader not in info.replicas:
            raise ValueError(f"{leader!r} is not a replica of "
                             f"{partition_id!r}")
        self._partitions[partition_id] = dataclasses.replace(
            info, leader=leader)

    def leaders_in(self, dc: str) -> List[str]:
        """Partition ids whose leader currently sits in datacenter ``dc``."""
        result = []
        for pid, info in self._partitions.items():
            if info.leader_datacenter() == dc:
                result.append(pid)
        return result


class DirectoryCache:
    """A client-side view of the directory with time-to-live caching.

    Carousel clients cache partition locations and contact the directory
    service only infrequently (§3.3).  The cache returns possibly stale
    :class:`PartitionInfo` until its TTL expires or :meth:`invalidate` is
    called — clients invalidate on retransmission, when a stale leader is
    the likely cause of a stall.
    """

    def __init__(self, authority: DirectoryService, clock,
                 ttl_ms: float = 60_000.0):
        if ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive")
        self.authority = authority
        self.clock = clock  # callable returning current time in ms
        self.ttl_ms = ttl_ms
        self._entries: dict = {}
        self.refreshes = 0
        self.hits = 0

    def lookup(self, partition_id: str) -> PartitionInfo:
        """The partition's placement as of the last refresh."""
        now = self.clock()
        cached = self._entries.get(partition_id)
        if cached is not None and now - cached[0] <= self.ttl_ms:
            self.hits += 1
            return cached[1]
        info = self.authority.lookup(partition_id)
        self._entries[partition_id] = (now, info)
        self.refreshes += 1
        return info

    def invalidate(self, partition_id: Optional[str] = None) -> None:
        """Drop one entry (or all, when ``partition_id`` is None)."""
        if partition_id is None:
            self._entries.clear()
        else:
            self._entries.pop(partition_id, None)

    def partitions(self) -> List[str]:
        """All registered partition ids."""
        return self.authority.partitions()

    def leaders_in(self, dc: str) -> List[str]:
        """Partition ids led from ``dc``, resolved through cached entries
        so a stale view stays coherent."""
        return [pid for pid in self.partitions()
                if self.lookup(pid).leader_datacenter() == dc]
