"""Deployment builders reproducing the paper's experimental setups (§6.1).

The EC2 deployment: 5 partitions, replication factor 3, 15 servers spread
over 5 datacenters so that each datacenter holds at most one replica per
partition and exactly one partition leader.  Partition ``p<i>`` places its
replicas in datacenters ``i, i+1, ..., i+rf-1`` (mod the datacenter count),
with the leader in datacenter ``i`` — which yields the paper's "one leader
per datacenter" property when partitions equal datacenters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.backoff import DEFAULT_RETRY
from repro.core.client import CarouselClient
from repro.core.config import CarouselConfig
from repro.core.server import CarouselServer
from repro.runtime.des import DesRuntime
from repro.sim.topology import Topology, ec2_five_regions
from repro.store.directory import DirectoryService, PartitionInfo
from repro.store.partitioning import ConsistentHashRing


@dataclass
class DeploymentSpec:
    """Shape of a deployment, defaulting to the paper's EC2 setup.

    ``dedicated_coordinator_groups`` adds one data-less consensus group
    per datacenter that exists only to coordinate transactions (§3.3:
    "it is also possible for Carousel to intentionally create consensus
    groups that are not CDSs to serve as coordinators").

    ``consolidate_servers`` hosts all of a datacenter's partition replicas
    on a single server instead of one server per replica (§3.3: "a CDS
    stores and manages one or more partitions").
    """

    topology: Optional[Topology] = None
    n_partitions: int = 5
    replication_factor: int = 3
    seed: int = 0
    jitter_fraction: float = 0.02
    server_service_time_ms: float = 0.0
    clients_per_dc: int = 1
    dedicated_coordinator_groups: bool = False
    consolidate_servers: bool = False

    def __post_init__(self) -> None:
        if self.topology is None:
            self.topology = ec2_five_regions()
        if self.replication_factor % 2 == 0:
            raise ValueError("replication factor must be odd (2f+1)")
        if self.replication_factor > len(self.topology.datacenters):
            raise ValueError("not enough datacenters for one replica per "
                             "datacenter")
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")

    @property
    def n_clients(self) -> int:
        """Workload clients the deployment builds: ``clients_per_dc`` in
        every datacenter."""
        return len(self.topology.datacenters) * self.clients_per_dc


class _BaseCluster:
    """Common plumbing for Carousel, layered and TAPIR deployments.

    ``runtime`` selects the execution backend (:mod:`repro.runtime`).
    ``None`` builds the discrete-event runtime exactly as this module
    always has — same kernel, same network, same RNG stream.  Passing an
    :class:`~repro.runtime.aio.AioRuntime` builds only the nodes this
    process hosts (the transport's ``claim`` decides placement) against
    real sockets; the runtime's topology must match ``spec.topology``.
    """

    def __init__(self, spec: DeploymentSpec, runtime=None):
        self.spec = spec
        if runtime is None:
            runtime = DesRuntime(seed=spec.seed, topology=spec.topology,
                                 jitter_fraction=spec.jitter_fraction)
        self.runtime = runtime
        self.kernel = runtime.kernel
        self.network = runtime.network
        self.topology = self.network.topology
        self.directory = DirectoryService()
        self.partition_ids = [f"p{i}" for i in range(spec.n_partitions)]
        self.ring = ConsistentHashRing(self.partition_ids)
        #: Server nodes this process hosts, by node id; each subclass
        #: exposes it under its own name (``servers`` / ``replicas``).
        self._nodes: Dict[str, Any] = {}
        self.clients: List[Any] = []
        self._clients_by_dc: Dict[str, List[Any]] = {}

    def placement(self, partition_index: int) -> List[str]:
        """Datacenters hosting ``p<partition_index>``; the first is the
        leader's."""
        dcs = self.topology.datacenters
        return [dcs[(partition_index + j) % len(dcs)]
                for j in range(self.spec.replication_factor)]

    def _build_clients(self, make_client) -> None:
        """``clients_per_dc`` clients in every datacenter, built by
        ``make_client(client_id, dc)`` when this process hosts them."""
        for dc in self.topology.datacenters:
            per_dc = []
            for i in range(self.spec.clients_per_dc):
                client_id = f"client-{dc}-{i}"
                if not self.network.claim(client_id, "client", dc):
                    continue
                client = make_client(client_id, dc)
                per_dc.append(client)
                self.clients.append(client)
            self._clients_by_dc[dc] = per_dc

    def _start_raft(self) -> None:
        # Ordered: _nodes insertion order is construction order (per-dc,
        # per-index), so the election-timeout RNG draws are deterministic.
        for server in self._nodes.values():
            server.start_raft()

    def run(self, ms: float) -> None:
        """Advance the simulation by ``ms`` virtual milliseconds."""
        self.kernel.run(until=self.kernel.now + ms)

    def op_counters(self) -> Dict[str, int]:
        """Deterministic work counters of this process: the kernel's
        event counters plus the transport's message counters.  Under the
        DES they are host-independent, so figure reports, runs and
        :mod:`repro.perf` compare them exactly across machines."""
        ops = self.kernel.op_counters()
        ops["messages_sent"] = self.network.messages_sent
        ops["messages_delivered"] = self.network.messages_delivered
        ops["messages_dropped"] = self.network.messages_dropped
        return ops

    def client(self, dc: str, index: int = 0):
        return self._clients_by_dc[dc][index]

    def client_dcs(self) -> List[str]:
        return list(self.topology.datacenters)

    def leader_of(self, pid: str):
        """The server currently leading partition ``pid``."""
        return self._nodes[self.directory.lookup(pid).leader]

    def replicas_of(self, pid: str) -> List[Any]:
        """Servers hosting replicas of partition ``pid``, group order."""
        return [self._nodes[r]
                for r in self.directory.lookup(pid).replicas]

    def stores_of(self, pid: str) -> List[Any]:
        """The versioned stores of every replica of ``pid``."""
        return [server.partitions[pid].store
                for server in self.replicas_of(pid)]

    def populate(self, items: Dict[str, Any]) -> None:
        """Load initial data directly into every replica (version 1),
        bypassing the protocol — the standard benchmark loading shortcut."""
        for key, value in items.items():
            for store in self.stores_of(self.ring.partition_for(key)):
                store.write(key, value, 1)


class CarouselCluster(_BaseCluster):
    """A ready-to-run Carousel deployment (servers + clients + directory)."""

    def __init__(self, spec: Optional[DeploymentSpec] = None,
                 config: Optional[CarouselConfig] = None,
                 result_hook=None, runtime=None):
        super().__init__(spec or DeploymentSpec(), runtime=runtime)
        self.config = config or CarouselConfig()
        self.servers: Dict[str, CarouselServer] = self._nodes
        self._build_servers()
        self._build_clients(lambda client_id, dc: CarouselClient(
            client_id, dc, self.kernel, self.network, self.directory,
            self.ring, self.config, result_hook=result_hook))
        self._start_raft()

    def _server_id(self, dc: str, slot: int) -> str:
        return f"cds-{dc}-{slot}"

    def _build_servers(self) -> None:
        # One server per partition replica, as in the paper's deployment —
        # or one server per datacenter with ``consolidate_servers``.
        slots: Dict[str, int] = {dc: 0 for dc in self.topology.datacenters}
        replica_ids: Dict[str, List[str]] = {}
        groups = [(pid, self.placement(i))
                  for i, pid in enumerate(self.partition_ids)]
        if self.spec.dedicated_coordinator_groups:
            # One data-less coordinating group led from each datacenter.
            dcs = self.topology.datacenters
            for i, dc in enumerate(dcs):
                placement = [dcs[(i + j) % len(dcs)]
                             for j in range(self.spec.replication_factor)]
                groups.append((f"coord-{dc}", placement))
        for pid, placement in groups:
            ids = []
            for dc in placement:
                if self.spec.consolidate_servers:
                    server_id = self._server_id(dc, 0)
                else:
                    server_id = self._server_id(dc, slots[dc])
                    slots[dc] += 1
                if server_id not in self.servers and \
                        self.network.claim(server_id, "server", dc):
                    self.servers[server_id] = CarouselServer(
                        server_id, dc, self.kernel, self.network,
                        self.directory, self.config,
                        service_time_ms=self.spec.server_service_time_ms)
                ids.append(server_id)
            replica_ids[pid] = ids
            self.directory.register(PartitionInfo(
                partition_id=pid, replicas=ids,
                datacenters=list(placement), leader=ids[0]))
        for pid, __ in groups:
            for server_id in replica_ids[pid]:
                if server_id in self.servers:
                    self.servers[server_id].add_partition(
                        pid, replica_ids[pid],
                        bootstrap_leader=replica_ids[pid][0])


class LayeredCluster(_BaseCluster):
    """A deployment of the layered (sequential 2PC over consensus)
    baseline over the same placement as Carousel (see
    :mod:`repro.layered`)."""

    def __init__(self, spec: Optional[DeploymentSpec] = None,
                 raft_config=None, retry_policy=DEFAULT_RETRY,
                 result_hook=None, runtime=None):
        from repro.layered.client import LayeredClient
        from repro.layered.server import LayeredServer

        super().__init__(spec or DeploymentSpec(), runtime=runtime)
        self.retry_policy = retry_policy
        self.servers: Dict[str, LayeredServer] = self._nodes
        slots: Dict[str, int] = {dc: 0 for dc in self.topology.datacenters}
        replica_ids: Dict[str, List[str]] = {}
        for i, pid in enumerate(self.partition_ids):
            ids, dcs = [], []
            for dc in self.placement(i):
                server_id = f"lds-{dc}-{slots[dc]}"
                slots[dc] += 1
                if server_id not in self.servers and \
                        self.network.claim(server_id, "server", dc):
                    self.servers[server_id] = LayeredServer(
                        server_id, dc, self.kernel, self.network,
                        self.directory, raft_config=raft_config,
                        retry_policy=retry_policy,
                        service_time_ms=self.spec.server_service_time_ms)
                ids.append(server_id)
                dcs.append(dc)
            replica_ids[pid] = ids
            self.directory.register(PartitionInfo(
                partition_id=pid, replicas=ids, datacenters=dcs,
                leader=ids[0]))
        for pid in self.partition_ids:
            for server_id in replica_ids[pid]:
                if server_id in self.servers:
                    self.servers[server_id].add_partition(
                        pid, replica_ids[pid],
                        bootstrap_leader=replica_ids[pid][0])
        self._build_clients(lambda client_id, dc: LayeredClient(
            client_id, dc, self.kernel, self.network, self.directory,
            self.ring, retry_policy, result_hook=result_hook))
        self._start_raft()


class TapirCluster(_BaseCluster):
    """A TAPIR deployment over the same placement (built lazily to avoid a
    circular import; see :mod:`repro.tapir`)."""

    def __init__(self, spec: Optional[DeploymentSpec] = None,
                 config=None, result_hook=None, runtime=None):
        from repro.tapir.config import TapirConfig
        from repro.tapir.replica import TapirReplica
        from repro.tapir.client import TapirClient

        super().__init__(spec or DeploymentSpec(), runtime=runtime)
        self.config = config or TapirConfig()
        self.replicas: Dict[str, TapirReplica] = self._nodes
        for i, pid in enumerate(self.partition_ids):
            ids, dcs = [], []
            for j, dc in enumerate(self.placement(i)):
                replica_id = f"tapir-{pid}-{j}"
                ids.append(replica_id)
                dcs.append(dc)
            self.directory.register(PartitionInfo(
                partition_id=pid, replicas=ids, datacenters=dcs,
                leader=ids[0]))
            for replica_id, dc in zip(ids, dcs):
                if not self.network.claim(replica_id, "server", dc):
                    continue
                self.replicas[replica_id] = TapirReplica(
                    replica_id, dc, self.kernel, self.network,
                    pid, ids, self.config,
                    service_time_ms=self.spec.server_service_time_ms)
        self._build_clients(lambda client_id, dc: TapirClient(
            client_id, dc, self.kernel, self.network, self.directory,
            self.ring, self.config, result_hook=result_hook))

    def stores_of(self, pid: str) -> List[Any]:
        """A TAPIR replica is one partition: its store is the node's."""
        return [replica.store for replica in self.replicas_of(pid)]
