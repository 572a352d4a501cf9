"""The Carousel data server (CDS).

A CDS hosts replicas of one or more partitions (each a Raft group member
plus a :class:`~repro.core.participant.PartitionComponent`) and a
:class:`~repro.core.coordinator.CoordinatorComponent` for transactions that
choose one of its led groups as their coordinating consensus group (§3.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import CarouselConfig
from repro.core.coordinator import CoordinatorComponent
from repro.core.messages import (
    ClientHeartbeat,
    CommitRequest,
    CoordPrepareRequest,
    FastVote,
    PrepareQuery,
    PrepareResult,
    ReadOnlyRequest,
    ReadPrepareRequest,
    Writeback,
    WritebackAck,
)
from repro.core.participant import PartitionComponent
from repro.raft.node import RaftHost, RaftMember
from repro.store.directory import DirectoryService
from repro.store.kvstore import VersionedKVStore
from repro.wal.records import DecisionJournal


class CarouselServer(RaftHost):
    """One Carousel data server."""

    #: Messages addressed to a partition replica: run by the
    #: :class:`PartitionComponent` of ``msg.partition_id``.
    PARTITION_HANDLERS = {
        ReadPrepareRequest: "on_read_prepare",
        ReadOnlyRequest: "on_read_only",
        Writeback: "on_writeback",
        PrepareQuery: "on_prepare_query",
    }
    #: Messages addressed to the transaction coordinator.
    COORDINATOR_HANDLERS = {
        CoordPrepareRequest: "on_coord_prepare",
        CommitRequest: "on_commit_request",
        FastVote: "on_fast_vote",
        PrepareResult: "on_prepare_result",
        ClientHeartbeat: "on_heartbeat",
        WritebackAck: "on_writeback_ack",
    }

    def __init__(self, node_id: str, dc: str, kernel, network,
                 directory: DirectoryService, config: CarouselConfig,
                 service_time_ms: float = 0.0):
        super().__init__(node_id, dc, kernel, network,
                         service_time_ms=service_time_ms)
        self.directory = directory
        self.config = config
        self.attach_wal()
        self._reset_roles()

    def _reset_roles(self) -> None:
        self.partitions: Dict[str, PartitionComponent] = {}
        self.coordinator = CoordinatorComponent(self)
        self._bind(
            (dict.fromkeys([*self.PARTITION_HANDLERS,
                            *PartitionComponent.RECORDS], "_to_partition"),
             self),
            (self.COORDINATOR_HANDLERS, self.coordinator),
            (CoordinatorComponent.RECORDS, self.coordinator),
            (DecisionJournal.RECORDS, self.coordinator.journal))
        super()._reset_roles()

    def durable_roles(self):
        """Each partition's replica, then the coordinator's journal."""
        return [*self.partitions.values(), self.coordinator.journal]

    def service_time_for(self, msg) -> float:
        """CPU cost: base plus the modeled pending-list scan (see DESIGN.md)."""
        if self.service_time_ms > 0 and \
                isinstance(msg, ReadPrepareRequest):
            component = self.partitions.get(msg.partition_id)
            if component is not None:
                return (self.service_time_ms
                        + component.pending.scan_cost_ms())
        return self.service_time_ms

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def add_partition(self, partition_id: str, member_ids: List[str],
                      bootstrap_leader: Optional[str] = None,
                      store: Optional[VersionedKVStore] = None
                      ) -> PartitionComponent:
        """Host a replica of ``partition_id`` whose consensus group spans
        ``member_ids`` (server node ids)."""
        component = PartitionComponent(self, partition_id, store=store)
        member = RaftMember(
            self, partition_id, member_ids,
            config=self.config.raft,
            apply_fn=lambda entry, pid=partition_id: self._apply(pid, entry),
            vote_payload_fn=component.vote_payload,
            on_leadership=lambda member, payloads, pid=partition_id:
                self._on_leadership(pid, member, payloads),
            bootstrap_leader=bootstrap_leader,
        )
        component.attach_member(member)
        self.partitions[partition_id] = component
        return component

    # ------------------------------------------------------------------
    # Raft plumbing
    # ------------------------------------------------------------------
    def _on_leadership(self, group_id: str, member: RaftMember,
                       vote_payloads) -> None:
        self.partitions[group_id].on_leadership(member, vote_payloads)
        self.coordinator.on_leadership(group_id)
