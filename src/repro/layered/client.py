"""Client library for the layered baseline.

Strictly sequential: the read round completes, the write function runs,
then the client hands the whole transaction to a local coordinator, which
drives 2PC with every state change replicated before the next step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.client import (PHASE_DONE, PHASE_READ, ClientTxn, KeyGroup,
                          TxnClient)
from repro.core.messages import PartitionSets
from repro.layered.messages import (
    LayeredCommitRequest,
    LayeredRead,
    LayeredReadReply,
    LayeredReply,
)
from repro.trace.tracer import SPAN_COMMIT, SPAN_READ
from repro.txn import REASON_CLIENT_ABORT

PHASE_COMMIT = "commit"


@dataclass
class _LayeredTxn(ClientTxn):
    participants: Dict[str, PartitionSets] = field(default_factory=dict)
    coordinator_id: str = ""
    coord_group_id: str = ""


class LayeredClient(TxnClient):
    """An application server using the layered baseline."""

    txn_class = _LayeredTxn
    system = "layered"
    HANDLERS = {
        LayeredReadReply: "_on_read_reply",
        LayeredReply: "_on_reply",
    }
    #: ``read -> done`` is the shell's empty transaction.
    TRANSITIONS = {
        PHASE_READ: (PHASE_COMMIT, PHASE_DONE),
        PHASE_COMMIT: (PHASE_DONE,),
        PHASE_DONE: (),
    }

    def _start(self, txn: _LayeredTxn, groups: List[KeyGroup]) -> None:
        """Read round first, then hand 2PC to a coordinator."""
        for pid, read_keys, write_keys in groups:
            txn.participants[pid] = PartitionSets(read_keys, write_keys)
        self._choose_coordinator(txn)
        if txn.awaiting_reads:
            self._enter_span(txn, SPAN_READ)
            self._send_reads(txn)
        else:
            self._enter_commit(txn)

    def _choose_coordinator(self, txn: _LayeredTxn) -> None:
        local = self.directory.leaders_in(self.dc)
        if local:
            group = local[0]
        else:
            topo = self.network.topology
            group = min(self.directory.partitions(),
                        key=lambda pid: topo.rtt(
                            self.dc,
                            self.directory.lookup(pid)
                            .leader_datacenter()))
        txn.coord_group_id = group
        txn.coordinator_id = self.directory.lookup(group).leader

    def _send_reads(self, txn: _LayeredTxn) -> None:
        for pid in sorted(txn.awaiting_reads):
            sets = txn.participants[pid]
            leader = self.directory.lookup(pid).leader
            self.send(leader, LayeredRead(
                tid=txn.tid, partition_id=pid, keys=sets.read_keys))

    def _enter_commit(self, txn: _LayeredTxn) -> None:
        self._goto(txn, PHASE_COMMIT, SPAN_COMMIT)
        if not self._compute_writes(txn):
            self._complete(txn, False, REASON_CLIENT_ABORT)
            return
        self._send_commit(txn)

    def _send_commit(self, txn: _LayeredTxn) -> None:
        self.send(txn.coordinator_id, LayeredCommitRequest(
            tid=txn.tid, client_id=self.node_id,
            group_id=txn.coord_group_id,
            participants=dict(txn.participants),
            writes=dict(txn.writes),
            read_versions=dict(txn.versions),
            low_water=self.low_water))

    def _resend(self, txn: _LayeredTxn) -> None:
        if txn.phase == PHASE_READ:
            self._send_reads(txn)
        else:
            txn.coordinator_id = self.directory.lookup(
                txn.coord_group_id).leader
            self._send_commit(txn)

    def _on_read_reply(self, msg: LayeredReadReply) -> None:
        txn = self._absorb_read(msg)
        if txn is not None:
            self._enter_commit(txn)

    def _on_reply(self, msg: LayeredReply) -> None:
        txn = self._active.get(msg.tid)
        if txn is not None:
            self._complete(txn, msg.committed, msg.reason)
