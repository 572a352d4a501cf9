"""Shared test helpers: small Raft clusters and message recorders."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.raft.node import RaftConfig, RaftHost, RaftMember
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.topology import Topology, uniform_topology


class ApplyRecorder:
    """Records commands applied by one Raft member, in order."""

    def __init__(self) -> None:
        self.commands: List[Any] = []

    def __call__(self, entry) -> None:
        self.commands.append(entry.command)


class PlainRaftHost(RaftHost):
    """A host whose only job is Raft; app messages are unexpected."""

    def handle_app_message(self, msg) -> None:  # pragma: no cover
        raise AssertionError(f"unexpected app message {msg!r}")


class WalRaftHost(PlainRaftHost):
    """Test host carrying a WAL so ``Node.restart`` works: it restarts
    through :meth:`Node.on_restart`, each re-created member keeping
    the config and apply recorder of the one it replaces."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attach_wal()

    def on_restart(self):
        self._wiped = dict(self.members)
        super().on_restart()

    def add_partition(self, group_id, member_ids):
        old = self._wiped[group_id]
        if isinstance(old.apply_fn, ApplyRecorder):
            old.apply_fn.commands.clear()  # RAM is gone; re-apply rebuilds
        return RaftMember(self, group_id, member_ids, config=old.config,
                          apply_fn=old.apply_fn)


class RaftCluster:
    """An n-member single-group Raft cluster for tests.

    Nodes are named ``n0 .. n{n-1}``; ``n0`` is the bootstrap leader unless
    ``bootstrap`` is ``None`` (in which case the cluster starts leaderless
    and must elect).
    """

    def __init__(self, n: int = 3, seed: int = 1,
                 rtt_ms: float = 10.0,
                 config: Optional[RaftConfig] = None,
                 bootstrap: Optional[str] = "n0",
                 topology: Optional[Topology] = None,
                 jitter_fraction: float = 0.0):
        self.kernel = Kernel(seed=seed)
        topo = topology or uniform_topology(n, rtt_ms)
        self.network = Network(self.kernel, topo,
                               jitter_fraction=jitter_fraction)
        self.config = config or RaftConfig(
            election_timeout_min_ms=150.0,
            election_timeout_max_ms=300.0,
            heartbeat_interval_ms=40.0,
        )
        member_ids = [f"n{i}" for i in range(n)]
        self.hosts: Dict[str, PlainRaftHost] = {}
        self.members: Dict[str, RaftMember] = {}
        self.applied: Dict[str, ApplyRecorder] = {}
        self.leadership_events: List[tuple] = []
        for i, node_id in enumerate(member_ids):
            dc = topo.datacenters[i % len(topo.datacenters)]
            host = PlainRaftHost(node_id, dc, self.kernel, self.network)
            recorder = ApplyRecorder()
            member = RaftMember(
                host, "g0", member_ids, config=self.config,
                apply_fn=recorder,
                on_leadership=self._record_leadership,
                bootstrap_leader=bootstrap,
            )
            self.hosts[node_id] = host
            self.members[node_id] = member
            self.applied[node_id] = recorder

    def _record_leadership(self, member: RaftMember,
                           payloads: Dict[str, Any]) -> None:
        self.leadership_events.append(
            (self.kernel.now, member.node_id, member.current_term, payloads))

    def start(self) -> None:
        for host in self.hosts.values():
            host.start_raft()

    def run(self, ms: float) -> None:
        self.kernel.run(until=self.kernel.now + ms)

    def leader(self) -> Optional[RaftMember]:
        """The unique live leader with the highest term, if any."""
        leaders = [m for m in self.members.values()
                   if m.is_leader and not m.host.crashed]
        if not leaders:
            return None
        return max(leaders, key=lambda m: m.current_term)

    def live_members(self) -> List[RaftMember]:
        return [m for m in self.members.values() if not m.host.crashed]
