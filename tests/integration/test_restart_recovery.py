"""Crash-restart recovery integration tests.

Power-cycle (``restart``) nemesis events discard ALL in-memory state and
re-instantiate nodes from their WAL images.  Every system must come up
green under restart-weighted schedules, a restarted Raft participant
must converge to the same applied history as its never-crashed peers,
and the planted lost-commit bug (coordinator decision fsync skipped)
must be caught by the durability oracle — and only when planted.
"""

import pytest

from repro.chaos import planted_lost_commit_bug
from repro.chaos.runner import ChaosOptions, run_chaos
from repro.core.config import CarouselConfig
from repro.core.server import CarouselServer
from repro.layered.server import LayeredServer
from repro.raft.node import RaftConfig, RaftMember
from repro.sim.failure import FailureInjector
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.topology import uniform_topology
from repro.store.directory import DirectoryService, PartitionInfo
from repro.systems import SYSTEMS
from tests.support import RaftCluster, WalRaftHost

#: Restart-weighted quick options: short runs that still power-cycle.
RESTART_QUICK = ChaosOptions(rounds=12, window_ms=9000.0, n_events=4,
                             drain_ms=7000.0, restart_weight=8)

#: The CI discriminator for the planted lost-commit bug: heavy enough
#: that a whole coordinator group gets power-cycled mid-writeback (the
#: only window the decision's durability actually matters — see
#: ``repro.chaos.bugs.planted_lost_commit_bug``).  Mirrors the
#: ``chaos-restart`` CI job's inverted run.  Whether one seed's schedule
#: hits that window depends on every DES interleaving, so the check scans
#: a small seed range and requires at least one catch: a rebaseline that
#: shifts interleavings moves *which* seed discriminates, not whether
#: one does.
PLANT_OPTS = ChaosOptions(rounds=40, n_events=10, restart_weight=40)
PLANT_SYSTEM = "carousel-fast"
PLANT_SEEDS = range(30, 46)


@pytest.mark.parametrize("system", SYSTEMS)
def test_restart_weighted_green_on_every_system(system):
    result = run_chaos(system, seed=0, opts=RESTART_QUICK)
    assert result.ok, [str(v) for v in result.violations]
    # The schedule actually power-cycled someone, and the final
    # whole-cluster restart ran the durability oracle on top.
    assert sum(n for __, n in result.restart_counts) > 0


def test_restart_weighted_run_is_deterministic():
    a = run_chaos("carousel-fast", seed=0, opts=RESTART_QUICK)
    b = run_chaos("carousel-fast", seed=0, opts=RESTART_QUICK)
    assert a.schedule == b.schedule
    assert a.committed == b.committed and a.aborted == b.aborted
    assert a.restart_counts == b.restart_counts
    assert a.nemesis_log == b.nemesis_log
    assert [(ks, r.tid, r.committed) for ks, r in a.history] == \
        [(ks, r.tid, r.committed) for ks, r in b.history]


def test_restart_weight_zero_keeps_legacy_timelines():
    legacy = ChaosOptions(rounds=12, window_ms=9000.0, n_events=4,
                          drain_ms=7000.0)
    weighted = run_chaos("carousel-fast", seed=1, opts=RESTART_QUICK)
    baseline = run_chaos("carousel-fast", seed=1, opts=legacy)
    # Weight 0 is the compatibility contract; weight > 0 may diverge.
    rerun = run_chaos("carousel-fast", seed=1, opts=legacy)
    assert baseline.schedule == rerun.schedule
    assert [e.kind for e in weighted.schedule] != \
        [e.kind for e in baseline.schedule] or \
        weighted.schedule == baseline.schedule


# ----------------------------------------------------------------------
# Raft-level restart: a power-cycled member rebuilt from its WAL image
# must converge to the same applied history as never-crashed peers.
# ----------------------------------------------------------------------


class WalRaftCluster(RaftCluster):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # Swap the plain hosts for WAL-carrying ones.
        for node_id in list(self.hosts):
            old = self.hosts[node_id]
            self.network.nodes.pop(node_id)
            host = WalRaftHost(node_id, old.dc, self.kernel, self.network)
            member = old.members["g0"]
            recorder = self.applied[node_id]
            self.members[node_id] = RaftMember(
                host, "g0", list(member.member_ids), config=self.config,
                apply_fn=recorder, bootstrap_leader=member.bootstrap_leader)
            self.hosts[node_id] = host


def test_restarted_follower_converges_to_leader_history():
    cluster = WalRaftCluster(n=3, seed=7)
    injector = FailureInjector(cluster.kernel, cluster.network)
    cluster.start()
    for i in range(4):
        cluster.kernel.schedule_at(
            100.0 + i * 50.0,
            lambda i=i: cluster.members["n0"].propose(f"cmd-{i}"))
    injector.crash_at("n2", 180.0)
    injector.restart_at("n2", 400.0)
    cluster.run(2500.0)
    assert cluster.hosts["n2"].restarts == 1
    applied_leader = cluster.applied["n0"].commands
    applied_restarted = cluster.applied["n2"].commands
    assert applied_leader == [f"cmd-{i}" for i in range(4)]
    # The digest-equivalence contract: a crash+restart through a
    # fault-free WAL is indistinguishable from never crashing.
    assert applied_restarted == applied_leader


def test_term_start_barrier_gates_new_leaders():
    cluster = WalRaftCluster(n=3, seed=9)
    cluster.start()
    leader = cluster.members["n0"]
    # Bootstrap leadership is immediate, but the serving barrier waits
    # for the term's no-op to commit and apply.
    assert leader.is_leader and not leader.term_start_applied
    fired = []
    leader.when_term_start_applied(lambda: fired.append(cluster.kernel.now))
    assert fired == []
    cluster.run(1000.0)
    assert leader.term_start_applied
    assert len(fired) == 1
    # Once applied, registration fires synchronously.
    leader.when_term_start_applied(lambda: fired.append("sync"))
    assert fired[-1] == "sync"


# ----------------------------------------------------------------------
# The one restart skeleton (RaftHost.on_restart) re-creates a server's
# groups from the member ids its members held: a host of two groups must
# come back with both, in the pre-crash order, over the pre-crash member
# lists, with Raft persistent state restored from the WAL image.
# ----------------------------------------------------------------------

_RAFT = RaftConfig(election_timeout_min_ms=150.0,
                   election_timeout_max_ms=300.0,
                   heartbeat_interval_ms=40.0)


def _carousel_server(node_id, dc, kernel, network, directory):
    return CarouselServer(node_id, dc, kernel, network, directory,
                          CarouselConfig(raft=_RAFT))


def _layered_server(node_id, dc, kernel, network, directory):
    return LayeredServer(node_id, dc, kernel, network, directory,
                         raft_config=_RAFT)


@pytest.mark.parametrize("make_server", [_carousel_server, _layered_server],
                         ids=["carousel", "layered"])
def test_restart_rebuilds_every_hosted_group_in_order(make_server):
    kernel = Kernel(seed=3)
    topology = uniform_topology(3, 10.0)
    network = Network(kernel, topology, jitter_fraction=0.0)
    directory = DirectoryService()
    ids = ["s0", "s1", "s2"]
    dc_of = dict(zip(ids, topology.datacenters))
    servers = {sid: make_server(sid, dc_of[sid], kernel, network, directory)
               for sid in ids}
    # Two groups over the same three hosts, with different member orders.
    groups = {"g1": ["s1", "s2", "s0"], "g0": ["s0", "s1", "s2"]}
    for gid, members in groups.items():
        directory.register(PartitionInfo(
            gid, list(members), [dc_of[m] for m in members], members[0]))
        for sid in members:
            servers[sid].add_partition(gid, members,
                                       bootstrap_leader=members[0])
    for server in servers.values():
        server.start_raft()
    kernel.run(until=500.0)

    victim = servers["s1"]                 # leads g1, follows in g0
    wiped = dict(victim.members)
    terms = {gid: m.current_term for gid, m in wiped.items()}
    logs = {gid: m.log.last_index for gid, m in wiped.items()}
    assert terms["g1"] >= 1 and logs["g1"] >= 1
    victim.restart()

    assert list(victim.members) == list(groups)          # pre-crash order
    assert list(victim.partitions) == list(groups)
    for gid, member in victim.members.items():
        assert member is not wiped[gid]                  # rebuilt fresh
        assert member.member_ids == groups[gid]
        assert member.bootstrap_leader is None           # rejoins following
        assert not member.is_leader
        assert member.current_term == terms[gid]         # from the WAL
        assert member.log.last_index == logs[gid]
        assert victim.partitions[gid].member is member
    # A second power cycle finds the same shape to rebuild from.
    victim.restart()
    assert {gid: m.member_ids for gid, m in victim.members.items()} == groups
    kernel.run(until=3000.0)
    for gid in groups:
        leaders = [s.node_id for s in servers.values()
                   if s.members[gid].is_leader]
        assert len(leaders) == 1
        assert directory.lookup(gid).leader == leaders[0]


# ----------------------------------------------------------------------
# Planted lost-commit bug: skipping the coordinator decision fsync must
# trip the durability oracle — and only when planted.
# ----------------------------------------------------------------------


def test_planted_lost_commit_is_caught_by_durability_oracle():
    caught = [
        seed for seed in PLANT_SEEDS
        if "durability-lost-commit" in {
            v.oracle for v in run_chaos(
                PLANT_SYSTEM, seed=seed, opts=PLANT_OPTS,
                planted_bug=planted_lost_commit_bug).violations}]
    assert caught, f"no seed in {PLANT_SEEDS} catches the planted bug"


def test_unplanted_discriminator_seeds_are_green():
    for seed in PLANT_SEEDS:
        clean = run_chaos(PLANT_SYSTEM, seed=seed, opts=PLANT_OPTS)
        assert clean.ok, (seed, [str(v) for v in clean.violations])


def test_planted_lost_commit_restores_handler_on_exit():
    from repro.core.coordinator import CoordinatorComponent
    original = CoordinatorComponent._persist_decision
    with planted_lost_commit_bug():
        assert CoordinatorComponent._persist_decision is not original
    assert CoordinatorComponent._persist_decision is original
