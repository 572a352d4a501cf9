"""Crash-restart recovery integration tests.

Power-cycle (``restart``) nemesis events discard ALL in-memory state and
re-instantiate nodes from their WAL images.  Every system must come up
green under restart-weighted schedules, a restarted Raft participant
must converge to the same applied history as its never-crashed peers,
and the planted lost-commit bug (coordinator decision fsync skipped)
must be caught by the durability oracle — and only when planted.
"""

import pytest

from repro.chaos import (
    ChaosOptions,
    planted_lost_commit_bug,
    run_chaos,
)
from repro.raft.node import RaftMember
from repro.sim.failure import FailureInjector
from repro.systems import SYSTEMS
from tests.support import RaftCluster, WalRaftHost

#: Restart-weighted quick options: short runs that still power-cycle.
RESTART_QUICK = ChaosOptions(rounds=12, window_ms=9000.0, n_events=4,
                             drain_ms=7000.0, restart_weight=8,
                             final_restart=True)

#: The CI discriminator for the planted lost-commit bug: heavy enough
#: that a whole coordinator group gets power-cycled mid-writeback (the
#: only window the decision's durability actually matters — see
#: ``repro.chaos.bugs.planted_lost_commit_bug``).  Mirrors the
#: ``chaos-restart`` CI job's inverted run.  Whether one seed's schedule
#: hits that window depends on every DES interleaving, so the check scans
#: a small seed range and requires at least one catch: a rebaseline that
#: shifts interleavings moves *which* seed discriminates, not whether
#: one does.
PLANT_OPTS = ChaosOptions(rounds=40, n_events=10, restart_weight=40,
                          final_restart=True)
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
    assert [(ks, r.tid, r.committed) for ks, r in a.results] == \
        [(ks, r.tid, r.committed) for ks, r in b.results]


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
