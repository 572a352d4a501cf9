"""Unit and small-cluster tests for the Raft implementation."""

import pytest

from repro.raft.node import FOLLOWER, LEADER, RaftConfig, RaftNoop
from repro.sim.network import LinkFaults
from tests.support import RaftCluster


class TestConfigValidation:
    def test_defaults_valid(self):
        RaftConfig()

    def test_bad_timeouts(self):
        with pytest.raises(ValueError):
            RaftConfig(election_timeout_min_ms=0)
        with pytest.raises(ValueError):
            RaftConfig(election_timeout_min_ms=100,
                       election_timeout_max_ms=50)
        with pytest.raises(ValueError):
            RaftConfig(heartbeat_interval_ms=5000)


class TestBootstrap:
    def test_bootstrap_leader_assumes_leadership(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(100)
        leader = cluster.leader()
        assert leader is not None and leader.node_id == "n0"
        assert leader.current_term == 1

    def test_followers_learn_leader_via_heartbeat(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(100)
        for node_id in ("n1", "n2"):
            member = cluster.members[node_id]
            assert member.state == FOLLOWER
            assert member.leader_id == "n0"
            assert member.current_term == 1

    def test_no_election_while_leader_heartbeats(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(5000)
        assert all(m.elections_started == 0
                   for m in cluster.members.values())

    def test_leaderless_start_elects_exactly_one_leader(self):
        cluster = RaftCluster(n=3, bootstrap=None, seed=7)
        cluster.start()
        cluster.run(2000)
        leaders = [m for m in cluster.members.values() if m.is_leader]
        assert len(leaders) == 1


class TestReplication:
    def test_propose_commits_on_all_members(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(50)
        leader = cluster.leader()
        committed = []
        leader.propose("write-x", on_committed=committed.append)
        cluster.run(200)
        assert len(committed) == 1
        assert committed[0].command == "write-x"
        for recorder in cluster.applied.values():
            assert "write-x" in recorder.commands

    def test_commit_requires_one_round_trip(self):
        cluster = RaftCluster(n=3, rtt_ms=10.0)
        cluster.start()
        cluster.run(50)
        leader = cluster.leader()
        start = cluster.kernel.now
        done = []
        leader.propose("cmd", on_committed=lambda e: done.append(
            cluster.kernel.now - start))
        cluster.run(100)
        # One WAN round trip (10 ms); allow small scheduling slack.
        assert done and done[0] == pytest.approx(10.0, abs=1.0)

    def test_propose_on_follower_returns_none(self):
        cluster = RaftCluster(n=3)
        cluster.start()
        cluster.run(50)
        assert cluster.members["n1"].propose("nope") is None

    def test_commands_apply_in_order_everywhere(self):
        cluster = RaftCluster(n=5)
        cluster.start()
        cluster.run(50)
        leader = cluster.leader()
        for i in range(10):
            leader.propose(f"cmd{i}")
        cluster.run(500)
        expected = [f"cmd{i}" for i in range(10)]
        for recorder in cluster.applied.values():
            assert recorder.commands == expected

    def test_commit_with_minority_crashed(self):
        cluster = RaftCluster(n=5)
        cluster.start()
        cluster.run(50)
        cluster.hosts["n3"].crash()
        cluster.hosts["n4"].crash()
        committed = []
        cluster.leader().propose("still-works",
                                 on_committed=committed.append)
        cluster.run(200)
        assert committed

    def test_no_commit_without_majority(self):
        cluster = RaftCluster(n=5)
        cluster.start()
        cluster.run(50)
        for node_id in ("n2", "n3", "n4"):
            cluster.hosts[node_id].crash()
        committed = []
        cluster.leader().propose("stuck", on_committed=committed.append)
        cluster.run(1000)
        assert committed == []

    def test_single_member_group_commits_instantly(self):
        cluster = RaftCluster(n=1)
        cluster.start()
        cluster.run(10)
        committed = []
        cluster.leader().propose("solo", on_committed=committed.append)
        cluster.run(10)
        assert committed


class TestElectionsAndFailover:
    def test_new_leader_elected_after_crash(self):
        cluster = RaftCluster(n=3, seed=3)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        leader = cluster.leader()
        assert leader is not None
        assert leader.node_id != "n0"
        assert leader.current_term > 1

    def test_committed_entries_survive_failover(self):
        cluster = RaftCluster(n=3, seed=5)
        cluster.start()
        cluster.run(100)
        committed = []
        cluster.leader().propose("durable", on_committed=committed.append)
        cluster.run(200)
        assert committed
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        new_leader = cluster.leader()
        assert new_leader is not None
        new_committed = []
        new_leader.propose("after-failover",
                           on_committed=new_committed.append)
        cluster.run(500)
        assert new_committed
        for member in cluster.live_members():
            commands = cluster.applied[member.node_id].commands
            assert commands.index("durable") < \
                commands.index("after-failover")

    def test_noop_committed_by_new_leader(self):
        cluster = RaftCluster(n=3, seed=5)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        leader = cluster.leader()
        noops = [e for e in leader.log.all_entries()
                 if isinstance(e.command, RaftNoop)]
        assert noops
        assert leader.commit_index >= noops[-1].index

    def test_vote_payloads_delivered_to_new_leader(self):
        payloads = {}

        cluster = RaftCluster(n=3, seed=9)
        for node_id, member in cluster.members.items():
            member.vote_payload_fn = lambda nid=node_id: f"pending-{nid}"
        cluster.start()
        cluster.run(100)
        cluster.leadership_events.clear()
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        assert cluster.leadership_events
        __, winner, __, vote_payloads = cluster.leadership_events[-1]
        # Winner's own payload plus at least one voter's payload.
        assert vote_payloads[winner] == f"pending-{winner}"
        assert len(vote_payloads) >= 2
        for voter, payload in vote_payloads.items():
            assert payload == f"pending-{voter}"

    def test_old_leader_steps_down_on_higher_term(self):
        cluster = RaftCluster(n=3, seed=11)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n0"].crash()
        cluster.run(3000)
        cluster.hosts["n0"].recover()
        cluster.run(2000)
        n0 = cluster.members["n0"]
        assert n0.state == FOLLOWER
        assert n0.current_term >= 2

    def test_recovered_node_catches_up_log(self):
        cluster = RaftCluster(n=3, seed=13)
        cluster.start()
        cluster.run(100)
        cluster.hosts["n2"].crash()
        for i in range(5):
            cluster.leader().propose(f"missed-{i}")
        cluster.run(500)
        cluster.hosts["n2"].recover()
        cluster.run(2000)
        commands = cluster.applied["n2"].commands
        for i in range(5):
            assert f"missed-{i}" in commands

    def test_at_most_one_leader_per_term(self):
        # Run a churny scenario and assert election safety throughout.
        cluster = RaftCluster(n=5, bootstrap=None, seed=17)
        cluster.start()
        cluster.run(2000)
        cluster.hosts["n0"].crash()
        cluster.run(2000)
        cluster.hosts["n0"].recover()
        cluster.hosts["n1"].crash()
        cluster.run(2000)
        terms_seen = {}
        for at, node_id, term, __ in cluster.leadership_events:
            assert terms_seen.setdefault(term, node_id) == node_id, \
                f"two leaders in term {term}"

    def test_partition_minority_leader_cannot_commit(self):
        cluster = RaftCluster(n=3, seed=19)
        cluster.start()
        cluster.run(100)
        # Cut the leader off from both followers.
        cluster.network.partition("n0", "n1")
        cluster.network.partition("n0", "n2")
        committed = []
        cluster.members["n0"].propose("isolated",
                                      on_committed=committed.append)
        cluster.run(3000)
        assert committed == []
        # Majority side elected its own leader.
        majority_leader = [m for m in (cluster.members["n1"],
                                       cluster.members["n2"])
                           if m.is_leader]
        assert majority_leader

    def test_log_divergence_repaired_after_heal(self):
        cluster = RaftCluster(n=3, seed=23)
        cluster.start()
        cluster.run(100)
        cluster.network.partition("n0", "n1")
        cluster.network.partition("n0", "n2")
        cluster.members["n0"].propose("orphan")  # will be overwritten
        cluster.run(3000)
        new_leader = cluster.leader()
        assert new_leader.node_id != "n0"
        committed = []
        new_leader.propose("winner", on_committed=committed.append)
        cluster.run(500)
        assert committed
        cluster.network.heal_all()
        cluster.run(3000)
        n0_commands = cluster.applied["n0"].commands
        assert "winner" in n0_commands
        assert "orphan" not in n0_commands


class TestOrderedLinksKeepRaftQuiet:
    """On ordered links back-to-back AppendEntries never overtake each
    other, so the follower's consistency check never fails and the
    leader never resends its unacknowledged window; reordering — and the
    repair path — is reached only through an installed link fault."""

    N_PROPOSES = 500
    GAP_MS = 0.01  # far inside the 2 % jitter of a 5 ms one-way delay
    START_MS = 500.0
    END_MS = 1100.0

    def _burst(self, faults=None):
        cluster = RaftCluster(n=3, seed=11, jitter_fraction=0.02,
                              config=RaftConfig())
        if faults is not None:
            cluster.network.set_link_faults("n0", "n1", faults,
                                            bidirectional=False)
        appends = []
        cluster.network.trace_hook = lambda msg, delay: appends.append(
            cluster.kernel.now) if msg.type_name == "AppendEntries" else None
        cluster.start()
        leader = cluster.members["n0"]
        for i in range(self.N_PROPOSES):
            cluster.kernel.schedule_at(self.START_MS + i * self.GAP_MS,
                                       leader.propose, f"cmd{i}")
        cluster.kernel.run(until=self.END_MS)
        sent_in_window = sum(1 for at in appends if at >= self.START_MS)
        return cluster, sent_in_window

    def test_fault_free_burst_costs_two_appends_per_propose(self):
        cluster, sent = self._burst()
        assert sum(m.appends_rejected
                   for m in cluster.members.values()) == 0
        heartbeat = cluster.config.heartbeat_interval_ms
        heartbeat_rounds = int(self.END_MS // heartbeat) \
            - int(self.START_MS // heartbeat)
        assert sent == 2 * self.N_PROPOSES + 2 * heartbeat_rounds
        expected = [f"cmd{i}" for i in range(self.N_PROPOSES)]
        for recorder in cluster.applied.values():
            assert recorder.commands == expected

    def test_delay_fault_on_one_link_exercises_the_repair_path(self):
        cluster, sent = self._burst(
            LinkFaults(delay_prob=0.2, delay_ms=30.0))
        assert cluster.members["n1"].appends_rejected > 0
        assert cluster.members["n2"].appends_rejected == 0  # clean link
        assert sent > 2 * self.N_PROPOSES + 4  # rejects cost resends
        cluster.network.clear_all_link_faults()
        cluster.run(1000.0)
        expected = [f"cmd{i}" for i in range(self.N_PROPOSES)]
        for node_id, recorder in cluster.applied.items():
            assert recorder.commands == expected, node_id
        logs = [[(e.term, e.command) for e in m.log.entries_from(1)]
                for m in cluster.members.values()]
        assert logs[0] == logs[1] == logs[2]
