"""Unit tests for the chaos harness building blocks: backoff policies,
nemesis schedule generation, link-fault determinism, schedule
minimization, and duplicate-delivery idempotence of the protocol
handlers the nemesis stresses."""

import random

import pytest

from repro.bench.cluster import (
    CarouselCluster,
    DeploymentSpec,
    LayeredCluster,
)
from repro.analysis.digest import send_log
from repro.chaos.minimize import minimize_schedule
from repro.chaos.nemesis import (
    KIND_CRASH,
    KIND_FLAP,
    KIND_LINK,
    KIND_PARTITION,
    NemesisEvent,
    apply_schedule,
    generate_schedule,
    schedule_horizon,
)
from repro.core.backoff import RetryPolicy
from repro.core.client import PHASE_COMMIT
from repro.core.config import FAST, CarouselConfig
from repro.core.messages import (
    CoordPrepareRequest,
    PartitionSets,
    Writeback,
)
from repro.layered.messages import LayeredWriteback
from repro.raft.messages import AppendEntries
from repro.sim.failure import FailureInjector
from repro.sim.kernel import Kernel
from repro.sim.network import LinkFaults, Network
from repro.sim.stats import link_fault_summary
from repro.sim.topology import uniform_topology
from repro.trace.tracer import Tracer
from repro.txn import TID, TransactionSpec

from tests.support import RaftCluster


def tiny_cluster(**kwargs):
    spec = DeploymentSpec(topology=uniform_topology(3, 2.0),
                          n_partitions=3, seed=2, jitter_fraction=0.0)
    cluster = CarouselCluster(spec, CarouselConfig(mode=FAST, **kwargs))
    cluster.run(200)
    return cluster


class TestRetryPolicy:
    def test_degenerate_policy_is_fixed_and_rng_free(self):
        policy = RetryPolicy(base_ms=500.0)
        # rng=None proves the degenerate policy never touches the RNG.
        assert [policy.delay_ms(n, None) for n in range(4)] == [500.0] * 4

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_ms=100.0, multiplier=2.0, max_ms=600.0)
        delays = [policy.delay_ms(n, None) for n in range(5)]
        assert delays == [100.0, 200.0, 400.0, 600.0, 600.0]

    def test_huge_attempt_counts_do_not_overflow(self):
        policy = RetryPolicy(base_ms=1.0, multiplier=2.0, max_ms=64.0)
        assert policy.delay_ms(10_000, None) == 64.0

    def test_jitter_bounds_and_determinism(self):
        policy = RetryPolicy(base_ms=100.0, multiplier=2.0, max_ms=800.0,
                             jitter_fraction=0.25)
        delays = [policy.delay_ms(n, random.Random(7)) for n in range(6)]
        again = [policy.delay_ms(n, random.Random(7)) for n in range(6)]
        assert delays == again
        for n, delay in enumerate(delays):
            nominal = min(100.0 * 2.0 ** n, 800.0)
            assert nominal * 0.75 <= delay <= nominal * 1.25

    @pytest.mark.parametrize("kwargs", [
        dict(base_ms=0.0),
        dict(base_ms=100.0, multiplier=0.5),
        dict(base_ms=100.0, max_ms=50.0),
        dict(base_ms=100.0, jitter_fraction=1.0),
        dict(base_ms=100.0, jitter_fraction=-0.1),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestNemesisSchedule:
    SERVERS = [f"s{i}" for i in range(5)]
    LINKS = [("s0", "s1"), ("s1", "s2"), ("s2", "s3")]

    def gen(self, seed=11, n_events=8):
        return generate_schedule(seed, self.SERVERS, self.LINKS,
                                 start_ms=1000.0, end_ms=11_000.0,
                                 n_events=n_events)

    def test_same_seed_is_identical(self):
        assert self.gen() == self.gen()

    def test_different_seeds_differ(self):
        assert self.gen(seed=11) != self.gen(seed=12)

    def test_events_are_valid_and_sorted(self):
        events = self.gen()
        assert len(events) == 8
        assert events == sorted(events,
                                key=lambda e: (e.at_ms, e.kind, e.targets))
        for event in events:
            assert 1000.0 <= event.at_ms <= 11_000.0
            assert event.kind in (KIND_CRASH, KIND_FLAP, KIND_PARTITION,
                                  KIND_LINK)
            if event.kind == KIND_LINK:
                assert event.faults is not None
                assert tuple(sorted(event.targets)) in \
                    {tuple(sorted(link)) for link in self.LINKS}
            else:
                assert event.targets[0] in self.SERVERS
            assert event.describe()

    def test_horizon_is_last_event_end(self):
        events = self.gen()
        assert schedule_horizon(events) == max(e.end_ms for e in events)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            NemesisEvent(kind="meteor", at_ms=1.0, duration_ms=1.0,
                         targets=("s0",))
        with pytest.raises(ValueError):
            NemesisEvent(kind=KIND_LINK, at_ms=1.0, duration_ms=1.0,
                         targets=("s0", "s1"))  # link event without faults

    def test_apply_schedule_pairs_faults_with_recovery(self):
        cluster = RaftCluster(n=3, seed=5)
        cluster.start()
        cluster.run(100)
        injector = FailureInjector(cluster.kernel, cluster.network)
        events = [
            NemesisEvent(kind=KIND_CRASH, at_ms=200.0, duration_ms=100.0,
                         targets=("n1",)),
            NemesisEvent(kind=KIND_LINK, at_ms=250.0, duration_ms=100.0,
                         targets=("n0", "n2"),
                         faults=LinkFaults(drop_prob=1.0)),
            NemesisEvent(kind=KIND_PARTITION, at_ms=300.0,
                         duration_ms=50.0, targets=("n2",)),
        ]
        apply_schedule(injector, events, ["n0", "n1", "n2"])
        cluster.run(400)
        actions = [action for __, action, __subj in injector.log]
        assert actions.count("crash") == 1
        assert actions.count("recover") == 1
        assert actions.count("degrade-link") == 1
        assert actions.count("restore-link") == 1
        assert actions.count("partition") == 1
        assert actions.count("heal") == 1


def _log(cluster):
    """The traced send log plus the kernel's op counters."""
    return send_log(cluster.kernel.tracer, cluster.kernel.op_counters())


class TestLinkFaultDeterminism:
    def run_faulty_raft(self, seed):
        """A Raft cluster whose n0<->n1 link drops/dups/delays traffic."""
        cluster = RaftCluster(n=3, seed=seed)
        Tracer(cluster.kernel)
        faults = LinkFaults(drop_prob=0.3, dup_prob=0.3, delay_prob=0.2,
                            delay_ms=15.0)
        cluster.network.set_link_faults("n0", "n1", faults)
        cluster.start()
        leader = None
        for __ in range(40):
            cluster.run(50)
            leader = cluster.leader()
            if leader is not None:
                break
        if leader is not None:
            for i in range(10):
                leader.propose(("cmd", i))
                cluster.run(30)
        cluster.run(500)
        return cluster

    def test_same_seed_same_fault_counters_and_digest(self):
        a = self.run_faulty_raft(seed=3)
        b = self.run_faulty_raft(seed=3)
        assert link_fault_summary(a.network) == link_fault_summary(b.network)
        assert a.network.messages_dropped == b.network.messages_dropped
        assert _log(a) == _log(b)
        # The adversary actually did something.
        rows = link_fault_summary(a.network)
        assert sum(row[4] + row[5] for row in rows) > 0

    def test_fault_free_runs_are_unperturbed(self):
        # A run with a zero-fault LinkFaults table entry must be
        # byte-identical to one with no faults at all: the fault RNG is
        # separate from the kernel RNG and zero-probability faults draw
        # deterministically without changing delivery.
        plain = RaftCluster(n=3, seed=9)
        Tracer(plain.kernel)
        plain.start()
        plain.run(2000)
        clean = RaftCluster(n=3, seed=9)
        Tracer(clean.kernel)
        clean.network.set_link_faults("n0", "n1", LinkFaults())
        clean.network.clear_all_link_faults()
        clean.start()
        clean.run(2000)
        assert _log(plain) == _log(clean)


class TestMinimize:
    @staticmethod
    def ev(i):
        return NemesisEvent(kind=KIND_CRASH, at_ms=float(i + 1),
                            duration_ms=1.0, targets=(f"s{i}",))

    def test_single_culprit_found_by_singles_pass(self):
        events = [self.ev(i) for i in range(6)]
        culprit = events[3]
        replays = []

        def still_fails(candidate):
            replays.append(len(candidate))
            return culprit in candidate

        minimal = minimize_schedule(events, still_fails)
        assert minimal == [culprit]

    def test_conjunction_of_two_events(self):
        events = [self.ev(i) for i in range(8)]
        pair = {events[1], events[6]}

        def still_fails(candidate):
            return pair <= set(candidate)

        minimal = minimize_schedule(events, still_fails)
        assert set(minimal) == pair

    def test_irreducible_schedule_returned_whole(self):
        events = [self.ev(i) for i in range(4)]

        def still_fails(candidate):
            return set(candidate) == set(events)

        assert minimize_schedule(events, still_fails) == events


class TestDuplicateDeliveryIdempotence:
    """The nemesis duplicates messages; every handler must tolerate it."""

    def test_duplicate_coordinator_registration(self):
        cluster = tiny_cluster()
        coordinator = cluster.leader_of("p0").coordinator
        member = cluster.leader_of("p0").members["p0"]
        tid = TID("client-injected", 1)
        msg = CoordPrepareRequest(
            tid=tid, client_id=cluster.clients[0].node_id, group_id="p0",
            participants={"p1": PartitionSets(read_keys=("k",),
                                              write_keys=("k",))})
        msg.src = cluster.clients[0].node_id
        coordinator.on_coord_prepare(msg)
        log_after_first = member.log.last_index
        state = coordinator.states[tid]
        coordinator.on_coord_prepare(msg)  # duplicate delivery
        assert coordinator.states[tid] is state
        assert member.log.last_index == log_after_first  # no re-proposal
        assert list(state.participants) == ["p1"]

    def test_duplicate_writeback_single_apply(self):
        cluster = tiny_cluster()
        component = cluster.leader_of("p1").partitions["p1"]
        member = component.member
        tid = TID("client-injected", 2)
        msg = Writeback(tid=tid, partition_id="p1", decision="commit",
                        writes={"k": "v"})
        msg.src = cluster.leader_of("p0").node_id
        component.on_writeback(msg)
        log_after_first = member.log.last_index
        component.on_writeback(msg)  # duplicate while replication runs
        assert member.log.last_index == log_after_first
        cluster.run(100)
        assert component.resolved[tid] == "commit"
        assert component.store.version("k") == 1

    def test_stale_term_inflight_marker_reproposes(self):
        # A proposal whose term died with a deposed leader must not
        # dedup retransmissions forever: Raft drops commit callbacks on
        # step-down, so the marker is dead weight (the chaos harness
        # found exactly this as a stranded-writeback liveness bug).
        cluster = tiny_cluster()
        component = cluster.leader_of("p1").partitions["p1"]
        member = component.member
        tid = TID("client-injected", 3)
        member._inflight[("writeback", tid)] = member.current_term - 1
        msg = Writeback(tid=tid, partition_id="p1", decision="commit",
                        writes={"k": "v"})
        msg.src = cluster.leader_of("p0").node_id
        log_before = member.log.last_index
        component.on_writeback(msg)
        assert member.log.last_index == log_before + 1  # re-proposed
        assert member.proposal_inflight(("writeback", tid))

    def test_layered_stale_term_inflight_marker_reproposes(self):
        spec = DeploymentSpec(topology=uniform_topology(3, 2.0),
                              n_partitions=3, seed=2, jitter_fraction=0.0)
        cluster = LayeredCluster(spec)
        cluster.run(200)
        partition = cluster.leader_of("p1").partitions["p1"]
        member = partition.member
        tid = TID("client-injected", 4)
        member._inflight[tid] = member.current_term - 1
        msg = LayeredWriteback(tid=tid, partition_id="p1",
                               decision="commit", writes={"k": "v"})
        msg.src = cluster.leader_of("p0").node_id
        log_before = member.log.last_index
        partition.on_writeback(msg)
        assert member.log.last_index == log_before + 1
        assert member.proposal_inflight(tid)
        cluster.run(100)
        assert partition.resolved[tid] == "commit"

    def test_commit_phase_retry_reregisters_with_coordinator(self):
        # The chaos harness's stranded-commit counterexample: the sets
        # record never replicated before the coordinator group's leader
        # moved, so the successor has no state and a bare CommitRequest
        # (which carries no participant sets) is dropped forever.  The
        # retry must re-send the registration alongside the commit.
        cluster = tiny_cluster()
        client = cluster.clients[0]
        spec = TransactionSpec(read_keys=("k",), write_keys=("k",),
                               compute_writes=lambda reads: {"k": 1})
        sent = []
        client.send = lambda dst, msg: sent.append((dst, msg))
        # Register and group through the shell's own submit path.
        txn = client._active[client.submit(spec)]
        txn.phase = PHASE_COMMIT
        txn.writes = {"k": 1}
        sent.clear()
        client._retry(txn)
        kinds = [type(msg).__name__ for __, msg in sent]
        assert kinds == ["CoordPrepareRequest", "CommitRequest"]
        register = sent[0][1]
        assert dict(register.participants) == dict(txn.participants)
        assert all(dst == txn.coordinator_id for dst, __ in sent)

    def test_duplicate_append_entries_idempotent(self):
        cluster = RaftCluster(n=3, seed=4)
        cluster.start()
        cluster.run(200)
        leader = cluster.leader()
        leader.propose(("put", "x"))
        cluster.run(200)
        follower = next(m for m in cluster.members.values()
                        if not m.is_leader)
        applied_before = list(cluster.applied[follower.node_id].commands)
        last = follower.log.last_index
        entry = follower.log.entry_at(last)
        dup = AppendEntries(
            group_id="g0", term=leader.current_term,
            leader_id=leader.node_id, prev_log_index=last - 1,
            prev_log_term=follower.log.term_at(last - 1) or 0,
            entries=[entry], leader_commit=leader.commit_index)
        dup.src = leader.node_id
        for __ in range(2):  # deliver the same replication RPC twice
            follower._on_append_entries(dup)
        assert follower.log.last_index == last
        assert cluster.applied[follower.node_id].commands == applied_before
