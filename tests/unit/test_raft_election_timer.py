"""The lazy (etcd-style) election timer, on both kernels.

A follower arms one timer per randomized timeout; leader contact only
stamps the time, and the timer, when it fires, sleeps out the remainder
or starts the election.  These tests drive a single follower by hand —
heartbeats are fed straight into its host — over the DES kernel and over
``AioKernel`` on a deterministic stand-in for the asyncio loop, so the
wall-clock backend is exercised at virtual-time speed.
"""

import heapq

import pytest

from repro.raft.messages import AppendEntries, RequestVote
from repro.raft.node import RaftConfig, RaftMember
from repro.runtime.aio import AioKernel
from repro.sim.kernel import Kernel
from tests.support import PlainRaftHost, WalRaftHost

CONFIG = RaftConfig()  # 1500..3000 ms timeouts, 300 ms heartbeats
MIN_MS = CONFIG.election_timeout_min_ms
MAX_MS = CONFIG.election_timeout_max_ms
HEARTBEAT_MS = CONFIG.heartbeat_interval_ms
#: Slack for wall-clock arithmetic on the aio kernel (ms <-> s round trips).
EPS = 1e-6


class _Handle:
    def __init__(self, fn):
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class VirtualLoop:
    """What ``AioKernel`` uses of an event loop — ``time`` and
    ``call_later`` — on a virtual clock in seconds."""

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._queue = []

    def time(self):
        return self._now

    def call_later(self, delay_s, fn):
        handle = _Handle(fn)
        heapq.heappush(self._queue, (self._now + delay_s, self._seq, handle))
        self._seq += 1
        return handle

    def run_until(self, when_s):
        while self._queue and self._queue[0][0] <= when_s:
            self._now, _, handle = heapq.heappop(self._queue)
            if not handle.cancelled:
                handle.fn()
        self._now = when_s


class SinkNetwork:
    """A transport that only records: ``(time, dst, msg)`` per send."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sent = []

    def register(self, node):
        pass

    def send(self, src, dst_id, msg):
        self.sent.append((self.kernel.now, dst_id, msg))


class Rig:
    """One follower of a three-member group on the chosen kernel."""

    def __init__(self, backend, host_cls=PlainRaftHost):
        if backend == "des":
            self.kernel = Kernel(seed=5)
            self.run_until = lambda ms: self.kernel.run(until=ms)
        else:
            loop = VirtualLoop()
            self.kernel = AioKernel(5, loop)
            self.run_until = lambda ms: loop.run_until(ms / 1000.0)
        self.network = SinkNetwork(self.kernel)
        self.host = host_cls("n1", "dc", self.kernel, self.network)
        RaftMember(self.host, "g", ["n0", "n1", "n2"], config=CONFIG)
        self.host.start_raft()

    @property
    def member(self):
        # Looked up afresh: a power cycle re-creates the member.
        return self.host.member("g")

    def heartbeat(self):
        self.host.enqueue(AppendEntries(group_id="g", term=1,
                                        leader_id="n0"))

    def feed_heartbeats(self, start_ms, end_ms):
        """Schedule a heartbeat every interval in ``(start, end]``;
        returns ``(how many, time of the last one)``."""
        n, at = 0, start_ms + HEARTBEAT_MS
        while at <= end_ms:
            self.kernel.schedule_at(at, self.heartbeat)
            n, at = n + 1, at + HEARTBEAT_MS
        return n, at - HEARTBEAT_MS

    def election_times(self):
        """When each election began (one ``RequestVote`` per peer)."""
        return [at for at, dst_id, msg in self.network.sent
                if isinstance(msg, RequestVote) and dst_id == "n0"]


BACKENDS = ("des", "aio")


@pytest.mark.parametrize("backend", BACKENDS)
def test_heartbeats_cost_timer_events_per_timeout_not_per_message(backend):
    rig = Rig(backend)
    fed, _ = rig.feed_heartbeats(0.0, 60_000.0)
    assert fed == 200
    rig.run_until(60_000.0)
    timer_events = rig.kernel.events_scheduled - fed
    # Each arming sleeps at least (min - heartbeat) before the next one.
    assert timer_events <= 60_000.0 / (MIN_MS - HEARTBEAT_MS) + 1
    # The one cancel is the first heartbeat's term bump (a step-down).
    assert rig.kernel.events_cancelled == 1
    assert rig.member.elections_started == 0
    assert rig.member.leader_id == "n0"


@pytest.mark.parametrize("backend", BACKENDS)
def test_election_starts_within_timeout_of_last_contact(backend):
    rig = Rig(backend)
    _, last = rig.feed_heartbeats(0.0, 10_000.0)
    rig.run_until(last + MAX_MS + 1.0)
    assert rig.member.elections_started == 1
    started = rig.election_times()[0]
    assert MIN_MS - EPS <= started - last <= MAX_MS + EPS


@pytest.mark.parametrize("backend", BACKENDS)
def test_silent_start_elects_within_timeout_and_keeps_retrying(backend):
    rig = Rig(backend)
    rig.run_until(4 * MAX_MS)
    times = rig.election_times()
    assert rig.member.elections_started == len(times) >= 2
    for before, after in zip([0.0] + times, times):
        assert MIN_MS - EPS <= after - before <= MAX_MS + EPS


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_then_recover_rearms_from_recovery_time(backend):
    """``Node.set_timer`` suppresses the fire of a timer armed before a
    crash without telling anyone, so the pre-crash handle must not be
    mistaken for an armed timer after recovery."""
    rig = Rig(backend)
    rig.feed_heartbeats(0.0, 1_000.0)
    rig.kernel.schedule_at(1_100.0, rig.host.crash)
    rig.kernel.schedule_at(9_000.0, rig.host.recover)
    rig.run_until(9_000.0 + MAX_MS + 1.0)
    assert rig.member.elections_started == 1
    assert MIN_MS - EPS <= rig.election_times()[0] - 9_000.0 <= MAX_MS + EPS


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovered_follower_hears_leader_again_without_election(backend):
    rig = Rig(backend)
    rig.kernel.schedule_at(500.0, rig.host.crash)
    rig.kernel.schedule_at(5_000.0, rig.host.recover)
    _, last = rig.feed_heartbeats(5_000.0, 20_000.0)
    rig.run_until(last + MIN_MS - 1.0)
    assert rig.member.elections_started == 0
    rig.run_until(last + MAX_MS + 1.0)
    assert rig.member.elections_started == 1
    assert MIN_MS - EPS <= rig.election_times()[0] - last <= MAX_MS + EPS


@pytest.mark.parametrize("backend", BACKENDS)
def test_power_cycle_restart_rearms_the_rebuilt_member(backend):
    rig = Rig(backend, host_cls=WalRaftHost)
    before = rig.member
    rig.feed_heartbeats(0.0, 1_000.0)
    rig.kernel.schedule_at(1_100.0, rig.host.restart)
    rig.run_until(1_100.0 + MAX_MS + 1.0)
    assert rig.host.restarts == 1
    assert rig.member is not before
    assert before.elections_started == 0  # the dead incarnation is inert
    assert rig.member.elections_started == 1
    assert MIN_MS - EPS <= rig.election_times()[0] - 1_100.0 <= MAX_MS + EPS


def test_vote_grant_counts_as_contact():
    rig = Rig("des")
    rig.kernel.schedule_at(1_000.0, lambda: rig.host.enqueue(RequestVote(
        group_id="g", term=1, candidate_id="n2")))
    rig.run_until(1_000.0 + MIN_MS - 1.0)
    assert rig.member.voted_for == "n2"
    assert rig.member.elections_started == 0
    rig.run_until(1_000.0 + MAX_MS + 1.0)
    assert rig.member.elections_started == 1


def test_peers_list_is_built_once():
    member = Rig("des").member
    assert member.peers() == ["n0", "n2"]
    assert member.peers() is member.peers()
