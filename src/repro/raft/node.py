"""Raft state machine: election, replication, commitment.

A :class:`RaftMember` is one group member's consensus engine.  It is not a
network node itself; it lives inside a host :class:`~repro.sim.node.Node`
(a :class:`RaftHost`), which routes Raft messages to it by ``group_id``.
This mirrors the paper's deployment, where a Carousel data server may manage
several partitions (§3.3) and therefore participate in several groups.

Carousel-specific extensions (both from §4.3.3):

* ``vote_payload_fn`` — called when casting or soliciting a vote; its return
  value (the pending-transaction list) rides on the vote messages.
* ``on_leadership`` — called when this member wins an election, with the
  pending payloads of every voter in its majority, *before* the member
  starts accepting proposals; the host runs CPC failure handling there.

Design notes
------------
* New entries are pushed to followers immediately on ``propose`` (not on the
  next heartbeat), so replication costs one round trip — matching the WANRT
  accounting in the paper's figures.
* On winning an election a leader appends a no-op entry from its new term,
  the standard way to force commitment of all earlier entries (this is what
  "completing replications" in §4.3.3 step 2 relies on).
* Persistent state (term, vote, log) survives crash/recovery in RAM, and —
  when the host carries a :class:`~repro.wal.log.WriteAheadLog` — is
  journaled so a power-cycled host can rebuild it from the WAL image
  (:meth:`RaftHost.on_restart`); volatile leadership state never
  survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.raft.log import LogEntry, RaftLog
from repro.trace.tracer import SPAN_RAFT, SPAN_RECOVERY
from repro.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    RequestVote,
    RequestVoteReply,
)
from repro.sim.message import Message
from repro.sim.node import Handlers, Node, goto
from repro.wal.records import RaftAppendRecord, RaftTermRecord

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


@dataclass(frozen=True)
class RaftNoop:
    """No-op command a new leader commits to finalize its predecessors'
    entries."""

    leader_id: str


@dataclass
class RaftConfig:
    """Raft timing parameters, in milliseconds.

    Defaults are sized for the paper's WAN topology: election timeouts far
    above the worst one-way delay (145 ms), heartbeats a few multiples of
    the widest RTT.
    """

    election_timeout_min_ms: float = 1500.0
    election_timeout_max_ms: float = 3000.0
    heartbeat_interval_ms: float = 300.0

    def __post_init__(self) -> None:
        if self.election_timeout_min_ms <= 0:
            raise ValueError("election timeout must be positive")
        if self.election_timeout_max_ms < self.election_timeout_min_ms:
            raise ValueError("election timeout max < min")
        if self.heartbeat_interval_ms >= self.election_timeout_min_ms:
            raise ValueError("heartbeat interval must be below the election "
                             "timeout")


class RaftMember:
    """One member of a Raft consensus group."""

    #: Its host dispatches each Raft message of the group here.
    HANDLERS = {
        RequestVote: "_on_request_vote",
        RequestVoteReply: "_on_vote_reply",
        AppendEntries: "_on_append_entries",
        AppendEntriesReply: "_on_append_reply",
    }
    #: Role -> the roles :meth:`_goto` may enter from it.  Every role may
    #: step down, a follower leads at once only as the bootstrap leader,
    #: and a candidate may stand again.
    TRANSITIONS = {
        FOLLOWER: (FOLLOWER, CANDIDATE, LEADER),
        CANDIDATE: (FOLLOWER, CANDIDATE, LEADER),
        LEADER: (FOLLOWER,),
    }

    def __init__(self, host: "RaftHost", group_id: str,
                 member_ids: List[str],
                 config: Optional[RaftConfig] = None,
                 apply_fn: Optional[Callable[[LogEntry], None]] = None,
                 vote_payload_fn: Optional[Callable[[], Any]] = None,
                 on_leadership: Optional[
                     Callable[["RaftMember", Dict[str, Any]], None]] = None,
                 bootstrap_leader: Optional[str] = None):
        if host.node_id not in member_ids:
            raise ValueError("host must be one of the group members")
        if len(set(member_ids)) != len(member_ids):
            raise ValueError("duplicate member ids")
        self.host = host
        self.handlers = Handlers(host, (self.HANDLERS, self))
        self.group_id = group_id
        self.member_ids = list(member_ids)
        self._peers = [m for m in self.member_ids if m != host.node_id]
        self.config = config or RaftConfig()
        self.apply_fn = apply_fn
        self.vote_payload_fn = vote_payload_fn or (lambda: None)
        self.on_leadership = on_leadership
        self.bootstrap_leader = bootstrap_leader

        # Persistent state (survives crash/recover).
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log = RaftLog()

        # Volatile state.
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_id: Optional[str] = None
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        #: Highest log index already shipped to each peer (avoids
        #: re-sending the whole in-flight window on every propose; lost
        #: messages are repaired by heartbeats, which always send from
        #: next_index).
        self._sent_up_to: Dict[str, int] = {}
        self._votes: Dict[str, Any] = {}
        #: Election timer, etcd-style: one armed timer per randomized
        #: timeout, not one per message.  Leader contact only stamps
        #: ``_last_contact``; when the timer fires it re-arms for whatever
        #: remains of ``_election_timeout_ms`` since that stamp, or starts
        #: the election if nothing remains.
        self._election_timer = None
        self._election_timeout_ms = 0.0
        self._last_contact = 0.0
        self._heartbeat_timer = None
        self._commit_callbacks: Dict[int, Callable[[LogEntry], None]] = {}
        #: Keyed proposals awaiting commitment -> the term they were
        #: proposed in (see :meth:`proposal_inflight`).
        self._inflight: Dict[Any, int] = {}
        #: Index of this term's no-op entry; the leader serving barrier
        #: (``term_start_applied``) holds once it has applied locally.
        self._term_start_index = 0
        self._term_start_waiters: List[Callable[[], None]] = []
        #: Tracing: open replication spans keyed by log index.
        self._trace_spans: Dict[int, Any] = {}
        self.elections_started = 0
        #: AppendEntries this member refused because its log did not match
        #: at ``prev_log_index`` — each one costs the leader a resend of
        #: the unacknowledged window.  Stays 0 on ordered, loss-free links.
        self.appends_rejected = 0

        host.add_member(self)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> str:
        return self.host.node_id

    @property
    def is_leader(self) -> bool:
        return self.state == LEADER

    @property
    def term_start_applied(self) -> bool:
        """Leader serving barrier: true once this term's no-op has applied.

        A freshly elected leader's *log* is complete (that is what the
        election restriction guarantees) but its *state machine* may lag —
        most visibly after a power-cycle restart, where the log was rebuilt
        from the WAL image and nothing has been re-applied yet.  Serving
        reads or admitting OCC prepares before catching up would expose
        stale state.  The standard remedy (Raft §8) is to serve only after
        the term-start no-op — and with it every earlier entry — has been
        applied locally.
        """
        return self.state == LEADER and \
            self.last_applied >= self._term_start_index

    def when_term_start_applied(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the serving barrier holds (immediately if it
        already does).  Pending callbacks are dropped on step-down or
        crash; ``on_leadership`` of a later term re-registers its own.
        """
        if self.term_start_applied:
            fn()
        else:
            self._term_start_waiters.append(fn)

    @property
    def majority(self) -> int:
        return len(self.member_ids) // 2 + 1

    def peers(self) -> List[str]:
        """Group members other than this one, in ``member_ids`` order.

        Ordering contract: the result preserves the group's configured
        member order, so every peer fan-out (vote requests, appends,
        heartbeats) iterates deterministically regardless of hashing.
        Membership is fixed, so the list is built once; do not mutate it.
        """
        return self._peers

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin operating.

        If this member is the designated bootstrap leader, it assumes
        leadership at term 1 immediately (the deployment places one leader
        per group, §6.1); followers adopt it on the first heartbeat.
        Otherwise it waits as a follower with an election timer.
        """
        if self.bootstrap_leader == self.node_id:
            self.current_term = 1
            self.voted_for = self.node_id
            self._persist_term()
            self._become_leader(vote_payloads={})
        else:
            self._arm_election_timer()

    # ------------------------------------------------------------------
    # Durability (no-ops when the host has no WAL attached)
    # ------------------------------------------------------------------
    def _persist_term(self) -> None:
        """Journal currentTerm/votedFor; called after every mutation, before
        any message that externalizes the new term or vote."""
        wal = self.host.wal
        if wal is not None:
            wal.append(RaftTermRecord(group_id=self.group_id,
                                      term=self.current_term,
                                      voted_for=self.voted_for))

    def _persist_entries(self, entries: List[LogEntry]) -> None:
        """Journal log entries installed at their indexes."""
        if not entries:
            return
        wal = self.host.wal
        if wal is not None:
            wal.append(RaftAppendRecord(group_id=self.group_id,
                                        entries=tuple(entries)))

    def handle_host_crash(self) -> None:
        """Drop volatile leadership state; keep persistent state."""
        self._cancel_timers()
        self._goto(FOLLOWER)
        self.leader_id = None
        self._votes = {}
        self._commit_callbacks.clear()
        self._term_start_waiters.clear()
        self._trace_spans.clear()

    def handle_host_recover(self) -> None:
        """Rejoin the group as a follower."""
        self._arm_election_timer()

    def _cancel_timers(self) -> None:
        if self._election_timer is not None:
            self._election_timer.cancel()
            self._election_timer = None
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    # ------------------------------------------------------------------
    # Proposals
    # ------------------------------------------------------------------
    def propose(self, command: Any,
                on_committed: Optional[Callable[[LogEntry], None]] = None
                ) -> Optional[LogEntry]:
        """Append ``command`` to the replicated log (leader only).

        Returns the appended entry, or ``None`` if this member is not the
        leader.  ``on_committed`` fires on this member once the entry is
        committed and applied here; if leadership is lost first the callback
        is dropped (the entry may still commit under a later leader).
        """
        if self.state != LEADER:
            return None
        entry = self.log.append_new(self.current_term, command)
        self._persist_entries([entry])
        tracer = self.host.tracer
        if tracer.enabled:
            self._trace_spans[entry.index] = tracer.span_begin(
                getattr(command, "tid", None), SPAN_RAFT, self.node_id,
                self.host.dc,
                detail=(f"{self.group_id} {type(command).__name__} "
                        f"idx={entry.index}"))
        self.match_index[self.node_id] = entry.index
        if on_committed is not None:
            self._commit_callbacks[entry.index] = on_committed
        if len(self.member_ids) == 1:
            self._advance_commit()
        else:
            for peer in self.peers():
                self._send_append(peer, only_new=True)
        return entry

    def proposal_inflight(self, key: Any) -> bool:
        """Whether a :meth:`propose_keyed` under ``key`` made in *this*
        term still awaits commitment, so a retransmitted request can be
        ignored: the commit callback will answer it.

        A marker from an older term is dead weight: commit callbacks are
        dropped on step-down, so the entry's callback died with that
        leadership and a retransmission must re-propose rather than be
        deduplicated against a dead proposal.
        """
        return self._inflight.get(key) == self.current_term

    def propose_keyed(self, key: Any, command: Any,
                      on_committed: Callable[[LogEntry], None]
                      ) -> Optional[LogEntry]:
        """:meth:`propose`, marking ``key`` in flight until the entry
        commits here (or at once, when this member is not the leader)."""
        self._inflight[key] = self.current_term

        def committed(entry: LogEntry) -> None:
            self._inflight.pop(key, None)
            on_committed(entry)

        entry = self.propose(command, on_committed=committed)
        if entry is None:
            self._inflight.pop(key, None)
        return entry

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_election_timer(self) -> None:
        """Start a fresh election countdown with a newly drawn randomized
        timeout.  Called on every transition into waiting-for-a-leader
        (start, recovery, step-down, candidacy) — never per message."""
        if self._election_timer is not None:
            self._election_timer.cancel()
        kernel = self.host.kernel
        self._election_timeout_ms = kernel.random.uniform(
            self.config.election_timeout_min_ms,
            self.config.election_timeout_max_ms)
        self._last_contact = kernel.now
        self._election_timer = self.host.set_timer(
            self._election_timeout_ms, self._on_election_timeout)

    def _on_election_timeout(self) -> None:
        self._election_timer = None
        if self.state == LEADER:
            return
        remaining = self._last_contact + self._election_timeout_ms \
            - self.host.kernel.now
        if remaining > 0:
            # Heard from a leader (or granted a vote) since arming: sleep
            # out the rest of the same timeout.
            self._election_timer = self.host.set_timer(
                remaining, self._on_election_timeout)
        else:
            self._start_election()

    def _start_election(self) -> None:
        self.elections_started += 1
        self.current_term += 1
        self._goto(CANDIDATE)
        self.voted_for = self.node_id
        self._persist_term()
        self.leader_id = None
        self._votes = {self.node_id: self.vote_payload_fn()}
        self._arm_election_timer()
        for peer in self.peers():
            self.host.send(peer, RequestVote(
                group_id=self.group_id,
                term=self.current_term,
                candidate_id=self.node_id,
                last_log_index=self.log.last_index,
                last_log_term=self.log.last_term,
                pending_payload=self.vote_payload_fn(),
            ))
        if len(self.member_ids) == 1:
            self._become_leader(vote_payloads=dict(self._votes))

    def _schedule_heartbeat(self) -> None:
        self._heartbeat_timer = self.host.set_timer(
            self.config.heartbeat_interval_ms, self._on_heartbeat)

    def _on_heartbeat(self) -> None:
        if self.state != LEADER:
            return
        for peer in self.peers():
            self._send_append(peer)
        self._schedule_heartbeat()

    # ------------------------------------------------------------------
    # Role changes
    # ------------------------------------------------------------------
    def _goto(self, state: str) -> None:
        self.state = goto(self, self.state, state)

    def _step_down(self, new_term: int) -> None:
        if new_term > self.current_term:
            self.current_term = new_term
            self.voted_for = None
            self._persist_term()
        was_leader = self.state == LEADER
        self._goto(FOLLOWER)
        self._votes = {}
        self._term_start_waiters.clear()
        if was_leader:
            self._commit_callbacks.clear()
            self._trace_spans.clear()
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        self._arm_election_timer()

    def _become_leader(self, vote_payloads: Dict[str, Any]) -> None:
        self._goto(LEADER)
        self.leader_id = self.node_id
        if self._election_timer is not None:
            self._election_timer.cancel()
            self._election_timer = None
        for peer in self.peers():
            self.next_index[peer] = self.log.last_index + 1
            self.match_index[peer] = 0
            self._sent_up_to[peer] = 0
        self.match_index[self.node_id] = self.log.last_index
        # The no-op appended below lands at this index; set the serving
        # barrier first so ``on_leadership`` may register waiters on it.
        self._term_start_index = self.log.last_index + 1
        if self.on_leadership is not None:
            self.on_leadership(self, vote_payloads)
        # Commit a no-op from the new term so predecessors' entries commit.
        noop = self.log.append_new(self.current_term, RaftNoop(self.node_id))
        self._persist_entries([noop])
        self.match_index[self.node_id] = self.log.last_index
        if len(self.member_ids) == 1:
            self._advance_commit()
        else:
            for peer in self.peers():
                self._send_append(peer)
            self._schedule_heartbeat()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_request_vote(self, msg: RequestVote) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        granted = False
        if msg.term == self.current_term and self.state != LEADER:
            up_to_date = (
                msg.last_log_term > self.log.last_term
                or (msg.last_log_term == self.log.last_term
                    and msg.last_log_index >= self.log.last_index))
            if (self.voted_for in (None, msg.candidate_id)) and up_to_date:
                granted = True
                self.voted_for = msg.candidate_id
                self._persist_term()
                self._last_contact = self.host.kernel.now
        self.host.send(msg.candidate_id, RequestVoteReply(
            group_id=self.group_id,
            term=self.current_term,
            voter_id=self.node_id,
            granted=granted,
            pending_payload=self.vote_payload_fn() if granted else None,
        ))

    def _on_vote_reply(self, msg: RequestVoteReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if (self.state != CANDIDATE or msg.term != self.current_term
                or not msg.granted):
            return
        self._votes[msg.voter_id] = msg.pending_payload
        if len(self._votes) >= self.majority:
            self._become_leader(vote_payloads=dict(self._votes))

    def _on_append_entries(self, msg: AppendEntries) -> None:
        if msg.term < self.current_term:
            self.host.send(msg.leader_id, AppendEntriesReply(
                group_id=self.group_id, term=self.current_term,
                follower_id=self.node_id, success=False,
                conflict_index=self.log.last_index + 1))
            return
        if msg.term > self.current_term or self.state != FOLLOWER:
            self._step_down(msg.term)
        self.current_term = msg.term
        self.leader_id = msg.leader_id
        self._last_contact = self.host.kernel.now

        if not self.log.matches(msg.prev_log_index, msg.prev_log_term):
            self.appends_rejected += 1
            conflict = min(self.log.last_index + 1, msg.prev_log_index)
            self.host.send(msg.leader_id, AppendEntriesReply(
                group_id=self.group_id, term=self.current_term,
                follower_id=self.node_id, success=False,
                conflict_index=max(1, conflict)))
            return

        installed = self.log.splice(msg.prev_log_index, msg.entries)
        self._persist_entries(installed)
        match = msg.prev_log_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.log.last_index)
            self._apply_committed()
        self.host.send(msg.leader_id, AppendEntriesReply(
            group_id=self.group_id, term=self.current_term,
            follower_id=self.node_id, success=True, match_index=match))

    def _on_append_reply(self, msg: AppendEntriesReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.state != LEADER or msg.term != self.current_term:
            return
        peer = msg.follower_id
        if msg.success:
            if msg.match_index > self.match_index.get(peer, 0):
                self.match_index[peer] = msg.match_index
            self.next_index[peer] = self.match_index[peer] + 1
            self._advance_commit()
            # Pipeline: if entries exist that were never shipped, push them.
            if self._sent_up_to.get(peer, 0) < self.log.last_index:
                self._send_append(peer, only_new=True)
        else:
            backed_off = min(self.next_index.get(peer, 1) - 1,
                             msg.conflict_index)
            self.next_index[peer] = max(1, backed_off)
            self._sent_up_to[peer] = 0
            self._send_append(peer)

    # ------------------------------------------------------------------
    # Replication helpers
    # ------------------------------------------------------------------
    def _send_append(self, peer: str, only_new: bool = False) -> None:
        """Ship log entries to ``peer``.

        With ``only_new`` (the propose/pipeline path) only entries that were
        never shipped before are sent, keeping per-propose work O(new
        entries) instead of O(in-flight window).  Heartbeats and failure
        recovery send from ``next_index`` and repair any losses.
        """
        next_idx = self.next_index.get(peer, self.log.last_index + 1)
        start = next_idx
        if only_new:
            start = max(next_idx, self._sent_up_to.get(peer, 0) + 1)
        prev_index = start - 1
        prev_term = self.log.term_at(prev_index)
        if prev_term is None:
            # Bookkeeping ran past our log (stale state); resync fully.
            self.next_index[peer] = self.log.last_index + 1
            self._sent_up_to[peer] = 0
            start = self.log.last_index + 1
            prev_index = self.log.last_index
            prev_term = self.log.last_term
        self._sent_up_to[peer] = max(self._sent_up_to.get(peer, 0),
                                     self.log.last_index)
        self.host.send(peer, AppendEntries(
            group_id=self.group_id,
            term=self.current_term,
            leader_id=self.node_id,
            prev_log_index=prev_index,
            prev_log_term=prev_term,
            entries=self.log.entries_from(start),
            leader_commit=self.commit_index,
        ))

    def _advance_commit(self) -> None:
        if self.state != LEADER:
            return
        matches = sorted(
            (self.match_index.get(m, 0) for m in self.member_ids),
            reverse=True)
        candidate = matches[self.majority - 1]
        if candidate > self.commit_index and \
                self.log.term_at(candidate) == self.current_term:
            self.commit_index = candidate
            self._apply_committed()

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            if self.apply_fn is not None and \
                    not isinstance(entry.command, RaftNoop):
                self.apply_fn(entry)
            if self._trace_spans:
                span = self._trace_spans.pop(self.last_applied, None)
                if span is not None:
                    # Close the replication span before the commit callback
                    # runs, so downstream sends happen after it.
                    self.host.tracer.span_end(span)
            callback = self._commit_callbacks.pop(self.last_applied, None)
            if callback is not None:
                callback(entry)
        if self._term_start_waiters and self.term_start_applied:
            waiters, self._term_start_waiters = self._term_start_waiters, []
            for waiter in waiters:
                waiter()


class RaftHost(Node):
    """A network node hosting one or more Raft group members.

    Raft messages (:attr:`HANDLERS`) are routed to the member with the
    matching ``group_id`` and run through its table; protocol servers
    bind their own tables into :attr:`handlers` beside them, and a type
    the host has no entry for goes to :meth:`handle_app_message`.
    """

    HANDLERS = {
        RequestVote: "_to_member",
        RequestVoteReply: "_to_member",
        AppendEntries: "_to_member",
        AppendEntriesReply: "_to_member",
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.members: Dict[str, RaftMember] = {}

    def add_member(self, member: RaftMember) -> None:
        """Attach a consensus-group member to this host."""
        if member.group_id in self.members:
            raise ValueError(f"already a member of group "
                             f"{member.group_id!r}")
        self.members[member.group_id] = member

    def member(self, group_id: str) -> RaftMember:
        """The member of ``group_id`` hosted here."""
        return self.members[group_id]

    def start_raft(self) -> None:
        """Start every hosted Raft member.

        Ordered: ``members`` insertion order is ``add_member`` call order,
        which cluster construction keeps deterministic.  Order matters
        here because each ``start()`` draws an election timeout from the
        shared kernel RNG.
        """
        for member in self.members.values():
            member.start()

    def handle_message(self, msg: Message) -> None:
        if type(msg) in self.handlers:
            self.handlers[type(msg)](msg)
        else:
            self.handle_app_message(msg)

    def _to_member(self, msg: Message) -> None:
        member = self.members.get(msg.group_id)
        if member is not None:
            member.handlers[type(msg)](msg)

    def handle_app_message(self, msg: Message) -> None:
        """Handle a message :attr:`handlers` has no entry for: a
        ``TypeError`` unless a test host overrides it."""
        super().handle_message(msg)

    def on_crash(self) -> None:
        """Fail-stop: drop volatile Raft state on every member.

        Ordered: ``members`` iterates in ``add_member`` call order (and
        likewise in :meth:`on_recover`, where restart timers draw from
        the kernel RNG).
        """
        for member in self.members.values():
            member.handle_host_crash()

    def on_recover(self) -> None:
        """Rejoin every hosted group as a follower."""
        for member in self.members.values():
            member.handle_host_recover()

    # ------------------------------------------------------------------
    # Power-cycle restart
    # ------------------------------------------------------------------
    def on_restart(self) -> None:
        """Power-cycle recovery: the one skeleton every Raft-hosting
        server restarts through.

        Every hosted group is re-created fresh — in the order, and over
        the ``member_ids``, its wiped member held; nothing bootstraps, so
        the host rejoins each group as a follower.  Raft persistent state
        (terms, votes, logs) then comes back from the WAL image, and the
        server restores its own roles from the same image.
        """
        records = self.wal.replay()
        groups = [(member.group_id, list(member.member_ids))
                  for member in self.members.values()]
        self.members = {}
        self._reset_roles()
        for group_id, member_ids in groups:
            self.add_partition(group_id, member_ids)
        self.replay_raft_wal(records)
        restored = self._restore_roles(records)
        tracer = self.tracer
        if tracer.enabled:
            tracer.point(None, SPAN_RECOVERY, self.node_id, self.dc,
                         detail=(f"wal-restart records={len(records)} "
                                 f"{restored}").rstrip())

    def _reset_roles(self) -> None:
        """(Re-)create, empty, every piece of role state a power cycle
        wipes.  Servers call this from ``__init__`` too."""

    def add_partition(self, partition_id: str, member_ids: List[str]):
        """Host a fresh member of consensus group ``partition_id``."""
        raise NotImplementedError

    def _restore_roles(self, records: List[Any]) -> str:
        """Rebuild role state from a WAL image, after the groups are back;
        returns a summary for the recovery trace point."""
        return ""

    def replay_raft_wal(self, records: List[Any]) -> None:
        """Rebuild every member's persistent state from a WAL image.

        Called by :meth:`on_restart`, after the members have been re-created
        fresh (term 0, empty log, no bootstrap).  Records replay in
        append order: the last :class:`RaftTermRecord` per group wins for
        currentTerm/votedFor, and :class:`RaftAppendRecord` entries are
        installed at their carried indexes (truncate-then-append, which
        subsumes follower conflict truncation).  Commit/apply state stays
        at zero — it is volatile by Raft's rules and is rebuilt through
        the normal apply path once a leader's commit index reaches us.
        """
        for record in records:
            if isinstance(record, RaftTermRecord):
                member = self.members.get(record.group_id)
                if member is not None:
                    member.current_term = record.term
                    member.voted_for = record.voted_for
            elif isinstance(record, RaftAppendRecord):
                member = self.members.get(record.group_id)
                if member is not None:
                    for entry in record.entries:
                        member.log.install_at(entry)
