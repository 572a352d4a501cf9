"""Known-bug planting, to validate that the chaos oracles catch bugs.

Each plant is a context-manager factory that monkeypatches a protocol
handler for the duration of a run and restores the original on exit
(the pattern :mod:`repro.analysis.divergence` uses for its demo bug).
``run_chaos(..., planted_bug=...)`` keeps the patch active for the whole
run, so the harness can demonstrate end to end that a seeded nemesis
schedule finds the bug and minimizes to a small counterexample.
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def planted_writeback_bug():
    """Revert the Carousel participant's writeback idempotence.

    With this patch, a duplicate ``Writeback`` for an already-resolved
    transaction re-applies the writes *directly* to the leader's store
    (bypassing Raft) instead of just re-acking.  Any duplicate delivery
    — a network-duplicated writeback, or a retransmission after a lost
    ``WritebackAck`` — then bumps the leader's version past its
    followers', which the ``replica-divergence`` and ``value-parity``
    oracles both catch.  Only affects the Carousel systems.
    """
    from repro.core import participant as participant_mod

    original = participant_mod.PartitionComponent.on_writeback

    def buggy(self, msg):
        if (not self.recovering and self.is_leader
                and msg.tid in self.resolved
                and msg.decision == participant_mod.COMMIT):
            for key, value in msg.writes.items():
                self.store.write(key, value, self.store.version(key) + 1)
        original(self, msg)

    participant_mod.PartitionComponent.on_writeback = buggy
    try:
        yield
    finally:
        participant_mod.PartitionComponent.on_writeback = original


@contextmanager
def planted_lost_commit_bug():
    """Skip the Carousel coordinator's decision journaling.

    With this patch, a commit decision is externalized to the client
    without first being written to the coordinator's WAL.  A power-cycle
    of the coordinator then loses the decision: nothing re-drives the
    transaction's writebacks, and if a RAM-wiped restarted replica later
    wins the group's election, the mirrored coordinator state is gone
    everywhere.  Caught by the ``durability-lost-commit`` oracle (and,
    depending on timing, decision-consistency/value-parity).  Only
    affects the Carousel systems — and only under a nemesis schedule
    that actually restarts the coordinator at the wrong moment, which is
    the point: the oracle, not luck, must find it.
    """
    from repro.core import coordinator as coordinator_mod

    original = coordinator_mod.CoordinatorComponent._persist_decision

    def buggy(self, state):
        return None

    coordinator_mod.CoordinatorComponent._persist_decision = buggy
    try:
        yield
    finally:
        coordinator_mod.CoordinatorComponent._persist_decision = original


@contextmanager
def planted_retry_removed_bug():
    """Make every client's retransmission timer a no-op.

    With this patch, ``TxnClient._retry`` neither resends the current
    phase nor re-arms, so a request or reply the nemesis drops leaves its
    transaction waiting forever.  Caught by the liveness oracle on every
    system: the dynamic twin of a static "retried message has no retry
    path" check.
    """
    from repro.client import TxnClient

    original = TxnClient._retry
    TxnClient._retry = lambda self, txn: None
    try:
        yield
    finally:
        TxnClient._retry = original


#: Name -> context-manager factory, for the CLI's ``--plant-bug``.
PLANTABLE_BUGS = {"writeback-dup": planted_writeback_bug,
                  "lost-commit": planted_lost_commit_bug,
                  "retry-removed": planted_retry_removed_bug}
