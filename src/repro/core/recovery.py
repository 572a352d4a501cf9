"""CPC leader-failure handling (§4.3.3).

When a participant leader fails, the coordinator may already have observed
fast-path prepare decisions that the failed leader never replicated.  A
newly elected leader must therefore arrive at the *same* decisions.  The
five steps from the paper:

1. **Leader election** — voters piggyback their pending-transaction lists
   on vote messages (implemented in :mod:`repro.raft`; the lists arrive
   here as ``vote_payloads``).
2. **Completing replications** — the new leader's term no-op forces its
   predecessors' uncommitted entries to commit (see
   ``RaftMember._become_leader``); the replicated prepare decisions are
   already in ``prepare_log`` via the apply path.
3. **Examining pending-transaction lists** — pick ``f+1`` lists; a
   transaction is a fast-path candidate if it is prepared with identical
   versions and term in at least a majority of them.
4. **Detecting conflicts** — drop candidates that conflict with slow-path
   prepared transactions, conflict with an already-accepted candidate, or
   were prepared on stale data versions.
5. **Replicating fast-path prepared transactions** — surviving candidates'
   prepare decisions are replicated through Raft; only then does the new
   leader serve buffered client/coordinator requests.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.occ import PREPARED, PendingTxn
from repro.core.records import PrepareRecord
from repro.trace.tracer import SPAN_RECOVERY
from repro.txn import TID


def majority_of(count: int) -> int:
    return count // 2 + 1


def select_candidate_lists(own: Sequence[PendingTxn],
                           vote_payloads: Dict[str, object],
                           own_id: str, f: int
                           ) -> List[Tuple[str, Sequence[PendingTxn]]]:
    """Step 3's list selection: the new leader's own list plus voters',
    truncated to ``f + 1`` lists, deterministically ordered."""
    lists: List[Tuple[str, Sequence[PendingTxn]]] = [(own_id, tuple(own))]
    for voter in sorted(vote_payloads):
        if voter == own_id:
            continue
        payload = vote_payloads[voter]
        if payload is None:
            payload = ()
        lists.append((voter, tuple(payload)))
    return lists[:f + 1]


def find_fast_path_candidates(
        lists: Sequence[Tuple[str, Sequence[PendingTxn]]]
) -> List[PendingTxn]:
    """Step 3: transactions prepared with identical versions and term in at
    least a majority of the selected lists."""
    need = majority_of(len(lists))
    support: Dict[Tuple[TID, tuple, int], List[PendingTxn]] = {}
    for __, entries in lists:
        seen_in_list = set()
        for entry in entries:
            key = (entry.tid, entry.read_versions, entry.term)
            if key in seen_in_list:
                continue  # a list supports a transaction at most once
            seen_in_list.add(key)
            support.setdefault(key, []).append(entry)
    candidates = []
    seen_tids = set()
    for (tid, __, ___), entries in sorted(
            support.items(), key=lambda item: item[0][0]):
        if tid in seen_tids:
            continue
        if len(entries) >= need:
            seen_tids.add(tid)
            candidates.append(entries[0])
    return candidates


def conflicts_between(a: PendingTxn, b: PendingTxn) -> bool:
    """Read-write / write-write conflict between two pending entries."""
    return bool(a.write_keys & b.write_keys
                or a.write_keys & b.read_keys
                or a.read_keys & b.write_keys)


def filter_candidates(candidates: Iterable[PendingTxn],
                      slow_path_prepared: Sequence[PendingTxn],
                      current_versions) -> List[PendingTxn]:
    """Step 4: exclude conflicting or stale candidates.

    ``current_versions(keys)`` returns the store's current version map; a
    candidate prepared on versions older than the store's cannot have been
    fast-path prepared, because the failed leader always had the latest
    versions (§4.3.3 step 4).
    """
    accepted: List[PendingTxn] = []
    for candidate in sorted(candidates, key=lambda e: e.tid):
        versions = candidate.versions_dict()
        store_versions = current_versions(versions.keys())
        if any(store_versions[k] != v for k, v in versions.items()):
            continue
        if any(conflicts_between(candidate, other)
               for other in slow_path_prepared
               if other.tid != candidate.tid):
            continue
        if any(conflicts_between(candidate, other) for other in accepted):
            continue
        accepted.append(candidate)
    return accepted


def run_participant_recovery(component, vote_payloads: Dict[str, object]
                             ) -> None:
    """Run steps 2–5 on a newly elected participant leader.

    ``component`` is the partition's
    :class:`~repro.core.participant.PartitionComponent`; requests are
    buffered until the recovered prepare decisions finish replicating.

    Buffering starts immediately, but steps 3–5 wait for the term-start
    barrier (:attr:`RaftMember.term_start_applied`): step 2's "completing
    replications" is only *done* once the no-op — and every predecessor
    entry it forces to commit — has applied locally.  Examining lists
    earlier would filter candidates against a store that lags the log;
    after a power-cycle restart the store is empty until re-apply, and a
    stale-version filter run against it would wrongly drop (or keep)
    every candidate.  If leadership is lost before the barrier applies,
    the deferred work is dropped with it — the component stays buffering
    until this node's next election re-runs recovery, exactly as a lost
    step-5 replication already behaved.
    """
    member = component.member
    component.begin_recovery()
    member.when_term_start_applied(
        lambda: _recover_at_barrier(component, vote_payloads))


def _recover_at_barrier(component, vote_payloads: Dict[str, object]) -> None:
    member = component.member
    f = (len(member.member_ids) - 1) // 2
    lists = select_candidate_lists(
        component.pending.snapshot(), vote_payloads,
        member.node_id, f)
    candidates = find_fast_path_candidates(lists)

    # Step 2/4: slow-path prepared transactions are those whose
    # PrepareRecord is already in the (now fully replicated) log.
    slow_path = [component.pending.get(rec.tid)
                 for rec in component.prepare_log.values()
                 if rec.decision == PREPARED
                 and rec.tid in component.pending]
    slow_path = [entry for entry in slow_path if entry is not None]
    candidates = [c for c in candidates
                  if c.tid not in component.prepare_log
                  and not component.settled(c.tid)]
    accepted = filter_candidates(candidates, slow_path,
                                 component._current_versions)

    tracer = component.server.tracer
    if tracer.enabled:
        tracer.point(None, SPAN_RECOVERY, component.server.node_id,
                     component.server.dc,
                     detail=(f"{component.partition_id} leader-recovery "
                             f"lists={len(lists)} "
                             f"candidates={len(candidates)} "
                             f"accepted={len(accepted)}"))

    # Drop provisional entries that did not survive: their prepares died
    # with the old leader and will be retried by clients or coordinators.
    accepted_tids = {entry.tid for entry in accepted}
    for entry in component.pending.entries():
        if entry.provisional and entry.tid not in accepted_tids:
            component.pending.remove(entry.tid)

    if not accepted:
        component.finish_recovery()
        return

    # Step 5: replicate the recovered prepare decisions, then serve.
    outstanding = {"count": len(accepted)}

    def one_done(_entry):
        outstanding["count"] -= 1
        if outstanding["count"] == 0:
            component.finish_recovery()

    for entry in accepted:
        component.pending.add(replace(entry, provisional=False,
                                      term=member.current_term))
        record = PrepareRecord(
            tid=entry.tid, partition_id=component.partition_id,
            decision=PREPARED,
            read_keys=tuple(sorted(entry.read_keys)),
            write_keys=tuple(sorted(entry.write_keys)),
            read_versions=entry.read_versions,
            term=member.current_term,
            coordinator_id=entry.coordinator_id,
            coord_group_id="")
        if member.propose(record, on_committed=one_done) is None:
            one_done(None)
