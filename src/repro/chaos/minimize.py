"""Schedule minimization: shrink a failing nemesis timeline.

Given a schedule whose run violates an oracle, find a small *subsequence*
that still fails.  Events keep their original absolute times — a
subsequence is the same timeline with some faults simply not injected —
so each candidate replays deterministically through
:func:`repro.chaos.runner.run_chaos`.  This holds for power-cycle
(``restart``) events too: the crash and its WAL-image restart stay
pinned to their absolute times, and dropping the event drops the pair.

The strategy mirrors :mod:`repro.analysis.divergence`'s bisection: try
each event alone (most planted bugs need exactly one fault window), then
bisect halves, then greedily drop one event at a time until the result
is 1-minimal (removing any single remaining event makes the failure
disappear).

Every layer asks one question of a batch of candidates, "which is the
first (lowest-index) candidate that still fails?", and answers it by
replaying the candidates in order and stopping at the first failure.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

Event = TypeVar("Event")


def _first_failing(candidates: List[List[Event]],
                   still_fails: Callable[[List[Event]], bool]
                   ) -> Optional[int]:
    return next((i for i, candidate in enumerate(candidates)
                 if still_fails(candidate)), None)


def minimize_schedule(events: Sequence[Event],
                      still_fails: Callable[[List[Event]], bool]
                      ) -> List[Event]:
    """Shrink ``events`` to a 1-minimal failing subsequence.

    ``still_fails(candidate)`` re-runs the scenario with only the
    candidate events injected and reports whether an oracle still
    trips.  The caller must already know the full schedule fails; an
    empty input returns empty.
    """
    current = list(events)
    if len(current) <= 1:
        return current
    # Fast path: one event alone often reproduces the failure.
    winner = _first_failing([[event] for event in current], still_fails)
    if winner is not None:
        return [current[winner]]
    # Bisection: keep whichever half still fails, while one does.
    while len(current) > 2:
        half = len(current) // 2
        winner = _first_failing([current[:half], current[half:]],
                                still_fails)
        if winner is None:
            break
        current = current[:half] if winner == 0 else current[half:]
    # Greedy pass: drop single events until 1-minimal.
    changed = True
    while changed and len(current) > 1:
        changed = False
        candidates = [current[:i] + current[i + 1:]
                      for i in range(len(current))]
        winner = _first_failing(candidates, still_fails)
        if winner is not None:
            current = candidates[winner]
            changed = True
    return current
