"""Seeded increment plans: the workload every oracle can account for.

Each transaction increments every key it names (:func:`increment_spec`)
and keys start absent, so after a run each key's value and version must
both equal the number of committed transactions that wrote it — the
exact accounting :mod:`repro.chaos.oracles` checks.  A plan is drawn
from a string-seeded RNG of its own, independent of the kernel and
nemesis streams, so it is identical on either runtime and whatever
nemesis events a replay keeps.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.txn import TransactionSpec

#: One transaction of a plan: when to submit it (``None``: after the
#: previous row's response), which client submits it, the keys it
#: increments.
PlanRow = Tuple[Optional[float], int, Tuple[str, ...]]

#: Fraction of transactions incrementing two keys (cross-partition 2PC).
PAIR_FRACTION = 0.4


def increment_plan(stream: str, rounds: int, n_clients: int,
                   keys: Sequence[str],
                   window: Optional[Tuple[float, float]] = None
                   ) -> List[PlanRow]:
    """``rounds`` rows drawn from ``random.Random(stream)``.

    With ``window=(start_ms, width_ms)`` every row is timed at ``start_ms
    + uniform(0, width_ms)`` (drawn first) and the rows come back in time
    order; without one the rows are sequential (``at_ms`` is ``None``).
    """
    rng = random.Random(stream)
    plan: List[PlanRow] = []
    for _ in range(rounds):
        at = None if window is None else window[0] + rng.uniform(0.0,
                                                                 window[1])
        client = rng.randrange(n_clients)
        if len(keys) >= 2 and rng.random() < PAIR_FRACTION:
            picked = tuple(sorted(rng.sample(list(keys), 2)))
        else:
            picked = (keys[rng.randrange(len(keys))],)
        plan.append((at, client, picked))
    if window is not None:
        plan.sort()
    return plan


def increment_spec(keys: Tuple[str, ...], txn_type: str) -> TransactionSpec:
    """Read-modify-write increment of each key (the oracle workload)."""
    def compute(reads: Dict[str, Any]) -> Dict[str, Any]:
        return {k: (reads.get(k) or 0) + 1 for k in keys}

    return TransactionSpec(read_keys=keys, write_keys=keys,
                           compute_writes=compute, txn_type=txn_type)
