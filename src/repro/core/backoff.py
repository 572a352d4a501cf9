"""Capped exponential backoff with deterministic jitter.

Retransmission timers across the codebase historically re-armed at a fixed
interval.  Under an adversarial network (the chaos
harness's drop/duplicate/delay fault models) fixed-interval retries are
both slow to react — the first retry waits the full generous interval —
and synchronization-prone: every stalled transaction retries in lockstep,
re-colliding forever.  :class:`RetryPolicy` computes the classic capped
exponential backoff with multiplicative jitter, drawing randomness only
from a caller-supplied RNG (in practice ``kernel.random``) so schedules
stay byte-reproducible.

The **degenerate policy** — ``multiplier=1.0``, ``jitter_fraction=0.0``,
the defaults — reproduces the historical fixed interval exactly and draws
nothing from the RNG, so pre-chaos tests and benchmarks are bit-for-bit
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Exponent clamp: beyond this many doublings the uncapped delay exceeds
#: any practical cap anyway, and ``float`` exponentiation would overflow.
_MAX_EXPONENT = 64


@dataclass(frozen=True)
class RetryPolicy:
    """Delay schedule for retransmission attempt ``n`` (0-based).

    Parameters
    ----------
    base_ms:
        Delay before the first retry.
    multiplier:
        Growth factor per attempt; ``1.0`` (default) keeps the interval
        fixed — the degenerate, pre-chaos behaviour.
    max_ms:
        Cap on the grown delay (before jitter); ``None`` means uncapped.
    jitter_fraction:
        When nonzero, the delay is multiplied by a factor drawn uniformly
        from ``[1 - jitter_fraction, 1 + jitter_fraction]``.  Zero
        (default) draws nothing from the RNG.
    """

    base_ms: float
    multiplier: float = 1.0
    max_ms: Optional[float] = None
    jitter_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.base_ms <= 0:
            raise ValueError("base_ms must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_ms is not None and self.max_ms < self.base_ms:
            raise ValueError("max_ms must be >= base_ms")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")

    def delay_ms(self, attempt: int, rng) -> float:
        """The delay before retry number ``attempt`` (0 = first retry).

        ``rng`` is consulted only when ``jitter_fraction`` is nonzero, so
        the degenerate policy never perturbs the caller's RNG stream.
        """
        exponent = min(max(attempt, 0), _MAX_EXPONENT)
        delay = self.base_ms * (self.multiplier ** exponent)
        if self.max_ms is not None:
            delay = min(delay, self.max_ms)
        if self.jitter_fraction > 0.0:
            delay *= 1.0 + rng.uniform(-self.jitter_fraction,
                                       self.jitter_fraction)
        return delay


#: The degenerate policy every config defaults to: a fixed 10 s interval,
#: generous so it never fires in failure-free runs.
DEFAULT_RETRY = RetryPolicy(base_ms=10_000.0)
