"""Zipfian key popularity, YCSB-style.

Implements the Gray et al. "quickly generating billion-record synthetic
databases" algorithm used by YCSB's ``ZipfianGenerator``: draw a rank with
probability proportional to ``1 / rank^theta``.  The paper configures
``theta = 0.75`` over 10 million keys (§6.2).

The zeta constant is computed once per ``(n, theta)`` and cached, since the
computation is O(n).

Sampling is YCSB's closed-form approximation: one uniform draw plus a
float ``**`` per sample, matching YCSB/TAPIR/Carousel benchmark behaviour.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple


_ZETA_CACHE: Dict[Tuple[int, float], float] = {}


def zeta(n: int, theta: float) -> float:
    """The generalized harmonic number ``sum_{i=1..n} 1/i^theta``."""
    key = (n, theta)
    if key not in _ZETA_CACHE:
        _ZETA_CACHE[key] = sum(1.0 / (i ** theta) for i in range(1, n + 1))
    return _ZETA_CACHE[key]


class ZipfianGenerator:
    """Draws integers in ``[0, n)`` with Zipfian popularity.

    Rank 0 is the most popular item.  Deterministic given the ``rng``.
    """

    def __init__(self, n: int, theta: float = 0.75,
                 rng: random.Random = None):
        if n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self.rng = rng or random.Random(0)
        self._zeta_n = zeta(n, theta)
        self._zeta_2 = zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        denom = 1.0 - self._zeta_2 / self._zeta_n
        # With n <= 2 every draw resolves in the first two branches of
        # next(), so eta is never consulted — and its denominator is 0.
        self._eta = 0.0 if denom == 0.0 else (
            (1.0 - (2.0 / n) ** (1.0 - theta)) / denom)

    def next(self) -> int:
        """Draw one Zipfian rank in [0, n)."""
        u = self.rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * ((self._eta * u - self._eta + 1.0)
                             ** self._alpha))

    def next_key(self, prefix: str = "key") -> str:
        """A key string for the drawn rank."""
        return f"{prefix}:{self.next()}"

    def distinct_keys(self, count: int, prefix: str = "key") -> list:
        """``count`` distinct keys (rejection-sampled)."""
        if count > self.n:
            raise ValueError("cannot draw more distinct keys than exist")
        seen = set()
        keys = []
        while len(keys) < count:
            key = self.next_key(prefix)
            if key not in seen:
                seen.add(key)
                keys.append(key)
        return keys
