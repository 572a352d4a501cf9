"""TAPIR tuning parameters."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.backoff import DEFAULT_RETRY, RetryPolicy


@dataclass
class TapirConfig:
    """Client/replica behaviour knobs.

    Parameters
    ----------
    fast_path_timeout_ms:
        How long the client waits for a unanimous fast quorum before
        starting IR's slow path.  The Carousel paper singles this wait out
        as a cause of TAPIR's long tail (§6.3).  Sized for the EC2
        topology by default; the local-cluster experiments lower it.
    retry_policy:
        Backoff schedule of the retransmission timers (reads/prepares and
        the asynchronous commit round).  The default is the degenerate
        fixed-interval policy that draws nothing from the RNG; see
        :class:`repro.core.backoff.RetryPolicy`.
    """

    fast_path_timeout_ms: float = 250.0
    retry_policy: RetryPolicy = DEFAULT_RETRY

    def __post_init__(self) -> None:
        if self.fast_path_timeout_ms <= 0:
            raise ValueError("fast_path_timeout_ms must be positive")
