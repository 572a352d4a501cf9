"""Carousel deployment and protocol configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.backoff import DEFAULT_RETRY, RetryPolicy
from repro.raft.node import RaftConfig

#: Protocol modes evaluated in the paper (§5).
BASIC = "basic"
FAST = "fast"


@dataclass
class CarouselConfig:
    """Tunable parameters of a Carousel deployment.

    Parameters
    ----------
    mode:
        ``BASIC`` runs the basic transaction protocol (§4.1).  ``FAST``
        enables CPC (§4.2) and, following the paper's "Carousel Fast"
        configuration, reading from local replicas (§4.4.1).
    read_only_optimization:
        One-roundtrip read-only transactions (§4.4.2).  The paper enables
        this for both Basic and Fast.
    heartbeat_interval_ms / heartbeat_misses:
        Clients heartbeat their transaction coordinator; the coordinator
        aborts a transaction after ``heartbeat_misses`` consecutive missed
        heartbeats, unless it has already received the commit request
        (§4.3.1).
    read_nearest_replica:
        §4.4.1's extension: when a partition has no replica in the
        client's datacenter, also request read data from the *closest*
        replica (not just the leader).  Only meaningful in ``FAST`` mode,
        where stale reads are detected at commit time.
    retry_policy:
        The capped-exponential-backoff schedule every retransmission
        timer shares (client retry, coordinator prepare re-query,
        writeback retry); see :class:`repro.core.backoff.RetryPolicy`.
        The default is the degenerate policy: a fixed interval, generous
        so it never fires in failure-free runs, that draws nothing from
        the RNG.  Chaos runs use an aggressive base with multiplier 2 so
        lost messages are retried quickly without synchronized retry
        storms.
    directory_cache_ttl_ms:
        When set, clients cache directory lookups for this long instead of
        consulting the directory service on every transaction (§3.3);
        entries are invalidated on retransmission, when a moved leader is
        the likely cause.  ``None`` (default) reads the directory directly.
    raft:
        Timing for every consensus group.
    """

    mode: str = BASIC
    read_only_optimization: bool = True
    read_nearest_replica: bool = False
    directory_cache_ttl_ms: Optional[float] = None
    heartbeat_interval_ms: float = 1000.0
    heartbeat_misses: int = 3
    retry_policy: RetryPolicy = DEFAULT_RETRY
    raft: RaftConfig = field(default_factory=RaftConfig)

    def __post_init__(self) -> None:
        if self.mode not in (BASIC, FAST):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be at least 1")

    @property
    def fast_path_enabled(self) -> bool:
        return self.mode == FAST

    @property
    def local_reads_enabled(self) -> bool:
        return self.mode == FAST
