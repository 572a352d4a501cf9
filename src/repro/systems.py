"""The one table of evaluated systems.

The paper compares Carousel Basic and Carousel Fast with TAPIR (§6) and
argues against layering 2PC over consensus (§2); this tree models all
four.  Every harness — bench, trace, chaos, perf, conform/serve,
divergence — asks this module what a *system* is instead of dispatching
on a name itself: :func:`build` constructs a deployment, and each
:class:`System` row carries the facts the harnesses need about one
(where its server nodes and replicated state live, which wire protocols
it speaks, what the paper claims for its commit path).

Adding a system is one protocol package plus one row in :data:`TABLE`;
DESIGN.md §2 lists what the row must supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.bench.cluster import (CarouselCluster, DeploymentSpec,
                                 LayeredCluster, TapirCluster)
from repro.core.backoff import RetryPolicy
from repro.core.config import BASIC, FAST, CarouselConfig
from repro.raft.node import RaftConfig
from repro.tapir.config import TapirConfig
from repro.trace.tracer import SPAN_CPC_SLOW, SPAN_READ_ONLY


@dataclass(frozen=True)
class Timing:
    """The timing profile of a deployment, system-independent.

    A regrouping of values the per-system configs already carry
    (:class:`CarouselConfig`, :class:`TapirConfig`, the layered
    servers' ``raft_config``/``retry_policy``); the defaults are the
    paper profile those configs default to.
    """

    raft: RaftConfig = field(default_factory=RaftConfig)
    #: Retransmission schedule of every client/coordinator retry timer.
    retry: RetryPolicy = RetryPolicy(base_ms=10_000.0)
    #: Carousel's client-to-coordinator heartbeat interval (§4.3.1).
    client_heartbeat_ms: float = 1000.0
    #: TAPIR's wait for a unanimous fast quorum (§6.3).
    tapir_fast_path_timeout_ms: float = 250.0


@dataclass(frozen=True)
class WanrtClaim:
    """One row of the paper's sequential-WANRT claims (§1, §4): a
    committing transaction of ``variant`` spends between ``lo`` and
    ``hi`` wide-area round trips on its critical path."""

    variant: str
    lo: float
    hi: float
    #: Span kind whose presence on the trace selects this row; ``None``
    #: marks the system's default row.
    when_span: Optional[str] = None
    #: The bounds count round trips *beyond* the read round (which a
    #: client-local replica serves for free, §4.4.1).
    beyond_read: bool = False


@dataclass(frozen=True)
class System:
    """What the harnesses know about one evaluated system."""

    name: str
    #: Display name matching the paper's figures.
    label: str
    #: ``(spec, timing, runtime) -> cluster``: the deployment class with
    #: ``timing`` mapped onto its own config.
    cluster: Callable[[DeploymentSpec, Timing, Any], Any]
    #: Protocols (:data:`repro.analysis.protolint.PROTOCOLS`, each a
    #: package's ``Message`` subclasses) this system's traffic may use.
    protocols: FrozenSet[str]
    #: WANRT claims, first matching row wins.
    wanrt: Tuple[WanrtClaim, ...]
    #: Name of the cluster attribute holding ``{node_id: server node}``.
    pool: str
    #: ``(node, pid) -> (store, {tid: "commit" | "abort"})``: one
    #: replica's versioned store and a copy of its resolved outcomes.
    replica_state: Callable[[Any, str], Tuple[Any, Dict[Any, str]]]
    #: Has a one-round fast commit path that needs a replica of every
    #: touched partition in the client's datacenter (CPC, TAPIR).
    fast_path: bool = False

    @property
    def leaderless(self) -> bool:
        """Replicas are peers driven by the client (no consensus group,
        no server-to-server traffic)."""
        return "raft" not in self.protocols

    def nodes(self, cluster: Any) -> Dict[str, Any]:
        """The server nodes this process hosts, by node id."""
        return getattr(cluster, self.pool)


def _carousel(mode: str):
    def cluster(spec, timing, runtime):
        return CarouselCluster(spec, CarouselConfig(
            mode=mode,
            heartbeat_interval_ms=timing.client_heartbeat_ms,
            retry_policy=timing.retry, raft=timing.raft), runtime=runtime)
    return cluster


def _layered(spec, timing, runtime):
    return LayeredCluster(spec, raft_config=timing.raft,
                          retry_policy=timing.retry, runtime=runtime)


def _tapir(spec, timing, runtime):
    return TapirCluster(spec, TapirConfig(
        fast_path_timeout_ms=timing.tapir_fast_path_timeout_ms,
        retry_policy=timing.retry), runtime=runtime)


def _partition_state(server, pid):
    """Carousel and layered servers keep one component per partition."""
    part = server.partitions[pid]
    return part.store, dict(part.resolved)


def _tapir_state(replica, pid):
    """A TAPIR replica is one partition; IR resolves to booleans."""
    return replica.store, {tid: ("commit" if ok else "abort")
                           for tid, ok in replica.resolved.items()}


_READ_ONLY = WanrtClaim("carousel-read-only", 1.0, 1.0,
                        when_span=SPAN_READ_ONLY)

#: Every system, by canonical name, in report order.
TABLE: Dict[str, System] = {s.name: s for s in (
    System("carousel-basic", "Carousel Basic", _carousel(BASIC),
           frozenset({"carousel", "raft"}),
           (_READ_ONLY, WanrtClaim("carousel-basic", 2.0, 2.0)),
           "servers", _partition_state),
    System("carousel-fast", "Carousel Fast", _carousel(FAST),
           frozenset({"carousel", "raft"}),
           (_READ_ONLY,
            # CPC's slow path costs at least one more round.
            WanrtClaim("carousel-fast-slow-path", 1.0, math.inf,
                       when_span=SPAN_CPC_SLOW),
            WanrtClaim("carousel-fast", 1.0, 1.0, beyond_read=True)),
           "servers", _partition_state, fast_path=True),
    System("layered", "Layered 2PC", _layered,
           frozenset({"layered", "raft"}),
           (WanrtClaim("layered", 3.0, math.inf),),
           "servers", _partition_state),
    System("tapir", "TAPIR", _tapir, frozenset({"tapir"}),
           (WanrtClaim("tapir-slow", 2.0, math.inf,
                       when_span="tapir-finalize"),
            WanrtClaim("tapir-fast", 1.0, 1.0, beyond_read=True)),
           "replicas", _tapir_state, fast_path=True),
)}

SYSTEMS: Tuple[str, ...] = tuple(TABLE)

#: The three systems the paper's figures compare, in legend order.
EVALUATED: Tuple[str, ...] = ("tapir", "carousel-basic", "carousel-fast")

ALIASES = {
    "basic": "carousel-basic",
    "fast": "carousel-fast",
    "carousel": "carousel-fast",
}


def get(name: str) -> System:
    """The table row for a system name or alias."""
    system = TABLE.get(ALIASES.get(name, name))
    if system is None:
        raise ValueError(f"unknown system {name!r}; expected one of "
                         f"{', '.join(TABLE)} (aliases: "
                         f"{', '.join(ALIASES)})")
    return system


def canonical(name: str) -> str:
    """Resolve a system name or alias to its canonical form."""
    return get(name).name


def build(system: str, spec: DeploymentSpec,
          timing: Optional[Timing] = None, runtime=None):
    """One deployment of ``system`` under ``timing`` (``None``: the paper
    profile) on ``runtime`` (``None``: a fresh DES backend)."""
    return get(system).cluster(spec, timing or Timing(), runtime)


# ----------------------------------------------------------------------
# The --system/--systems/--seeds option values every CLI verb shares.

def parse_systems(text: str) -> List[str]:
    """``"all"`` or comma-separated names/aliases -> canonical names."""
    if text == "all":
        return list(TABLE)
    systems = [canonical(part.strip())
               for part in text.split(",") if part.strip()]
    if not systems:
        raise ValueError(f"no systems in {text!r}")
    return systems


def parse_seeds(text: str) -> List[int]:
    """Parse ``"0..9"``, ``"3"``, or ``"1,4,7"`` into a seed list."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            start, stop = int(lo), int(hi)
            if stop < start:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(start, stop + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds
