"""Nemesis schedules: seeded random timelines of faults.

A *nemesis schedule* (the name follows Jepsen's fault-injecting actor) is
a list of :class:`NemesisEvent` values — crashes, crash/recover flapping,
single-node partitions, and windowed link degradation
(:class:`~repro.sim.network.LinkFaults`) — each pinned to an absolute
virtual time.  Schedules are generated from a dedicated string-seeded RNG
(``random.Random(f"nemesis:{seed}")``), entirely *before* the simulation
runs, so the same seed always yields the same timeline and a subsequence
of a schedule replays exactly (the property the minimizer relies on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.failure import FailureInjector
from repro.sim.network import LinkFaults

#: Fail-stop crash followed by a recovery ``duration_ms`` later.
KIND_CRASH = "crash"
#: Repeated crash/recover cycles (``cycles`` pairs of ``period_ms`` each).
KIND_FLAP = "flap"
#: Isolate one node from every other server for ``duration_ms``.
KIND_PARTITION = "partition"
#: Install a :class:`LinkFaults` model on one link for ``duration_ms``.
KIND_LINK = "degrade-link"
#: Fail-stop crash followed by a *power-cycle* ``duration_ms`` later: all
#: in-memory state is discarded and the node re-instantiates from its WAL
#: image (exercises durable recovery rather than fail-stop resume).
KIND_RESTART = "restart"

#: Sampling weights: link-level faults are the most interesting (they
#: exercise retransmission and idempotence), crashes next, partitions and
#: flapping round out the mix.
_KIND_WEIGHTS = ([KIND_LINK] * 4 + [KIND_CRASH] * 3
                 + [KIND_PARTITION] * 2 + [KIND_FLAP])


@dataclass(frozen=True)
class NemesisEvent:
    """One scheduled fault (and its implied undo).

    ``targets`` holds one node id for crash/flap/partition events and the
    ``(a, b)`` endpoint pair for link events.  Every event heals itself:
    crashes recover, partitions heal, and link faults are removed at
    ``at_ms + duration_ms`` (flaps end recovered by construction).
    """

    kind: str
    at_ms: float
    duration_ms: float
    targets: Tuple[str, ...]
    faults: Optional[LinkFaults] = None
    period_ms: float = 0.0
    cycles: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_CRASH, KIND_FLAP, KIND_PARTITION,
                             KIND_LINK, KIND_RESTART):
            raise ValueError(f"unknown nemesis kind {self.kind!r}")
        if self.kind == KIND_LINK:
            if len(self.targets) != 2:
                raise ValueError("link events need two endpoints")
            if self.faults is None:
                raise ValueError("link events need a fault model")
        elif len(self.targets) != 1:
            raise ValueError(f"{self.kind} events target exactly one node")
        if self.kind == KIND_FLAP and (self.period_ms <= 0
                                       or self.cycles < 1):
            raise ValueError("flap events need period_ms > 0, cycles >= 1")

    @property
    def end_ms(self) -> float:
        """When this event's undo (recover/heal/restore) fires."""
        return self.at_ms + self.duration_ms

    def describe(self) -> str:
        """One-line human-readable form, used in counterexample reports."""
        window = f"[{self.at_ms:.0f}..{self.end_ms:.0f}ms]"
        if self.kind == KIND_LINK:
            a, b = self.targets
            return (f"{self.kind} {a}<->{b} {window} "
                    f"{self.faults.describe()}")
        if self.kind == KIND_FLAP:
            return (f"{self.kind} {self.targets[0]} {window} "
                    f"{self.cycles}x{self.period_ms:.0f}ms cycles")
        if self.kind == KIND_PARTITION:
            return f"{self.kind} {self.targets[0]} | rest {window}"
        return f"{self.kind} {self.targets[0]} {window}"


def event_to_json(event: NemesisEvent) -> dict:
    """A ``NemesisEvent`` as a plain JSON document — the form a chaos
    replay spec carries across process boundaries in a sweep."""
    doc = {
        "kind": event.kind,
        "at_ms": event.at_ms,
        "duration_ms": event.duration_ms,
        "targets": list(event.targets),
        "period_ms": event.period_ms,
        "cycles": event.cycles,
    }
    if event.faults is not None:
        doc["faults"] = {
            "drop_prob": event.faults.drop_prob,
            "dup_prob": event.faults.dup_prob,
            "delay_prob": event.faults.delay_prob,
            "delay_ms": event.faults.delay_ms,
            "dup_lag_ms": event.faults.dup_lag_ms,
        }
    return doc


def event_from_json(doc: dict) -> NemesisEvent:
    """Rebuild a ``NemesisEvent`` from :func:`event_to_json` output."""
    faults = None
    if doc.get("faults") is not None:
        faults = LinkFaults(**doc["faults"])
    return NemesisEvent(
        kind=doc["kind"],
        at_ms=float(doc["at_ms"]),
        duration_ms=float(doc["duration_ms"]),
        targets=tuple(doc["targets"]),
        faults=faults,
        period_ms=float(doc.get("period_ms", 0.0)),
        cycles=int(doc.get("cycles", 0)),
    )


def generate_schedule(seed: int, servers: Sequence[str],
                      links: Sequence[Tuple[str, str]],
                      start_ms: float, end_ms: float,
                      n_events: int,
                      restart_weight: int = 0,
                      groups: Sequence[Tuple[str, ...]] = ()
                      ) -> List[NemesisEvent]:
    """Sample a random nemesis timeline over ``[start_ms, end_ms]``.

    Draws from ``random.Random(f"nemesis:{seed}")`` — a string seed, so
    the timeline is identical across processes regardless of
    ``PYTHONHASHSEED``, and independent of both the kernel RNG and the
    workload RNG.  ``servers`` are the crash/flap/partition victims (the
    harness passes server ids only: a crashed client would simply stall
    its own transactions forever, which tests nothing); ``links`` are the
    candidate endpoint pairs for degradation windows.

    ``restart_weight`` adds that many :data:`KIND_RESTART` tickets to the
    sampling weights.  The default of 0 keeps every pre-existing
    ``(seed, n_events)`` timeline byte-identical.  When ``groups`` (the
    replica sets of the deployment's consensus groups) is provided, half
    the restart tickets power-cycle an *entire group* with staggered,
    overlapping windows — the correlated failure that wipes every
    RAM-held copy of a group's state at once, which is what separates
    real durability from fail-stop survivorship.  A group ticket expands
    to one event per member, so the schedule may exceed ``n_events``.
    """
    if not servers:
        raise ValueError("need at least one server to torment")
    if end_ms <= start_ms:
        raise ValueError("empty nemesis window")
    rng = random.Random(f"nemesis:{seed}")
    weights = _KIND_WEIGHTS + [KIND_RESTART] * restart_weight
    events: List[NemesisEvent] = []
    for _ in range(n_events):
        kind = rng.choice(weights)
        at = rng.uniform(start_ms, end_ms)
        if kind == KIND_LINK and links:
            a, b = links[rng.randrange(len(links))]
            faults = LinkFaults(
                drop_prob=rng.uniform(0.05, 0.35),
                dup_prob=rng.uniform(0.05, 0.35),
                delay_prob=rng.uniform(0.0, 0.30),
                delay_ms=rng.uniform(10.0, 80.0))
            events.append(NemesisEvent(
                kind=KIND_LINK, at_ms=at,
                duration_ms=rng.uniform(800.0, 5000.0),
                targets=(a, b), faults=faults))
        elif kind == KIND_RESTART and groups and rng.random() < 0.5:
            group = groups[rng.randrange(len(groups))]
            duration = rng.uniform(1500.0, 4000.0)
            for i, node_id in enumerate(sorted(group)):
                events.append(NemesisEvent(
                    kind=KIND_RESTART, at_ms=at + i * 60.0,
                    duration_ms=duration, targets=(node_id,)))
        elif kind == KIND_FLAP:
            period = rng.uniform(150.0, 400.0)
            cycles = rng.randint(2, 3)
            events.append(NemesisEvent(
                kind=KIND_FLAP, at_ms=at,
                duration_ms=2 * cycles * period,
                targets=(servers[rng.randrange(len(servers))],),
                period_ms=period, cycles=cycles))
        else:
            if kind == KIND_LINK:  # no links offered; fall back to a crash
                kind = KIND_CRASH
            events.append(NemesisEvent(
                kind=kind, at_ms=at,
                duration_ms=rng.uniform(800.0, 4000.0),
                targets=(servers[rng.randrange(len(servers))],)))
    events.sort(key=lambda e: (e.at_ms, e.kind, e.targets))
    return events


def candidate_links(adapter: Any) -> List[Tuple[str, str]]:
    """Endpoint pairs the nemesis may degrade, restricted to links that
    actually carry protocol traffic (degrading a silent link tests
    nothing): intra-group Raft links, leader-to-leader links
    (coordinator prepares and writebacks), and client-to-server links.
    TAPIR replicas never talk to each other — IR is client-driven — so
    its candidates are the client/replica pairs.  Server/server links
    appear three times so the nemesis samples them more often: that is
    where replication and 2PC traffic concentrates.  Deterministic
    order.  ``adapter`` is a :class:`repro.chaos.oracles.ClusterAdapter`.
    """
    cluster = adapter.cluster
    clients = sorted(c.node_id for c in adapter.clients())
    links = set()
    if adapter.entry.leaderless:
        for client_id in clients:
            for replica_id in adapter.server_ids():
                links.add((client_id, replica_id))
    else:
        leaders = []
        for pid in cluster.partition_ids:
            info = cluster.directory.lookup(pid)
            leaders.append(info.leader)
            replicas = list(info.replicas)
            for i, a in enumerate(replicas):
                for b in replicas[i + 1:]:
                    links.add(tuple(sorted((a, b))))
        for i, a in enumerate(leaders):
            for b in leaders[i + 1:]:
                if a != b:
                    links.add(tuple(sorted((a, b))))
        servers_by_dc: Dict[str, List[str]] = {}
        servers = adapter.entry.nodes(cluster)
        for server_id in adapter.server_ids():
            server = servers[server_id]
            servers_by_dc.setdefault(server.dc, []).append(server_id)
        client_links = set()
        for client in adapter.clients():
            for leader in leaders:
                client_links.add((client.node_id, leader))
            # Fast-mode local reads talk to same-datacenter replicas.
            for server_id in servers_by_dc.get(client.dc, ()):
                client_links.add((client.node_id, server_id))
        return sorted(links) * 3 + sorted(client_links)
    return sorted(links)


@dataclass(frozen=True)
class Nemesis:
    """A scenario's faults: the :func:`generate_schedule` recipe,
    expanded against the built cluster — or, for the minimizer's
    replays, explicit ``events`` in its place."""

    n_events: int
    #: Extra sampling weight for power-cycle events; any weight > 0 also
    #: ends the run by power-cycling every server and judging durability
    #: on the state rebuilt from WAL images.
    restart_weight: int
    #: The fault window.
    start_ms: float
    end_ms: float
    events: Optional[Tuple[NemesisEvent, ...]] = None

    def expand(self, seed: int, adapter: Any) -> List[NemesisEvent]:
        """The events to inject into the cluster behind ``adapter`` (a
        :class:`repro.chaos.oracles.ClusterAdapter`)."""
        if self.events is not None:
            return list(self.events)
        return generate_schedule(
            seed, adapter.server_ids(), candidate_links(adapter),
            start_ms=self.start_ms, end_ms=self.end_ms,
            n_events=self.n_events, restart_weight=self.restart_weight,
            groups=adapter.replica_groups())


def schedule_horizon(events: Sequence[NemesisEvent]) -> float:
    """Virtual time by which every event's undo has fired (0 if empty)."""
    return max((e.end_ms for e in events), default=0.0)


def apply_schedule(injector: FailureInjector,
                   events: Sequence[NemesisEvent],
                   all_servers: Sequence[str]) -> None:
    """Register every event (and its undo) with the failure injector.

    ``all_servers`` defines the "rest" side of partition events.  Safe for
    overlapping windows: ``Node.crash``/``recover`` are idempotent, and
    the final :meth:`~repro.sim.failure.FailureInjector.heal_everything_now`
    recovers anything still down.
    """
    for ev in events:
        if ev.kind == KIND_CRASH:
            injector.crash_at(ev.targets[0], ev.at_ms)
            injector.recover_at(ev.targets[0], ev.end_ms)
        elif ev.kind == KIND_RESTART:
            injector.crash_at(ev.targets[0], ev.at_ms)
            injector.restart_at(ev.targets[0], ev.end_ms)
        elif ev.kind == KIND_FLAP:
            injector.flap_at(ev.targets[0], ev.at_ms, ev.period_ms,
                             ev.cycles)
        elif ev.kind == KIND_PARTITION:
            victim = ev.targets[0]
            rest = [s for s in all_servers if s != victim]
            injector.partition_at([victim], rest, ev.at_ms)
            injector.heal_at([victim], rest, ev.end_ms)
        else:
            a, b = ev.targets
            injector.degrade_link_at(a, b, ev.at_ms, ev.faults)
            injector.restore_link_at(a, b, ev.end_ms)
