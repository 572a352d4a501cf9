"""Differential conformance: the DES oracle vs. the asyncio/TCP backend.

One seeded :class:`~repro.scenario.Scenario` runs on both runtimes and
the two judged runs (:class:`~repro.scenario.Run`) are compared:

* **decisions** — every transaction must reach the same commit/abort
  decision (and the same transaction id) on both backends;
* **state** — the final replicated state must be identical, and each run
  must independently pass :func:`repro.scenario.judge` (liveness,
  decision-consistency and value-parity, :mod:`repro.chaos.oracles`);
* **traffic** — per-message-type send counts are reconciled against the
  protocols' ``Message`` subclasses
  (:func:`repro.analysis.protolint.messages`): every observed type must
  be a message of one of the system's protocols, and the counts of
  request-driven types must match exactly across backends.
  Time-driven types (Raft heartbeats/elections, client failure-detector
  heartbeats) are exempt from count equality — wall clocks and virtual
  clocks legitimately tick differently — but still protocol-checked.

The plan is *sequential* (one transaction in flight at a time, keys
drawn from a dedicated string-seeded RNG), which makes the commit/abort
decision of every transaction a pure function of the protocol rather
than of racing timers, so the differential assertion is exact instead of
statistical.  The asyncio deployment runs every logical process of the
placement (driver + one per datacenter) inside one event loop, with all
inter-process traffic crossing real localhost TCP sockets through the
wire codec — the same code path ``python -m repro serve`` uses across OS
processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import systems
from repro.analysis.protolint import messages
from repro.bench.cluster import DeploymentSpec
from repro.core.backoff import RetryPolicy
from repro.raft.node import RaftConfig
from repro.scenario import AIO, DES, Run, Scenario, StopRule, run
from repro.workloads.plans import increment_plan

#: Message types whose counts are driven by clocks, not by requests:
#: Raft heartbeats and elections, and the client failure-detector
#: heartbeat.  Wall time and virtual time tick differently, so only the
#: *request-driven* types must match count-for-count.
TIME_DRIVEN = frozenset({
    "AppendEntries", "AppendEntriesReply",
    "RequestVote", "RequestVoteReply",
    "ClientHeartbeat",
})

# Conformance timing profile: fast Raft heartbeats so followers apply
# promptly on both clocks, and retry/timeout bases far above localhost
# (and simulated WAN) round trips so no retransmission or slow-path
# timer fires on either backend during a healthy sequential run.
CONFORM_TIMING = systems.Timing(
    raft=RaftConfig(election_timeout_min_ms=1500.0,
                    election_timeout_max_ms=3000.0,
                    heartbeat_interval_ms=100.0),
    retry=RetryPolicy(base_ms=3000.0, multiplier=2.0, max_ms=12_000.0,
                      jitter_fraction=0.1),
    client_heartbeat_ms=500.0,
    tapir_fast_path_timeout_ms=2000.0)

#: Sequential transactions per run (``--rounds``).
ROUNDS = 12
#: Distinct workload keys (``wk0..wk3``), all starting absent.
N_KEYS = 4

#: One stop rule per runtime, in that runtime's milliseconds.  The gap
#: after each response matters: Carousel acknowledges the client
#: *before* writebacks reach every replica, so back-to-back transactions
#: would race the previous write's propagation — a race that
#: legitimately resolves differently on a virtual vs. a wall clock.  The
#: gap lets each transaction's writebacks apply everywhere (on asyncio it
#: covers a few Raft heartbeats), making every decision a pure function
#: of the protocol.  Both runs end after a fixed drain.
STOP = {
    DES: StopRule(settle_ms=600.0, poll_ms=100.0, quiesce_ms=2000.0,
                  drain_ms=2000.0, txn_timeout_ms=30_000.0, gap_ms=800.0),
    AIO: StopRule(settle_ms=300.0, poll_ms=50.0, quiesce_ms=1000.0,
                  drain_ms=1000.0, txn_timeout_ms=20_000.0, gap_ms=400.0),
}


def conform_scenario(system: str, seed: int, rounds: int = ROUNDS,
                     runtime: str = DES) -> Scenario:
    """The seeded sequential scenario of ``(system, seed)`` on
    ``runtime``; its plan is drawn from ``random.Random(f"conform:{seed}")``
    — independent of both backends' kernel RNGs, so the submitted
    workload is identical by construction."""
    spec = DeploymentSpec(seed=seed)
    keys = [f"wk{i}" for i in range(N_KEYS)]
    return Scenario(
        system=systems.canonical(system), deployment=spec,
        timing=CONFORM_TIMING, seed=seed,
        plan=tuple(increment_plan(f"conform:{seed}", rounds,
                                  spec.n_clients, keys)),
        stop=STOP[runtime], runtime=runtime, txn_type="conform-incr")


@dataclass
class ConformanceResult:
    """Verdict of one ``(system, seed)`` differential run."""

    system: str
    seed: int
    rounds: int = 0
    committed: int = 0
    aborted: int = 0
    violations: List[str] = field(default_factory=list)
    counts_des: Dict[str, int] = field(default_factory=dict)
    counts_aio: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def reconcile_counts(system: str, counts_des: Dict[str, int],
                     counts_aio: Dict[str, int]) -> List[str]:
    """Check both backends' traffic against the protocols' messages.

    Every observed type must be a ``Message`` subclass of one of the
    system's protocols, and request-driven types must match
    count-for-count across backends (:data:`TIME_DRIVEN` types only
    need protocol membership).
    """
    protocol_of = {name: protocol
                   for protocol, names in messages().items()
                   for name in names}
    allowed = systems.get(system).protocols
    violations: List[str] = []
    for backend, counts in (("des", counts_des), ("aio", counts_aio)):
        for name in sorted(counts):
            protocol = protocol_of.get(name)
            if protocol is None:
                violations.append(
                    f"{backend}: sent {name!r}, which is not a protocol "
                    "message type")
            elif protocol not in allowed:
                violations.append(
                    f"{backend}: sent {name!r} from protocol "
                    f"{protocol!r}, outside {system}'s "
                    f"protocols {sorted(allowed)}")
    des_types = {n for n in counts_des if n not in TIME_DRIVEN}
    aio_types = {n for n in counts_aio if n not in TIME_DRIVEN}
    for name in sorted(des_types | aio_types):
        if counts_des.get(name, 0) != counts_aio.get(name, 0):
            violations.append(
                f"count mismatch for {name}: des={counts_des.get(name, 0)} "
                f"aio={counts_aio.get(name, 0)}")
    return violations


def compare(des: Run, aio: Run) -> ConformanceResult:
    """Hold a DES run and an asyncio run of one plan to each other."""
    system = des.scenario.system
    result = ConformanceResult(
        system=system, seed=des.scenario.seed, rounds=len(des.scenario.plan),
        committed=des.committed, aborted=des.aborted,
        counts_des=dict(des.snapshot["sent_by_type"]),
        counts_aio=dict(aio.snapshot["sent_by_type"]))
    violations = result.violations

    # Per-transaction decisions, in submission order (the plan is
    # sequential, so arrival order == submission order on both sides).
    if len(des.history) != len(aio.history):
        violations.append(
            f"terminal responses differ: des={len(des.history)} "
            f"aio={len(aio.history)}")
    for i, ((__, des_r), (__, aio_r)) in enumerate(
            zip(des.history, aio.history)):
        if des_r.tid != aio_r.tid:
            violations.append(
                f"txn {i}: tid differs: des={des_r.tid} aio={aio_r.tid}")
        if des_r.committed != aio_r.committed:
            violations.append(
                f"txn {i} ({des_r.tid}): decision differs: "
                f"des={'commit' if des_r.committed else 'abort'} "
                f"aio={'commit' if aio_r.committed else 'abort'}")

    # Final replicated state: byte-equal stores, and each backend's own
    # verdict from the judge.
    des_stores, aio_stores = des.snapshot["stores"], aio.snapshot["stores"]
    if des_stores != aio_stores:
        diff_nodes = sorted(
            node for node in set(des_stores) | set(aio_stores)
            if des_stores.get(node) != aio_stores.get(node))
        violations.append(
            f"final replicated state differs at: {', '.join(diff_nodes)}")
    for backend, judged in (("des", des), ("aio", aio)):
        violations += [f"{backend}: {v}" for v in judged.violations]

    violations += reconcile_counts(system, result.counts_des,
                                   result.counts_aio)
    return result


def run_conformance(system: str, seed: int,
                    rounds: int = ROUNDS) -> ConformanceResult:
    """One full differential run of ``system`` at ``seed``."""
    des = run(conform_scenario(system, seed, rounds, DES))
    aio = run(conform_scenario(system, seed, rounds, AIO))
    return compare(des, aio)


def format_result(result: ConformanceResult) -> str:
    """One human-readable block per run, counts included."""
    lines = [f"{result.system} seed={result.seed}: "
             f"{'OK' if result.ok else 'FAIL'} "
             f"({result.rounds} txns, {result.committed} committed, "
             f"{result.aborted} aborted)"]
    names = sorted(set(result.counts_des) | set(result.counts_aio))
    for name in names:
        des = result.counts_des.get(name, 0)
        aio = result.counts_aio.get(name, 0)
        marker = "" if des == aio else \
            ("  (time-driven)" if name in TIME_DRIVEN else "  (MISMATCH)")
        lines.append(f"    {name:<24} des={des:<6} aio={aio:<6}{marker}")
    for violation in result.violations:
        lines.append(f"    VIOLATION: {violation}")
    return "\n".join(lines)
