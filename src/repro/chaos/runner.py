"""One chaos run: a :class:`~repro.scenario.Scenario` with a nemesis.

The scenario is a fresh deterministic cluster of the requested system, a
seeded increment workload and a seeded nemesis timeline, both scheduled
up front.  :func:`repro.scenario.run` advances virtual time past the last
fault, heals everything, waits for quiescence and judges the run with the
safety and liveness oracles (:mod:`repro.chaos.oracles`); a
restart-weighted scenario then power-cycles every server and judges
durability as well.  Everything is derived from the run seed —
re-running the same ``(system, seed, schedule)`` triple is
byte-identical, which is what lets :mod:`repro.chaos.minimize` replay
subsequences.

Timing uses the aggressive chaos profile: fast Raft elections, fast
client heartbeats, and an 800 ms retransmission base with exponential
backoff (multiplier 2, cap 6.4 s, 10 % deterministic jitter) so lost
messages are retried promptly without synchronized retry storms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.chaos.nemesis import Nemesis, NemesisEvent
# Re-exported: the frozen ledger harness subclasses it from here.
from repro.chaos.oracles import ClusterAdapter  # noqa: F401
from repro.core.backoff import RetryPolicy
from repro.raft.node import RaftConfig
from repro.scenario import Run, Scenario, StopRule, run
from repro.workloads.plans import increment_plan

#: The aggressive chaos profile (see the module docstring).
CHAOS_TIMING = systems.Timing(
    raft=RaftConfig(election_timeout_min_ms=400.0,
                    election_timeout_max_ms=800.0,
                    heartbeat_interval_ms=100.0),
    retry=RetryPolicy(base_ms=800.0, multiplier=2.0, max_ms=6400.0,
                      jitter_fraction=0.1),
    client_heartbeat_ms=500.0)

#: Distinct workload keys (``ck0..ck3``), all starting absent.
N_KEYS = 4
#: Quiet lead-in before the first submission or fault.
WARMUP_MS = 1000.0


@dataclass
class ChaosOptions:
    """Knobs for one chaos run (defaults match the CLI)."""

    #: Number of workload transactions per run.
    rounds: int = 25
    #: Width of the submission/fault window.
    window_ms: float = 15_000.0
    #: Extra settle time after the last client goes idle, so server-side
    #: writeback/commit retransmissions (capped at 6.4 s) drain too.
    drain_ms: float = 8000.0
    #: Nemesis events per generated schedule.
    n_events: int = 6
    #: Extra sampling weight for power-cycle (``restart``) events; the
    #: default of 0 keeps pre-existing seeded timelines byte-identical.
    #: Any weight > 0 also ends the run by power-cycling every server and
    #: checking durability against the state rebuilt from WAL images.
    restart_weight: int = 0
    #: Attach a recording tracer (costs memory; used for counterexamples).
    trace: bool = False


def run_chaos(system: str, seed: int,
              opts: Optional[ChaosOptions] = None,
              schedule: Optional[Sequence[NemesisEvent]] = None,
              planted_bug: Optional[Callable[[], Any]] = None
              ) -> Run:
    """Run one seeded chaos scenario and evaluate every oracle.

    ``schedule`` overrides the generated nemesis timeline (used by the
    minimizer to replay subsequences); ``planted_bug`` is a context-
    manager factory from :mod:`repro.chaos.bugs` that stays active for
    the whole run (used to validate that the oracles catch known bugs).
    """
    return run(chaos_scenario(system, seed, opts, schedule), planted_bug)


def chaos_scenario(system: str, seed: int,
                   opts: Optional[ChaosOptions] = None,
                   schedule: Optional[Sequence[NemesisEvent]] = None
                   ) -> Scenario:
    """The seeded chaos scenario of ``(system, seed)``: its workload is
    drawn from ``random.Random(f"workload:{seed}")``, independent of the
    nemesis and kernel RNGs, so it is identical whether the run replays
    a full schedule or a minimized subsequence."""
    opts = opts or ChaosOptions()
    spec = DeploymentSpec(seed=seed)
    keys = [f"ck{i}" for i in range(N_KEYS)]
    return Scenario(
        system=systems.canonical(system), deployment=spec,
        timing=CHAOS_TIMING, seed=seed,
        plan=tuple(increment_plan(f"workload:{seed}", opts.rounds,
                                  spec.n_clients, keys,
                                  window=(WARMUP_MS, opts.window_ms))),
        # Leaders are bootstrap-assigned, so settling needs no election;
        # the quiescence bound is the liveness oracle's.
        stop=StopRule(settle_ms=600.0, poll_ms=250.0, quiesce_ms=60_000.0,
                      drain_ms=opts.drain_ms),
        nemesis=Nemesis(n_events=opts.n_events,
                        restart_weight=opts.restart_weight,
                        start_ms=WARMUP_MS,
                        end_ms=WARMUP_MS + opts.window_ms,
                        events=None if schedule is None
                        else tuple(schedule)),
        txn_type="chaos-incr", trace=opts.trace)
