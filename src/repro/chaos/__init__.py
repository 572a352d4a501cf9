"""repro.chaos — deterministic nemesis harness.

Jepsen-style robustness testing inside the simulator: seeded random
timelines of crashes, flapping, partitions, and adversarial link faults
(:mod:`repro.chaos.nemesis`) run against a seeded workload on any of the
four systems, checked by safety and liveness oracles
(:mod:`repro.chaos.oracles`), with failing schedules shrunk to minimal
reproducing subsequences (:mod:`repro.chaos.minimize`).  Everything is
derived from the run seed, so every failure is a replayable
counterexample.  A chaos run is a :class:`repro.scenario.Scenario` with
a nemesis, built and run by :mod:`repro.chaos.runner` — which this
package does not import, because :mod:`repro.scenario` imports the
nemesis and oracles from here.  CLI: ``python -m repro chaos``.
"""

from repro.chaos.bugs import (
    PLANTABLE_BUGS,
    planted_lost_commit_bug,
    planted_writeback_bug,
)
from repro.chaos.minimize import minimize_schedule
from repro.chaos.nemesis import (
    KIND_CRASH,
    KIND_FLAP,
    KIND_LINK,
    KIND_PARTITION,
    KIND_RESTART,
    NemesisEvent,
    apply_schedule,
    generate_schedule,
    schedule_horizon,
)
from repro.chaos.oracles import (
    ClusterAdapter,
    OracleViolation,
    check_durability,
)

__all__ = [
    "KIND_CRASH",
    "KIND_FLAP",
    "KIND_LINK",
    "KIND_PARTITION",
    "KIND_RESTART",
    "NemesisEvent",
    "OracleViolation",
    "PLANTABLE_BUGS",
    "ClusterAdapter",
    "apply_schedule",
    "check_durability",
    "generate_schedule",
    "minimize_schedule",
    "planted_lost_commit_bug",
    "planted_writeback_bug",
    "schedule_horizon",
]
