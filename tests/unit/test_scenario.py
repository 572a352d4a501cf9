"""The one scenario, the one run, the one judge (:mod:`repro.scenario`).

The plans chaos and conform build are pinned row for row to the ones
each harness drew with a plan builder of its own, before both were
folded into :func:`repro.workloads.plans.increment_plan`; a run is
reproducible and detachable; the judge reads the run's snapshot, not the
live cluster; and the history carries the version every read returned.
"""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.chaos.runner import ChaosOptions, chaos_scenario
from repro.runtime.conformance import conform_scenario
from repro.scenario import judge, run
from repro.systems import SYSTEMS

#: The chaos harness's rows for ``rounds=6``, 5 clients, ``ck0..ck3``.
CHAOS_PLANS = {
    0: [(3451.2584937092756, 4, ("ck3",)),
        (4100.660495010655, 1, ("ck0",)),
        (6313.175772134468, 3, ("ck2", "ck3")),
        (8385.401829367334, 1, ("ck2",)),
        (12850.361672543773, 1, ("ck2",)),
        (15677.612185606853, 3, ("ck3",))],
    1: [(2279.878816438395, 4, ("ck0", "ck1")),
        (2461.276805374917, 1, ("ck3",)),
        (4525.070686704383, 2, ("ck3",)),
        (8818.179647118555, 3, ("ck0", "ck2")),
        (10261.199768136694, 3, ("ck2",)),
        (13457.407887888587, 3, ("ck1",))],
    2: [(3743.571024326944, 3, ("ck0",)),
        (5409.888686180326, 2, ("ck0", "ck3")),
        (5630.331170875423, 1, ("ck1",)),
        (9852.640392719299, 2, ("ck3",)),
        (11309.943235194736, 3, ("ck0",)),
        (11891.588553591671, 0, ("ck0",))],
}

#: The conformance harness's rows for ``rounds=6``, 5 clients,
#: ``wk0..wk3``; they had no time column.
CONFORM_PLANS = {
    0: [(0, ("wk1", "wk2")), (2, ("wk3",)), (4, ("wk1", "wk3")),
        (4, ("wk0", "wk2")), (1, ("wk3",)), (3, ("wk3",))],
    1: [(2, ("wk1",)), (2, ("wk1", "wk3")), (3, ("wk0", "wk1")),
        (4, ("wk1", "wk3")), (4, ("wk3",)), (0, ("wk0", "wk3"))],
    2: [(4, ("wk0", "wk1")), (0, ("wk0",)), (0, ("wk2", "wk3")),
        (2, ("wk2",)), (1, ("wk1",)), (1, ("wk1",))],
}


@pytest.mark.parametrize("seed", sorted(CHAOS_PLANS))
def test_chaos_plan_matches_the_old_builder(seed):
    plan = chaos_scenario("fast", seed, ChaosOptions(rounds=6)).plan
    # Each row now names the keys it reads and those it increments.
    assert list(plan) == [(at, client, keys, keys)
                          for at, client, keys in CHAOS_PLANS[seed]]


@pytest.mark.parametrize("seed", sorted(CONFORM_PLANS))
def test_conform_plan_matches_the_old_builder(seed):
    plan = conform_scenario("fast", seed, rounds=6).plan
    assert list(plan) == [(None, client, keys, keys)
                          for client, keys in CONFORM_PLANS[seed]]


@pytest.fixture(scope="module")
def conform_run():
    return run(conform_scenario("carousel-fast", 0))


def test_two_runs_are_equal(conform_run):
    again = run(conform_run.scenario)
    assert conform_run.ok and again.ok
    assert again.history == conform_run.history
    assert again.snapshot == conform_run.snapshot
    assert again.op_counters == conform_run.op_counters


def test_run_round_trips_through_pickle(conform_run):
    assert conform_run.tracer is None
    restored = pickle.loads(pickle.dumps(conform_run))
    assert restored.scenario.plan == conform_run.scenario.plan
    assert restored.history == conform_run.history
    assert restored.snapshot == conform_run.snapshot
    assert judge(restored).violations == conform_run.violations == []


def test_judge_reads_the_snapshot(conform_run):
    # One replica's copy of a written key, one increment ahead.
    keys = conform_run.history[0][0]
    node, pid = next(
        (node, pid)
        for node, by_pid in sorted(conform_run.snapshot["stores"].items())
        for pid, contents in sorted(by_pid.items()) if keys[0] in contents)
    stores = copy.deepcopy(conform_run.snapshot["stores"])
    value, version = stores[node][pid][keys[0]]
    stores[node][pid][keys[0]] = (value + 1, version + 1)
    tampered = replace(conform_run, violations=[],
                       snapshot=dict(conform_run.snapshot, stores=stores))
    oracles = {v.oracle for v in judge(tampered).violations}
    assert oracles == {"replica-divergence", "value-parity"}


def test_history_carries_read_versions():
    """Sequential increments: every committed transaction read each key
    at the version its earlier committed writers left behind."""
    for system in SYSTEMS:
        for seed in range(3):
            result = run(conform_scenario(system, seed))
            assert result.ok, (system, seed, result.violations)
            writers = {}
            for keys, txn in result.history:
                if not txn.committed:
                    continue
                assert txn.versions == {k: writers.get(k, 0)
                                        for k in keys}, (system, seed)
                for key in keys:
                    writers[key] = writers.get(key, 0) + 1
            assert writers
