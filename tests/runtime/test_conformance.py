"""The DES-differential conformance harness.

The unmarked tests cover the harness's pure pieces (plan generation,
count reconciliation, snapshot merging) and the DES run alone — fast
and fully deterministic, so they run in tier-1.  The full differential
runs (DES *and* asyncio/TCP over localhost sockets, wall-clock settle
times) are real-time tests and sit behind the ``cluster`` marker:

    pytest tests/runtime/test_conformance.py --run-cluster
"""

import pytest

from repro.runtime.conformance import (
    TIME_DRIVEN,
    ConformanceResult,
    conform_scenario,
    reconcile_counts,
    run_conformance,
)
from repro.runtime.harness import merge_snapshots
from repro.scenario import run
from repro.systems import SYSTEMS
from repro.workloads.plans import increment_plan

_ROUNDS = 8


# ----------------------------------------------------------------------
# Pure pieces (tier-1)
# ----------------------------------------------------------------------

class TestPlan:
    def test_plan_is_seed_deterministic(self):
        a = conform_scenario("carousel-fast", 5, _ROUNDS).plan
        b = conform_scenario("carousel-fast", 5, _ROUNDS).plan
        c = conform_scenario("carousel-fast", 6, _ROUNDS).plan
        assert a == b
        assert a != c
        assert len(a) == _ROUNDS

    def test_plan_rows_are_valid(self):
        keys = ["wk0", "wk1"]
        for at, client, picked, increments in increment_plan(
                "conform:0", _ROUNDS, 3, keys):
            assert at is None  # sequential
            assert increments == picked
            assert 0 <= client < 3
            assert 1 <= len(picked) <= 2
            assert set(picked) <= set(keys)
            assert picked == tuple(sorted(picked))


class TestReconcileCounts:
    def test_equal_request_driven_counts_pass(self):
        counts = {"CommitRequest": 8, "TxnReply": 8, "AppendEntries": 100}
        other = dict(counts, AppendEntries=999)  # time-driven: exempt
        assert reconcile_counts("carousel-fast", counts, other) == []

    def test_request_driven_mismatch_is_a_violation(self):
        des = {"CommitRequest": 8}
        aio = {"CommitRequest": 9}
        violations = reconcile_counts("carousel-fast", des, aio)
        assert any("CommitRequest" in v for v in violations)

    def test_foreign_protocol_traffic_is_a_violation(self):
        # A tapir run must never emit carousel message types.
        violations = reconcile_counts("tapir", {"CommitRequest": 1},
                                      {"CommitRequest": 1})
        assert violations

    def test_unknown_message_type_is_a_violation(self):
        violations = reconcile_counts("carousel-fast",
                                      {"NotARealMessage": 1},
                                      {"NotARealMessage": 1})
        assert violations

    def test_time_driven_set_is_request_independent(self):
        assert "AppendEntries" in TIME_DRIVEN
        assert "ClientHeartbeat" in TIME_DRIVEN
        assert "CommitRequest" not in TIME_DRIVEN


class TestMergeSnapshots:
    def test_union_and_counter_sum(self):
        a = {"stores": {"n1": {"p0": {"k": ("v", 1)}}},
             "resolved": {"n1": {"p0": {}}},
             "sent_by_type": {"TxnReply": 2}}
        b = {"stores": {"n2": {"p0": {"k": ("v", 1)}}},
             "resolved": {"n2": {"p0": {}}},
             "sent_by_type": {"TxnReply": 3, "CommitRequest": 1}}
        merged = merge_snapshots([a, b])
        assert set(merged["stores"]) == {"n1", "n2"}
        assert merged["sent_by_type"] == {"TxnReply": 5, "CommitRequest": 1}


class TestDesSide:
    def test_des_side_is_reproducible(self):
        scenario = conform_scenario("carousel-fast", 0, _ROUNDS)
        snaps = []
        for __ in range(2):
            des = run(scenario)
            assert des.violations == []
            assert len(des.history) == len(scenario.plan)
            snaps.append(des.snapshot)
        assert snaps[0] == snaps[1]

    def test_result_ok_reflects_violations(self):
        good = ConformanceResult(system="tapir", seed=0)
        bad = ConformanceResult(system="tapir", seed=0,
                                violations=["boom"])
        assert good.ok and not bad.ok


# ----------------------------------------------------------------------
# Full differential runs (localhost TCP; opt in with --run-cluster)
# ----------------------------------------------------------------------

@pytest.mark.cluster
@pytest.mark.parametrize("system", SYSTEMS)
def test_differential_conformance(system):
    """Same seeded plan through both backends: same decisions, same
    final replicated state, reconciled message counts."""
    result = run_conformance(system, 0, rounds=8)
    assert result.ok, "\n".join(result.violations)
    assert result.rounds == 8
    assert result.committed + result.aborted == 8
    assert result.counts_des and result.counts_aio


@pytest.mark.cluster
@pytest.mark.slow
def test_multiprocess_cluster_smoke():
    """One OS process per datacenter, driven over control frames, held
    to the same differential evaluation."""
    from repro.runtime.serve import run_cluster

    result = run_cluster("carousel-fast", 0, rounds=5)
    assert result.ok, "\n".join(result.violations)
    assert result.committed + result.aborted == 5
