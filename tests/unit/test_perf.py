"""Unit tests for the repro.perf subsystem: BENCH schema, comparison
logic, suite plumbing, and CLI wiring."""

import json

import pytest

from repro.perf.compare import compare_benches
from repro.perf.schema import SCHEMA_VERSION, validate_bench
from repro.perf.suites import (
    SUITES,
    SuiteResult,
    bench_document,
    run_suites,
)
from repro.systems import SYSTEMS


def _doc(**suites):
    """A minimal valid BENCH document with the given suites."""
    return {
        "schema_version": SCHEMA_VERSION,
        "label": "test",
        "scale": "quick",
        "host": {"python": "3.x", "platform": "test",
                 "implementation": "cpython"},
        "suites": suites or {"s": _suite()},
    }


def _suite(rate=1000.0, ops=None):
    return {"unit": "events", "units_processed": 1000,
            "wall_seconds": 1000.0 / rate, "rate_per_sec": rate,
            "ops": dict(ops or {"events_executed": 1000})}


# ----------------------------------------------------------------------
# schema


class TestBenchSchema:
    def test_valid_document_passes(self):
        assert validate_bench(_doc()) == []

    def test_non_object_rejected(self):
        assert validate_bench([1, 2]) != []

    def test_missing_top_level_key(self):
        doc = _doc()
        del doc["host"]
        assert any("host" in e for e in validate_bench(doc))

    def test_wrong_schema_version(self):
        doc = _doc()
        doc["schema_version"] = 99
        assert validate_bench(doc) != []

    def test_bad_scale(self):
        doc = _doc()
        doc["scale"] = "medium"
        assert validate_bench(doc) != []

    def test_suite_missing_key(self):
        suite = _suite()
        del suite["ops"]
        assert any("ops" in e for e in validate_bench(_doc(s=suite)))

    def test_unknown_unit(self):
        suite = _suite()
        suite["unit"] = "parsecs"
        assert validate_bench(_doc(s=suite)) != []

    def test_float_op_counter_rejected(self):
        suite = _suite(ops={"events_executed": 12.5})
        assert any("ops" in e for e in validate_bench(_doc(s=suite)))

    def test_bool_op_counter_rejected(self):
        suite = _suite(ops={"fast_path": True})
        assert validate_bench(_doc(s=suite)) != []

    def test_empty_suites_rejected(self):
        doc = _doc()
        doc["suites"] = {}
        assert validate_bench(doc) != []

    def test_zero_wall_seconds_rejected(self):
        suite = _suite()
        suite["wall_seconds"] = 0.0
        assert validate_bench(_doc(s=suite)) != []

    def test_v1_documents_remain_valid(self):
        # The committed BENCH_seed.json predates schema v2; the
        # validator must keep accepting it without regeneration.
        doc = _doc()
        doc["schema_version"] = 1
        assert validate_bench(doc) == []

    def test_v2_host_and_cache_blocks(self):
        doc = _doc()
        doc["host"]["cpu_count"] = 4
        doc["host"]["jobs"] = 2
        doc["cache"] = {"hits": 3, "misses": 1}
        assert validate_bench(doc) == []
        doc["host"]["cpu_count"] = 0
        assert validate_bench(doc) != []
        doc["host"]["cpu_count"] = 4
        doc["cache"] = {"hits": -1, "misses": 0}
        assert validate_bench(doc) != []


# ----------------------------------------------------------------------
# compare


class TestCompare:
    def test_identical_documents_ok(self):
        result = compare_benches(_doc(), _doc())
        assert result.ok()
        assert result.regressions == []
        assert result.ops_drifted == []

    def test_injected_regression_is_flagged(self):
        base = _doc(s=_suite(rate=1000.0))
        cand = _doc(s=_suite(rate=700.0))  # -30%, threshold 15%
        result = compare_benches(base, cand, threshold=0.15)
        assert not result.ok()
        assert [d.name for d in result.regressions] == ["s"]

    def test_drop_within_threshold_passes(self):
        base = _doc(s=_suite(rate=1000.0))
        cand = _doc(s=_suite(rate=900.0))  # -10%
        assert compare_benches(base, cand, threshold=0.15).ok()

    def test_improvement_reported_not_fatal(self):
        base = _doc(s=_suite(rate=1000.0))
        cand = _doc(s=_suite(rate=2000.0))
        result = compare_benches(base, cand)
        assert result.ok()
        assert [d.name for d in result.improvements] == ["s"]

    def test_ops_drift_always_fails(self):
        base = _doc(s=_suite(ops={"events_executed": 1000}))
        cand = _doc(s=_suite(ops={"events_executed": 1001}))
        result = compare_benches(base, cand)
        assert not result.ok()
        assert not result.ok(ops_only=True)
        drift = result.ops_drifted[0].ops_drift["events_executed"]
        assert drift == {"base": 1000, "cand": 1001}

    def test_ops_only_ignores_rate_regression(self):
        base = _doc(s=_suite(rate=1000.0))
        cand = _doc(s=_suite(rate=100.0))
        result = compare_benches(base, cand)
        assert not result.ok()
        assert result.ok(ops_only=True)

    def test_missing_suite_fails(self):
        base = _doc(a=_suite(), b=_suite())
        cand = _doc(a=_suite())
        result = compare_benches(base, cand)
        assert result.missing_in_candidate == ["b"]
        assert not result.ok(ops_only=True)

    def test_extra_suite_is_fine(self):
        base = _doc(a=_suite())
        cand = _doc(a=_suite(), b=_suite())
        result = compare_benches(base, cand)
        assert result.extra_in_candidate == ["b"]
        assert result.ok()

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            compare_benches(_doc(), _doc(), threshold=1.5)

    def test_host_only_differences_never_gate(self):
        base = _doc()
        cand = _doc()
        cand["host"] = dict(cand["host"], cpu_count=8, jobs=4,
                            platform="other-box")
        result = compare_benches(base, cand)
        assert result.ok()
        assert result.ok(ops_only=True)
        assert set(result.host_diffs) == {"cpu_count", "jobs",
                                          "platform"}
        assert result.host_diffs["jobs"] == {"base": None, "cand": 4}


# ----------------------------------------------------------------------
# suites


class TestSuites:
    def test_registry_covers_all_four_systems(self):
        assert len(SUITES) >= 6
        for system in SYSTEMS:
            assert f"e2e-{system}" in SUITES

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["no-such-suite"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["zipf-approx"], scale="epic")

    def test_run_produces_valid_document_and_deterministic_ops(self):
        runs = [run_suites(["zipf-approx"], scale="quick")
                for _ in range(2)]
        doc = bench_document(runs[0], label="t", scale="quick")
        assert validate_bench(doc) == []
        assert runs[0]["zipf-approx"].ops == runs[1]["zipf-approx"].ops

    def test_parallel_executor_matches_sequential_ops(self):
        from repro.sweep import SweepExecutor
        names = ["zipf-approx"]
        seq = run_suites(names, scale="quick")
        ex = SweepExecutor(jobs=2, cache=None)
        par = run_suites(names, scale="quick", executor=ex)
        assert par["zipf-approx"].ops == seq["zipf-approx"].ops
        assert par["zipf-approx"].units_processed == \
            seq["zipf-approx"].units_processed
        # Perf reps are uncacheable by design: no cache traffic at all.
        assert (ex.stats.hits, ex.stats.misses) == (0, 0)

    def test_merge_reps_rejects_diverging_ops(self):
        from repro.perf.suites import merge_reps
        a = SuiteResult(name="x", unit="events", units_processed=10,
                        wall_seconds=2.0, ops={"n": 1})
        b = SuiteResult(name="x", unit="events", units_processed=10,
                        wall_seconds=1.0, ops={"n": 1})
        assert merge_reps([a, b]).wall_seconds == 1.0
        c = SuiteResult(name="x", unit="events", units_processed=10,
                        wall_seconds=1.0, ops={"n": 2})
        with pytest.raises(RuntimeError, match="diverged"):
            merge_reps([a, c])

    def test_bench_document_records_jobs_and_cache(self):
        results = run_suites(["zipf-approx"], scale="quick")
        doc = bench_document(results, label="t", scale="quick", jobs=3,
                             cache_stats={"hits": 2, "misses": 5})
        assert validate_bench(doc) == []
        assert doc["host"]["jobs"] == 3
        assert doc["host"]["cpu_count"] >= 1
        assert doc["cache"] == {"hits": 2, "misses": 5}

    def test_rate_property(self):
        result = SuiteResult(name="x", unit="events",
                             units_processed=500, wall_seconds=2.0)
        assert result.rate_per_sec == 250.0
        assert SuiteResult(name="x", unit="events", units_processed=1,
                           wall_seconds=0.0).rate_per_sec == 0.0


# ----------------------------------------------------------------------
# CLI


class TestPerfCli:
    def test_list_names_all_suites(self, capsys):
        from repro.perf.cli import main
        assert main(["perf", "list"]) == 0
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out

    def test_run_writes_valid_bench_file(self, tmp_path, capsys):
        from repro.perf.cli import main
        out_path = tmp_path / "BENCH_t.json"
        assert main(["perf", "run", "--label", "t", "--suites",
                     "zipf-approx", "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert validate_bench(doc) == []
        assert doc["label"] == "t"
        assert "zipf-approx" in doc["suites"]

    def test_compare_exit_codes(self, tmp_path, capsys):
        from repro.perf.cli import main
        base, cand = tmp_path / "b.json", tmp_path / "c.json"
        base.write_text(json.dumps(_doc(s=_suite(rate=1000.0))))
        cand.write_text(json.dumps(_doc(s=_suite(rate=500.0))))
        assert main(["perf", "compare", str(base), str(cand)]) == 1
        assert main(["perf", "compare", "--ops-only",
                     str(base), str(cand)]) == 0
        assert main(["perf", "compare", str(base), str(base)]) == 0

    def test_compare_rejects_invalid_file(self, tmp_path):
        from repro.perf.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        with pytest.raises(SystemExit):
            main(["perf", "compare", str(bad), str(bad)])

    def test_repro_cli_routes_perf(self, tmp_path, capsys):
        from repro.cli import main
        out_path = tmp_path / "BENCH_r.json"
        assert main(["perf", "run", "--label", "r", "--suites",
                     "zipf-approx", "--out", str(out_path)]) == 0
        assert validate_bench(json.loads(out_path.read_text())) == []

    def test_repro_help_lists_all_five_verbs(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for verb in ("trace", "lint", "divergence", "chaos", "perf"):
            assert verb in out
