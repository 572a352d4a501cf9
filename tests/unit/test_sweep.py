"""Unit tests for the sweep executor, specs, digests, and cache.

The contract under test: a sweep's merged output is byte-identical
regardless of worker count, the cache invalidates on any spec or
result-relevant code change, and a failing spec surfaces as a
``SweepError`` naming it — never a hang or a silent gap.
"""

import pytest

from repro.sweep import (
    ResultCache,
    RunSpec,
    SweepError,
    SweepExecutor,
    canonical_json,
    code_fingerprint,
    register_kind,
)


# ----------------------------------------------------------------------
# RunSpec canonicalization and digests


def test_specs_equal_regardless_of_param_order():
    a = RunSpec.make("figure", {"system": "tapir", "seed": 4})
    b = RunSpec.make("figure", {"seed": 4, "system": "tapir"})
    assert a == b
    assert hash(a) == hash(b)
    assert a.digest("fp") == b.digest("fp")


def test_label_is_display_only():
    a = RunSpec.make("figure", {"seed": 4}, label="one")
    b = RunSpec.make("figure", {"seed": 4}, label="two")
    assert a.payload == b.payload
    assert a.digest("fp") == b.digest("fp")


def test_digest_separates_kind_payload_and_code():
    spec = RunSpec.make("figure", {"seed": 4})
    assert spec.digest("fp") != spec.digest("fp2")
    assert spec.digest("fp") != RunSpec.make("other", {"seed": 4}) \
        .digest("fp")
    assert spec.digest("fp") != RunSpec.make("figure", {"seed": 5}) \
        .digest("fp")


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# ----------------------------------------------------------------------
# code fingerprint


def test_code_fingerprint_tracks_covered_files(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "bench").mkdir()
    covered = tmp_path / "sim" / "kernel.py"
    uncovered = tmp_path / "bench" / "report.py"
    covered.write_text("A = 1\n")
    uncovered.write_text("B = 1\n")

    from repro.sweep import spec as spec_module

    def fingerprint():
        spec_module._FINGERPRINTS.clear()
        return code_fingerprint(tmp_path)

    base = fingerprint()
    # Editing plot/report code keeps the fingerprint (cache stays warm).
    uncovered.write_text("B = 2\n")
    assert fingerprint() == base
    # Editing simulator code changes it (cache invalidates wholesale).
    covered.write_text("A = 2\n")
    assert fingerprint() != base


def test_code_fingerprint_is_cached_per_root(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "kernel.py").write_text("A = 1\n")
    from repro.sweep import spec as spec_module

    spec_module._FINGERPRINTS.clear()
    first = code_fingerprint(tmp_path)
    # A second call must not re-read the tree (same process, cached).
    (tmp_path / "sim" / "kernel.py").write_text("A = 2\n")
    assert code_fingerprint(tmp_path) == first


# ----------------------------------------------------------------------
# result cache


def test_cache_roundtrip_and_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec.make("test-kind", {"x": 1})
    assert cache.get("ab" * 32) is None
    digest = spec.digest("fp")
    cache.put(digest, spec, {"value": 42})
    assert digest in cache
    assert cache.get(digest) == {"value": 42}
    assert len(cache) == 1


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec.make("test-kind", {"x": 1})
    digest = spec.digest("fp")
    cache.put(digest, spec, {"value": 42})
    cache._path(digest).write_text("not json{")
    assert cache.get(digest) is None


def test_cache_spec_change_changes_digest(tmp_path):
    fp = "fp"
    a = RunSpec.make("test-kind", {"x": 1}).digest(fp)
    b = RunSpec.make("test-kind", {"x": 2}).digest(fp)
    assert a != b


# ----------------------------------------------------------------------
# executor

# A tiny deterministic kind for executor tests: result is a pure
# function of the spec, so parallel and sequential runs must agree.
register_kind(
    "test-square",
    lambda params: {"square": params["n"] * params["n"]},
    encode=lambda record: record,
    decode=lambda doc: doc,
)

register_kind(
    "test-boom",
    lambda params: (_ for _ in ()).throw(RuntimeError("boom")),
)


def _square_specs(n=6):
    return [RunSpec.make("test-square", {"n": i}, label=f"sq{i}")
            for i in range(n)]


def test_executor_results_in_spec_order_any_job_count():
    specs = _square_specs()
    seq = SweepExecutor(jobs=1).run(specs)
    par = SweepExecutor(jobs=2).run(specs)
    expected = [{"square": i * i} for i in range(6)]
    assert seq == expected
    assert par == expected


def test_executor_unknown_kind_raises():
    with pytest.raises(ValueError, match="unknown run kind"):
        SweepExecutor().run([RunSpec.make("no-such-kind", {})])


def test_executor_failing_spec_raises_sweep_error():
    specs = _square_specs(2) + [RunSpec.make("test-boom", {},
                                             label="the-bad-one")]
    for jobs in (1, 2):
        with pytest.raises(SweepError) as excinfo:
            SweepExecutor(jobs=jobs).run(specs)
        assert len(excinfo.value.failures) == 1
        spec, tb_text = excinfo.value.failures[0]
        assert spec.label == "the-bad-one"
        assert "RuntimeError" in tb_text


def test_executor_cache_hits_second_run(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _square_specs(4)
    ex = SweepExecutor(jobs=1, cache=cache)
    first = ex.run(specs)
    assert (ex.stats.hits, ex.stats.misses) == (0, 4)
    second = ex.run(specs)
    assert (ex.stats.hits, ex.stats.misses) == (4, 4)
    assert first == second


def test_executor_uncacheable_kind_counts_no_cache_traffic(tmp_path):
    register_kind("test-nocodec", lambda params: params["n"])
    ex = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
    ex.run([RunSpec.make("test-nocodec", {"n": 3})])
    assert (ex.stats.hits, ex.stats.misses) == (0, 0)


def test_executor_stats_track_jobs_and_wall():
    ex = SweepExecutor(jobs=2)
    ex.run(_square_specs(3))
    assert ex.stats.jobs == 2
    assert ex.stats.wall_seconds > 0
