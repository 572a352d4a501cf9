"""repro.sweep: parallel experiment execution with result caching.

A *sweep* is a list of picklable, fully-seeded :class:`RunSpec`
descriptors; :class:`SweepExecutor` runs them across worker processes
(each in a fresh deterministic kernel) and merges the records in spec
order, so aggregate output is byte-identical at any ``--jobs`` value.
Records of cacheable kinds land in an on-disk content-addressed
:class:`ResultCache` keyed by ``sha256(spec, code fingerprint)`` — see
:mod:`repro.sweep.spec` — making a repeated figure run near-instant.

Consumers: the figure runners (:mod:`repro.bench.experiments`) and the
perf suites (:mod:`repro.perf.suites`).
"""

from repro.sweep.cache import CACHE_ENV, ResultCache, default_cache_dir
from repro.sweep.executor import SweepError, SweepExecutor, SweepStats
from repro.sweep.kinds import (
    KINDS,
    Kind,
    execute_spec,
    figure_spec,
    perf_suite_spec,
    register_kind,
)
from repro.sweep.spec import (
    CODE_PREFIXES,
    RunSpec,
    canonical_json,
    code_fingerprint,
)

__all__ = [
    "CACHE_ENV",
    "CODE_PREFIXES",
    "KINDS",
    "Kind",
    "ResultCache",
    "RunSpec",
    "SweepError",
    "SweepExecutor",
    "SweepStats",
    "canonical_json",
    "code_fingerprint",
    "default_cache_dir",
    "execute_spec",
    "figure_spec",
    "perf_suite_spec",
    "register_kind",
]
