"""repro.perf: kernel-throughput benchmarking and perf-regression
tracking.

The discrete-event kernel is this repository's "hardware": every figure,
chaos run, and future million-client sweep executes exactly as fast as
the kernel churns events.  This package measures that as a first-class
subsystem:

* :mod:`repro.perf.suites` — microbenchmarks (raw event churn, timer
  schedule/cancel, network send/deliver with and without tracing and
  fault models, Zipf key generation) and end-to-end benchmarks
  (committed txns/sec for all four systems under the Retwis driver).
* :mod:`repro.perf.schema` — the ``BENCH_<label>.json`` document format
  and its stdlib validator.  Every suite reports both wall-clock rates
  (host-dependent) and deterministic operation counters
  (host-independent), so CI can flag behavioural regressions exactly
  without trusting noisy timers.
* :mod:`repro.perf.compare` — diff two BENCH files: rates against a
  relative threshold, op counters exactly (``python -m repro perf
  compare``).

This package is the one place in the simulated codebase allowed to read
the wall clock (``time.perf_counter``); detlint's DL003 allowlist is
scoped to ``perf/`` accordingly.
"""

from repro.perf.schema import BENCH_SCHEMA, validate_bench
from repro.perf.suites import SUITES, SuiteResult, run_suites
from repro.perf.compare import compare_benches

__all__ = [
    "BENCH_SCHEMA",
    "validate_bench",
    "SUITES",
    "SuiteResult",
    "run_suites",
    "compare_benches",
]
