"""The sweep executor: cache lookup, process-pool fan-out, ordered merge.

``SweepExecutor.run`` takes a list of :class:`~repro.sweep.spec.RunSpec`
descriptors and returns their records **in spec order**, which is what
makes aggregate output byte-identical regardless of worker count: each
record is computed from its spec alone (fresh kernel, explicit seeds —
see :mod:`repro.sweep.kinds`), and the merge never depends on completion
order.  With ``jobs=1`` everything runs in-process, bit-for-bit the same
code path a worker would run.

Worker processes use the ``fork`` start method where available (cheap,
inherits registered kinds) and the platform default elsewhere.  A spec
that raises does not hang or poison the sweep: workers catch the
exception and ship the traceback home, and the executor raises
:class:`SweepError` naming every failing spec after the pool drains.

The wall clock appears here deliberately — the executor *measures* the
sweep, it never feeds time back into simulated behaviour; detlint
allowlists ``sweep/`` the same way it does ``perf/``.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sweep.cache import ResultCache
from repro.sweep.kinds import KINDS, execute_spec
from repro.sweep.spec import RunSpec, code_fingerprint


class SweepError(RuntimeError):
    """One or more sweep runs raised.  ``failures`` holds
    ``(spec, traceback_text)`` pairs in spec order."""

    def __init__(self, failures: Sequence[Tuple[RunSpec, str]]):
        self.failures = list(failures)
        lines = [f"{len(self.failures)} sweep run(s) failed:"]
        for spec, tb_text in self.failures:
            last = tb_text.strip().splitlines()[-1] if tb_text else "?"
            lines.append(f"  {spec.label or spec.kind}: {last}")
        super().__init__("\n".join(lines))


@dataclass
class SweepStats:
    """What one executor did: worker count, cache traffic, wall time."""

    jobs: int = 1
    hits: int = 0
    misses: int = 0
    wall_seconds: float = 0.0


def _run_one(spec: RunSpec) -> Tuple[str, Any]:
    """Worker entry point.  Never raises — arbitrary exceptions do not
    all survive pickling, so failures travel home as traceback text."""
    try:
        return ("ok", execute_spec(spec))
    except Exception:
        return ("err", traceback.format_exc())


class SweepExecutor:
    """Executes sweeps with up to ``jobs`` worker processes and an
    optional content-addressed result cache."""

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.stats = SweepStats(jobs=jobs)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec],
            progress: Optional[Callable[[RunSpec], None]] = None
            ) -> List[Any]:
        """Execute ``specs`` and return their records in spec order."""
        specs = list(specs)
        start = time.perf_counter()
        results: List[Any] = [None] * len(specs)
        digests: List[Optional[str]] = [None] * len(specs)
        fingerprint = ""
        if self.cache is not None:
            fingerprint = code_fingerprint()
        pending: List[int] = []
        for i, spec in enumerate(specs):
            kind = KINDS.get(spec.kind)
            if kind is None:
                raise ValueError(f"unknown run kind {spec.kind!r}")
            if self.cache is not None and kind.decode is not None:
                digests[i] = spec.digest(fingerprint)
                doc = self.cache.get(digests[i])
                if doc is not None:
                    results[i] = kind.decode(doc)
                    self.stats.hits += 1
                    continue
                # Cacheable but absent: a genuine miss.  Uncacheable
                # kinds (no codec, e.g. perf reps) count as neither.
                self.stats.misses += 1
            pending.append(i)

        failures: List[Tuple[RunSpec, str]] = []
        if self.jobs == 1 or len(pending) <= 1:
            for i in pending:
                verdict, value = _run_one(specs[i])
                if verdict == "ok":
                    results[i] = value
                else:
                    failures.append((specs[i], value))
                if progress is not None:
                    progress(specs[i])
        elif pending:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
            workers = min(self.jobs, len(pending))
            with futures.ProcessPoolExecutor(
                    max_workers=workers, mp_context=ctx) as pool:
                submitted = {i: pool.submit(_run_one, specs[i])
                             for i in pending}
                for i in pending:
                    try:
                        verdict, value = submitted[i].result()
                    except Exception:
                        # A worker died hard (BrokenProcessPool etc.):
                        # report the spec rather than hanging or leaking
                        # an unpicklable exception.
                        verdict, value = "err", traceback.format_exc()
                    if verdict == "ok":
                        results[i] = value
                    else:
                        failures.append((specs[i], value))
                    if progress is not None:
                        progress(specs[i])
        if failures:
            raise SweepError(failures)

        if self.cache is not None:
            for i in pending:
                kind = KINDS[specs[i].kind]
                if kind.encode is not None and digests[i] is not None:
                    self.cache.put(digests[i], specs[i],
                                   kind.encode(results[i]))
        self.stats.wall_seconds += time.perf_counter() - start
        return results
