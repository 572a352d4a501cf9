"""The harness's own span log, written once at exit.

Spans are recorded from the benchmark's files, around the calls into
the program — never inside it.  Each span has a name, start, end, the
id of the span that caused it, and the clock it was read on: harness
phases on the ``wall`` clock (µs since the log was created),
transactions and their protocol phases on the runtime's clock
(``virtual`` under the DES, ``runtime`` — wall time since the driver's
runtime started — under asyncio).  A phase span that brackets runtime work also records that
interval on the runtime clock, so a transaction nests under ``load`` on
either clock.  Spans of one transaction share its ``tid``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

WALL = "wall"


class SpanLog:
    """In-memory spans; :meth:`chrome` renders Chrome ``trace_event``."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def _now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    @contextmanager
    def span(self, name: str, kernel: Any = None) -> Iterator[int]:
        """A wall-clock span around the ``with`` body, nested under the
        enclosing one; ``kernel`` adds the runtime-clock interval."""
        span_id = self.add(name, self._open[-1] if self._open else None,
                           WALL, self._now_us(), None)
        record = self.spans[span_id]
        if kernel is not None:
            record["runtime_start_ms"] = kernel.now
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            record["end"] = self._now_us()
            if kernel is not None:
                record["runtime_end_ms"] = kernel.now

    def add(self, name: str, parent: Optional[int], clock: str,
            start: float, end: Optional[float], tid: Optional[str] = None,
            **args: Any) -> int:
        """Record a span whose bounds the caller already knows (µs)."""
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "parent": parent,
                           "clock": clock, "start": start, "end": end,
                           "tid": tid, **args})
        return span_id

    def find(self, name: str, parent: Optional[int] = None
             ) -> Dict[str, Any]:
        """The first span called ``name`` (directly under ``parent``,
        when given)."""
        return next(s for s in self.spans if s["name"] == name
                    and (parent is None or s["parent"] == parent))

    def chrome(self) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` complete events: process 1 is the wall
        clock, process 2 the runtime clock; one thread per client."""
        events = []
        threads: Dict[str, int] = {}
        for s in self.spans:
            wall = s["clock"] == WALL
            lane = "harness" if wall else (s["tid"] or "").split(":")[0]
            events.append({
                "name": s["name"], "ph": "X", "ts": s["start"],
                "dur": (s["end"] or s["start"]) - s["start"],
                "pid": 1 if wall else 2,
                "tid": threads.setdefault(lane, len(threads)),
                "args": {k: v for k, v in s.items()
                         if k not in ("name", "start", "end")},
            })
        return events


def write_trace(path, spans: SpanLog, extra: Dict[str, Any]) -> None:
    """Write the span log plus ``extra`` tables as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": spans.chrome(),
                   "displayTimeUnit": "ms", **extra}, handle)
