"""Calendar-queue event scheduler (Brown 1988), a drop-in alternative to
the kernel's binary heap.

A calendar queue hashes events into "days" (buckets) by time —
``day = int(time / width)``, bucket ``day % n_buckets`` — and dequeues by
scanning forward from the current day.  With the bucket width adapted so
each bucket holds O(1) events, both enqueue and dequeue are amortized
O(1), versus the heap's O(log n); and, unlike a heap, a cancelled event
can be *physically removed* from its (small, sorted) bucket immediately,
so cancellation-heavy workloads — protocol timeouts that almost always
get cancelled — never pay dequeue or compaction cost for dead events.

Buckets store the kernel's ``(time, seq, event)`` entries rather than
bare events: ``(time, seq)`` is the kernel's strict total order and is
unique, so every ``insort``/``bisect`` comparison resolves on the first
two fields as a C-level tuple compare and never reaches the event (the
heap scheduler holds the same entries for the same reason).  The scan
pops the globally minimal event, so the pop sequence is byte-identical
to the heap's (see ``tests/property/test_scheduler_equivalence.py``).

Correctness of the forward scan relies on ``day`` being monotone in
``time`` (IEEE division and truncation are monotone) and on the kernel
never scheduling into the virtual past: every live event's day is >= the
day of the last popped event, so the first bucket head whose day matches
the scan position is the global minimum.  When every event is more than
one full calendar year ahead, a direct O(n_buckets) search finds the
minimum instead.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List, Optional

#: Smallest bucket count; shrinks stop here.
_MIN_BUCKETS = 16
#: Bucket width as a multiple of the mean inter-event gap (Brown's rule
#: of thumb keeps a handful of events per bucket).
_WIDTH_FACTOR = 3.0


class CalendarQueue:
    """Priority queue of :class:`~repro.sim.kernel.Event` objects.

    Implements the kernel's scheduler interface: :meth:`push`,
    :meth:`pop_until`, :meth:`discard`, :meth:`pending`, plus the
    ``compactions`` observability attribute (always 0 here — cancelled
    events are removed eagerly, never compacted).
    """

    __slots__ = ("_buckets", "_mask", "_width", "_count", "_day",
                 "compactions", "resizes")

    def __init__(self, width: float = 1.0,
                 n_buckets: int = _MIN_BUCKETS) -> None:
        if n_buckets & (n_buckets - 1):
            raise ValueError("n_buckets must be a power of two")
        if width <= 0:
            raise ValueError("width must be positive")
        self._buckets: List[list] = [[] for _ in range(n_buckets)]
        self._mask = n_buckets - 1
        self._width = width
        self._count = 0
        #: Day index where the next dequeue scan starts (the day of the
        #: last popped event; no live event can be earlier).
        self._day = 0
        self.compactions = 0
        self.resizes = 0

    # ------------------------------------------------------------------
    def push(self, entry) -> None:
        """Insert a ``(time, seq, event)`` entry, keeping its bucket
        sorted by (time, seq)."""
        day = int(entry[0] / self._width)
        insort(self._buckets[day & self._mask], entry)
        if day < self._day:
            # Keep the invariant `_day <= day(min live event)`: a push may
            # land before the scan pointer when no pop has consumed the
            # virtual time in between (e.g. right after a resize).
            self._day = day
        self._count += 1
        if self._count > (self._mask + 1) << 1:
            self._resize((self._mask + 1) << 1)

    def discard(self, event) -> None:
        """Remove a cancelled event from its bucket immediately.

        O(log b + b) for bucket size b: a bisect (seq numbers are unique,
        so ``(time, seq)`` pinpoints the exact slot — and sorts before
        the full triple, so ``bisect_left`` lands exactly on it) plus
        the list shift.
        """
        time = event.time
        bucket = self._buckets[int(time / self._width) & self._mask]
        i = bisect_left(bucket, (time, event.seq))
        if i < len(bucket) and bucket[i][2] is event:
            del bucket[i]
            self._count -= 1

    def pop_until(self, limit: Optional[float]):
        """Remove and return the earliest event, or ``None`` when empty
        or when that event is scheduled after ``limit``."""
        if not self._count:
            return None
        buckets = self._buckets
        mask = self._mask
        width = self._width
        day = self._day
        for i in range(mask + 1):
            d = day + i
            bucket = buckets[d & mask]
            if bucket:
                head = bucket[0]
                if int(head[0] / width) == d:
                    if limit is not None and head[0] > limit:
                        return None
                    del bucket[0]
                    self._count -= 1
                    self._day = d
                    if self._count < (mask + 1) >> 2 and \
                            mask + 1 > _MIN_BUCKETS:
                        self._resize((mask + 1) >> 1)
                    return head[2]
        # Every event is at least a full year ahead of the scan pointer:
        # fall back to a direct search for the global minimum.
        best = None
        for bucket in buckets:
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        if limit is not None and best[0] > limit:
            return None
        bucket = buckets[int(best[0] / width) & mask]
        del bucket[0]
        self._count -= 1
        self._day = int(best[0] / width)
        return best[2]

    def pending(self) -> int:
        """Live events still queued (cancelled ones are already gone)."""
        return self._count

    # ------------------------------------------------------------------
    def _resize(self, n_new: int) -> None:
        """Rebuild with ``n_new`` buckets and a width re-fitted to the
        *head-local* mean inter-event gap.

        Brown's original samples events near the queue head; fitting to
        the overall span instead goes badly wrong for bimodal
        populations (imminent deliveries plus far-out protocol timeouts
        that will be cancelled anyway): the span-based width packs the
        entire active head into a handful of buckets.  The head-gap fit
        is clamped below so all live events span at most four wraps of
        the calendar, bounding the forward scan.
        """
        entries = []
        for bucket in self._buckets:
            entries.extend(bucket)
        if entries:
            times = sorted(entry[0] for entry in entries)
            span = times[-1] - times[0]
            if span > 0:
                m = min(len(times), 64)
                head_span = times[m - 1] - times[0]
                if head_span > 0:
                    width = _WIDTH_FACTOR * head_span / (m - 1)
                else:
                    width = _WIDTH_FACTOR * span / len(times)
                self._width = max(width, span / (n_new << 2))
        self._buckets = [[] for _ in range(n_new)]
        self._mask = n_new - 1
        width = self._width
        mask = self._mask
        buckets = self._buckets
        for entry in entries:
            insort(buckets[int(entry[0] / width) & mask], entry)
        # Re-anchor the scan pointer at the earliest live event (never
        # later than any event, so the forward-scan invariant holds).
        if entries:
            self._day = int(min(entry[0] for entry in entries) / width)
        self.resizes += 1
