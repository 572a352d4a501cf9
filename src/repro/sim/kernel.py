"""The discrete-event simulation kernel.

The kernel owns the virtual clock and the event queue.  All simulated time
in this repository is expressed in **milliseconds** as floats, matching the
units the Carousel paper uses for its latency tables and figures.

Determinism
-----------
Two runs of the same simulation with the same seed produce identical event
orders.  Ties in event time are broken by insertion order (a monotonically
increasing sequence number), and all randomness must be drawn from
``kernel.random``, the single seeded :class:`random.Random` instance.

Scheduler
---------
The event queue is a binary heap with lazy compaction of cancelled
entries.  It holds ``(time, seq, event)`` entries — ``seq`` is unique,
so every ordering comparison is a C-level tuple compare that never
reaches the event.

Operation counters
------------------
``events_scheduled`` / ``events_executed`` / ``events_cancelled`` count
kernel operations deterministically (they depend only on the simulation,
never on the host), so the perf subsystem can regression-check behaviour
without trusting noisy timers.
"""

from __future__ import annotations

import heapq
import random
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from repro.trace.tracer import NULL_TRACER


class Event:
    """A scheduled callback.

    Events fire in ``(time, seq)`` order, so simultaneous events fire in
    the order they were scheduled; the scheduler keeps that key beside the
    event (``(time, seq, event)`` entries), so events themselves are never
    compared.  Cancelling an event hands it back to the kernel's
    scheduler, which marks it dead and skips it on pop (with lazy
    compaction).

    ``ctx`` is the event's causal trace context (``None`` when tracing is
    off); ``_owner`` back-references the kernel while the event is queued so
    cancellation can be routed to the scheduler.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "ctx",
                 "_owner")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.ctx = None
        self._owner: Optional["Kernel"] = None

    def cancel(self) -> None:
        """Prevent this event's callback from running."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._note_cancelled(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} seq={self.seq} {state}>"


class HeapScheduler:
    """Binary heap with lazy compaction of cancelled entries.

    Cancelled events stay heaped until popped; when dead entries
    outnumber live ones the heap is compacted in place (``compactions``
    counts those passes).  ``push`` takes a ``(time, seq, event)`` entry
    and is bound to :func:`heapq.heappush` on the (never rebound) heap
    list, so the hot path pays no Python-level indirection or comparison.
    """

    __slots__ = ("_heap", "_cancelled", "compactions", "push")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._cancelled = 0
        self.compactions = 0
        self.push = partial(heapq.heappush, self._heap)

    def discard(self, event: Event) -> None:
        """Note a cancellation; compact lazily when dead entries
        outnumber live ones."""
        self._cancelled += 1
        if self._cancelled > 8 and self._cancelled * 2 > len(self._heap):
            # In-place rebuild: the heap list identity must survive
            # because ``push`` is bound to it.
            self._heap[:] = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0
            self.compactions += 1

    def pop_until(self, limit: Optional[float]) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` when
        the heap is empty or that event is after ``limit``."""
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if limit is not None and time > limit:
                return None
            heapq.heappop(heap)
            return event
        return None

    def pending(self) -> int:
        """Live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled


class Kernel:
    """Event loop with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the kernel's single random number generator.  Every source
        of randomness in a simulation (jitter, workload key choice, client
        think times, randomized election timeouts) must use ``kernel.random``
        or an RNG derived from it, so that runs are reproducible.
    """

    def __init__(self, seed: int = 0):
        self._now: float = 0.0
        self._seq: int = 0
        self._sched = HeapScheduler()
        self._push = self._sched.push
        self._stopped = False
        self.random = random.Random(seed)
        self.seed = seed
        #: Deterministic operation counters (host-independent).
        self.events_scheduled = 0
        self.events_executed = 0
        self.events_cancelled = 0
        #: The attached tracer; the shared disabled instance by default, so
        #: tracing costs one ``tracer.enabled`` check when off.
        self.tracer = NULL_TRACER

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def heap_compactions(self) -> int:
        """Lazy compaction passes performed."""
        return self._sched.compactions

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now.

        Negative delays are clamped to zero; an event can never be scheduled
        in the virtual past.
        """
        if delay < 0:
            delay = 0.0
        return self._enqueue(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time.

        The event fires at exactly ``time`` (no round trip through a
        delay), clamped to now: the network's per-link FIFO order relies
        on two deliveries given the same arrival time comparing equal.
        """
        if time < self._now:
            time = self._now
        return self._enqueue(time, callback, args)

    def _enqueue(self, time: float, callback: Callable[..., None],
                 args: tuple) -> Event:
        seq = self._seq
        event = Event(time, seq, callback, args)
        self._seq = seq + 1
        self.events_scheduled += 1
        if self.tracer.enabled:
            event.ctx = self.tracer.current
        event._owner = self
        self._push((time, seq, event))
        return event

    def spawn(self, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run as soon as possible (a
        zero-delay event; part of the runtime interface, see
        :data:`repro.runtime.api.KERNEL_ATTRS`)."""
        return self.schedule(0.0, callback, *args)

    def stop(self) -> None:
        """Make :meth:`run` return after the current event completes."""
        self._stopped = True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        Returns the number of events executed.  When ``until`` is given, the
        clock is advanced to exactly ``until`` on return (even if the queue
        drained earlier), which makes fixed-duration experiments exact.
        """
        executed = 0
        self._stopped = False
        pop_until = self._sched.pop_until
        while not self._stopped:
            if max_events is not None and executed >= max_events:
                break
            event = pop_until(until)
            if event is None:
                break
            event._owner = None
            self._now = event.time
            tracer = self.tracer
            if tracer.enabled:
                tracer.current = event.ctx
            event.callback(*event.args)
            executed += 1
        self.events_executed += executed
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return executed

    def _note_cancelled(self, event: Event) -> None:
        """Route a cancellation of a still-queued event to the scheduler."""
        self.events_cancelled += 1
        self._sched.discard(event)

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still scheduled."""
        return self._sched.pending()

    def op_counters(self) -> dict:
        """The kernel's deterministic operation counters, for
        :mod:`repro.perf` and the bench reports."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_executed": self.events_executed,
            "events_cancelled": self.events_cancelled,
            "pending_events": self.pending_events(),
            "compactions": self._sched.compactions,
        }
