"""Unit tests for the calendar-queue scheduler and its kernel plumbing."""

import pytest

from repro.sim.calqueue import _MIN_BUCKETS, CalendarQueue
from repro.sim.kernel import SCHEDULERS, Event, Kernel


def _event(time, seq):
    return Event(time, seq, lambda: None, ())


def _push(q, event):
    """Push the way the kernel does: a ``(time, seq, event)`` entry."""
    q.push((event.time, event.seq, event))


class TestCalendarQueue:
    def test_pops_in_time_then_seq_order(self):
        q = CalendarQueue()
        events = [_event(t, s) for s, t in
                  enumerate([5.0, 1.0, 3.0, 1.0, 0.0])]
        for event in events:
            _push(q, event)
        popped = []
        while q.pending():
            popped.append(q.pop_until(None))
        assert [(e.time, e.seq) for e in popped] == \
            [(0.0, 4), (1.0, 1), (1.0, 3), (3.0, 2), (5.0, 0)]

    def test_pop_until_respects_limit(self):
        q = CalendarQueue()
        _push(q, _event(10.0, 0))
        assert q.pop_until(5.0) is None
        assert q.pending() == 1
        assert q.pop_until(10.0).time == 10.0

    def test_pop_empty_returns_none(self):
        assert CalendarQueue().pop_until(None) is None

    def test_discard_removes_eagerly(self):
        q = CalendarQueue()
        keep, drop = _event(1.0, 0), _event(1.0, 1)
        _push(q, keep)
        _push(q, drop)
        q.discard(drop)
        assert q.pending() == 1
        assert q.pop_until(None) is keep
        assert q.pop_until(None) is None

    def test_discard_unknown_event_is_noop(self):
        q = CalendarQueue()
        _push(q, _event(1.0, 0))
        q.discard(_event(1.0, 1))  # same bucket, never pushed
        assert q.pending() == 1

    def test_grow_resize_preserves_order(self):
        q = CalendarQueue()
        events = [_event(float(i % 97), i) for i in range(500)]
        for event in events:
            _push(q, event)
        assert q.resizes > 0
        popped = [q.pop_until(None) for _ in range(500)]
        assert [(e.time, e.seq) for e in popped] == \
            sorted((e.time, e.seq) for e in events)

    def test_shrink_resize_after_drain(self):
        q = CalendarQueue()
        for i in range(300):
            _push(q, _event(float(i), i))
        grow_resizes = q.resizes
        while q.pending():
            q.pop_until(None)
        assert q.resizes > grow_resizes  # shrank on the way down
        assert q._mask + 1 >= _MIN_BUCKETS

    def test_push_before_scan_pointer_after_resize(self):
        """A push earlier than the current scan day must still be found
        (regression test: the scan pointer must move backwards)."""
        q = CalendarQueue()
        for i in range(100):
            _push(q, _event(100.0 + i, i))
        early = _event(0.5, 1000)
        _push(q, early)
        assert q.pop_until(None) is early

    def test_far_future_fallback_search(self):
        q = CalendarQueue(width=0.001)  # one year = 16 us
        a, b = _event(500.0, 1), _event(400.0, 0)
        _push(q, a)
        _push(q, b)
        assert q.pop_until(None) is b
        assert q.pop_until(None) is a

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            CalendarQueue(n_buckets=12)
        with pytest.raises(ValueError):
            CalendarQueue(width=0.0)


class TestKernelSchedulerPlumbing:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            Kernel(scheduler="fifo")

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_op_counters_track_kernel_activity(self, scheduler):
        kernel = Kernel(seed=3, scheduler=scheduler)
        kernel.schedule(1.0, lambda: None)
        doomed = kernel.schedule(2.0, lambda: None)
        doomed.cancel()
        kernel.run()
        ops = kernel.op_counters()
        assert ops["events_scheduled"] == 2
        assert ops["events_executed"] == 1
        assert ops["events_cancelled"] == 1
        assert ops["pending_events"] == 0

    def test_calendar_kernel_runs_nested_schedules(self):
        kernel = Kernel(seed=4, scheduler="calendar")
        fired = []

        def fire(depth):
            fired.append(kernel.now)
            if depth:
                kernel.schedule(1.5, fire, depth - 1)

        kernel.schedule(1.0, fire, 4)
        kernel.run()
        assert fired == [1.0, 2.5, 4.0, 5.5, 7.0]

    def test_calendar_reports_zero_compactions(self):
        kernel = Kernel(seed=5, scheduler="calendar")
        for _ in range(50):
            kernel.schedule(1.0, lambda: None).cancel()
        kernel.run()
        assert kernel.op_counters()["compactions"] == 0
        assert kernel.pending_events() == 0
