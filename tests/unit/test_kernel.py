"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import Kernel


def test_time_starts_at_zero():
    assert Kernel().now == 0.0


def test_schedule_and_run_advances_clock():
    kernel = Kernel()
    fired = []
    kernel.schedule(5.0, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == [5.0]
    assert kernel.now == 5.0


def test_events_fire_in_time_order():
    kernel = Kernel()
    order = []
    kernel.schedule(10.0, order.append, "late")
    kernel.schedule(1.0, order.append, "early")
    kernel.schedule(5.0, order.append, "middle")
    kernel.run()
    assert order == ["early", "middle", "late"]


def test_simultaneous_events_fire_in_scheduling_order():
    kernel = Kernel()
    order = []
    for label in ("a", "b", "c"):
        kernel.schedule(3.0, order.append, label)
    kernel.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_is_clamped_to_now():
    kernel = Kernel()
    kernel.schedule(5.0, lambda: kernel.schedule(-2.0, lambda: None))
    kernel.run()
    assert kernel.now == 5.0


def test_cancelled_event_does_not_fire():
    kernel = Kernel()
    fired = []
    event = kernel.schedule(1.0, fired.append, "x")
    event.cancel()
    kernel.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, fired.append, "a")
    kernel.schedule(100.0, fired.append, "b")
    kernel.run(until=50.0)
    assert fired == ["a"]
    assert kernel.now == 50.0


def test_run_until_advances_clock_even_when_heap_drains():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run(until=90.0)
    assert kernel.now == 90.0


def test_run_max_events():
    kernel = Kernel()
    fired = []
    for i in range(10):
        kernel.schedule(float(i), fired.append, i)
    executed = kernel.run(max_events=3)
    assert executed == 3
    assert fired == [0, 1, 2]


def test_stop_halts_run():
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, fired.append, "a")
    kernel.schedule(2.0, kernel.stop)
    kernel.schedule(3.0, fired.append, "b")
    kernel.run()
    assert fired == ["a"]


def test_events_scheduled_during_run_are_executed():
    kernel = Kernel()
    fired = []

    def first():
        fired.append("first")
        kernel.schedule(1.0, lambda: fired.append("nested"))

    kernel.schedule(1.0, first)
    kernel.run()
    assert fired == ["first", "nested"]
    assert kernel.now == 2.0


def test_schedule_at_absolute_time():
    kernel = Kernel()
    fired = []
    kernel.schedule_at(42.0, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == [42.0]


def test_deterministic_rng_per_seed():
    a = [Kernel(seed=7).random.random() for _ in range(1)][0]
    b = Kernel(seed=7).random.random()
    c = Kernel(seed=8).random.random()
    assert a == b
    assert a != c


def test_pending_events_excludes_cancelled():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    event = kernel.schedule(2.0, lambda: None)
    event.cancel()
    assert kernel.pending_events() == 1


def test_run_returns_executed_count():
    kernel = Kernel()
    for i in range(5):
        kernel.schedule(float(i), lambda: None)
    assert kernel.run() == 5


def test_double_cancel_does_not_double_count():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    event = kernel.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert kernel.pending_events() == 1


def test_cancel_after_fire_is_harmless():
    kernel = Kernel()
    fired = []
    event = kernel.schedule(1.0, fired.append, "x")
    kernel.schedule(2.0, lambda: None)
    kernel.run()
    event.cancel()
    assert fired == ["x"]
    assert kernel.pending_events() == 0


def test_heap_compaction_when_cancelled_majority():
    kernel = Kernel()
    live = [kernel.schedule(float(i), lambda: None) for i in range(5)]
    dead = [kernel.schedule(100.0 + i, lambda: None) for i in range(10)]
    for event in dead:
        event.cancel()
    assert kernel.heap_compactions >= 1
    assert len(kernel._sched._heap) < 15  # compaction dropped dead entries
    assert kernel.pending_events() == 5
    executed = kernel.run()
    assert executed == len(live)


def test_no_compaction_below_threshold():
    kernel = Kernel()
    events = [kernel.schedule(float(i), lambda: None) for i in range(20)]
    for event in events[:5]:
        event.cancel()
    assert kernel.heap_compactions == 0
    assert kernel.pending_events() == 15


def test_pending_events_and_run_after_compaction():
    kernel = Kernel()
    fired = []
    keep = kernel.schedule(50.0, fired.append, "keep")
    doomed = [kernel.schedule(float(i), lambda: None) for i in range(20)]
    for event in doomed:
        event.cancel()
    assert kernel.heap_compactions >= 1
    assert kernel.pending_events() == 1
    kernel.run()
    assert fired == ["keep"]
    assert kernel.now == 50.0
    assert keep._owner is None
