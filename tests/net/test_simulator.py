"""Tests for repro.net.simulator."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.net.simulator import Simulator


def _bits(value: float) -> bytes:
    """The exact IEEE-754 bits — `==` alone would conflate 0.0/-0.0."""
    return struct.pack("<d", value)


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_fifo_tie_break(self):
        sim = Simulator()
        order = []
        for index in range(10):
            sim.schedule(1.0, lambda i=index: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [2.0]


class TestScheduleAtExact:
    """`schedule_at(when)` must fire with ``sim.now == when`` to the
    bit — the old delay round trip (`when - now` then `now + delay`)
    lost a ULP for adversarial floats, so deadline comparisons
    against `when` inside the callback could misfire."""

    def test_callback_sees_exact_absolute_time(self):
        # A classic non-representable round trip: with now = 0.1,
        # 0.1 + (0.3 - 0.1) != 0.3 in binary64.
        sim = Simulator()
        sim.advance(0.1)
        seen = []
        sim.schedule_at(0.3, lambda: seen.append(sim.now))
        sim.run()
        assert _bits(seen[0]) == _bits(0.3)

    def test_past_time_still_rejected(self):
        sim = Simulator()
        sim.advance(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(math.nextafter(5.0, -math.inf), lambda: None)

    def test_now_is_allowed_and_exact(self):
        sim = Simulator()
        sim.advance(1.0 / 3.0)
        seen = []
        sim.schedule_at(sim.now, lambda: seen.append(sim.now))
        sim.run()
        assert _bits(seen[0]) == _bits(1.0 / 3.0)

    @given(
        now=st.floats(min_value=0.0, max_value=1e18, allow_nan=False),
        delta=st.floats(min_value=0.0, max_value=1e18, allow_nan=False))
    def test_property_fires_bit_exact(self, now, delta):
        sim = Simulator()
        if now:
            sim.advance(now)
        when = sim.now + delta
        seen = []
        sim.schedule_at(when, lambda: seen.append(sim.now))
        sim.run()
        assert [_bits(value) for value in seen] == [_bits(when)]

    @given(st.floats(min_value=0.0, max_value=1e18, allow_nan=False))
    def test_property_past_times_rejected(self, now):
        sim = Simulator()
        if now:
            sim.advance(now)
        before = math.nextafter(sim.now, -math.inf)
        if before < sim.now:  # nextafter(0.0, -inf) is -0.0 == 0.0
            with pytest.raises(ValueError):
                sim.schedule_at(before, lambda: None)


class TestPendingCount:
    """`pending` counts live events only; tombstones left by `cancel`
    stay in the heap (`sim._heap`) but must not inflate the
    backlog number the deployment gauge reports."""

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None)
                   for i in range(10)]
        assert sim.pending == 10
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending == 5
        assert len(sim._heap) == 10  # tombstones still queued

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1

    def test_cancel_after_fire_does_not_decrement(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert sim.pending == 1
        handle.cancel()  # already consumed — must be a no-op
        assert sim.pending == 1

    def test_execution_drains_pending(self):
        sim = Simulator()
        for index in range(4):
            sim.schedule(float(index + 1), lambda: None)
        sim.step()
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0

    def test_post_counts_too(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        assert sim.pending == 2

    def test_cancellation_storm(self):
        # Interleave schedule/cancel/execute heavily; the live count
        # must track reality at every step.
        sim = Simulator()
        live = 0
        handles = []
        for index in range(300):
            handle = sim.schedule(1.0 + index * 1e-3, lambda: None)
            handles.append(handle)
            live += 1
            if index % 3 == 0:
                handles[index // 2].cancel()
            assert len(sim._heap) == index + 1
        cancelled = sum(1 for handle in handles if handle.cancelled)
        assert sim.pending == 300 - cancelled
        sim.run()
        assert sim.pending == 0
        assert len(sim._heap) == 0
        assert sim.events_processed == 300 - cancelled


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(0.5, lambda: None)
        sim.run()
        handle.cancel()  # must not raise

    def test_handle_exposes_cancelled_and_time(self):
        sim = Simulator()
        handle = sim.schedule(1.5, lambda: None)
        assert handle.time == 1.5
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2)).cancel()
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run()
        assert fired == [1, 3]
        assert sim.events_processed == 2

    def test_step_skips_dead_entries(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1)).cancel()
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True   # one live callback ran
        assert fired == [2]
        assert sim.step() is False


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_advance_moves_relative(self):
        sim = Simulator()
        sim.advance(2.0)
        sim.advance(3.0)
        assert sim.now == 5.0

    def test_max_events_guard(self):
        sim = Simulator()

        def rescheduling():
            sim.schedule(0.1, rescheduling)

        sim.schedule(0.1, rescheduling)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_max_events_counts_executed_callbacks_only(self):
        # The budget is real work: cancelled entries popped on the way
        # are free, so N live events always fit in max_events=N no
        # matter how many dead entries precede them.
        sim = Simulator()
        fired = []
        for index in range(10):
            handle = sim.schedule(float(index), lambda i=index: fired.append(i))
            if index % 2 == 0:
                handle.cancel()
        sim.run(max_events=5)  # exactly the 5 live events — no raise
        assert fired == [1, 3, 5, 7, 9]

    def test_max_events_budget_exhausted_by_live_events_only(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run(max_events=1)
        assert sim.events_processed == 1

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_execution_order_is_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestStopWhen:
    """`run(stop_when=)` drives a wait for one result in a single call:
    the predicate is checked before every event, and a run it ends
    leaves the clock at the last event's time."""

    def test_checked_before_the_first_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run(until=5.0, stop_when=lambda: True)
        assert fired == []
        assert sim.now == 0.0  # not advanced to until
        assert sim.pending == 1

    def test_stops_after_the_event_that_makes_it_true(self):
        sim = Simulator()
        fired = []
        for when in (1.0, 2.0, 3.0):
            sim.schedule(when, lambda when=when: fired.append(when))
        sim.run(until=10.0, stop_when=lambda: 2.0 in fired)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        assert sim.pending == 1
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_until_still_bounds_a_run_it_does_not_end(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(9.0, lambda: fired.append(9))
        sim.run(until=5.0, stop_when=lambda: False)
        assert fired == [1]
        assert sim.now == 5.0

    def test_empty_heap_ends_the_run_without_moving_the_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(stop_when=lambda: False)
        assert sim.now == 1.0
        assert sim.pending == 0

    def test_true_within_max_events_does_not_raise(self):
        sim = Simulator()

        def rescheduling():
            sim.schedule(0.1, rescheduling)

        sim.schedule(0.1, rescheduling)
        sim.run(max_events=10, stop_when=lambda: sim.events_processed == 10)
        assert sim.events_processed == 10
        with pytest.raises(RuntimeError):
            sim.run(max_events=10,
                    stop_when=lambda: sim.events_processed == 25)
        assert sim.events_processed == 20

    def test_cancelled_entries_are_not_popped_once_true(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2)).cancel()
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(stop_when=lambda: fired == [1])
        assert len(sim._heap) == 2  # the tombstone at 2.0 is still queued
        assert sim.pending == 1
        sim.run(stop_when=lambda: False)
        assert fired == [1, 3]
        assert len(sim._heap) == 0
        assert sim.events_processed == 2

    def test_only_cancelled_entries_left(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None).cancel()
        sim.run(stop_when=lambda: False)
        assert len(sim._heap) == 0
        assert sim.now == 0.0
        assert sim.events_processed == 0

    @given(events=st.lists(st.tuples(
               st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
               st.booleans(), st.booleans()), max_size=30),
           done_after=st.integers(0, 40),
           max_wait=st.floats(min_value=0.0, max_value=12.0))
    def test_property_matches_a_step_loop(self, events, done_after,
                                          max_wait):
        """Same events fired, clock, backlog and tombstones as the
        step() loop, on the result path and the timeout path."""
        def replay(wait):
            sim = Simulator()
            fired = []

            def fire(index, spawn):
                fired.append((index, sim.now))
                if spawn:
                    sim.post(0.5, lambda: fired.append((-1, sim.now)))

            for index, (delay, cancel, spawn) in enumerate(events):
                handle = sim.schedule(
                    delay, lambda i=index, s=spawn: fire(i, s))
                if cancel:
                    handle.cancel()
            deadline = sim.now + max_wait
            wait(sim, lambda: len(fired) >= done_after, deadline)
            return (fired, _bits(sim.now), sim.pending, len(sim._heap),
                    sim.events_processed)

        def step_loop(sim, done, deadline):
            # The wait run(stop_when=) replaces: one step() per event.
            while not done() and sim.now < deadline:
                if not sim.step():
                    break

        def run_until_done(sim, done, deadline):
            sim.run(stop_when=lambda: done() or not sim.now < deadline)

        assert replay(run_until_done) == replay(step_loop)
