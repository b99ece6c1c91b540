"""Tests for the discrete-event simulation engine."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.engine import SimulationEngine
from tests.conftest import live_events


class TestScheduling:
    def test_initial_clock(self):
        engine = SimulationEngine()
        assert engine.now == 0.0
        assert engine.processed_events == 0

    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("late"))
        engine.schedule(1.0, lambda: fired.append("early"))
        engine.run()
        assert fired == ["early", "late"]
        assert engine.now == 5.0

    def test_same_time_fifo_order(self):
        engine = SimulationEngine()
        fired = []
        for index in range(5):
            engine.schedule(1.0, lambda i=index: fired.append(i))
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("low"), priority=5)
        engine.schedule(1.0, lambda: fired.append("high"), priority=-5)
        engine.run()
        assert fired == ["high", "low"]

    def test_schedule_in_relative_delay(self):
        engine = SimulationEngine()
        engine.run(until=10.0)
        times = []
        engine.schedule_in(5.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [15.0]

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        engine.run(until=10.0)
        with pytest.raises(ValueError):
            engine.schedule(5.0, lambda: None)

    def test_cannot_schedule_at_infinity(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule(float("inf"), lambda: None)

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_in(-1.0, lambda: None)


class TestExecution:
    def test_step_fires_one_event(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, lambda: fired.append(2))
        assert engine.step()
        assert fired == [1]
        assert engine.now == 1.0

    def test_step_on_empty_queue_returns_false(self):
        engine = SimulationEngine()
        assert not engine.step()

    def test_run_until_stops_clock_at_bound(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        # The later event remains pending and can still fire.
        engine.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_even_without_events(self):
        engine = SimulationEngine()
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_events_can_schedule_more_events(self):
        engine = SimulationEngine()
        fired = []

        def chain(depth):
            fired.append(engine.now)
            if depth > 0:
                engine.schedule_in(1.0, lambda: chain(depth - 1))

        engine.schedule(0.0, lambda: chain(3))
        engine.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_processed_event_counter(self):
        engine = SimulationEngine()
        for index in range(4):
            engine.schedule(float(index), lambda: None)
        engine.run()
        assert engine.processed_events == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("cancelled"))
        engine.schedule(2.0, lambda: fired.append("kept"))
        handle.cancel()
        engine.run()
        assert fired == ["kept"]
        assert handle.cancelled

    def test_handle_exposes_time_and_label(self):
        engine = SimulationEngine()
        handle = engine.schedule(7.0, lambda: None, label="hello")
        assert handle.time == 7.0
        assert handle.label == "hello"

    def test_cancel_takes_the_event_out_of_the_backlog_at_once(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert live_events(engine) == 2
        handle.cancel()
        assert live_events(engine) == 1

    def test_cancel_is_idempotent(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(1.0, fired.append, args=("once",))
        handle.cancel()
        handle.cancel()
        engine.run()
        assert fired == [] and engine.processed_events == 0
        assert live_events(engine) == 0

    def test_cancel_after_fire_changes_nothing(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(1.0, fired.append, args=("first",))
        engine.schedule(2.0, fired.append, args=("second",))
        assert engine.step() == 1
        handle.cancel()  # already fired: the rest of the queue is untouched
        assert live_events(engine) == 1
        engine.run()
        assert fired == ["first", "second"]
        assert engine.processed_events == 2

    def test_step_skips_a_cancelled_head(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, fired.append, args=("dropped",)).cancel()
        engine.schedule(3.0, fired.append, args=("kept",))
        assert engine.step() == 1
        assert fired == ["kept"] and engine.now == 3.0

    def test_step_on_an_empty_or_all_cancelled_queue_fires_nothing(self):
        engine = SimulationEngine()
        assert engine.step() == 0
        engine.schedule(4.0, lambda: None).cancel()
        assert engine.step() == 0
        assert engine.now == 0.0 and engine.processed_events == 0

    def test_events_scheduled_by_callbacks_join_the_backlog(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: engine.schedule(5.0, fired.append, args=("spawned",)))
        engine.step()
        assert live_events(engine) == 1
        engine.run()
        assert fired == ["spawned"] and engine.now == 5.0
        assert live_events(engine) == 0


class TestCallbackArgs:
    def test_args_are_passed_to_the_callback(self):
        """Hot paths schedule bound methods + args instead of closures."""
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, fired.append, args=("a",))
        engine.schedule(2.0, lambda x, y: fired.append(x + y), args=(1, 2))
        engine.run()
        assert fired == ["a", 3]

    def test_default_args_is_empty(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("ok"))
        engine.run()
        assert fired == ["ok"]


class TestClockMonotonicity:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_clock_never_goes_backwards(self, times):
        engine = SimulationEngine()
        observed = []
        for time in times:
            engine.schedule(time, lambda: observed.append(engine.now))
        engine.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)


class TestBatchedEvents:
    """``schedule_many`` fires one heap entry as N logical events."""

    def test_each_item_counts_as_one_event(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_many(1.0, fired.append, [1, 2, 3])
        assert live_events(engine) == 3
        engine.run()
        assert fired == [1, 2, 3]
        assert engine.processed_events == 3
        assert live_events(engine) == 0

    def test_empty_batch_is_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_many(1.0, lambda item: None, [])

    def test_cancel_removes_every_item(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule_many(1.0, fired.append, ["a", "b"])
        handle.cancel()
        engine.run()
        assert fired == []
        assert engine.processed_events == 0

    def test_step_reports_batch_size(self):
        engine = SimulationEngine()
        engine.schedule_many(1.0, lambda item: None, range(4))
        assert engine.step() == 4

    def test_batch_preserves_fifo_against_single_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("single"))
        engine.schedule_many(1.0, fired.append, ["b1", "b2"])
        engine.run()
        assert fired == ["single", "b1", "b2"]

    def test_priority_still_preempts_a_batch(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_many(1.0, fired.append, ["b1", "b2"])
        engine.schedule(1.0, lambda: fired.append("urgent"), priority=-1)
        engine.run()
        assert fired == ["urgent", "b1", "b2"]


# -- the tuple heap against a list-based oracle ----------------------------------------

#: Small delays and priorities, so equal times and equal priorities are common.
delays = st.sampled_from([0.0, 0.5, 1.0, 2.0])
priorities = st.integers(min_value=-1, max_value=1)
widths = st.integers(min_value=0, max_value=3)  # 0: ``schedule``, n: ``schedule_many`` of n

nested_action = st.one_of(
    st.tuples(st.just("schedule"), delays, priorities, widths),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
)
top_action = st.one_of(
    st.tuples(
        st.just("schedule"), delays, priorities, widths,
        st.lists(nested_action, max_size=3),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
)


class _Oracle:
    """The engine's contract on a plain list: fire the minimum live key."""

    def __init__(self) -> None:
        self.now = 0.0
        self.entries: list[dict] = []
        self.processed = 0

    def schedule(self, time, priority, width) -> int:
        items = 1 if width == 0 else width
        self.entries.append({
            "key": (time, priority, len(self.entries)), "items": items,
            "cancelled": False, "fired": False,
        })
        return len(self.entries) - 1

    def cancel(self, index) -> None:
        self.entries[index]["cancelled"] = True

    @property
    def pending(self) -> int:
        return sum(
            e["items"] for e in self.entries if not (e["cancelled"] or e["fired"])
        )

    def pop(self) -> int | None:
        live = [i for i, e in enumerate(self.entries) if not (e["cancelled"] or e["fired"])]
        if not live:
            return None
        index = min(live, key=lambda i: self.entries[i]["key"])
        self.entries[index]["fired"] = True
        self.now = self.entries[index]["key"][0]
        self.processed += self.entries[index]["items"]
        return index


class TestTupleHeapAgainstOracle:
    """Random ``schedule``/``schedule_many``/``cancel`` streams, callbacks included."""

    @settings(max_examples=200, deadline=None)
    @given(actions=st.lists(top_action, min_size=1, max_size=12))
    def test_firing_order_and_counters_match_the_oracle(self, actions):
        engine = SimulationEngine()
        oracle = _Oracle()
        handles = []
        fired: list[tuple[int, int]] = []
        nested_of: dict[int, list] = {}

        def apply(action):
            if action[0] == "cancel":
                if handles:
                    index = action[1] % len(handles)
                    handles[index].cancel()
                    entry = oracle.entries[index]
                    if not entry["fired"]:
                        oracle.cancel(index)
                return
            _, delay, priority, width = action[:4]
            time = engine.now + delay
            # A batch always has priority 0.
            index = oracle.schedule(time, priority if width == 0 else 0, width)
            callback = functools.partial(on_fire, index)
            if width == 0:
                handle = engine.schedule(time, callback, args=(0,), priority=priority)
            else:
                handle = engine.schedule_many(time, callback, range(width))
            handles.append(handle)
            nested_of[index] = list(action[4]) if len(action) > 4 else []

        def on_fire(index, item):
            fired.append((index, item))
            if item == 0:
                for nested in nested_of[index]:
                    apply(nested)

        for action in actions:
            apply(action)
        assert live_events(engine) == oracle.pending

        expected: list[tuple[int, int]] = []
        while True:
            # The oracle picks first; the callbacks the engine then fires
            # apply their nested actions to both sides.
            index = oracle.pop()
            count = engine.step()
            if index is None:
                assert count == 0
                break
            items = oracle.entries[index]["items"]
            assert count == items
            expected.extend((index, item) for item in range(items))
            assert fired == expected
            assert engine.now == oracle.now
            assert live_events(engine) == oracle.pending
            assert engine.processed_events == oracle.processed
        assert live_events(engine) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(delays, priorities, widths), min_size=1, max_size=20),
        cancels=st.lists(st.integers(min_value=0, max_value=63), max_size=6),
    )
    def test_fires_in_sorted_key_order(self, rows, cancels):
        """Without nested scheduling, firing order is ``sorted((time, priority, seq))``."""
        engine = SimulationEngine()
        fired = []
        handles = []
        keys = []
        for sequence, (time, priority, width) in enumerate(rows):
            # A batch always has priority 0.
            keys.append((time, priority if width == 0 else 0, sequence))
            if width == 0:
                handles.append(engine.schedule(
                    time, fired.append, args=(sequence,), priority=priority
                ))
            else:
                handles.append(engine.schedule_many(
                    time, lambda _, s=sequence: fired.append(s), range(width)
                ))
        cancelled = {index % len(rows) for index in cancels}
        for index in cancelled:
            handles[index].cancel()
        engine.run()
        order = [key[2] for key in sorted(keys) if key[2] not in cancelled]
        expected = [
            sequence for sequence in order for _ in range(max(rows[sequence][2], 1))
        ]
        assert fired == expected
        assert engine.processed_events == len(expected)
