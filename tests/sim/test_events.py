"""Unit tests for the event primitives (slots, ordering, handle protocol)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import EVENT_PRIORITY_DEFAULT, Event, EventHandle


def make(time=1.0, priority=0, seq=0):
    return Event(time, priority, seq, lambda: None)


class TestEventOrdering:
    def test_ordered_by_time_first(self):
        assert make(time=1.0, seq=5) < make(time=2.0, seq=0)

    def test_priority_breaks_time_ties(self):
        assert make(priority=0, seq=5) < make(priority=1, seq=0)

    def test_sequence_breaks_remaining_ties(self):
        assert make(seq=0) < make(seq=1)

    def test_key_is_time_priority_seq(self):
        assert make(time=2.5, priority=3, seq=7).key == (2.5, 3, 7)

    def test_equal_keys_compare_equal(self):
        assert make() == make()
        assert make() <= make() and make() >= make()

    def test_comparison_with_other_types_is_refused(self):
        with pytest.raises(TypeError):
            make() < 3

    def test_sortable(self):
        events = [make(time=3.0, seq=2), make(time=1.0, seq=1), make(time=1.0, seq=0)]
        assert [e.seq for e in sorted(events)] == [0, 1, 2]


class TestSlots:
    def test_event_has_no_dict(self):
        with pytest.raises(AttributeError):
            make().bogus = 1
        assert not hasattr(Event, "__dict__") or "__dict__" not in Event.__slots__

    def test_event_handle_is_slotted(self):
        # EventHandle aliases Event: one slotted object per scheduled event.
        assert EventHandle is Event

    def test_fresh_sequence_export_dropped(self):
        with pytest.raises(ImportError):
            from repro.sim.events import fresh_sequence  # noqa: F401


class TestHandleProtocol:
    def test_fire_invokes_callback_with_args(self):
        seen = []
        Event(0.0, 0, 0, seen.append, (42,)).fire()
        assert seen == [42]

    def test_bare_event_cancel_without_scheduler(self):
        event = make()
        assert event.cancel() is True
        assert event.cancel() is False
        assert event.cancelled

    def test_scheduler_handle_exposes_time_and_default_priority(self):
        sim = Simulator()
        handle = sim.schedule(2.0, lambda: None)
        assert handle.time == 2.0
        assert handle.priority == EVENT_PRIORITY_DEFAULT
        assert not handle.cancelled
