"""The engine event log."""

from __future__ import annotations

from repro.core.events import EventLog


class TestEventLog:
    def test_emit_assigns_sequence(self):
        log = EventLog()
        first = log.emit("a", x=1)
        second = log.emit("b", y=2)
        assert first.sequence == 1
        assert second.sequence == 2

    def test_payload_access(self):
        log = EventLog()
        event = log.emit("kind", value=42)
        assert event["value"] == 42
        assert event.get("missing") is None
        assert event.get("missing", "d") == "d"

    def test_of_kind_filters_in_order(self):
        log = EventLog()
        log.emit("a", n=1)
        log.emit("b", n=2)
        log.emit("a", n=3)
        assert [e["n"] for e in log.of_kind("a")] == [1, 3]

    def test_since_excludes_boundary(self):
        log = EventLog()
        log.emit("a")
        marker = log.last_sequence
        log.emit("b")
        log.emit("c")
        assert [e.kind for e in log.since(marker)] == ["b", "c"]

    def test_last_sequence_on_empty(self):
        assert EventLog().last_sequence == 0

    def test_subscribers_notified(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("x")
        log.emit("y")
        assert [e.kind for e in seen] == ["x", "y"]

    def test_unsubscribe(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.unsubscribe(seen.append)
        log.emit("x")
        assert seen == []
        log.unsubscribe(seen.append)  # idempotent

    def test_clear_keeps_subscribers_and_sequence(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("a")
        log.clear()
        assert log.events == []
        event = log.emit("b")
        assert event.sequence == 2  # sequence is never reused
        assert [e.kind for e in seen] == ["a", "b"]

    def test_last_sequence_survives_clear(self):
        log = EventLog()
        log.emit("a")
        log.emit("b")
        log.clear()
        # The contract: last_sequence reports the last *emitted* event,
        # so a since() cursor taken before clear() stays valid.
        assert log.last_sequence == 2
        log.emit("c")
        assert log.last_sequence == 3

    def test_since_and_of_kind_after_clear(self):
        log = EventLog()
        log.emit("a")
        marker = log.last_sequence
        log.emit("b")
        log.clear()
        log.emit("a", n=1)
        assert [e.kind for e in log.since(marker)] == ["a"]
        assert [e["n"] for e in log.of_kind("a")] == [1]

    def test_reset_rewinds_sequence(self):
        log = EventLog(capacity=2)
        for __ in range(3):
            log.emit("a")
        log.reset()
        assert log.events == []
        assert log.dropped == 0
        assert log.last_sequence == 0
        assert log.emit("b").sequence == 1


class TestEventLogCapacity:
    def test_unbounded_by_default(self):
        log = EventLog()
        for __ in range(1000):
            log.emit("a")
        assert len(log.events) == 1000
        assert log.dropped == 0

    def test_ring_buffer_evicts_oldest(self):
        log = EventLog(capacity=3)
        for n in range(1, 6):
            log.emit("a", n=n)
        assert [e["n"] for e in log.events] == [3, 4, 5]
        assert log.dropped == 2
        # Sequence numbers are global, not per-buffer.
        assert [e.sequence for e in log.events] == [3, 4, 5]
        assert log.last_sequence == 5

    def test_subscribers_still_see_evicted_events(self):
        log = EventLog(capacity=1)
        seen = []
        log.subscribe(seen.append)
        log.emit("a")
        log.emit("b")
        assert [e.kind for e in seen] == ["a", "b"]


class TestSubscriberEdgeCases:
    def test_unsubscribe_during_dispatch(self):
        log = EventLog()
        seen = []

        def once(event):
            seen.append(event.kind)
            log.unsubscribe(once)

        log.subscribe(once)
        log.subscribe(lambda e: seen.append("tail:" + e.kind))
        log.emit("x")
        log.emit("y")
        # `once` saw only the first event; the other subscriber saw both.
        assert seen == ["x", "tail:x", "tail:y"]

    def test_subscriber_raising_skips_the_rest_but_keeps_the_event(self):
        log = EventLog()
        seen = []

        def broken(event):
            raise RuntimeError("subscriber bug")

        log.subscribe(broken)
        log.subscribe(lambda e: seen.append(e.kind))
        try:
            log.emit("x")
        except RuntimeError:
            pass
        else:  # pragma: no cover - documents the contract
            raise AssertionError("subscriber exceptions propagate")
        # The event was recorded before dispatch; later subscribers were
        # skipped (documented contract: observers must catch their own).
        assert [e.kind for e in log.events] == ["x"]
        assert seen == []


class TestConcurrentEmit:
    def test_sequences_are_unique_and_ordered_across_threads(self):
        import sys
        import threading

        log = EventLog()
        per_thread, threads = 20_000, 4
        previous = sys.getswitchinterval()
        # A tiny switch interval forces preemption between reading and
        # bumping the counter, which an unlocked emit loses to.
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [log.emit("tick") for __ in range(per_thread)]
                )
                for __ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        sequences = [event.sequence for event in log.events]
        assert log.last_sequence == per_thread * threads
        assert len(set(sequences)) == per_thread * threads
        assert sequences == sorted(sequences)

    def test_since_on_a_ring_buffer_starts_at_the_marker(self):
        log = EventLog(capacity=4)
        for n in range(1, 11):
            log.emit("a", n=n)
        # Retained: 7..10.  A marker older than the buffer returns it all.
        assert [e["n"] for e in log.since(2)] == [7, 8, 9, 10]
        assert [e["n"] for e in log.since(8)] == [9, 10]
        assert log.since(10) == []
