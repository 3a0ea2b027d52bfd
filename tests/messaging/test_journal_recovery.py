"""Broker journal durability: restart recovery semantics."""

from __future__ import annotations

import pytest

from repro.errors import JournalError
from repro.messaging import MessageBroker
from repro.seglog import frame_record


@pytest.fixture
def journal(tmp_path):
    return tmp_path / "broker.journal"


def tail_segment(journal):
    """The active (highest-numbered) segment file of a closed journal."""
    segments = sorted(journal.parent.glob(journal.name + ".*.seg"))
    assert segments, f"no segment files next to {journal}"
    return segments[-1]


class TestPersistence:
    def test_unconsumed_messages_survive_restart(self, journal):
        broker = MessageBroker(journal)
        broker.declare_queue("q")
        broker.send("q", "persisted", headers={"n": 1})
        broker.close()

        reopened = MessageBroker(journal)
        assert reopened.queue_depth("q") == 1
        message = reopened.receive("q")
        assert message.body == "persisted"
        assert message.headers == {"n": 1}

    def test_acked_messages_do_not_reappear(self, journal):
        broker = MessageBroker(journal)
        broker.declare_queue("q")
        broker.send("q", "done")
        broker.send("q", "pending")
        message = broker.receive("q")
        broker.ack(message)
        broker.close()

        reopened = MessageBroker(journal)
        bodies = []
        while (message := reopened.receive("q")) is not None:
            bodies.append(message.body)
        assert bodies == ["pending"]

    def test_in_flight_unacked_messages_reappear(self, journal):
        """A consumer crash must never lose a message."""
        broker = MessageBroker(journal)
        broker.declare_queue("q")
        broker.send("q", "taken-but-never-acked")
        broker.receive("q")  # in flight, consumer dies here
        broker.close()

        reopened = MessageBroker(journal)
        assert reopened.receive("q").body == "taken-but-never-acked"

    def test_queue_declarations_survive(self, journal):
        broker = MessageBroker(journal)
        broker.declare_queue("a")
        broker.declare_queue("b")
        broker.close()
        reopened = MessageBroker(journal)
        assert set(reopened.queue_names()) == {"a", "b"}

    def test_message_ids_continue_after_restart(self, journal):
        broker = MessageBroker(journal)
        broker.declare_queue("q")
        first = broker.send("q", "a")
        broker.close()
        reopened = MessageBroker(journal)
        second = reopened.send("q", "b")
        assert second.message_id > first.message_id

    def test_order_preserved_across_restart(self, journal):
        broker = MessageBroker(journal)
        broker.declare_queue("q")
        for body in ("1", "2", "3"):
            broker.send("q", body)
        broker.close()
        reopened = MessageBroker(journal)
        assert [reopened.receive("q").body for __ in range(3)] == ["1", "2", "3"]

    def test_torn_final_line_ignored(self, journal):
        broker = MessageBroker(journal)
        broker.declare_queue("q")
        broker.send("q", "whole")
        broker.close()
        with open(tail_segment(journal), "a", encoding="utf-8") as handle:
            handle.write('deadbeef 9 {"type": "send", "mess')

        reopened = MessageBroker(journal)
        assert reopened.queue_depth("q") == 1

    def test_mid_journal_corruption_raises(self, journal):
        broker = MessageBroker(journal)
        broker.declare_queue("q")
        broker.send("q", "x")
        broker.close()
        segment = tail_segment(journal)
        lines = segment.read_text().splitlines()
        lines.insert(0, "not-json")
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError) as excinfo:
            MessageBroker(journal)
        assert excinfo.value.detail()["segment"] == 1

    def test_unknown_record_type_raises(self, journal):
        # A well-framed record of a type the journal does not know:
        # the frame passes its checksum, replay rejects the type.
        broker = MessageBroker(journal)
        broker.declare_queue("q")
        broker.close()
        with open(tail_segment(journal), "a", encoding="utf-8") as handle:
            handle.write(frame_record(99, {"type": "mystery"}))
        with pytest.raises(JournalError, match="mystery"):
            MessageBroker(journal)

    def test_persistent_flag(self, journal):
        assert MessageBroker(journal).persistent
        assert not MessageBroker().persistent
