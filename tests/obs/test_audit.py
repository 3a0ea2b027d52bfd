"""Unit tests for the durable audit/provenance store (repro.obs.audit)."""

from __future__ import annotations

import pytest

from repro.core.events import EventLog
from repro.minidb.engine import Database
from repro.obs.audit import (
    AUDIT_TABLE,
    AuditStore,
    decode_record,
    install_audit_schema,
    verify_timeline,
)
from repro.obs.trace import Tracer


@pytest.fixture
def db():
    database = Database()
    install_audit_schema(database)
    return database


@pytest.fixture
def store(db):
    return AuditStore(db)


class TestSchema:
    def test_install_is_idempotent(self, db):
        assert db.has_table(AUDIT_TABLE)
        assert install_audit_schema(db) is False

    def test_schema_replays_from_wal(self, tmp_path):
        wal = tmp_path / "audit.wal"
        first = Database(wal_path=wal)
        install_audit_schema(first)
        AuditStore(first).record("task.state", workflow_id=1)
        first.close()
        reopened = Database(wal_path=wal)
        assert reopened.has_table(AUDIT_TABLE)
        assert install_audit_schema(reopened) is False
        assert reopened.count(AUDIT_TABLE) == 1


class TestRecord:
    def test_record_persists_structured_columns(self, store):
        row = store.record(
            "task.state",
            actor="engine",
            workflow_id=3,
            wftask_id=7,
            task="pcr",
            event="activate",
            state="active",
            sequence=12,
        )
        assert row["audit_id"] == 1
        stored = store.db.get(AUDIT_TABLE, 1)
        assert stored["kind"] == "task.state"
        assert stored["workflow_id"] == 3
        assert stored["state"] == "active"
        assert stored["created"] > 0

    def test_extra_fields_land_in_detail(self, store):
        store.record("task.restarted", workflow_id=1, cascade=["b", "c"])
        record = decode_record(store.db.get(AUDIT_TABLE, 1))
        assert record["detail"] == {"cascade": ["b", "c"]}

    def test_trace_context_is_stamped(self, db):
        tracer = Tracer()
        store = AuditStore(db, tracer=tracer)
        with tracer.span("request") as span:
            store.record("task.state", workflow_id=1)
        store.record("task.state", workflow_id=1)
        first, second = (decode_record(r) for r in db.select(AUDIT_TABLE))
        assert first["trace_id"] == span.trace_id
        assert second["trace_id"] is None

    def test_record_never_raises(self):
        broken = Database()  # no audit table installed
        store = AuditStore(broken)
        assert store.record("task.state") is None
        assert store.write_errors == 1


class TestOnEvent:
    def test_engine_events_become_rows(self, store):
        events = EventLog()
        events.subscribe(store.on_event)
        events.emit(
            "task.state",
            workflow_id=1,
            wftask_id=2,
            task="pcr",
            event="activate",
            state="active",
        )
        record = decode_record(store.db.get(AUDIT_TABLE, 1))
        assert record["kind"] == "task.state"
        assert record["wftask_id"] == 2
        assert record["task"] == "pcr"
        assert record["sequence"] == 1
        assert record["actor"] == "engine"

    def test_actor_extracted_from_payload(self, store):
        events = EventLog()
        events.subscribe(store.on_event)
        events.emit("authorization.decided", auth_id=1, decided_by="alice")
        events.emit("instance.state", experiment_id=1, agent_id=4)
        first, second = (
            decode_record(r) for r in store.db.select(AUDIT_TABLE)
        )
        assert first["actor"] == "alice"
        assert second["actor"] == "agent:4"

    def test_unstorable_payload_values_are_skipped(self, store):
        events = EventLog()
        events.subscribe(store.on_event)
        events.emit("weird", blob=object(), note="kept")
        record = decode_record(store.db.get(AUDIT_TABLE, 1))
        assert record["detail"] == {"note": "kept"}


class TestQuery:
    def seed(self, store):
        store.record("task.state", workflow_id=1, actor="engine", task="a")
        store.record("task.state", workflow_id=2, actor="engine", task="b")
        store.record("agent.dispatch", workflow_id=1, actor="robot", task="a")

    def test_filter_by_workflow(self, store):
        self.seed(store)
        total, rows = store.query(workflow_id=1)
        assert total == 2
        assert [r["kind"] for r in rows] == ["task.state", "agent.dispatch"]

    def test_filter_by_actor_and_kind(self, store):
        self.seed(store)
        total, rows = store.query(actor="robot")
        assert total == 1 and rows[0]["kind"] == "agent.dispatch"
        total, rows = store.query(kind="task.state", workflow_id=2)
        assert total == 1 and rows[0]["task"] == "b"

    def test_pagination(self, store):
        self.seed(store)
        total, page = store.query(limit=2, offset=1)
        assert total == 3
        assert [r["audit_id"] for r in page] == [2, 3]

    def test_time_range(self, store):
        self.seed(store)
        rows = store.db.select(AUDIT_TABLE, order_by="audit_id")
        middle = rows[1]["created"]
        total, page = store.query(since=middle)
        assert total >= 2
        assert all(r["created"] >= middle for r in page)

    def test_trace_filter(self, db):
        tracer = Tracer()
        store = AuditStore(db, tracer=tracer)
        with tracer.span("one") as span:
            store.record("task.state", workflow_id=1)
        store.record("task.state", workflow_id=1)
        total, rows = store.query(trace_id=span.trace_id)
        assert total == 1

    def test_timeline_returns_everything(self, store):
        for __ in range(150):
            store.record("task.state", workflow_id=9)
        assert len(store.timeline(9)) == 150
        assert store.count() == 150


class TestVerifyTimeline:
    def row(self, kind, key, event, state, audit_id=0):
        column = "wftask_id" if kind == "task.state" else "experiment_id"
        return {
            "audit_id": audit_id,
            "kind": kind,
            column: key,
            "event": event,
            "state": state,
        }

    def test_legal_sequence_passes(self):
        records = [
            self.row("task.state", 1, "become_eligible", "eligible"),
            self.row("task.state", 1, "activate", "active"),
            self.row("instance.state", 5, "delegate", "delegated"),
            self.row("instance.state", 5, "start", "active"),
            self.row("instance.state", 5, "complete", "completed"),
            self.row("task.state", 1, "complete", "completed"),
        ]
        assert verify_timeline(records) == []

    def test_restart_cycle_is_legal(self):
        records = [
            self.row("task.state", 1, "become_eligible", "eligible"),
            self.row("task.state", 1, "activate", "active"),
            self.row("task.state", 1, "complete", "completed"),
            self.row("task.state", 1, "restart", "created"),
            self.row("task.state", 1, "become_eligible", "eligible"),
        ]
        assert verify_timeline(records) == []

    def test_lost_row_is_detected(self):
        records = [
            self.row("task.state", 1, "become_eligible", "eligible"),
            # the activate row was lost
            self.row("task.state", 1, "complete", "completed"),
        ]
        assert verify_timeline(records)

    def test_duplicated_row_is_detected(self):
        records = [
            self.row("task.state", 1, "become_eligible", "eligible"),
            self.row("task.state", 1, "become_eligible", "eligible"),
        ]
        assert verify_timeline(records)

    def test_incomplete_row_is_reported(self):
        assert verify_timeline(
            [{"audit_id": 9, "kind": "task.state", "event": None, "state": None}]
        )

    def test_other_kinds_are_ignored(self):
        assert verify_timeline(
            [{"audit_id": 1, "kind": "agent.dispatch"}]
        ) == []
