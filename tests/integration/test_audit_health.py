"""Acceptance: durable provenance + health across a full lab lifecycle.

One protein workflow runs to completion, a task is backtracked and the
workflow re-completes, then the server crashes and recovers from its
WAL.  The recovered ``GET /workflow/audit`` timeline must reconstruct
every task/task-instance transition (including the restart) with
matching trace ids, and ``GET /workflow/health`` must report
per-component status with queue depths and last-poll ages.
"""

from __future__ import annotations

import json

import pytest

from repro.agents import AgentManager
from repro.core import install_workflow_support
from repro.messaging import MessageBroker
from repro.obs import install_observability, verify_timeline
from repro.weblims import build_expdb
from repro.workloads.protein import build_protein_lab


@pytest.fixture(scope="module")
def lifecycle(tmp_path_factory):
    """(pre-crash lab, recovered app, workflow_id, root span, events)."""
    tmp = tmp_path_factory.mktemp("audit-health")
    wal_path = tmp / "lims.wal"
    journal_path = tmp / "broker.journal"
    lab = build_protein_lab(
        colonies=3, wal_path=str(wal_path), journal_path=str(journal_path)
    )
    hub = lab.obs
    with hub.tracer.span("experiment.submission") as root:
        start = lab.app.post(
            "/user", workflow_action="start", pattern="protein_creation"
        )
        lab.run_messages()
    assert start.ok
    workflow_id = lab.app.db.select("Workflow", order_by="workflow_id")[-1][
        "workflow_id"
    ]
    assert lab.run_to_completion(workflow_id) == "completed"
    # Backtrack: re-run pcr and everything downstream, then re-complete.
    lab.engine.restart_task(workflow_id, "pcr", by="pi")
    assert lab.run_to_completion(workflow_id) == "completed"
    events = list(lab.engine.events.events)
    pre_crash = hub.audit.timeline(workflow_id)
    # ---- server crash: drop every in-memory object, keep the files ----
    lab.app.db.close()
    lab.broker.close()
    app2 = build_expdb(wal_path=str(wal_path), install_schema=False)
    broker2 = MessageBroker(journal_path=str(journal_path))
    manager2 = AgentManager(app2.db, broker2)
    engine2 = install_workflow_support(
        app2, dispatcher=manager2, install_datamodel=False
    )
    manager2.attach_engine(engine2)
    install_observability(
        expdb=app2, engine=engine2, broker=broker2, manager=manager2
    )
    return lab, app2, workflow_id, root, events, pre_crash


def audit_records(app, **params):
    response = app.get(
        "/workflow/audit", limit="1000", **{k: str(v) for k, v in params.items()}
    )
    assert response.ok
    assert response.content_type == "application/json"
    return json.loads(response.body)


class TestAuditTimeline:
    def test_timeline_matches_the_event_log_sequence(self, lifecycle):
        lab, __, workflow_id, ___, events, pre_crash = lifecycle
        bridged = [r for r in pre_crash if r["detail"].get("sequence") is not None
                   or r["sequence"] is not None]
        by_sequence = {
            r["sequence"]: r["kind"] for r in pre_crash if r["sequence"]
        }
        workflow_events = [
            e
            for e in events
            if e.payload.get("workflow_id") == workflow_id
            and e.kind in by_sequence.values()
        ]
        # Every engine event about this workflow has exactly its row.
        for event in workflow_events:
            assert by_sequence.get(event.sequence) == event.kind, (
                f"event #{event.sequence} {event.kind} missing from trail"
            )
        assert len(bridged) >= len(workflow_events)

    def test_recovered_timeline_is_identical_to_pre_crash(self, lifecycle):
        __, app2, workflow_id, ___, ____, pre_crash = lifecycle
        data = audit_records(app2, workflow_id=workflow_id)
        assert data["total"] == len(pre_crash)
        assert data["records"] == pre_crash

    def test_recovered_timeline_is_transition_legal(self, lifecycle):
        __, app2, workflow_id, ___, ____, _____ = lifecycle
        data = audit_records(app2, workflow_id=workflow_id)
        assert verify_timeline(data["records"]) == []

    def test_backtrack_is_reconstructable(self, lifecycle):
        __, app2, workflow_id, ___, ____, _____ = lifecycle
        records = audit_records(app2, workflow_id=workflow_id)["records"]
        [restart] = [r for r in records if r["kind"] == "task.restarted"]
        assert restart["task"] == "pcr"
        assert restart["actor"] == "pi"
        assert restart["detail"]["cascade"], "cascade list not recorded"
        # The restart transitions themselves are in the trail: each
        # restarted task went back to created via the restart event.
        reset = [
            r
            for r in records
            if r["kind"] == "task.state"
            and r["event"] == "restart"
            and r["state"] == "created"
        ]
        assert len(reset) >= 1 + len(restart["detail"]["cascade"]) - 1
        # And the task completed twice: once per run.
        pcr_completions = [
            r
            for r in records
            if r["kind"] == "task.state"
            and r["task"] == "pcr"
            and r["state"] == "completed"
        ]
        assert len(pcr_completions) == 2

    def test_rows_carry_the_submission_trace_id(self, lifecycle):
        __, app2, workflow_id, root, ____, _____ = lifecycle
        records = audit_records(app2, workflow_id=workflow_id)["records"]
        in_trace = [r for r in records if r["trace_id"] == root.trace_id]
        assert in_trace, "no audit rows cross-link to the submission trace"
        # The submission's own rows (started + first transitions) match.
        started = [r for r in records if r["kind"] == "workflow.started"]
        assert all(r["trace_id"] == root.trace_id for r in started)

    def test_pagination_and_filters_over_recovered_trail(self, lifecycle):
        __, app2, workflow_id, ___, ____, _____ = lifecycle
        full = audit_records(app2, workflow_id=workflow_id)
        page = json.loads(
            app2.get(
                "/workflow/audit",
                workflow_id=str(workflow_id),
                limit="5",
                offset="5",
            ).body
        )
        assert page["total"] == full["total"]
        assert page["records"] == full["records"][5:10]
        dispatches = audit_records(
            app2, workflow_id=workflow_id, kind="agent.dispatch"
        )
        assert dispatches["total"] > 0
        assert all(
            r["kind"] == "agent.dispatch" for r in dispatches["records"]
        )

    def test_bad_query_parameters_are_rejected(self, lifecycle):
        __, app2, ___, ____, _____, ______ = lifecycle
        assert app2.get("/workflow/audit", workflow_id="x").status == 400
        assert app2.get("/workflow/audit", limit="0").status == 400
        assert app2.get("/workflow/audit", since="yesterday").status == 400


class TestHealthEndpoint:
    def test_live_lab_reports_every_component(self, lifecycle):
        lab, __, ___, ____, _____, ______ = lifecycle
        response = lab.app.get("/workflow/health")
        assert response.status == 200
        report = json.loads(response.body)
        assert report["status"] == "ok"
        assert set(report["components"]) >= {
            "container",
            "database",
            "engine",
            "broker",
            "manager",
            "agents",
            "email",
        }

    def test_queue_depths_and_poll_ages_are_reported(self, lifecycle):
        lab, __, ___, ____, _____, ______ = lifecycle
        report = json.loads(lab.app.get("/workflow/health").body)
        broker = report["components"]["broker"]
        assert "workflow.manager" in broker["queues"]
        assert all(isinstance(d, int) for d in broker["queues"].values())
        agents = report["components"]["agents"]["agents"]
        assert agents, "no agents in the health report"
        for info in agents.values():
            assert info["last_poll_age_s"] is not None
            assert info["queue_depth"] == 0
        manager = report["components"]["manager"]
        assert manager["last_pump_age_s"] is not None
        assert manager["engine_queue_depth"] == 0

    def test_wal_and_journal_status_visible(self, lifecycle):
        lab, __, ___, ____, _____, ______ = lifecycle
        report = json.loads(lab.app.get("/workflow/health").body)
        wal = report["components"]["database"]["wal"]
        assert wal["enabled"] is True
        assert wal["size_bytes"] > 0
        journal = report["components"]["broker"]["journal"]
        assert journal["enabled"] is True
        assert journal["appended_records"] > 0

    def test_recovered_server_is_healthy(self, lifecycle):
        __, app2, ___, ____, _____, ______ = lifecycle
        response = app2.get("/workflow/health")
        assert response.status == 200
        report = json.loads(response.body)
        assert report["components"]["database"]["wal"]["enabled"] is True
        # The recovered broker still knows its queues from the journal.
        assert "workflow.manager" in report["components"]["broker"]["queues"]

    def test_liveness_probe_always_200(self, lifecycle):
        lab, __, ___, ____, _____, ______ = lifecycle
        response = lab.app.get("/workflow/health", probe="live")
        assert response.status == 200
        assert json.loads(response.body) == {"status": "ok", "probe": "live"}

    def test_component_filter(self, lifecycle):
        lab, __, ___, ____, _____, ______ = lifecycle
        response = lab.app.get("/workflow/health", component="broker")
        assert response.status == 200
        assert json.loads(response.body)["component"] == "broker"
        assert lab.app.get("/workflow/health", component="nope").status == 404


class TestMetricsExposure:
    def test_new_gauges_are_exposed(self, lifecycle):
        lab, __, ___, ____, _____, ______ = lifecycle
        text = lab.app.get("/workflow/metrics").body
        assert "broker_journal_backlog" in text
        assert "manager_engine_queue_depth" in text
        assert 'agent_queue_depth{agent="pcr-bot"}' in text
        assert "agent_last_poll_age_seconds" in text
        assert "agent_mailbox_depth" in text
        assert "engine_events_dropped_total 0" in text
