"""One occurrence, one event, one audit row — and the rows keep their shape."""

from __future__ import annotations

import pytest

from repro.core.dispatch import ENGINE_QUEUE, KIND_RESULT
from repro.minidb.predicates import EQ
from repro.resilience import FaultPlan, ManualClock, RetryPolicy
from repro.workloads.protein import build_protein_lab

ID_COLUMNS = ("workflow_id", "wftask_id", "experiment_id", "auth_id")


def rows(lab, kind):
    return lab.obs.audit.query(kind=kind, limit=None)[1]


def ids_of(row):
    return {column for column in ID_COLUMNS if row[column] is not None}


def start(lab) -> int:
    response = lab.app.post(
        "/user", workflow_action="start", pattern="protein_creation"
    )
    assert response.ok
    return response.attributes["workflow_id"]


@pytest.fixture
def lab():
    return build_protein_lab(colonies=25)


class TestOneRowPerOccurrence:
    def test_failed_dispatch_writes_one_row(self, lab):
        lab.manager.faults = FaultPlan().rule("agent.dispatch", "crash", times=1)
        lab.engine.start_workflow("protein_creation")
        [event] = lab.engine.events.of_kind("dispatch.failed")
        [row] = rows(lab, "dispatch.failed")
        assert row["sequence"] == event.sequence
        assert row["actor"] == event["agent"]

    def test_denied_request_writes_one_row(self, lab):
        workflow_id = start(lab)
        lab.run_messages()
        experiment = lab.app.db.select(
            "Experiment", EQ("workflow_id", workflow_id)
        )[0]
        before = lab.obs.audit.count()
        response = lab.app.post(
            "/user",
            action="delete",
            table="Experiment",
            c_experiment_id=str(experiment["experiment_id"]),
        )
        assert response.status == 403
        assert lab.obs.audit.count() == before + 1
        [row] = rows(lab, "request.denied")
        assert row["detail"]["mode"] == "deny"
        assert row["detail"]["path"] == "/user"
        assert row["detail"]["table"] == "Experiment"


class TestRowShapes:
    def test_dispatch_and_ack_rows(self, lab):
        workflow_id = start(lab)
        assert lab.run_to_completion(workflow_id) == "completed"
        # Sub-workflows dispatch too, so only the column set is fixed.
        agent_names = {agent.spec.name for agent in lab.agents}
        dispatches = rows(lab, "agent.dispatch")
        acks = rows(lab, "agent.ack")
        assert dispatches and acks
        for row in dispatches:
            assert row["actor"] in agent_names
            assert ids_of(row) == {"workflow_id", "experiment_id"}
            assert isinstance(row["task"], str)
            assert row["event"] is None and row["state"] is None
            assert set(row["detail"]) == {"queue", "experiment_type"}
            assert row["sequence"] is not None
        for row in acks:
            assert row["actor"] is None or row["actor"] in agent_names
            assert ids_of(row) == {"experiment_id"}
            assert set(row["detail"]) == {"message_id", "message_kind"}
            assert row["sequence"] is not None

    def test_dlq_requeue_row(self):
        clock = ManualClock()
        lab = build_protein_lab(
            colonies=25,
            clock=clock,
            retry_policy=RetryPolicy(
                max_deliveries=2,
                base_delay_s=1.0,
                multiplier=1.0,
                max_delay_s=1.0,
                jitter=0.0,
            ),
        )
        lab.attach_faults(
            FaultPlan(seed=5).rule(
                "broker.publish", "corrupt", times=1,
                where={"queue": ENGINE_QUEUE, "kind": KIND_RESULT},
            )
        )
        lab.engine.start_workflow("protein_creation")
        for __ in range(10):
            lab.run_messages()
            if lab.broker.dlq_depth():
                break
            clock.advance(5.0)
        [entry] = lab.broker.dead_letters()
        response = lab.app.post(
            "/workflow/dlq",
            dlq_action="requeue",
            message_id=str(entry["message_id"]),
            by="ops",
        )
        assert response.ok
        [row] = rows(lab, "dlq.requeue")
        assert row["actor"] is None
        assert ids_of(row) == set()
        assert set(row["detail"]) == {"by", "message_id", "message_kind", "queue"}
        assert row["detail"]["by"] == "ops"
        assert row["detail"]["message_id"] == entry["message_id"]
        assert row["sequence"] is not None
