"""WorkflowServlet odds and ends: inputs, list filters, error paths."""

from __future__ import annotations

import json

import pytest

from repro.core import PatternBuilder, install_workflow_support
from repro.core.persistence import save_pattern
from repro.minidb.schema import Column
from repro.minidb.types import ColumnType
from repro.weblims import build_expdb
from repro.weblims.schema_setup import (
    add_experiment_type,
    add_sample_type,
    declare_experiment_io,
)


@pytest.fixture
def wired():
    app = build_expdb()
    engine = install_workflow_support(app)
    add_experiment_type(app.db, "A", [Column("reading", ColumnType.REAL)])
    add_experiment_type(app.db, "B", [])
    add_sample_type(app.db, "SA", [])
    declare_experiment_io(app.db, "A", "SA", "output")
    declare_experiment_io(app.db, "B", "SA", "input")
    pattern = (
        PatternBuilder("misc")
        .task("a", experiment_type="A")
        .task("b", experiment_type="B")
        .flow("a", "b")
        .data("a", "b", sample_type="SA")
        .build(db=app.db)
    )
    save_pattern(app.db, pattern)
    return app, engine


class TestInputsAction:
    def test_candidate_inputs_page(self, wired):
        app, engine = wired
        workflow = engine.start_workflow("misc")
        workflow_id = workflow["workflow_id"]
        experiment_id = engine.workflow_view(workflow_id).tasks["a"].instances[
            0
        ].experiment_id
        outputs = json.dumps(
            [{"sample_type": "SA", "name": "candidate", "quality": 0.7}]
        )
        app.post(
            "/workflow",
            action="complete_instance",
            experiment_id=str(experiment_id),
            success="true",
            outputs=outputs,
        )
        response = app.get(
            "/workflow",
            action="inputs",
            workflow_id=str(workflow_id),
            task="b",
        )
        assert response.status == 200
        names = {sample["name"] for sample in response.attributes["inputs"]}
        assert names == {"candidate"}
        assert "1 candidate input(s)" in response.body


class TestListFilters:
    def test_list_by_status(self, wired):
        app, engine = wired
        engine.start_workflow("misc")
        running = app.get("/workflow", action="list", status="running")
        assert len(running.attributes["workflows"]) == 1
        completed = app.get("/workflow", action="list", status="completed")
        assert completed.attributes["workflows"] == []


class TestErrorPaths:
    def test_status_of_unknown_workflow_is_409(self, wired):
        app, __ = wired
        response = app.get("/workflow", action="status", workflow_id="999")
        assert response.status == 409

    def test_missing_required_param_is_400(self, wired):
        app, __ = wired
        response = app.get("/workflow", action="status")
        assert response.status == 400

    def test_missing_action_is_400(self, wired):
        app, __ = wired
        response = app.get("/workflow")
        assert response.status == 400

    def test_restart_unknown_task_is_409(self, wired):
        app, engine = wired
        workflow = engine.start_workflow("misc")
        response = app.post(
            "/workflow",
            action="restart",
            workflow_id=str(workflow["workflow_id"]),
            task="ghost",
        )
        assert response.status == 409

    def test_cancel_unknown_workflow_is_409(self, wired):
        app, __ = wired
        response = app.post(
            "/workflow", action="cancel", workflow_id="424242"
        )
        assert response.status == 409

    def test_authorize_malformed_id_is_400(self, wired):
        app, __ = wired
        response = app.post(
            "/workflow", action="authorize", auth_id="not-a-number",
            approve="true",
        )
        assert response.status == 400
        assert "must be an integer" in response.body

    def test_events_malformed_since_is_400(self, wired):
        app, __ = wired
        response = app.get("/workflow", action="events", since="later")
        assert response.status == 400


@pytest.fixture
def gated(wired):
    app, engine = wired
    pattern = (
        PatternBuilder("gated")
        .task("a", experiment_type="A", requires_authorization=True)
        .task("b", experiment_type="B")
        .flow("a", "b")
        .data("a", "b", sample_type="SA")
        .build(db=app.db)
    )
    save_pattern(app.db, pattern)
    return app, engine


class TestAuthorizationsAction:
    def test_lists_pending_requests_of_one_workflow(self, gated):
        app, engine = gated
        first = engine.start_workflow("gated")["workflow_id"]
        engine.start_workflow("gated")
        everything = app.get("/workflow", action="authorizations")
        assert everything.status == 200
        assert len(everything.attributes["authorizations"]) == 2
        response = app.get(
            "/workflow", action="authorizations", workflow_id=str(first)
        )
        assert response.status == 200
        pending = response.attributes["authorizations"]
        assert [row["workflow_id"] for row in pending] == [first]

    def test_malformed_workflow_id_is_400_through_the_filter(self, gated):
        app, __ = gated
        response = app.get(
            "/user", workflow_action="authorizations", workflow_id="abc"
        )
        assert response.status == 400
        assert "must be an integer" in response.body


class TestAbortInstanceAction:
    def _instance(self, engine, workflow_id):
        view = engine.workflow_view(workflow_id)
        return view.tasks["a"].instances[0].experiment_id

    def test_abort_then_abort_again_is_409(self, wired):
        app, engine = wired
        workflow_id = engine.start_workflow("misc")["workflow_id"]
        experiment_id = self._instance(engine, workflow_id)
        response = app.post(
            "/workflow", action="abort_instance",
            experiment_id=str(experiment_id),
        )
        assert response.status == 200
        assert f"instance {experiment_id} aborted" in response.body
        experiment = app.db.get("Experiment", experiment_id)
        assert experiment["wf_state"] == "aborted"
        again = app.post(
            "/workflow", action="abort_instance",
            experiment_id=str(experiment_id),
        )
        assert again.status == 409

    def test_malformed_experiment_id_is_400(self, wired):
        app, __ = wired
        response = app.post(
            "/workflow", action="abort_instance", experiment_id="x"
        )
        assert response.status == 400
        assert "must be an integer" in response.body
