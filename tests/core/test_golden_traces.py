"""Golden engine traces: the Fig. 4 rules must not change behaviour.

Each scenario drives the engine through one shape of §4.2 behaviour and
records the full ``EventLog`` sequence (kind plus payload; events carry
no timestamps) and the final ``Workflow`` / ``WFTask`` / ``Experiment``
states.  The recordings in ``golden/engine_traces.json`` are the
reference; any change to the eligibility join, dead-path elimination,
the loop back-edge rule, task completion or workflow termination shows
up here as a diff.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/core/test_golden_traces.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.core import PatternBuilder, WorkflowBean
from repro.core.datamodel import install_workflow_datamodel
from repro.core.persistence import save_pattern
from repro.minidb.schema import Column
from repro.minidb.types import ColumnType
from repro.weblims import build_expdb
from repro.weblims.schema_setup import (
    add_experiment_type,
    add_sample_type,
    declare_experiment_io,
)
from repro.workloads.protein import build_protein_lab

GOLDEN = pathlib.Path(__file__).with_name("golden") / "engine_traces.json"


def _trace(engine, db) -> dict:
    events = [
        f"{event.kind} "
        + json.dumps(event.payload, sort_keys=True, default=str)
        for event in engine.events.events
    ]
    workflows = [
        [row["workflow_id"], row["name"], row["status"], row["parent_workflow_id"]]
        for row in db.select("Workflow", order_by="workflow_id")
    ]
    tasks = [
        [
            row["wftask_id"],
            row["workflow_id"],
            engine.specs.wfp_task(row["wfp_task_id"])["name"],
            row["state"],
            row["child_workflow_id"],
        ]
        for row in db.select("WFTask", order_by="wftask_id")
    ]
    instances = [
        [
            row["experiment_id"],
            row["workflow_id"],
            row["wftask_id"],
            row["wf_state"],
            row["wf_success"],
            row["wf_current"],
            row["status"],
        ]
        for row in db.select("Experiment", order_by="experiment_id")
    ]
    return {
        "events": events,
        "workflows": workflows,
        "tasks": tasks,
        "instances": instances,
    }


# ---------------------------------------------------------------------------
# Protein lab scenarios (full stack: engine, broker, agents)
# ---------------------------------------------------------------------------


def _protein_run(colonies: int) -> dict:
    lab = build_protein_lab(colonies=colonies)
    workflow = lab.engine.start_workflow("protein_creation")
    assert lab.run_to_completion(workflow["workflow_id"]) == "completed"
    return _trace(lab.engine, lab.app.db)


def e5_screening() -> dict:
    return _protein_run(colonies=25)


def e5_miniprep() -> dict:
    return _protein_run(colonies=10)


def restart_cascade() -> dict:
    """Backtrack ``digestion`` once ligation has run: everything
    downstream restarts, the undecided instances abort, the workflow
    re-runs to completion."""
    lab = build_protein_lab(colonies=25)
    workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
    for __ in range(4):
        lab.run_messages()
        view = lab.engine.workflow_view(workflow_id)
        if view.tasks["ligation"].state == "completed":
            break
    lab.engine.restart_task(workflow_id, "digestion", by="golden")
    assert lab.run_to_completion(workflow_id) == "completed"
    return _trace(lab.engine, lab.app.db)


def cancel_workflow() -> dict:
    """Cancel a running workflow whose sub-workflow task is live."""
    lab = build_protein_lab(colonies=10)
    workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
    lab.run_messages()
    for request in lab.engine.pending_authorizations(workflow_id):
        lab.engine.respond_authorization(request["auth_id"], True, "golden")
    lab.run_messages()
    lab.engine.cancel_workflow(workflow_id, by="golden")
    lab.run_messages()
    return _trace(lab.engine, lab.app.db)


def subworkflow_rerun() -> dict:
    """Run to completion, then restart the sub-workflow task: the old
    child is detached, a new child runs, the parent completes again."""
    lab = build_protein_lab(colonies=25)
    workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
    assert lab.run_to_completion(workflow_id) == "completed"
    lab.engine.restart_task(workflow_id, "protein_production", by="golden")
    assert lab.run_to_completion(workflow_id) == "completed"
    return _trace(lab.engine, lab.app.db)


# ---------------------------------------------------------------------------
# Manual-mode scenarios (engine only, instances completed directly)
# ---------------------------------------------------------------------------


def _manual_lab():
    app = build_expdb()
    install_workflow_datamodel(app.db)
    for type_name in ("A", "B", "C", "D"):
        add_experiment_type(
            app.db, type_name, [Column("reading", ColumnType.REAL)]
        )
    add_sample_type(app.db, "SA", [])
    declare_experiment_io(app.db, "A", "SA", "output")
    return app.db, WorkflowBean(app.db)


def _define(db, builder: PatternBuilder) -> None:
    save_pattern(db, builder.build(db=db))


def _complete_all(engine, workflow_id, task, success=True, **kwargs) -> None:
    for instance in engine.workflow_view(workflow_id).tasks[task].instances:
        if not instance.decided:
            engine.complete_instance(
                instance.experiment_id, success=success, **kwargs
            )


def _approve(engine) -> None:
    for request in engine.pending_authorizations():
        engine.respond_authorization(request["auth_id"], True, "golden")


def back_edge_loop() -> dict:
    """``improve ⇄ check``: the back-edge never blocks on first entry;
    on a cascade repeat it is un-run again; on a single-task repeat the
    satisfied back-edge source enables ``improve`` through its guard;
    a final cascade from ``check`` revives ``done``."""
    db, engine = _manual_lab()
    _define(
        db,
        PatternBuilder("looped")
        .task("start", experiment_type="A")
        .task("improve", experiment_type="B")
        .task("check", experiment_type="C")
        .task("done", experiment_type="D")
        .flow("start", "improve")
        .flow("improve", "check")
        .flow("check", "improve", condition="experiment.reading < 0.5")
        .flow("check", "done", condition="experiment.reading >= 0.5"),
    )
    workflow_id = engine.start_workflow("looped")["workflow_id"]
    _complete_all(engine, workflow_id, "start")
    _complete_all(engine, workflow_id, "improve")
    _complete_all(engine, workflow_id, "check", result_values={"reading": 0.2})
    engine.restart_task(workflow_id, "improve")
    _complete_all(engine, workflow_id, "improve")
    _complete_all(engine, workflow_id, "check", result_values={"reading": 0.3})
    engine.restart_task(workflow_id, "improve", cascade=False)
    _complete_all(engine, workflow_id, "improve")
    engine.restart_task(workflow_id, "check")
    _complete_all(engine, workflow_id, "improve")
    _complete_all(engine, workflow_id, "check", result_values={"reading": 0.8})
    _approve(engine)
    _complete_all(engine, workflow_id, "done")
    return _trace(engine, db)


def condition_error() -> dict:
    """A condition naming a missing output column raises
    ``ConditionError``: it counts as false and is recorded."""
    db, engine = _manual_lab()
    _define(
        db,
        PatternBuilder("erroring")
        .task("source", experiment_type="A")
        .task("guarded", experiment_type="B")
        .task("safe", experiment_type="C")
        .flow("source", "guarded", condition="output.missing_column > 1")
        .flow("source", "safe"),
    )
    workflow_id = engine.start_workflow("erroring")["workflow_id"]
    _complete_all(
        engine, workflow_id, "source", outputs=[{"sample_type": "SA"}]
    )
    _approve(engine)
    _complete_all(engine, workflow_id, "safe")
    return _trace(engine, db)


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (
        e5_screening,
        e5_miniprep,
        restart_cascade,
        cancel_workflow,
        subworkflow_rerun,
        back_edge_loop,
        condition_error,
    )
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name, golden):
    assert SCENARIOS[name]() == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_traces.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {name: scenario() for name, scenario in sorted(SCENARIOS.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} scenarios to {GOLDEN}")
