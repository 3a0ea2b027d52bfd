"""A WAL-backed protein lab reopens to exactly the state it wrote.

The lab runs both E5 branches, a backtracking restart whose cascade
re-runs the protein-production sub-workflow, and a restart of that
sub-workflow task alone.  Reopening its WAL must give every table row
for row, and the audit trail must answer every query the same way.
"""

from __future__ import annotations

import pytest

from repro.minidb import Database
from repro.obs import AuditStore, verify_timeline
from repro.workloads.protein import build_protein_lab


def set_colonies(lab, colonies: int) -> None:
    """Pin the transformation robot's colony count (the E5 branch)."""
    [robot] = [a for a in lab.agents if a.spec.name == "transform-bot"]
    robot.result_fields["colonies"] = colonies


def tables_of(db: Database) -> dict[str, list[dict]]:
    state = {}
    for table in db.tables():
        key = db.schema(table).primary_key[0]
        state[table] = db.select(table, order_by=key)
    return state


def audit_answers(db: Database, workflow_ids: list[int]) -> dict:
    """Every audit question the lab's operators ask, with its answer."""
    audit = AuditStore(db)
    answers = {"all": audit.query(limit=None)}
    for kind in ("task.state", "instance.state", "agent.ack", "task.restarted"):
        answers[kind] = audit.query(kind=kind, limit=None)
    answers["page"] = audit.query(limit=7, offset=11)
    for workflow_id in workflow_ids:
        timeline = audit.timeline(workflow_id)
        answers[workflow_id] = (timeline, verify_timeline(timeline))
    return answers


@pytest.fixture(scope="module")
def lab_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("lab")
    wal_path = str(work / "lims.wal")
    lab = build_protein_lab(
        seed=5, wal_path=wal_path, journal_path=str(work / "broker.journal")
    )
    engine = lab.engine
    screening = engine.start_workflow("protein_creation")["workflow_id"]
    assert lab.run_to_completion(screening) == "completed"
    set_colonies(lab, 10)
    miniprep = engine.start_workflow("protein_creation")["workflow_id"]
    assert lab.run_to_completion(miniprep) == "completed"
    view = engine.workflow_view(miniprep)
    assert view.tasks["miniprep"].state == "completed"
    assert view.tasks["pcr_screening"].state == "unreachable"

    # Backtrack the screening run from ligation: the cascade reaches
    # protein_production, so its sub-workflow runs a second time.
    first_child = engine.workflow_view(screening).tasks[
        "protein_production"
    ].child_workflow_id
    engine.restart_task(screening, "ligation", by="pi")
    assert lab.run_to_completion(screening) == "completed"
    second_child = engine.workflow_view(screening).tasks[
        "protein_production"
    ].child_workflow_id
    assert second_child != first_child

    # Re-run only the miniprep run's sub-workflow.
    engine.restart_task(miniprep, "protein_production", by="pi")
    assert lab.run_to_completion(miniprep) == "completed"

    workflow_ids = [row["workflow_id"] for row in lab.app.db.select("Workflow")]
    assert len(workflow_ids) == 6  # two runs, four sub-workflow runs
    live_tables = tables_of(lab.app.db)
    live_audit = audit_answers(lab.app.db, workflow_ids)
    lab.close()

    reopened = Database(wal_path)
    yield live_tables, live_audit, reopened, workflow_ids
    reopened.close()


def test_every_table_equals_the_live_one(lab_run):
    live_tables, __, reopened, ___ = lab_run
    assert tables_of(reopened) == live_tables


def test_audit_queries_and_timelines_answer_the_same(lab_run):
    __, live_audit, reopened, workflow_ids = lab_run
    assert audit_answers(reopened, workflow_ids) == live_audit
    for workflow_id in workflow_ids:
        timeline, violations = live_audit[workflow_id]
        assert timeline and violations == []
