"""The filter's readiness probe reads component status, not history.

``WorkflowFilter`` asks ``hub_readiness`` on every workflow-relevant
request, so the probe must cost the same in a young lab and an old one:

* one probe adds no database read, row scan or full scan, whatever the
  number of completed workflows (counts from ``DatabaseStats``, so the
  gate gives the same verdict on any host);
* the history-sized counts it no longer computes are still reported
  by ``GET /workflow/health``;
* a readiness provider that raises still means "not ready": the filter
  answers 503 with the error text, never 500.
"""

from __future__ import annotations

import json

from repro.core import PatternBuilder, install_workflow_support
from repro.core.persistence import save_pattern
from repro.minidb.schema import Column
from repro.minidb.types import ColumnType
from repro.obs import hub_readiness, install_observability
from repro.weblims import build_expdb
from repro.weblims.schema_setup import add_experiment_type
from repro.workloads.protein import build_protein_lab


def test_readiness_probe_reads_nothing_at_any_age():
    lab = build_protein_lab(seed=5)
    completed = 0
    for age in (5, 50):
        while completed < age:
            workflow_id = lab.engine.start_workflow("protein_creation")[
                "workflow_id"
            ]
            assert lab.run_to_completion(workflow_id) == "completed"
            completed += 1
        before = lab.app.db.stats.snapshot()
        assert hub_readiness(lab.obs) == (True, "")
        delta = lab.app.db.stats.snapshot().delta(before)
        assert (delta.reads, delta.rows_scanned, delta.full_scans) == (
            0,
            0,
            0,
        ), (age, delta)


def test_history_counts_stay_on_the_health_endpoint():
    lab = build_protein_lab(seed=5)
    workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
    assert lab.run_to_completion(workflow_id) == "completed"
    response = lab.app.get("/workflow/health", component="history")
    body = json.loads(response.body)
    assert response.status == 200
    assert body["running_workflows"] == 0
    assert body["audit_records"] == lab.obs.audit.count() > 0
    engine = lab.obs.health_report()["components"]["engine"]
    assert engine["audit_write_errors"] == 0


def test_raising_readiness_provider_answers_503_not_500():
    app = build_expdb()
    install_workflow_support(app)
    add_experiment_type(app.db, "A", [Column("reading", ColumnType.REAL)])
    save_pattern(
        app.db,
        PatternBuilder("flow").task("a", experiment_type="A").build(db=app.db),
    )
    hub = install_observability(expdb=app)

    def broken():
        raise RuntimeError("engine probe exploded")

    hub.register_health("engine", broken)
    response = app.post("/user", action="insert", table="A", v_reading="1")
    assert response.status == 503
    assert "engine probe exploded" in response.body
    assert app.db.count("A") == 0
