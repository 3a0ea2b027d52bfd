"""The ``/workflow/checkpoint`` servlet (operational checkpointing)."""

from __future__ import annotations

import json

import pytest

from repro.obs import install_observability
from repro.weblims import build_expdb


@pytest.fixture
def app_and_hub(tmp_path):
    app = build_expdb(wal_path=tmp_path / "lims.wal")
    hub = install_observability(expdb=app)
    return app, hub


class TestCheckpointServlet:
    def test_get_reports_the_wal_layout(self, app_and_hub):
        app, __ = app_and_hub
        response = app.get("/workflow/checkpoint")
        assert response.ok
        info = json.loads(response.body)
        assert info["enabled"] is True
        assert info["segments"] >= 1
        assert "records_since_checkpoint" in info

    def test_post_takes_an_online_checkpoint(self, app_and_hub):
        app, __ = app_and_hub
        assert app.db.wal_info()["checkpoint"] is None
        response = app.post("/workflow/checkpoint", by="ops")
        assert response.ok
        body = json.loads(response.body)
        assert body["checkpointed"] is True
        assert body["records"] > 0
        assert body["checkpoints_total"] == 1
        info = app.db.wal_info()
        assert info["checkpoint"] is not None
        # Recovery is now checkpoint + (empty) tail, not full history.
        assert info["records_since_checkpoint"] == 0

    def test_post_is_recorded_in_the_audit_trail(self, app_and_hub):
        from repro.core.engine import WorkflowBean

        app, hub = app_and_hub
        # The servlet records through the wired engine's event log.
        hub.install_audit(WorkflowBean(app.db))
        app.post("/workflow/checkpoint", by="ops")
        kinds = [
            record["kind"]
            for record in hub.audit.query()[1]
            if record["kind"].startswith("db.checkpoint")
        ]
        # The request row (with the operator) and the checkpoint row
        # from the database hook.
        assert "db.checkpoint.request" in kinds
        assert "db.checkpoint" in kinds

    def test_checkpoint_total_metric_scraped(self, app_and_hub):
        app, __ = app_and_hub
        app.post("/workflow/checkpoint")
        app.post("/workflow/checkpoint")
        metrics = app.get("/workflow/metrics")
        assert "db_checkpoint_total 2" in metrics.body
        assert "db_wal_segments" in metrics.body

    def test_post_without_wal_is_rejected(self):
        app = build_expdb()  # no WAL
        install_observability(expdb=app)
        response = app.post("/workflow/checkpoint")
        assert response.status == 409

    def test_post_inside_transaction_is_rejected(self, app_and_hub):
        app, __ = app_and_hub
        app.db.begin()
        response = app.post("/workflow/checkpoint")
        assert response.status == 409
        app.db.rollback()
        assert app.post("/workflow/checkpoint").ok
