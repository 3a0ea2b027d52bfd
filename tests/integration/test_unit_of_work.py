"""One engine call, one unit of work.

Every public ``WorkflowBean`` call commits its state changes and the
audit rows of its events in one transaction, or — if it raises — leaves
nothing behind; its broker messages go out only after that commit.
"""

from __future__ import annotations

import pytest

from repro.core.dispatch import KIND_AUTH_REQUEST, KIND_DISPATCH
from repro.errors import FaultInjected, InstanceError
from repro.messaging import MessageBroker
from repro.minidb import Database
from repro.minidb.predicates import EQ
from repro.obs.audit import AUDIT_TABLE
from repro.resilience.faults import FaultPlan
from repro.workloads.protein import build_protein_lab


def durable_lab(directory):
    directory.mkdir(parents=True, exist_ok=True)
    return build_protein_lab(
        colonies=25,
        wal_path=str(directory / "lims.wal"),
        journal_path=str(directory / "broker.journal"),
    )


def wal_appends(lab) -> int:
    return lab.app.db.wal_info()["appended_records"]


def close_quietly(*stores) -> None:
    for store in stores:
        try:
            store.close()
        except Exception:  # noqa: BLE001 - a crashed store may refuse
            pass


def delegated_instance(lab, workflow_id: int) -> int:
    rows = lab.app.db.select(
        "Experiment", EQ("workflow_id", workflow_id), order_by="experiment_id"
    )
    return next(
        row["experiment_id"] for row in rows if row["wf_state"] == "delegated"
    )


class TestRollback:
    def test_failed_call_leaves_no_rows(self):
        """``complete_instance`` on a delegated instance writes its START
        transition, an output sample and its audit rows before the bad
        ``result_values`` key raises; the rollback takes all of them."""
        lab = build_protein_lab(colonies=25)
        db = lab.app.db
        workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
        experiment_id = delegated_instance(lab, workflow_id)
        audit_rows = db.count(AUDIT_TABLE)
        samples = db.count("Sample")
        before = lab.engine.events.last_sequence

        with pytest.raises(InstanceError, match="no_such_column"):
            lab.engine.complete_instance(
                experiment_id,
                success=True,
                outputs=[{"sample_type": "PcrProduct", "name": "orphan"}],
                result_values={"no_such_column": 1},
            )

        experiment = db.get("Experiment", experiment_id)
        assert experiment["wf_state"] == "delegated"
        assert experiment["status"] == "new"
        assert db.count("Sample") == samples
        assert db.count(AUDIT_TABLE) == audit_rows
        assert not [
            row
            for row in db.select(AUDIT_TABLE, EQ("experiment_id", experiment_id))
            if row["event"] == "start"
        ]
        # The in-memory event log still shows what the call attempted.
        attempted = lab.engine.events.since(before)
        assert [(e.kind, e["event"]) for e in attempted] == [
            ("instance.state", "start")
        ]
        # The instance is untouched, so the agent's real result applies.
        lab.run_messages()
        assert db.get("Experiment", experiment_id)["wf_state"] == "completed"


class TestMessagesFollowTheCommit:
    @pytest.mark.parametrize("point", ["wal.append", "wal.fsync"])
    def test_crash_never_leaves_a_message_naming_a_lost_row(
        self, tmp_path, point
    ):
        """Crash at every occurrence of ``point`` inside ``start_workflow``;
        after reopening, every queued dispatch and authorization request
        names a row the recovered database holds."""
        crashes = 0
        for occurrence in range(50):
            directory = tmp_path / f"{point}-{occurrence}"
            lab = durable_lab(directory)
            plan = FaultPlan().rule(point, "crash", after=occurrence)
            lab.attach_faults(plan)
            try:
                lab.engine.start_workflow("protein_creation")
            except FaultInjected:
                crashes += 1
            else:
                close_quietly(lab.app.db, lab.broker)
                break
            finally:
                lab.attach_faults(None)
            db = Database(directory / "lims.wal")
            broker = MessageBroker(journal_path=str(directory / "broker.journal"))
            try:
                for queue in broker.queue_names():
                    while (message := broker.receive(queue)) is not None:
                        kind = message.headers.get("kind")
                        if kind == KIND_DISPATCH:
                            key = ("Experiment", message.headers["experiment_id"])
                        elif kind == KIND_AUTH_REQUEST:
                            key = ("WFAuthorization", message.headers["auth_id"])
                        else:
                            continue
                        assert db.get(key[0], int(key[1])) is not None, (
                            f"{kind} survives a crash at {point} "
                            f"#{occurrence + 1} but its {key[0]} row does not"
                        )
            finally:
                close_quietly(db, broker, lab.app.db, lab.broker)
        assert crashes >= 1


class TestWalRecordsPerCall:
    def test_each_engine_call_appends_at_most_two_wal_records(self, tmp_path):
        """One record for the call, one for its deferred messages' audit
        rows: a return to per-statement commits fails here, on any host."""
        lab = durable_lab(tmp_path / "lab")
        try:
            before = wal_appends(lab)
            workflow_id = lab.engine.start_workflow("protein_creation")[
                "workflow_id"
            ]
            assert wal_appends(lab) - before <= 2
            experiment_id = delegated_instance(lab, workflow_id)
            before = wal_appends(lab)
            lab.engine.complete_instance(experiment_id, success=True)
            assert wal_appends(lab) - before <= 2
            assert lab.app.db.get("Experiment", experiment_id)["wf_state"] == (
                "completed"
            )
        finally:
            lab.app.db.close()
            lab.broker.close()
