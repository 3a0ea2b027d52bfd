"""``ProteinLab.close()`` shuts a WAL-backed lab down cleanly.

After a run to quiescence and ``close()``, a fresh ``Database`` on the
WAL and a fresh ``MessageBroker`` on the journal reopen with the same
row counts, the same queues and no outstanding, in-flight or
dead-lettered message.  A second ``close()`` does nothing, and a step
that raises still lets the broker and the database close.
"""

from __future__ import annotations

import pytest

from repro.messaging import MessageBroker
from repro.minidb import Database
from repro.workloads.protein import build_protein_lab


def test_closed_lab_reopens_with_its_rows_and_no_messages(tmp_path):
    wal_path = str(tmp_path / "lims.wal")
    journal_path = str(tmp_path / "broker.journal")
    lab = build_protein_lab(seed=5, wal_path=wal_path, journal_path=journal_path)
    for __ in range(2):
        workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
        assert lab.run_to_completion(workflow_id) == "completed"
    assert lab.run_messages() == 0
    db = lab.app.db
    counts = {table: db.count(table) for table in db.tables()}
    queues = sorted(lab.broker.queue_names())

    lab.close()
    assert all(agent.connection.closed for agent in lab.agents)

    def refuse() -> None:
        raise AssertionError("a second close() closed something again")

    lab.broker.close = refuse  # type: ignore[method-assign]
    lab.app.db.close = refuse  # type: ignore[method-assign]
    lab.close()

    reopened = Database(wal_path)
    broker = MessageBroker(journal_path=journal_path)
    try:
        assert {table: reopened.count(table) for table in reopened.tables()} == (
            counts
        )
        assert sorted(broker.queue_names()) == queues
        assert [broker.queue_depth(queue) for queue in queues] == [0] * len(queues)
        assert broker.in_flight_count() == 0
        assert broker.dlq_depth() == 0
    finally:
        broker.close()
        reopened.close()


def test_a_failing_step_still_closes_broker_and_database(tmp_path):
    wal_path = str(tmp_path / "lims.wal")
    journal_path = str(tmp_path / "broker.journal")
    lab = build_protein_lab(seed=5, wal_path=wal_path, journal_path=journal_path)
    workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
    assert lab.run_to_completion(workflow_id) == "completed"
    db = lab.app.db
    counts = {table: db.count(table) for table in db.tables()}
    closed: list[str] = []
    for name, target in (("broker", lab.broker), ("db", db)):
        close = target.close

        def record(close=close, name=name) -> None:
            closed.append(name)
            close()

        target.close = record  # type: ignore[method-assign]

    def fail() -> None:
        raise OSError("agent connection lost")

    lab.agents[0].close = fail  # type: ignore[method-assign]
    with pytest.raises(OSError, match="agent connection lost"):
        lab.close()
    assert closed == ["broker", "db"]
    assert all(agent.connection.closed for agent in lab.agents[1:])
    lab.close()
    assert closed == ["broker", "db"]

    reopened = Database(wal_path)
    try:
        assert {table: reopened.count(table) for table in reopened.tables()} == (
            counts
        )
    finally:
        reopened.close()
