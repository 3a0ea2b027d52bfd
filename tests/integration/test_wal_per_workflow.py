"""WAL cost per protein workflow, counted in bytes and records.

Both gates are program counts, so they give the same verdict on any
host.  Each commit logs its net row changes as positional values, and
an agent message's ``agent.ack`` audit row commits with the engine call
that applied the message instead of as a commit of its own.
"""

from __future__ import annotations

import pytest

from repro.core.dispatch import ENGINE_QUEUE
from repro.workloads.protein import build_protein_lab

WORKFLOWS = 5
MAX_WAL_BYTES_PER_WORKFLOW = 34_000
MAX_WAL_RECORDS_PER_WORKFLOW = 25

#: Events a task dispatch writes when it is sent (see AgentManager).
DISPATCH_EVENTS = {"agent.dispatch", "dispatch.skipped", "dispatch.failed"}


@pytest.fixture
def lab(tmp_path):
    lab = build_protein_lab(
        seed=5,
        wal_path=str(tmp_path / "lims.wal"),
        journal_path=str(tmp_path / "broker.journal"),
    )
    yield lab
    lab.app.db.close()
    lab.broker.close()


def wal_position(lab) -> tuple[int, int]:
    info = lab.app.db.wal_info()
    return info["size_bytes"], info["appended_records"]


def test_wal_bytes_and_records_per_workflow(lab):
    bytes_before, records_before = wal_position(lab)
    for __ in range(WORKFLOWS):
        workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
        assert lab.run_to_completion(workflow_id) == "completed"
    bytes_after, records_after = wal_position(lab)
    per_workflow_bytes = (bytes_after - bytes_before) / WORKFLOWS
    per_workflow_records = (records_after - records_before) / WORKFLOWS
    assert per_workflow_bytes <= MAX_WAL_BYTES_PER_WORKFLOW, per_workflow_bytes
    assert per_workflow_records <= MAX_WAL_RECORDS_PER_WORKFLOW, (
        per_workflow_records
    )


def test_agent_ack_commits_with_the_call_it_acknowledges(lab):
    """One ``pump()`` over K queued messages appends K records, plus one
    for each message whose engine call dispatched a task (its
    ``agent.dispatch`` rows and the ack share the deferred-send
    transaction).  A separate ack commit would make it 2K plus that."""
    workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
    rounds = 0
    dispatching_calls = 0
    while lab.app.db.get("Workflow", workflow_id)["status"] == "running":
        rounds += 1
        assert rounds < 50, "workflow did not finish"
        for agent in lab.agents:
            agent.run_until_idle()
        queued = lab.broker.queue_depth(ENGINE_QUEUE)
        if queued == 0:
            lab.approve_all_authorizations()
            continue
        since = lab.engine.events.last_sequence
        __, records_before = wal_position(lab)
        assert lab.manager.pump() == queued
        __, records_after = wal_position(lab)

        # Which calls dispatched: a dispatch event since the previous ack.
        acks = dispatched = 0
        dispatched_since_ack = False
        for event in lab.engine.events.since(since):
            if event.kind in DISPATCH_EVENTS:
                dispatched_since_ack = True
            elif event.kind == "agent.ack":
                acks += 1
                dispatched += dispatched_since_ack
                dispatched_since_ack = False
        assert acks == queued
        assert records_after - records_before == queued + dispatched
        dispatching_calls += dispatched
    assert lab.app.db.get("Workflow", workflow_id)["status"] == "completed"
    # The digestion, ligation and transformation results each dispatch
    # the next task; the pcr_screening and expression results queue only
    # an authorization request, which writes no audit row, so their
    # acks ride the call's own unit.
    assert dispatching_calls >= 3
