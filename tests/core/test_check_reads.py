"""Host-independent read gates on the engine's hot paths.

Counts come from ``DatabaseStats``, so they are the same on any host:

* an idle ``check_workflow`` (nothing to advance) reads one snapshot of
  the workflow — its cost does not depend on how many tasks the
  pattern has;
* the reads of one protein workflow do not grow with the lab's
  history, and its rows scanned grow only by the samples of a produced
  type that a stock-input lookup must look at (stock-input lookups go
  through indexes);
* a restart scans the same rows however many workflows ran before.
"""

from __future__ import annotations

import pytest

from repro.workloads.generator import build_synthetic_lab
from repro.workloads.protein import build_protein_lab


def _idle_check_reads(lab, pattern) -> int:
    workflow_id = lab.engine.start_workflow(pattern.name)["workflow_id"]
    before = lab.app.db.stats.snapshot()
    lab.engine.check_workflow(workflow_id)
    return lab.app.db.stats.snapshot().delta(before).reads


def _chain_reads(length: int) -> int:
    lab = build_synthetic_lab(stages=length)
    return _idle_check_reads(lab, lab.chain_pattern(length))


def _fanout_reads(width: int) -> int:
    lab = build_synthetic_lab(stages=3)
    return _idle_check_reads(lab, lab.fanout_pattern(width))


def test_idle_check_cost_is_flat_in_chain_length():
    assert _chain_reads(5) == _chain_reads(40)


def test_idle_check_cost_is_flat_in_fanout_width():
    assert _fanout_reads(5) == _fanout_reads(40)


@pytest.fixture(scope="module")
def protein_costs():
    """(reads, rows scanned) of each of 30 protein workflows run one
    after another on one in-memory lab."""
    lab = build_protein_lab(seed=5)
    costs = []
    for __ in range(30):
        before = lab.app.db.stats.snapshot()
        workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
        assert lab.run_to_completion(workflow_id) == "completed"
        delta = lab.app.db.stats.snapshot().delta(before)
        costs.append((delta.reads, delta.rows_scanned))
    return costs


def test_protein_workflow_reads_do_not_grow_with_history(protein_costs):
    (reads_2, __), (reads_30, ___) = protein_costs[1], protein_costs[29]
    assert abs(reads_30 - reads_2) <= 5, protein_costs


def test_protein_workflow_scans_do_not_grow_with_history(protein_costs):
    """Only a stock lookup for a type that experiments produce still
    looks at every sample of that type: the child's ``expression`` task
    takes PlasmidDna, which none of the child's own transitions covers,
    so its lookup passes each earlier workflow's PlasmidDna sample and
    output link — two rows per earlier workflow, nothing more."""
    (__, scanned_2), (___, scanned_30) = protein_costs[1], protein_costs[29]
    assert scanned_30 - scanned_2 <= 2 * 28 + 10, protein_costs


def test_restart_scans_do_not_grow_with_history():
    """Backtracking cancels the restarted tasks' authorizations through
    the ``WFAuthorization(workflow_id)`` index, not a full scan."""
    lab = build_protein_lab(seed=5)
    scanned = []
    for age in (2, 12):
        while len(lab.engine.list_workflows()) < age:
            workflow_id = lab.engine.start_workflow("protein_creation")[
                "workflow_id"
            ]
            assert lab.run_to_completion(workflow_id) == "completed"
        before = lab.app.db.stats.snapshot()
        lab.engine.restart_task(workflow_id, "pcr_screening")
        delta = lab.app.db.stats.snapshot().delta(before)
        scanned.append((delta.rows_scanned, delta.full_scans))
        assert lab.run_to_completion(workflow_id) == "completed"
    assert scanned[0] == scanned[1]
