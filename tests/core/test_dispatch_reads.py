"""Host-independent read gates on task dispatch.

Counts come from ``DatabaseStats``, so they are the same on any host.
A task's candidate inputs are collected once per activation, however
many default instances it has, and each stock sample costs one read
(its child-table row): the ``Sample`` rows of a type come from one
select, and the type tables from the spec cache.
"""

from __future__ import annotations

import pytest

from repro.workloads.generator import build_synthetic_lab
from repro.workloads.protein import build_protein_lab


def add_stock_primers(lab, count: int) -> None:
    for index in range(count):
        sample = lab.app.db.insert(
            "Sample",
            {"type_name": "Primer", "name": f"stock-{index}", "quality": 0.9},
        )
        lab.app.db.insert(
            "Primer", {"sample_id": sample["sample_id"], "sequence": "GATC"}
        )


def count_collects(monkeypatch, engine) -> list[tuple[int, str]]:
    calls: list[tuple[int, str]] = []
    collect = engine.collect_available_inputs

    def counted(workflow_id: int, task_name: str):
        calls.append((workflow_id, task_name))
        return collect(workflow_id, task_name)

    monkeypatch.setattr(engine, "collect_available_inputs", counted)
    return calls


def test_start_reads_grow_by_one_read_per_stock_primer():
    lab = build_protein_lab(seed=5)
    warm_up = lab.engine.start_workflow("protein_creation")["workflow_id"]
    assert lab.run_to_completion(warm_up) == "completed"
    reads = []
    for added in (0, 50, 50):
        add_stock_primers(lab, added)
        before = lab.app.db.stats.snapshot()
        workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
        reads.append(lab.app.db.stats.snapshot().delta(before).reads)
        assert lab.run_to_completion(workflow_id) == "completed"
    assert reads[1] - reads[0] <= 1.1 * 50, reads
    assert reads[2] - reads[1] <= 1.1 * 50, reads


def test_start_collects_inputs_once_per_activated_task(monkeypatch):
    """``pcr`` runs two default instances, ``digestion`` one."""
    lab = build_protein_lab(seed=5)
    calls = count_collects(monkeypatch, lab.engine)
    workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
    assert sorted(calls) == [(workflow_id, "digestion"), (workflow_id, "pcr")]
    assert lab.manager.dispatch_count == 3


@pytest.mark.parametrize("default_instances", [1, 4])
def test_collects_once_whatever_default_instances(monkeypatch, default_instances):
    lab = build_synthetic_lab(stages=2)
    pattern = lab.chain_pattern(2, default_instances=default_instances)
    calls = count_collects(monkeypatch, lab.engine)
    workflow_id = lab.engine.start_workflow(pattern.name)["workflow_id"]
    assert lab.run_to_completion(workflow_id) == "completed"
    assert calls == [(workflow_id, "t0"), (workflow_id, "t1")]
    assert lab.manager.dispatch_count == 2 * default_instances
