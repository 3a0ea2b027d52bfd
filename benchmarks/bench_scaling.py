"""A4 — ablation: scaling of the database-backed engine design.

Exp-WF keeps all execution state in the LIMS database (that is what
makes integration non-intrusive and recovery trivial), so every
workflow check pays DB reads proportional to the pattern size and the
number of running workflows.  This bench quantifies that design choice:

* reads per ``check_workflow`` as the chain length grows;
* total reads for one data change as the number of concurrently
  *running* workflows grows (the postprocessing hook re-checks each).

Both series must grow roughly linearly — the price of statelessness —
while staying flat per idle workflow once it has finished.
"""

from __future__ import annotations

import pytest

from repro.workloads.generator import build_synthetic_lab

CHAIN_LENGTHS = [1, 2, 4, 8]
WORKFLOW_COUNTS = [1, 2, 4, 8]


def reads_per_check(length: int) -> int:
    lab = build_synthetic_lab(stages=length)
    pattern = lab.chain_pattern(length)
    workflow = lab.engine.start_workflow(pattern.name)
    snapshot = lab.app.db.stats.snapshot()
    lab.engine.check_workflow(workflow["workflow_id"])
    return lab.app.db.stats.snapshot().delta(snapshot).reads


def reads_per_data_change(running: int) -> int:
    lab = build_synthetic_lab(stages=2)
    pattern = lab.chain_pattern(2)
    for __ in range(running):
        lab.engine.start_workflow(pattern.name)
    snapshot = lab.app.db.stats.snapshot()
    lab.engine.on_data_change("Sample", {})
    return lab.app.db.stats.snapshot().delta(snapshot).reads


def test_a4_check_cost_vs_pattern_size(report, benchmark):
    series = [(length, reads_per_check(length)) for length in CHAIN_LENGTHS]
    report(
        "A4  DB reads per check_workflow vs chain length",
        ["chain length", "reads per check"],
        [[length, reads] for length, reads in series],
    )
    reads = [r for __, r in series]
    assert all(a <= b for a, b in zip(reads, reads[1:]))
    assert reads[-1] < reads[0] * len(CHAIN_LENGTHS) * 6  # roughly linear

    lab = build_synthetic_lab(stages=CHAIN_LENGTHS[-1])
    pattern = lab.chain_pattern(CHAIN_LENGTHS[-1])
    workflow = lab.engine.start_workflow(pattern.name)
    benchmark(lambda: lab.engine.check_workflow(workflow["workflow_id"]))


def test_a4_data_change_cost_vs_running_workflows(report, benchmark):
    series = [
        (count, reads_per_data_change(count)) for count in WORKFLOW_COUNTS
    ]
    report(
        "A4  DB reads per postprocessed data change vs running workflows",
        ["running workflows", "reads per change"],
        [[count, reads] for count, reads in series],
    )
    reads = [r for __, r in series]
    assert all(a < b for a, b in zip(reads, reads[1:]))

    # Finished workflows cost nothing on later changes.
    lab = build_synthetic_lab(stages=1)
    pattern = lab.retry_pattern(1)
    workflow = lab.engine.start_workflow(pattern.name)
    lab.run_to_completion(workflow["workflow_id"])
    snapshot = lab.app.db.stats.snapshot()
    lab.engine.on_data_change("Sample", {})
    delta = lab.app.db.stats.snapshot().delta(snapshot)
    assert delta.reads <= 2  # just the running-workflows index lookup
    assert delta.full_scans == 0  # served by the Workflow(status) index

    benchmark(lambda: lab.engine.on_data_change("Sample", {}))
