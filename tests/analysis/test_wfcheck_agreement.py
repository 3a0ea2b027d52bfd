"""wfcheck's marking analysis predicts what the engine actually does.

For each feasible guard assignment of ``protein_creation`` — many
colonies (PCR screening) or few (miniprep) — the tasks wfcheck
simulates as completed and as dead must be exactly the tasks an engine
run with that colony count leaves completed and unreachable.
"""

from __future__ import annotations

import pytest

from repro.analysis.wfcheck import _assignments, _guard_variables
from repro.core.evaluator import simulate
from repro.workloads.protein import build_protein_lab


@pytest.mark.parametrize("colonies", [25, 10])
def test_simulated_marking_matches_engine_run(colonies):
    lab = build_protein_lab(colonies=colonies)
    workflow = lab.engine.start_workflow("protein_creation")
    assert lab.run_to_completion(workflow["workflow_id"]) == "completed"
    states = {
        name: task.state
        for name, task in lab.engine.workflow_view(
            workflow["workflow_id"]
        ).tasks.items()
    }

    graph = lab.engine.specs.graph(workflow["pattern_id"])
    results = {"experiment": {"colonies": colonies}}
    assignment = {
        (source, condition.unparse()): condition.evaluate(results)
        for (source, __), conditions in graph.pairs.items()
        for condition in conditions
    }
    explored = list(_assignments(list(_guard_variables(graph).values())))
    assert len(explored) == 2
    assert assignment in explored

    completed, dead = simulate(
        graph, lambda source, condition: assignment[(source, condition.unparse())]
    )
    assert completed == {n for n, s in states.items() if s == "completed"}
    assert dead == {n for n, s in states.items() if s == "unreachable"}
    assert dead  # one branch was not taken
