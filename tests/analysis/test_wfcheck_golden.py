"""Golden wfcheck output: every diagnostic and stat, byte for byte.

``golden/wfcheck.json`` holds, per pattern, every ``check_pattern``
diagnostic (code, severity, message) and the report's ``stats``.  The
patterns cover the crafted cases of ``test_wfcheck.py``, the protein
registry and the synthetic generator shapes, so a change to the graph
scaffolding or the marking analysis that alters any verdict — or just
a message — shows up as a diff.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/analysis/test_wfcheck_golden.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.analysis import MAX_GUARDS, check_pattern, check_registry
from repro.core.spec import TaskDef, TransitionDef, WorkflowPattern
from repro.workloads.generator import (
    synthetic_branchy_pattern,
    synthetic_chain_pattern,
    synthetic_fanout_pattern,
)

GOLDEN = pathlib.Path(__file__).with_name("golden") / "wfcheck.json"

AUTH = {"requires_authorization": True}


def _pattern(name, tasks, transitions) -> WorkflowPattern:
    """``tasks``: (name, experiment type[, TaskDef kwargs]);
    ``transitions``: (source, target[, condition])."""
    pattern = WorkflowPattern(name)
    for task_name, experiment_type, *options in tasks:
        pattern.add_task(
            TaskDef(task_name, experiment_type=experiment_type, **dict(*options))
        )
    for source, target, *condition in transitions:
        pattern.add_transition(TransitionDef(source, target, *condition))
    return pattern


def crafted_patterns() -> list[WorkflowPattern]:
    """The hand-built patterns of ``test_wfcheck.py``."""
    guard_wall = [("s", "S")] + [
        (f"t{index}", "T", AUTH) for index in range(MAX_GUARDS + 1)
    ]
    return [
        _pattern(
            "deadjoin",
            [("start", "A"), ("left", "B"), ("right", "C"), ("join", "D", AUTH)],
            [
                ("start", "left", "experiment.reading > 1"),
                ("start", "right", "experiment.reading < 0"),
                ("left", "join"),
                ("right", "join"),
            ],
        ),
        _pattern(
            "rejoin",
            [("start", "A"), ("hi", "B"), ("lo", "C"), ("sink", "D", AUTH)],
            [
                ("start", "hi", "experiment.reading >= 0.5"),
                ("start", "lo", "experiment.reading < 0.5"),
                ("hi", "sink"),
                ("lo", "sink"),
            ],
        ),
        _pattern(
            "parjoin",
            [("a", "A"), ("b", "B"), ("join", "C", AUTH)],
            [("a", "join"), ("b", "join")],
        ),
        _pattern(
            "contra",
            [("s", "A"), ("x", "B", AUTH), ("end", "C", AUTH)],
            [
                ("s", "x", "experiment.reading > 1 and experiment.reading < 0"),
                ("s", "end"),
            ],
        ),
        _pattern(
            "tauto",
            [("s", "A"), ("t", "B", AUTH)],
            [("s", "t", "experiment.reading >= 1 or experiment.reading < 1")],
        ),
        _pattern(
            "names",
            [("s", "A"), ("t", "B", AUTH)],
            [("s", "t", "bogus.field == 1")],
        ),
        _pattern(
            "spin",
            [("start", "S"), ("a", "A"), ("b", "B"), ("end", "E", AUTH)],
            [
                ("start", "a"),
                ("a", "b"),
                ("b", "a", "experiment.x >= 1 or experiment.x < 1"),
                ("b", "end"),
            ],
        ),
        _pattern(
            "gatedend",
            [("s", "A"), ("end", "B", AUTH)],
            [("s", "end", "experiment.reading >= 2")],
        ),
        _pattern(
            "orphan",
            [("start", "S"), ("loop1", "A"), ("loop2", "B"), ("end", "E", AUTH)],
            [
                ("start", "loop1"),
                ("loop1", "loop2"),
                ("loop2", "loop1", "experiment.retry >= 1"),
                ("start", "end"),
            ],
        ),
        _pattern(
            "wide",
            guard_wall,
            [
                ("s", f"t{index}", f"experiment.v{index} == 1")
                for index in range(MAX_GUARDS + 1)
            ],
        ),
        _pattern(
            "many",
            [("s", "A", {"default_instances": 101, **AUTH})],
            [],
        ),
        _pattern(
            "gates",
            [("s", "A", AUTH), ("t", "B", AUTH)],
            [("s", "t")],
        ),
    ]


def synthetic_cases() -> list[WorkflowPattern]:
    return [
        synthetic_chain_pattern(50),
        synthetic_fanout_pattern(64),
        *(synthetic_branchy_pattern(diamonds) for diamonds in range(1, 7)),
    ]


def protein_registry():
    from repro.core.datamodel import install_workflow_datamodel
    from repro.core.persistence import pattern_registry
    from repro.weblims import build_expdb
    from repro.workloads.protein import (
        build_protein_patterns,
        install_protein_schema,
    )

    app = build_expdb()
    install_workflow_datamodel(app.db)
    install_protein_schema(app)
    build_protein_patterns(app)
    return pattern_registry(app.db), app.db


def _render(report) -> dict:
    return {
        "diagnostics": [
            [diagnostic.code, diagnostic.severity.value, diagnostic.message]
            for diagnostic in report
        ],
        "stats": dict(report.stats),
    }


def record() -> dict:
    outputs = {
        f"{pattern.name}": _render(check_pattern(pattern))
        for pattern in crafted_patterns() + synthetic_cases()
    }
    registry, db = protein_registry()
    for name, report in check_registry(registry, db=db).items():
        outputs[f"protein/{name}"] = _render(report)
    return outputs


@pytest.fixture(scope="module")
def recorded() -> dict:
    return record()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_same_patterns_as_golden(recorded, golden):
    assert sorted(recorded) == sorted(golden)


@pytest.mark.parametrize(
    "name", sorted(json.loads(GOLDEN.read_text())) if GOLDEN.exists() else []
)
def test_output_matches_golden(name, recorded, golden):
    assert json.dumps(recorded[name], sort_keys=True) == json.dumps(
        golden[name], sort_keys=True
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_wfcheck_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    outputs = record()
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} patterns to {GOLDEN}")
