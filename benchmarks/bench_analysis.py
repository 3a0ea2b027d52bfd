"""A1 — static-analysis throughput over synthetic specifications.

Runs the soundness verifier over generator patterns at three scales
(50/500/5000-task chains, a wide fan-out, and a guard-heavy branchy
pattern at the ``MAX_GUARDS`` exploration cap) and records diagnostics
per second plus the marking-exploration counters, emitting
``BENCH_analysis.json`` so successive runs stay comparable.

The 5000-task chain checks that the pattern graph stays linear: the
verifier and the engine share one ``repro.core.evaluator.PatternGraph``,
built once per ``check_pattern`` call in O(V+E) (adjacency, BFS depths,
strongly connected components, back-edges, forward order).  A quadratic
regression there shows up here as a collapse in patterns/sec long
before tests notice.
"""

from __future__ import annotations

import time

from repro.analysis import MAX_GUARDS, check_pattern
from repro.workloads.generator import (
    synthetic_branchy_pattern,
    synthetic_chain_pattern,
    synthetic_fanout_pattern,
)


def _cases():
    return [
        ("chain-50", synthetic_chain_pattern(50)),
        ("chain-500", synthetic_chain_pattern(500)),
        ("chain-5000", synthetic_chain_pattern(5000)),
        ("fanout-64", synthetic_fanout_pattern(64)),
        # Six diamonds x two guards lands exactly on the MAX_GUARDS cap:
        # the worst tractable marking exploration.
        ("branchy-6", synthetic_branchy_pattern(6)),
    ]


def test_a1_analysis_throughput(report, emit_bench, benchmark):
    rows = []
    trajectory = {}
    for name, pattern in _cases():
        start = time.perf_counter()
        result = check_pattern(pattern)
        elapsed = time.perf_counter() - start
        assert result.ok, result.render_text()
        diagnostics = len(result.diagnostics)
        stats = dict(result.stats)
        rows.append(
            [
                name,
                stats.get("tasks", 0),
                stats.get("guards", 0),
                stats.get("assignments_explored", 0),
                stats.get("states_visited", 0),
                f"{elapsed * 1000:.1f}",
                f"{(diagnostics or 1) / elapsed:.0f}",
            ]
        )
        trajectory[name] = {
            "elapsed_seconds": elapsed,
            "diagnostics": diagnostics,
            "diagnostics_per_second": (diagnostics or 1) / elapsed,
            **stats,
        }
    report(
        "A1  wfcheck throughput (synthetic specifications)",
        [
            "pattern",
            "tasks",
            "guards",
            "assignments",
            "states",
            "ms",
            "diag/s",
        ],
        rows,
    )
    branchy = trajectory["branchy-6"]
    assert branchy["guards"] == MAX_GUARDS
    assert branchy["assignments_explored"] > 0
    emit_bench("analysis", trajectory)

    benchmark(lambda: check_pattern(synthetic_chain_pattern(500)))


def test_a1_codelint_throughput(report, emit_bench, benchmark):
    from pathlib import Path

    from repro.analysis import lint_paths

    src = Path(__file__).resolve().parents[1] / "src"
    start = time.perf_counter()
    result = lint_paths([src])
    elapsed = time.perf_counter() - start
    assert result.ok, result.render_text()
    files = result.stats["files"]
    report(
        "A1  codelint throughput (repository source tree)",
        ["files", "findings", "ms", "files/s"],
        [[files, len(result.diagnostics), f"{elapsed * 1000:.1f}",
          f"{files / elapsed:.0f}"]],
    )
    emit_bench(
        "analysis_codelint",
        {
            "files": files,
            "findings": len(result.diagnostics),
            "elapsed_seconds": elapsed,
            "files_per_second": files / elapsed,
        },
    )

    benchmark(lambda: lint_paths([src / "repro" / "analysis"]))
