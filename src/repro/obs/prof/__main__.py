"""Command-line front end: ``python -m repro.obs.prof``.

Subcommands::

    python -m repro.obs.prof report              # run workload, report
    python -m repro.obs.prof report --json       # machine-readable
    python -m repro.obs.prof report --flamegraph # collapsed stacks

``report`` assembles the full protein lab with profiling enabled,
drives ``--requests`` start_workflow requests through the filter →
engine → broker → agent path (a pump thread plays the agent pool), and
prints the profiler's attribution/contention/SLO report.  Mirrors the
``repro.analysis`` CLI conventions: ``--json`` switches to JSON on
stdout, and the exit code is 0 when the run produced attributable
traces, 1 when attribution came up empty (something is broken in the
span pipeline), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.obs.prof.slo import SLOPolicy


def run_report(
    requests: int,
    as_json: bool,
    flamegraph: bool,
    sampler: bool,
    slo_threshold_ms: float,
) -> int:
    from repro.workloads.protein import build_protein_lab

    with tempfile.TemporaryDirectory() as tmp:
        lab = build_protein_lab(
            wal_path=str(Path(tmp) / "lab.wal"),
            journal_path=str(Path(tmp) / "broker.journal"),
            profiling=True,
            sampler=sampler or flamegraph,
            slos=(
                SLOPolicy(
                    operation="protein_creation",
                    threshold_ms=slo_threshold_ms,
                    objective=0.95,
                    window=max(requests, 10),
                ),
            ),
        )
        profiler = lab.obs.profiler
        assert profiler is not None
        try:
            for __ in range(requests):
                response = lab.app.post(
                    "/user",
                    workflow_action="start",
                    pattern="protein_creation",
                )
                if not response.ok:
                    print(
                        f"request failed: {response.status}", file=sys.stderr
                    )
                    return 1
                lab.run_messages()
            report = profiler.report()
            if flamegraph:
                assert profiler.sampler is not None
                print(profiler.sampler.collapsed())
            elif as_json:
                print(json.dumps(report, indent=2, default=str))
            else:
                print(profiler.render_text())
            if not report["attribution"]:
                print(
                    "no attributable traces were produced", file=sys.stderr
                )
                return 1
            return 0
        finally:
            lab.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.prof",
        description="Latency attribution and profiling report over a "
        "self-contained protein-lab workload.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="run the workload and print the profile report"
    )
    report.add_argument(
        "--requests",
        type=int,
        default=10,
        help="start_workflow requests to drive (default 10)",
    )
    report.add_argument("--json", action="store_true", dest="as_json")
    report.add_argument(
        "--flamegraph",
        action="store_true",
        help="print collapsed-stack sampler output instead of the report",
    )
    report.add_argument(
        "--sampler",
        action="store_true",
        help="run the wall-clock stack sampler during the workload",
    )
    report.add_argument(
        "--slo-threshold-ms",
        type=float,
        default=50.0,
        help="latency SLO threshold tracked for protein_creation",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_report(
        requests=args.requests,
        as_json=args.as_json,
        flamegraph=args.flamegraph,
        sampler=args.sampler,
        slo_threshold_ms=args.slo_threshold_ms,
    )


if __name__ == "__main__":
    sys.exit(main())
