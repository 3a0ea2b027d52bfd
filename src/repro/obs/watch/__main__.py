"""Command-line front end: ``python -m repro.obs.watch``.

Subcommands::

    python -m repro.obs.watch demo               # full alert lifecycle
    python -m repro.obs.watch demo --json        # machine-readable
    python -m repro.obs.watch timeline           # flight-recorder view

``demo`` assembles the protein lab under a :class:`ManualClock`, drops
the dispatch to the digestion robot (a seeded fault plan — the chaos
suite's agent-silence scenario), and drives the stuck-instance alert
through its whole lifecycle without one wall-clock sleep: residency
builds → ``pending`` → held past ``for_s`` → ``firing`` → lease sweep
redelivers → workflow completes → ``resolved``.  It prints the alert
history, the telemetry-export accounting and the workflow's
flight-recorder timeline.  Exit code 0 when the full
pending→firing→resolved lifecycle was observed and exported, 1 when it
was not (the watch pipeline is broken), 2 on usage errors — the CI
smoke contract.

``timeline`` runs one fault-free workflow to completion and prints its
flight-recorder timeline (audit + spans merged).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path


def _build_lab(tmp: str, manual_clock, fault_plan=None):
    from repro.workloads.protein import build_protein_lab

    from repro.obs.watch import StuckPolicy

    return build_protein_lab(
        wal_path=str(Path(tmp) / "lab.wal"),
        journal_path=str(Path(tmp) / "broker.journal"),
        clock=manual_clock,
        fault_plan=fault_plan,
        lease_ttl_s=120.0,
        watch=True,
        stuck_policy=StuckPolicy(
            multiple=3.0, min_samples=3, floor_s=1.0, fallback_s=60.0
        ),
        telemetry_path=str(Path(tmp) / "telemetry.jsonl"),
    )


def run_demo(as_json: bool) -> int:
    from repro.resilience import FaultPlan, ManualClock

    from repro.obs.watch import MemorySink

    clock = ManualClock()
    plan = FaultPlan(seed=3).rule(
        "broker.publish", "drop", times=1, where={"queue": "agent.digest-bot"}
    )
    with tempfile.TemporaryDirectory() as tmp:
        lab = _build_lab(tmp, clock, fault_plan=plan)
        watcher = lab.obs.watcher
        assert watcher is not None
        sink = MemorySink()
        watcher.exporter.add_sink(sink)
        try:
            workflow = lab.engine.start_workflow("protein_creation")
            workflow_id = workflow["workflow_id"]
            lab.run_messages()

            # The digestion dispatch was dropped; let residency build.
            clock.advance(90.0)
            transitions = list(watcher.evaluate())
            clock.advance(40.0)  # past the lease TTL and the for_s hold
            transitions += watcher.evaluate()

            # Recovery: the lease sweep redelivers, the run completes.
            swept = lab.manager.sweep_leases()
            status = lab.run_to_completion(workflow_id)
            transitions += watcher.evaluate()
            watcher.export_metrics_snapshot()
            watcher.exporter.flush()

            stuck_events = [
                (t["from"], t["to"])
                for t in transitions
                if t["rule"] == "stuck-instances"
            ]
            lifecycle_ok = (
                ("inactive", "pending") in stuck_events
                and ("pending", "firing") in stuck_events
                and ("firing", "resolved") in stuck_events
                and status == "completed"
                and swept["redispatched"] == 1
            )
            exported_kinds = {record["kind"] for record in sink.records}
            exported_ok = {"alert.transition", "metrics.snapshot"} <= (
                exported_kinds
            )
            audited = lab.obs.audit.query(kind="alert.transition")[0] > 0

            if as_json:
                print(
                    json.dumps(
                        {
                            "workflow_id": workflow_id,
                            "status": status,
                            "transitions": transitions,
                            "lifecycle_ok": lifecycle_ok,
                            "exported_ok": exported_ok,
                            "audited": audited,
                            "exporter": watcher.exporter.info(),
                            "alerts": watcher.alerts.report(),
                        },
                        indent=2,
                        default=str,
                    )
                )
            else:
                print(f"workflow {workflow_id}: {status}")
                print("== alert transitions ==")
                for t in transitions:
                    print(
                        f"  t={t['at']:7.1f}  {t['rule']:<18} "
                        f"{t['from']} -> {t['to']} (value {t['value']:g})"
                    )
                info = watcher.exporter.info()
                print(
                    f"== exporter: {info['exported']} exported, "
                    f"{info['dropped']} dropped, "
                    f"{info['sink_errors']} sink errors =="
                )
                print(watcher.recorder.render_text(workflow_id))
            if not (lifecycle_ok and exported_ok and audited):
                print(
                    "alert lifecycle incomplete: "
                    f"lifecycle_ok={lifecycle_ok} exported_ok={exported_ok} "
                    f"audited={audited}",
                    file=sys.stderr,
                )
                return 1
            return 0
        finally:
            lab.close()


def run_timeline(as_json: bool) -> int:
    from repro.resilience import ManualClock

    clock = ManualClock()
    with tempfile.TemporaryDirectory() as tmp:
        lab = _build_lab(tmp, clock)
        watcher = lab.obs.watcher
        assert watcher is not None
        try:
            response = lab.app.post(
                "/user", workflow_action="start", pattern="protein_creation"
            )
            if not response.ok:
                print(f"request failed: {response.status}", file=sys.stderr)
                return 1
            workflow_id = response.attributes["workflow_id"]
            status = lab.run_to_completion(workflow_id)
            timeline = watcher.recorder.timeline(workflow_id)
            if as_json:
                print(json.dumps(timeline, indent=2, default=str))
            else:
                print(watcher.recorder.render_text(workflow_id))
            if status != "completed" or not timeline["events"]:
                print(
                    f"timeline incomplete: status={status} "
                    f"events={len(timeline['events'])}",
                    file=sys.stderr,
                )
                return 1
            return 0
        finally:
            lab.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description="Flight recorder and alerting demo over a "
        "self-contained protein-lab workload.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser(
        "demo",
        help="drive a stuck-instance alert pending->firing->resolved "
        "under a ManualClock",
    )
    demo.add_argument("--json", action="store_true", dest="as_json")
    timeline = sub.add_parser(
        "timeline",
        help="run one workflow and print its flight-recorder timeline",
    )
    timeline.add_argument("--json", action="store_true", dest="as_json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return run_demo(as_json=args.as_json)
    return run_timeline(as_json=args.as_json)


if __name__ == "__main__":
    sys.exit(main())
