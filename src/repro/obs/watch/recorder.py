"""The flight recorder: one causally-ordered timeline per workflow.

A lab workflow's history is scattered across four stores with four
clocks of record: the durable ``WFAudit`` trail (state transitions,
authorizations, dispatch/ack, lease expiries, alert transitions), the
tracer's span archive (request/broker/agent timing), the broker's
dead-letter quarantine and the live lease table.  Debugging "what
happened to workflow 17" means joining all four by hand.

:meth:`FlightRecorder.timeline` does the join: every audit row of the
workflow, every archived span of every trace those rows reference
(except the event annotations that restate a listed row), and every
DLQ entry whose headers name the workflow, merged into one list
ordered by timestamp (ties broken audit-first, then by commit order,
so an audit row and the span that caused it stay adjacent and replays
are deterministic).  The current lease rows and any stuck-entity flags
ride along as context sections.  An unknown workflow id yields
``{"found": False, ...}`` — the structured not-found contract the
instances servlet turns into a 404.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.messaging.broker import MessageBroker
    from repro.minidb.engine import Database
    from repro.obs.hub import ObservabilityHub
    from repro.obs.watch.residency import StateResidencyTracker
    from repro.resilience.leases import LeaseTable

#: Merge order for identical timestamps: provenance first, then the
#: spans that carried it, then quarantine bookkeeping.
_SOURCE_RANK = {"audit": 0, "span": 1, "dlq": 2}


class FlightRecorder:
    """Joins audit, span, lease and DLQ views of one workflow."""

    def __init__(
        self,
        hub: "ObservabilityHub",
        db: "Database",
        leases: "LeaseTable | None" = None,
        residency: "StateResidencyTracker | None" = None,
        broker: "MessageBroker | None" = None,
    ) -> None:
        self.hub = hub
        self.db = db
        self.leases = leases
        self.residency = residency
        self.broker = broker

    # ------------------------------------------------------------------
    # Timeline assembly
    # ------------------------------------------------------------------

    def timeline(self, workflow_id: int) -> dict[str, Any]:
        """The merged timeline of one workflow instance.

        ``{"found": False, "workflow_id": id}`` when no such workflow
        exists — never an empty-but-200-shaped payload.
        """
        workflow = self.db.get("Workflow", workflow_id)
        if workflow is None:
            return {"found": False, "workflow_id": workflow_id}
        pattern = self.db.get("WorkflowPattern", workflow["pattern_id"])
        events: list[dict[str, Any]] = []
        audit_rows: list[dict[str, Any]] = []
        if self.hub.audit is not None:
            audit_rows = self.hub.audit.timeline(workflow_id)
        for row in audit_rows:
            events.append(
                {
                    "ts": row.get("created"),
                    "source": "audit",
                    "kind": row.get("kind"),
                    "actor": row.get("actor"),
                    "task": row.get("task"),
                    "event": row.get("event"),
                    "state": row.get("state"),
                    "wftask_id": row.get("wftask_id"),
                    "experiment_id": row.get("experiment_id"),
                    "trace_id": row.get("trace_id"),
                    "audit_id": row.get("audit_id"),
                    "detail": row.get("detail") or {},
                }
            )
        trace_ids = sorted(
            {
                row["trace_id"]
                for row in audit_rows
                if isinstance(row.get("trace_id"), str)
            }
        )
        # An event's trace annotation restates the audit row written for
        # it; list each occurrence once, as its durable row.
        listed = {
            row["sequence"]
            for row in audit_rows
            if row.get("sequence") is not None
        }
        for trace_id in trace_ids:
            for span in self.hub.tracer.spans_for(trace_id):
                if span.attributes.get("sequence") in listed:
                    continue
                events.append(
                    {
                        "ts": span.start_time,
                        "source": "span",
                        "kind": f"span.{span.name}",
                        "name": span.name,
                        "duration_ms": span.duration_ms,
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "error": span.error,
                        "attributes": dict(span.attributes),
                    }
                )
        if self.broker is not None:
            for entry in self.broker.dead_letters():
                if entry.get("headers", {}).get("workflow_id") != workflow_id:
                    continue
                events.append(
                    {
                        "ts": None,
                        "source": "dlq",
                        "kind": "message.quarantined",
                        "queue": entry.get("queue"),
                        "reason": entry.get("reason"),
                        "message_id": entry.get("message_id"),
                        "delivery_count": entry.get("delivery_count"),
                    }
                )
        events.sort(key=_merge_key)
        result: dict[str, Any] = {
            "found": True,
            "workflow_id": workflow_id,
            "pattern": pattern["name"] if pattern is not None else None,
            "status": workflow.get("status"),
            "created": workflow.get("created"),
            "events": events,
            "trace_ids": trace_ids,
        }
        if self.leases is not None:
            result["leases"] = [
                row
                for row in self.leases.snapshot()
                if row.get("workflow_id") == workflow_id
            ]
        if self.residency is not None:
            result["stuck"] = [
                entry
                for entry in self.residency.scan()
                if entry.get("workflow_id") == workflow_id
            ]
        return result

    def summary(self, workflow_id: int) -> dict[str, Any]:
        """A cheap header view (no span join) for instance listings."""
        workflow = self.db.get("Workflow", workflow_id)
        if workflow is None:
            return {"found": False, "workflow_id": workflow_id}
        pattern = self.db.get("WorkflowPattern", workflow["pattern_id"])
        audit_records = 0
        if self.hub.audit is not None:
            audit_records, __ = self.hub.audit.query(
                workflow_id=workflow_id, limit=1
            )
        return {
            "found": True,
            "workflow_id": workflow_id,
            "pattern": pattern["name"] if pattern is not None else None,
            "status": workflow.get("status"),
            "created": workflow.get("created"),
            "audit_records": audit_records,
        }

    # ------------------------------------------------------------------
    # Text rendering (CLI / ?format=text)
    # ------------------------------------------------------------------

    def render_text(self, workflow_id: int) -> str:
        """Human-readable flight-recorder printout of one workflow."""
        data = self.timeline(workflow_id)
        if not data["found"]:
            return f"workflow {workflow_id} not found"
        lines = [
            f"== flight recorder: workflow {workflow_id} "
            f"({data['pattern']}, {data['status']}) =="
        ]
        base = None
        for event in data["events"]:
            ts = event.get("ts")
            if base is None and isinstance(ts, (int, float)):
                base = ts
            offset = (
                f"+{ts - base:9.3f}s"
                if base is not None and isinstance(ts, (int, float))
                else " " * 11
            )
            if event["source"] == "audit":
                what = event.get("kind") or ""
                task = event.get("task")
                state = event.get("state")
                extra = " ".join(
                    part
                    for part in (
                        f"task={task}" if task else "",
                        f"state={state}" if state else "",
                        f"actor={event.get('actor')}" if event.get("actor") else "",
                    )
                    if part
                )
                lines.append(f"  {offset} audit {what:<24} {extra}".rstrip())
            elif event["source"] == "span":
                duration = event.get("duration_ms")
                shown = f"{duration:.2f}ms" if duration is not None else "open"
                lines.append(
                    f"  {offset} span  {event['name']:<24} {shown}"
                )
            else:
                lines.append(
                    f"  {offset} dlq   {event.get('queue', '?'):<24} "
                    f"reason={event.get('reason')}"
                )
        for lease in data.get("leases", []):
            lines.append(
                f"  lease: task={lease['task']} agent={lease['agent']} "
                f"remaining={lease['remaining_s']:.1f}s "
                f"expired={lease['expired']}"
            )
        for entry in data.get("stuck", []):
            lines.append(
                f"  STUCK: {entry['kind']} {entry['entity_id']} "
                f"task={entry['task']} state={entry['state']} "
                f"residency={entry['residency_s']:.1f}s ({entry['reason']})"
            )
        return "\n".join(lines)


def _merge_key(event: dict[str, Any]) -> tuple[float, int, int]:
    ts = event.get("ts")
    rank = _SOURCE_RANK.get(event["source"], 3)
    if not isinstance(ts, (int, float)):
        # Timestamp-less entries (DLQ snapshots) sort to the end.
        return (float("inf"), rank, 0)
    return (float(ts), rank, int(event.get("audit_id") or 0))
