"""Durable audit/provenance trail, persisted in minidb.

In a laboratory the record of *what happened* — which task instances
ran, who authorized them, which were marked successful, what was
backtracked — matters as much as the execution itself.  PR 1's traces
and metrics are ephemeral; this module is the durable half:

* the ``WFAudit`` table is written through ``db.insert``, i.e. the same
  statement/transaction path as every other engine write, so audit rows
  ride the write-ahead log and **survive crash recovery** exactly like
  workflow state (and an audit write inside an open engine transaction
  commits or rolls back with it);
* every row carries the acting party, a wall-clock timestamp, the
  workflow/task/instance/authorization ids that apply, the engine
  event-log sequence of the event it records and the PR-1 trace id of
  the request that caused it — so span trees and audit rows cross-link
  on one trace id;
* :meth:`AuditStore.query` reconstructs provenance timelines, filterable
  by workflow, experiment, actor, kind and time range, with pagination —
  the backing of ``GET /workflow/audit``.

The store is fed one way: :meth:`AuditStore.on_event` subscribes to the
engine's :class:`~repro.core.events.EventLog`, and every event becomes
exactly one row, written by :meth:`AuditStore.record` (codelint CL006
keeps it the only writer).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.minidb.predicates import AND, EQ, GE, LE
from repro.minidb.schema import Column, TableSchema
from repro.minidb.types import ColumnType
from repro.resilience.clock import Clock, SystemClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.minidb.engine import Database

#: Name of the audit table (sibling of ``WFTask`` / ``WFAuthorization``).
AUDIT_TABLE = "WFAudit"

#: Structured columns every audit row may populate; anything else an
#: event carries lands in the ``detail`` JSON column.
_ID_COLUMNS = (
    "workflow_id",
    "wftask_id",
    "experiment_id",
    "auth_id",
)
_TEXT_COLUMNS = ("task", "event", "state")


def install_audit_schema(db: "Database") -> bool:
    """Create the ``WFAudit`` table and its indexes.

    Idempotent: returns ``False`` without touching the database when the
    table already exists — which is also how reopening a WAL-backed
    database works, since the original ``CREATE TABLE`` replays from the
    log before this runs again.
    """
    if db.has_table(AUDIT_TABLE):
        return False
    db.create_table(
        TableSchema(
            name=AUDIT_TABLE,
            columns=[
                Column("audit_id", ColumnType.INTEGER, nullable=False),
                Column("created", ColumnType.REAL, nullable=False),
                Column("kind", ColumnType.TEXT, nullable=False),
                Column("actor", ColumnType.TEXT),
                Column("workflow_id", ColumnType.INTEGER),
                Column("wftask_id", ColumnType.INTEGER),
                Column("experiment_id", ColumnType.INTEGER),
                Column("auth_id", ColumnType.INTEGER),
                Column("task", ColumnType.TEXT),
                Column("event", ColumnType.TEXT),
                Column("state", ColumnType.TEXT),
                Column("sequence", ColumnType.INTEGER),
                Column("trace_id", ColumnType.TEXT),
                Column("span_id", ColumnType.TEXT),
                Column("detail", ColumnType.TEXT),
            ],
            primary_key=("audit_id",),
            autoincrement="audit_id",
        )
    )
    db.create_index(AUDIT_TABLE, ["workflow_id"])
    db.create_index(AUDIT_TABLE, ["kind"])
    db.create_index(AUDIT_TABLE, ["experiment_id"])
    return True


class AuditStore:
    """Writes and queries the durable audit trail."""

    def __init__(
        self, db: "Database", tracer=None, clock: Clock | None = None
    ) -> None:
        self.db = db
        self.tracer = tracer
        #: Injectable time source stamping the ``created`` column.
        self.clock: Clock = clock or SystemClock()
        #: Records that failed to persist (diagnostics only).
        self.write_errors = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def record(
        self,
        kind: str,
        actor: str | None = None,
        workflow_id: int | None = None,
        wftask_id: int | None = None,
        experiment_id: int | None = None,
        auth_id: int | None = None,
        task: str | None = None,
        event: str | None = None,
        state: str | None = None,
        sequence: int | None = None,
        **detail: Any,
    ) -> dict[str, Any] | None:
        """Persist one audit row; returns it, or ``None`` on failure.

        Never raises: a broken audit write must not take down the
        operation it describes.  The active span's trace context is
        stamped on automatically, which is what lets a ``/workflow/audit``
        timeline cross-link with the PR-1 trace tree.
        """
        trace_id = span_id = None
        if self.tracer is not None:
            try:
                current = self.tracer.current_span()
            except Exception:  # noqa: BLE001 - correlation is best-effort
                current = None
            if current is not None:
                trace_id = current.trace_id
                span_id = current.span_id
        row = {
            "created": self.clock.now(),
            "kind": kind,
            "actor": actor,
            "workflow_id": workflow_id,
            "wftask_id": wftask_id,
            "experiment_id": experiment_id,
            "auth_id": auth_id,
            "task": task,
            "event": event,
            "state": state,
            "sequence": sequence,
            "trace_id": trace_id,
            "span_id": span_id,
            "detail": _encode_detail(detail),
        }
        try:
            stored = self.db.insert(AUDIT_TABLE, row)
        except Exception:  # noqa: BLE001 - auditing is best-effort
            self.write_errors += 1
            return None
        return stored

    def on_event(self, engine_event) -> None:
        """EventLog subscriber: write the event's one audit row.

        Runs synchronously inside ``EventLog.emit`` on the emitting
        thread — for engine transitions under the engine lock and, when
        the emitting code holds one open, inside the same database
        transaction as the state change it describes.  An explicit
        ``actor`` payload key (even ``None``) names the acting party;
        otherwise it is inferred from the payload.
        """
        payload = dict(engine_event.payload)
        structured: dict[str, Any] = {
            "sequence": engine_event.sequence,
            "actor": (
                payload.pop("actor")
                if "actor" in payload
                else _actor_from_payload(payload)
            ),
        }
        for column in _ID_COLUMNS:
            value = payload.pop(column, None)
            if isinstance(value, int) and not isinstance(value, bool):
                structured[column] = value
        for column in _TEXT_COLUMNS:
            value = payload.pop(column, None)
            if isinstance(value, str):
                structured[column] = value
        detail = {
            key: value
            for key, value in payload.items()
            if isinstance(value, (str, int, float, bool, type(None)))
            or isinstance(value, (list, tuple))
        }
        self.record(engine_event.kind, **structured, **detail)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def query(
        self,
        workflow_id: int | None = None,
        experiment_id: int | None = None,
        wftask_id: int | None = None,
        actor: str | None = None,
        kind: str | None = None,
        task: str | None = None,
        trace_id: str | None = None,
        since: float | None = None,
        until: float | None = None,
        limit: int = 100,
        offset: int = 0,
    ) -> tuple[int, list[dict[str, Any]]]:
        """``(total matching, one page)`` of audit rows, oldest first.

        ``since``/``until`` bound the ``created`` timestamp (inclusive);
        the page is ``rows[offset:offset + limit]`` of the full match.
        """
        clauses = []
        for column, value in (
            ("workflow_id", workflow_id),
            ("experiment_id", experiment_id),
            ("wftask_id", wftask_id),
            ("actor", actor),
            ("kind", kind),
            ("task", task),
            ("trace_id", trace_id),
        ):
            if value is not None:
                clauses.append(EQ(column, value))
        if since is not None:
            clauses.append(GE("created", float(since)))
        if until is not None:
            clauses.append(LE("created", float(until)))
        if not clauses:
            predicate = None
        elif len(clauses) == 1:
            predicate = clauses[0]
        else:
            predicate = AND(*clauses)
        rows = self.db.select(AUDIT_TABLE, predicate, order_by="audit_id")
        total = len(rows)
        page = rows[offset:offset + limit] if limit is not None else rows[offset:]
        return total, [decode_record(row) for row in page]

    def timeline(self, workflow_id: int) -> list[dict[str, Any]]:
        """Every audit row of one workflow, in commit order."""
        __, rows = self.query(workflow_id=workflow_id, limit=None)  # type: ignore[arg-type]
        return rows

    def count(self) -> int:
        return self.db.count(AUDIT_TABLE)


def decode_record(row: dict[str, Any]) -> dict[str, Any]:
    """An audit row with its ``detail`` JSON expanded back to a dict."""
    record = dict(row)
    raw = record.pop("detail", None)
    record["detail"] = json.loads(raw) if raw else {}
    return record


def verify_timeline(records: list[dict[str, Any]]) -> list[str]:
    """Check that a timeline's transitions obey the Fig. 4 machines.

    Replays every ``task.state`` row against the task model and every
    ``instance.state`` row against the task-instance model, per entity.
    Returns human-readable violations (empty list = provenance is
    internally consistent) — a recovered audit trail that lost or
    duplicated rows fails this check, which is how the crash-recovery
    test proves nothing went missing.
    """
    # Imported here, not at module level: repro.core's package __init__
    # pulls in the web tier, which imports repro.obs back.
    from repro.core.states import TASK_INSTANCE_MODEL, TASK_MODEL

    violations: list[str] = []
    task_states: dict[int, str] = {}
    instance_states: dict[int, str] = {}
    for record in records:
        kind = record.get("kind")
        event = record.get("event")
        state = record.get("state")
        if kind == "task.state":
            key = record.get("wftask_id")
            table, states, label = TASK_MODEL, task_states, "task"
        elif kind == "instance.state":
            key = record.get("experiment_id")
            table, states, label = TASK_INSTANCE_MODEL, instance_states, "instance"
        else:
            continue
        if key is None or event is None or state is None:
            violations.append(f"{kind} row #{record.get('audit_id')} incomplete")
            continue
        previous = states.get(key, "created")
        expected = table.get((previous, event))
        if expected is None or str(expected.value) != state:
            violations.append(
                f"{label} {key}: illegal transition "
                f"{previous!r} --{event}--> {state!r}"
            )
        states[key] = state
    return violations


def _actor_from_payload(payload: dict[str, Any]) -> str:
    """Who caused an event, best-effort from its payload."""
    for key in ("decided_by", "by", "agent"):
        value = payload.get(key)
        if isinstance(value, str) and value:
            return value
    agent_id = payload.get("agent_id")
    if isinstance(agent_id, int) and not isinstance(agent_id, bool):
        return f"agent:{agent_id}"
    return "engine"


def _encode_detail(detail: dict[str, Any]) -> str | None:
    """JSON-encode leftover payload; ``None`` when there is nothing."""
    cleaned = {key: value for key, value in detail.items() if value is not None}
    if not cleaned:
        return None
    try:
        return json.dumps(cleaned, separators=(",", ":"), default=str)
    except (TypeError, ValueError):
        return json.dumps({"unserialisable": str(cleaned)})
