"""Exception hierarchy shared by every Exp-WF subpackage.

All library errors derive from :class:`ReproError` so that applications can
catch everything the library raises with a single ``except`` clause, while
each subsystem (database, web tier, messaging, workflow engine, agents)
exposes a dedicated subtree for finer-grained handling.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the Exp-WF exception hierarchy."""


# ---------------------------------------------------------------------------
# minidb — relational engine substrate
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Root of all relational-engine errors."""


class SchemaError(DatabaseError):
    """A table/column definition is invalid or inconsistent."""


class UnknownTableError(SchemaError):
    """A statement referenced a table that does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown table: {name!r}")
        self.table_name = name


class UnknownColumnError(SchemaError):
    """A statement referenced a column that does not exist."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column {column!r} in table {table!r}")
        self.table_name = table
        self.column_name = column


class TypeMismatchError(DatabaseError):
    """A value could not be coerced to its column's declared type."""


class ConstraintError(DatabaseError):
    """Root of all integrity-constraint violations."""


class PrimaryKeyError(ConstraintError):
    """A primary-key uniqueness or presence constraint was violated."""


class ForeignKeyError(ConstraintError):
    """A foreign-key reference could not be satisfied."""


class NotNullError(ConstraintError):
    """A required (NOT NULL) column was left empty."""


class TransactionError(DatabaseError):
    """Illegal transaction usage (nested begin, commit without begin, ...)."""


class LogCorruptionDetail:
    """Structured diagnostics shared by durable-log corruption errors.

    A segmented log that refuses to replay says exactly *where* and
    *why*: the file, the segment id, the byte offset of the offending
    record, the checksum it expected vs. the one it computed, and a
    short machine-readable ``reason`` (``checksum`` / ``framing`` /
    ``sequence`` / ``decode`` / ``manifest``).  All fields
    are optional so plain one-argument raises keep working.
    """

    def _attach_detail(
        self,
        *,
        path: str | None = None,
        segment: int | None = None,
        offset: int | None = None,
        expected_crc: str | None = None,
        actual_crc: str | None = None,
        reason: str | None = None,
    ) -> None:
        self.path = path
        self.segment = segment
        self.offset = offset
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc
        self.reason = reason

    def detail(self) -> dict:
        """The structured fields as a JSON-friendly dict."""
        return {
            "path": self.path,
            "segment": self.segment,
            "offset": self.offset,
            "expected_crc": self.expected_crc,
            "actual_crc": self.actual_crc,
            "reason": self.reason,
        }


class RecoveryError(DatabaseError, LogCorruptionDetail):
    """The write-ahead log could not be replayed."""

    def __init__(self, message: str, **detail) -> None:
        super().__init__(message)
        self._attach_detail(**detail)


# ---------------------------------------------------------------------------
# weblims — 3-tier web LIMS substrate
# ---------------------------------------------------------------------------


class WebError(ReproError):
    """Root of all web-tier errors."""


class RoutingError(WebError):
    """No servlet is mapped to the requested path."""


class FilterError(WebError):
    """A servlet filter failed or was misconfigured."""


class TemplateError(WebError):
    """A template ("JSP") could not be rendered."""


class SessionError(WebError):
    """Invalid session usage (expired or unknown session id)."""


class BadRequestError(WebError):
    """The client request was malformed (missing parameter, bad value)."""


# ---------------------------------------------------------------------------
# messaging — persistent JMS-analog broker
# ---------------------------------------------------------------------------


class MessagingError(ReproError):
    """Root of all messaging errors."""


class UnknownQueueError(MessagingError):
    """A producer or consumer referenced an undeclared queue."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown queue: {name!r}")
        self.queue_name = name


class ConnectionClosedError(MessagingError):
    """An operation was attempted on a closed connection."""


class AcknowledgeError(MessagingError):
    """A consumer acknowledged a message it does not hold."""


class JournalError(MessagingError, LogCorruptionDetail):
    """The broker journal is corrupt or unreadable."""

    def __init__(self, message: str, **detail) -> None:
        super().__init__(message)
        self._attach_detail(**detail)


class DeadLetterError(MessagingError):
    """A dead-letter operation referenced an unknown quarantined message."""

    def __init__(self, message_id: int) -> None:
        super().__init__(f"no dead-lettered message with id {message_id}")
        self.message_id = message_id


# ---------------------------------------------------------------------------
# xmlbridge — relational <-> XML translation
# ---------------------------------------------------------------------------


class XmlBridgeError(ReproError):
    """Root of all relational<->XML translation errors."""


class XmlExtractionError(XmlBridgeError):
    """Relational data could not be rendered as XML."""


class XmlTranslationError(XmlBridgeError):
    """An XML document could not be mapped back to relational rows."""


# ---------------------------------------------------------------------------
# core — the Exp-WF workflow module
# ---------------------------------------------------------------------------


class WorkflowError(ReproError):
    """Root of all workflow-module errors."""


class SpecificationError(WorkflowError):
    """A workflow pattern definition is invalid."""


class ConditionError(WorkflowError):
    """A transition condition failed to parse or evaluate."""


class IllegalTransitionError(WorkflowError):
    """A state machine was asked to make a transition Fig. 4 forbids."""

    def __init__(self, machine: str, current: str, event: str) -> None:
        super().__init__(
            f"illegal transition in {machine}: cannot apply {event!r} "
            f"in state {current!r}"
        )
        self.machine = machine
        self.current = current
        self.event = event


class EligibilityError(WorkflowError):
    """A task was activated although its eligibility rules do not hold."""


class AuthorizationError(WorkflowError):
    """An authorization decision was missing, duplicated, or unauthorized."""


class DispatchError(WorkflowError):
    """A task instance could not be handed to any agent."""


class InstanceError(WorkflowError):
    """Invalid operation on a workflow or task instance."""


# ---------------------------------------------------------------------------
# resilience — fault injection and recovery machinery
# ---------------------------------------------------------------------------


class ResilienceError(ReproError):
    """Root of all resilience-layer errors."""


class FaultInjected(ResilienceError):
    """A deterministic fault plan fired a ``crash`` action.

    Raised *by design* at an injection point to simulate the process
    dying there; chaos tests catch it, "restart" the affected component
    from its durable state, and assert that recovery holds.
    """

    def __init__(self, point: str, note: str = "") -> None:
        detail = f" ({note})" if note else ""
        super().__init__(f"injected crash at {point!r}{detail}")
        self.point = point
        self.note = note


class CircuitOpenError(ResilienceError):
    """An operation was refused because its circuit breaker is open."""

    def __init__(self, name: str) -> None:
        super().__init__(f"circuit breaker {name!r} is open")
        self.breaker_name = name


class LeaseExpiredError(ResilienceError):
    """An agent tried to act on an instance whose lease already expired."""


# ---------------------------------------------------------------------------
# agents — external-system wrappers
# ---------------------------------------------------------------------------


class AgentError(ReproError):
    """Root of all agent-framework errors."""


class AgentFormatError(AgentError):
    """An agent could not translate between XML and its native format."""


class AgentExecutionError(AgentError):
    """The wrapped external system failed while running a task."""


class UnknownAgentError(AgentError):
    """A message referenced an agent that is not registered."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown agent: {name!r}")
        self.agent_name = name
