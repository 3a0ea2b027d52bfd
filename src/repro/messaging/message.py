"""The message object exchanged between the workflow manager and agents.

Bodies are text (in practice: the XML documents produced by
``repro.xmlbridge``); headers are a flat string→scalar dict used for
routing metadata (message type, task id, agent name, ...), mirroring JMS
message properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Message:
    """One queued message.

    ``message_id`` is assigned by the broker (monotonic per broker, stable
    across journal replay).  ``delivery_count`` counts how many times the
    message has been handed to a consumer; ``redelivered`` is true from
    the second delivery on, as in JMS.
    """

    queue: str
    body: str
    headers: dict[str, Any] = field(default_factory=dict)
    message_id: int = 0
    delivery_count: int = 0
    #: Monotonic instant before which the broker must not redeliver the
    #: message (retry backoff schedule); 0 = immediately deliverable.
    #: Runtime-only: replay recomputes it as "now" — after a crash the
    #: backoff clock restarts rather than carrying a stale deadline.
    not_before: float = 0.0
    #: Monotonic instant of the send, stamped by the broker observer
    #: and cleared by the first delivery, which it times.  Runtime-only
    #: like ``not_before``: a replayed or redelivered message has none.
    sent_at: float | None = None

    @property
    def redelivered(self) -> bool:
        """Whether this delivery is a retry of an earlier, unacked one."""
        return self.delivery_count > 1

    def to_wire(self) -> dict[str, Any]:
        """JSON-friendly representation for the journal."""
        return {
            "queue": self.queue,
            "body": self.body,
            "headers": self.headers,
            "message_id": self.message_id,
        }

    @staticmethod
    def from_wire(record: dict[str, Any]) -> "Message":
        """Rebuild a message from :meth:`to_wire` output.

        ``delivery_count`` is not part of a live send's wire dict — the
        journal tracks deliveries as separate records so a replayed
        message reflects every delivery that actually happened — but a
        compaction snapshot embeds the accumulated count so it survives
        the acked history being garbage-collected.
        """
        return Message(
            queue=record["queue"],
            body=record["body"],
            headers=dict(record["headers"]),
            message_id=record["message_id"],
            delivery_count=int(record.get("delivery_count", 0)),
        )
