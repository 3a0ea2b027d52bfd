"""The dead-letter queue servlet (``/workflow/dlq``).

Poison messages — rejected past their queue's delivery cap — are
quarantined by the broker, never dropped.  This servlet is the
operator's window into that quarantine:

* ``GET /workflow/dlq`` — JSON listing of every dead-lettered message
  (id, origin queue, rejection reason, delivery count, headers);
* ``POST /workflow/dlq?dlq_action=requeue&message_id=N`` — return one
  message to its queue for a fresh delivery attempt (the operator fixed
  the underlying cause); the requeue is recorded in the audit trail.

The GET body also reports ``depth`` so dashboards can alert on a
non-empty quarantine without parsing the message list.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.errors import DeadLetterError
from repro.messaging.broker import MessageBroker
from repro.weblims.http import HttpRequest, HttpResponse
from repro.weblims.servlet import Servlet

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import ObservabilityHub
    from repro.weblims.container import WebContainer


class DeadLetterServlet(Servlet):
    """Inspect and requeue quarantined messages."""

    name = "DeadLetterServlet"

    def __init__(
        self, broker: MessageBroker, hub: "ObservabilityHub | None" = None
    ) -> None:
        self.broker = broker
        self.hub = hub

    def do_get(
        self, request: HttpRequest, container: "WebContainer"
    ) -> HttpResponse:
        entries = self.broker.dead_letters()
        body = {
            "depth": len(entries),
            "dead_lettered_total": self.broker.stats.dead_lettered,
            "requeued_total": self.broker.stats.dlq_requeued,
            "messages": entries,
        }
        return HttpResponse(
            status=200,
            body=json.dumps(body, default=str),
            content_type="application/json",
        )

    def do_post(
        self, request: HttpRequest, container: "WebContainer"
    ) -> HttpResponse:
        action = request.param("dlq_action")
        if action != "requeue":
            return HttpResponse.error(
                400, f"unknown dlq_action {action!r} (expected 'requeue')"
            )
        raw_id = request.require_param("message_id")
        try:
            message_id = int(raw_id)
        except ValueError:
            return HttpResponse.error(
                400, f"message_id must be an integer, got {raw_id!r}"
            )
        try:
            message = self.broker.requeue_dead(message_id)
        except DeadLetterError as error:
            return HttpResponse.error(404, str(error))
        if self.hub is not None and self.hub.events is not None:
            self.hub.events.emit(
                "dlq.requeue",
                actor=None,
                message_id=message_id,
                queue=message.queue,
                message_kind=message.headers.get("kind"),
                by=request.param("by", ""),
            )
        body = {
            "requeued": message_id,
            "queue": message.queue,
            "depth": self.broker.dlq_depth(),
        }
        return HttpResponse(
            status=200,
            body=json.dumps(body),
            content_type="application/json",
        )
