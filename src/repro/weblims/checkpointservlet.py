"""The checkpoint servlet (``/workflow/checkpoint``).

Operational entry point for durability v2's online checkpoint:

* ``GET /workflow/checkpoint`` — JSON view of the WAL's segmented
  layout (segment count, records since the last checkpoint, rotation
  and compaction counters, last recovery accounting) so an operator can
  see how much tail a crash would have to replay;
* ``POST /workflow/checkpoint`` — take an online checkpoint *now*.
  Writers are paused only for the brief in-memory capture; the
  serialisation, checkpoint-file fsync, manifest swap and segment
  compaction all run while appends continue.  The action is recorded in
  the audit trail (``db.checkpoint``) and mirrored by the
  ``db_checkpoint_total`` metric.

A checkpoint attempted inside an open transaction (or on a database
with no WAL) is answered 409 — the caller's state is untouched.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.errors import TransactionError
from repro.weblims.http import HttpRequest, HttpResponse
from repro.weblims.servlet import Servlet

if TYPE_CHECKING:  # pragma: no cover
    from repro.minidb import Database
    from repro.obs.hub import ObservabilityHub
    from repro.weblims.container import WebContainer


class CheckpointServlet(Servlet):
    """Inspect WAL layout; trigger an online checkpoint."""

    name = "CheckpointServlet"

    def __init__(
        self, db: "Database", hub: "ObservabilityHub | None" = None
    ) -> None:
        self.db = db
        self.hub = hub

    def do_get(
        self, request: HttpRequest, container: "WebContainer"
    ) -> HttpResponse:
        return HttpResponse(
            status=200,
            body=json.dumps(self.db.wal_info(), default=str),
            content_type="application/json",
        )

    def do_post(
        self, request: HttpRequest, container: "WebContainer"
    ) -> HttpResponse:
        try:
            records = self.db.checkpoint(reason="operator")
        except TransactionError as error:
            return HttpResponse.error(409, str(error))
        if self.hub is not None and self.hub.events is not None:
            self.hub.events.emit(
                "db.checkpoint.request",
                actor=request.param("by", "") or None,
                event="operator",
                records=records,
            )
        body = {
            "checkpointed": True,
            "records": records,
            "checkpoints_total": self.db.checkpoints,
            "wal": self.db.wal_info(),
        }
        return HttpResponse(
            status=200,
            body=json.dumps(body, default=str),
            content_type="application/json",
        )
