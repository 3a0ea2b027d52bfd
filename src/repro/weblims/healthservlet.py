"""The liveness/readiness servlet (``GET /workflow/health``).

Serves :meth:`repro.obs.hub.ObservabilityHub.health_report` as JSON:
per-component status for the container, database (with WAL info), the
workflow engine, the lab's history (running workflows, audit rows), the
message broker (queue depths + journal backlog), the agent manager and
every registered agent (queue depth, last-poll age), and the email
transport.

Two probe styles:

* ``GET /workflow/health`` — *readiness*: 200 when every component is
  ``ok``, 503 when any is degraded, body always the full JSON report;
* ``GET /workflow/health?probe=live`` — *liveness*: 200 whenever the
  container can run the servlet at all, regardless of component state.

``?component=broker`` narrows the body to one component (status code
still reflects that component alone).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.weblims.http import HttpRequest, HttpResponse
from repro.weblims.servlet import Servlet

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import ObservabilityHub
    from repro.weblims.container import WebContainer


class HealthServlet(Servlet):
    """JSON liveness/readiness over every watched component."""

    name = "HealthServlet"

    def __init__(self, hub: "ObservabilityHub") -> None:
        self.hub = hub

    def do_get(
        self, request: HttpRequest, container: "WebContainer"
    ) -> HttpResponse:
        report = self.hub.health_report()
        if request.param("probe") == "live":
            body = {"status": "ok", "probe": "live"}
            return HttpResponse(
                status=200,
                body=json.dumps(body),
                content_type="application/json",
            )
        component = request.param("component")
        if component is not None and component != "":
            info = report["components"].get(component)
            if info is None:
                return HttpResponse.error(
                    404, f"unknown health component {component!r}"
                )
            status = 200 if info.get("status", "ok") == "ok" else 503
            body = {
                "component": component,
                "generated_at": report["generated_at"],
                **info,
            }
            return HttpResponse(
                status=status,
                body=json.dumps(body, default=str),
                content_type="application/json",
            )
        status = 200 if report["status"] == "ok" else 503
        return HttpResponse(
            status=status,
            body=json.dumps(report, default=str),
            content_type="application/json",
        )
