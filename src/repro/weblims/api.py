"""A web-service (JSON) interface for Exp-DB.

§1 observes that some LIMS "allow programs to access the LIMS, e.g.,
via a web-service interface", and §3.2 notes Exp-DB did not support
that yet.  This module adds it: :class:`ApiServlet` exposes the same
four generic operations as the HTML interface, speaking JSON instead of
web forms.

The integration story is the point: the servlet is *just another
resource in the deployment descriptor*, so registering the
WorkflowFilter on its URL pattern gives programmatic clients the exact
same workflow interception as browser users — no change to the servlet,
the filter, or the engine (``install_api`` does both registrations).

Request shape (POST body parameters):

=========  =======================================================
parameter  meaning
=========  =======================================================
action     ``read`` | ``insert`` | ``update`` | ``delete``
table      target table
criteria   JSON object of equality criteria (read/update/delete)
values     JSON object of column values (insert/update)
=========  =======================================================

Responses are JSON documents with ``ok``, ``rows``/``row``/``affected``
and — when the workflow manager acted during postprocessing — a
``workflow_notices`` list.
"""

from __future__ import annotations

import datetime
import json
from typing import TYPE_CHECKING, Any

from repro.errors import (
    BadRequestError,
    ConstraintError,
    DatabaseError,
    TypeMismatchError,
    UnknownTableError,
)
from repro.weblims.http import HttpRequest, HttpResponse
from repro.weblims.servlet import Servlet

if TYPE_CHECKING:  # pragma: no cover
    from repro.weblims.app import ExpDB
    from repro.weblims.container import WebContainer


def _jsonable(value: Any) -> Any:
    if isinstance(value, datetime.datetime):
        return value.isoformat()
    return value


def _encode_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [
        {column: _jsonable(value) for column, value in row.items()}
        for row in rows
    ]


class ApiServlet(Servlet):
    """The machine-facing controller (JSON in, JSON out)."""

    name = "ApiServlet"

    def do_post(
        self, request: HttpRequest, container: "WebContainer"
    ) -> HttpResponse:
        bean = container.context["table_bean"]
        try:
            action = request.require_param("action")
            handler = getattr(self, f"_do_{action}", None)
            if handler is None:
                raise BadRequestError(f"unknown action {action!r}")
            payload = handler(request, bean)
            status = 200
        except (BadRequestError, UnknownTableError) as error:
            payload, status = {"ok": False, "error": str(error)}, 400
        except (ConstraintError, TypeMismatchError) as error:
            payload, status = {"ok": False, "error": str(error)}, 409
        except DatabaseError as error:
            payload, status = {"ok": False, "error": str(error)}, 500
        response = HttpResponse(
            status=status,
            body=json.dumps(payload),
            content_type="application/json",
        )
        response.attributes["action"] = request.param("action")
        response.attributes["table"] = request.param("table")
        response.attributes.update(
            {
                key: value
                for key, value in payload.items()
                if key in ("rows", "row", "affected")
            }
        )
        return response

    # GET is read-only convenience: ?action=read&table=...&criteria=...
    do_get = do_post

    # ------------------------------------------------------------------

    @staticmethod
    def _json_param(request: HttpRequest, name: str) -> dict[str, Any]:
        raw = request.param(name)
        if raw in (None, ""):
            return {}
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as error:
            raise BadRequestError(f"parameter {name!r} is not valid JSON: {error}")
        if not isinstance(value, dict):
            raise BadRequestError(f"parameter {name!r} must be a JSON object")
        return value

    def _do_read(self, request: HttpRequest, bean) -> dict[str, Any]:
        table = request.require_param("table")
        criteria = self._json_param(request, "criteria")
        rows = bean.read(table, criteria or None)
        from repro.weblims.userservlet import UserRequestServlet

        rows = UserRequestServlet._order_and_limit(bean, table, request, rows)
        return {"ok": True, "rows": _encode_rows(rows), "count": len(rows)}

    def _do_insert(self, request: HttpRequest, bean) -> dict[str, Any]:
        table = request.require_param("table")
        values = self._json_param(request, "values")
        row = bean.insert(table, values)
        return {"ok": True, "row": _encode_rows([row])[0]}

    def _do_update(self, request: HttpRequest, bean) -> dict[str, Any]:
        table = request.require_param("table")
        criteria = self._json_param(request, "criteria")
        values = self._json_param(request, "values")
        if not values:
            raise BadRequestError("update requires a values object")
        affected = bean.update(table, criteria, values)
        return {"ok": True, "affected": affected}

    def _do_delete(self, request: HttpRequest, bean) -> dict[str, Any]:
        table = request.require_param("table")
        criteria = self._json_param(request, "criteria")
        affected = bean.delete(table, criteria)
        return {"ok": True, "affected": affected}


def install_api(expdb: "ExpDB") -> ApiServlet:
    """Register the JSON API at ``/api`` (and under the filter).

    When Exp-WF is installed, the WorkflowFilter is additionally mapped
    onto ``/api/*`` — the
    one-line descriptor change that extends workflow interception to
    programmatic clients.
    """
    servlet = ApiServlet()
    expdb.container.descriptor.add_servlet(servlet, "/api", "/api/*")
    workflow_filter = expdb.container.context.get("workflow_filter")
    if workflow_filter is not None:
        expdb.container.descriptor.add_filter(workflow_filter, "/api", "/api/*")
    return servlet
