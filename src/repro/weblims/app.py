"""Assembly of a complete Exp-DB instance (Fig. 3).

``build_expdb`` wires the three tiers together: the minidb backend, the
TableBean model, the JSP-analog templates and the UserRequestServlet
controller inside a web container.  The returned :class:`ExpDB` holds
every handle an integrator (or the Exp-WF module) needs.

Note what is *not* here: anything workflow-related.  Exp-WF attaches
itself afterwards through the deployment descriptor only — see
``repro.core.filter.install_workflow_support``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.minidb.engine import Database
from repro.weblims.container import DeploymentDescriptor, WebContainer
from repro.weblims.http import HttpRequest, HttpResponse
from repro.weblims.schema_setup import install_core_schema
from repro.weblims.tablebean import TableBean
from repro.weblims.templates import TemplateRegistry
from repro.weblims.userservlet import UserRequestServlet

#: The default "JSP pages" of Exp-DB.
DEFAULT_TEMPLATES = {
    "tables": (
        "<html><body><h1>Exp-DB tables</h1><ul>"
        "{% for t in tables %}<li>{{ t }}</li>{% endfor %}"
        "</ul></body></html>"
    ),
    "results": (
        "<html><body><h1>{{ table }}: {{ count }} record(s)</h1>"
        "<table><tr>{% for c in columns %}<th>{{ c }}</th>{% endfor %}</tr>"
        "{% for row in rows %}<tr>"
        "{% for cell in row %}<td>{{ cell }}</td>{% endfor %}"
        "</tr>{% endfor %}</table></body></html>"
    ),
    "form": (
        "<html><body><h1>Insert into {{ table }}</h1>"
        "{{! form }}</body></html>"
    ),
    "confirm": (
        "<html><body><h1>{{ table }}</h1>"
        "<p>{{ message }}: {{ affected }} record(s)</p></body></html>"
    ),
    "error": (
        "<html><body><h1>Error {{ status }}</h1>"
        "<p>{{ message }}</p></body></html>"
    ),
}


@dataclass
class ExpDB:
    """A running Exp-DB application: all three tiers plus helpers."""

    db: Database
    bean: TableBean
    container: WebContainer
    templates: TemplateRegistry

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Shorthand for ``container.handle``."""
        return self.container.handle(request)

    def get(self, path: str, **params: str) -> HttpResponse:
        """Issue a GET request (test/demo convenience)."""
        return self.handle(HttpRequest("GET", path, params=dict(params)))

    def post(self, path: str, **params: str) -> HttpResponse:
        """Issue a POST request (test/demo convenience)."""
        return self.handle(HttpRequest("POST", path, params=dict(params)))


def build_expdb(
    wal_path: str | os.PathLike[str] | None = None,
    install_schema: bool = True,
    sync_policy: str = "group",
) -> ExpDB:
    """Build a fresh Exp-DB application.

    ``wal_path`` enables durability; ``install_schema=False`` skips the
    core schema (for reopening an existing WAL, which replays its own
    DDL).  ``sync_policy`` selects the WAL durability discipline (see
    :mod:`repro.seglog`) — ``"group"`` batches concurrent commit fsyncs
    behind one barrier, ``"off"`` never fsyncs.
    """
    db = Database(wal_path, sync_policy=sync_policy)
    if install_schema:
        install_core_schema(db)
    bean = TableBean(db)

    templates = TemplateRegistry()
    for name, source in DEFAULT_TEMPLATES.items():
        templates.register(name, source)

    descriptor = DeploymentDescriptor()
    descriptor.add_servlet(UserRequestServlet(), "/user", "/user/*")
    container = WebContainer(descriptor)
    container.context["db"] = db
    container.context["table_bean"] = bean
    container.context["templates"] = templates
    return ExpDB(db=db, bean=bean, container=container, templates=templates)
