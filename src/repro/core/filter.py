"""The servlet-filter integration (Fig. 6 and Fig. 7).

``install_workflow_support`` attaches Exp-WF to a built Exp-DB instance
through the deployment descriptor alone — no Exp-DB component is
touched:

* the :class:`WorkflowFilter` is registered on the UserRequestServlet's
  URL pattern.  For every request it picks one of the paper's three
  handling modes (Fig. 7):

  (a) **preprocess** — workflow-relevant writes are validated first; a
      request that would violate workflow/task state is *denied* and
      never reaches its original destination, otherwise it is forwarded
      unchanged;
  (b) **process** — requests carrying a ``workflow_action`` parameter
      are handled entirely by the :class:`WorkflowServlet`, bypassing
      the original destination ("the workflow manager could assume
      responsibility ... the original destination is bypassed
      entirely");
  (c) **postprocess** — responses to successful workflow-relevant writes
      are examined; the workflow manager reacts (eligibility checks,
      activations) and appends notices about its own actions to the
      user-visible response.  "Only successful user actions need to be
      post-processed, since failed operations do not change the state of
      the workflow."

* the :class:`WorkflowServlet` is additionally mapped at ``/workflow``
  for direct use by workflow-aware pages.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.datamodel import WORKFLOW_TABLES, install_workflow_datamodel
from repro.core.dispatch import Dispatcher
from repro.core.engine import WorkflowBean
from repro.errors import (
    BadRequestError,
    DatabaseError,
    FaultInjected,
    MessagingError,
    WorkflowError,
)
from repro.weblims.app import ExpDB
from repro.weblims.http import HttpRequest, HttpResponse
from repro.weblims.servlet import Filter, FilterChain, Servlet
from repro.weblims.userservlet import UserRequestServlet

if TYPE_CHECKING:  # pragma: no cover
    from repro.weblims.container import WebContainer

#: Failures of the workflow machinery itself (engine storage, broker,
#: injected crashes) — the LIMS must degrade, not 500, on these.
_DEGRADE_ERRORS = (DatabaseError, MessagingError, FaultInjected)

def _span(hub, name: str, **attributes: Any):
    """A tracer span when observability is installed, else a no-op."""
    if hub is None:
        return nullcontext()
    return hub.tracer.span(name, **attributes)


#: Events worth surfacing to the user as response notices.
_NOTICE_KINDS = {
    "task.state": lambda e: f"task {e['task']!r} is now {e['state']}",
    "instance.state": lambda e: (
        f"experiment {e['experiment_id']} is now {e['state']}"
    ),
    "workflow.finished": lambda e: (
        f"workflow {e['workflow_id']} {e['status']}"
    ),
    "authorization.requested": lambda e: (
        f"authorization requested for task {e['task']!r}"
    ),
}


@dataclass
class FilterStats:
    """Per-mode counters (drive the Fig. 7 benchmark)."""

    passed_through: int = 0
    preprocessed: int = 0
    denied: int = 0
    processed: int = 0
    postprocessed: int = 0
    degraded: int = 0

    def reset(self) -> None:
        self.passed_through = 0
        self.preprocessed = 0
        self.denied = 0
        self.processed = 0
        self.postprocessed = 0
        self.degraded = 0


@dataclass
class DegradationPolicy:
    """What the filter does when the workflow machinery is unavailable.

    ``reject`` answers workflow-relevant requests with 503 and a
    ``Retry-After`` header — nothing reaches the LIMS that the workflow
    manager could not vet.  ``passthrough`` instead forwards them to the
    bare LIMS unvalidated (the paper's non-intrusive stance taken to its
    limit: Exp-DB keeps working exactly as if Exp-WF were never
    installed).  Mode (b) requests have no original destination, so they
    are always rejected while degraded.
    """

    mode: str = "reject"
    retry_after_s: int = 5

    def __post_init__(self) -> None:
        if self.mode not in ("reject", "passthrough"):
            raise ValueError(
                f"degradation mode must be 'reject' or 'passthrough', "
                f"got {self.mode!r}"
            )


class WorkflowFilter(Filter):
    """Intercepts Exp-DB traffic and routes it per Fig. 7."""

    name = "WorkflowFilter"

    def __init__(
        self,
        engine: WorkflowBean,
        workflow_servlet: "WorkflowServlet",
        degradation: DegradationPolicy | None = None,
    ) -> None:
        self.engine = engine
        self.workflow_servlet = workflow_servlet
        self.stats = FilterStats()
        self.degradation = degradation or DegradationPolicy()
        #: Optional readiness probe returning ``(ready, reason)``; wired
        #: by ``install_observability`` to the engine/broker health
        #: checks.  ``None`` means "assume ready".
        self.readiness: Callable[[], tuple[bool, str]] | None = None
        #: Container injected at install time (needed to service mode-b
        #: requests through the WorkflowServlet).
        self.container: "WebContainer | None" = None

    def do_filter(
        self, request: HttpRequest, chain: FilterChain
    ) -> HttpResponse:
        """Route one request; its commits are one durability unit.

        The routing decision, the write and the postprocessing each
        commit without waiting, and the response leaves only after one
        barrier on the request's latest WAL record (re-entrant, so a
        forwarded request still waits once).  Broker messages wait
        earlier, in :meth:`WorkflowBean.call`.
        """
        with self.engine.db.durability_unit():
            return self._route(request, chain)

    def _route(self, request: HttpRequest, chain: FilterChain) -> HttpResponse:
        hub = self._obs()
        # Mode (b): explicit workflow actions bypass the original target.
        if request.param("workflow_action") is not None:
            ready, cause = self._ready()
            if not ready:
                return self._degrade(request, cause, chain=None)
            self.stats.processed += 1
            action_name = request.param("workflow_action")
            pattern = request.param("pattern")
            with _span(
                hub,
                "filter.process",
                workflow_action=action_name,
                pattern=pattern,
            ) as span:
                self._decision(
                    mode="process", action=action_name, path=request.path
                )
                try:
                    response = self.workflow_servlet.service(
                        request, self.container
                    )
                except _DEGRADE_ERRORS as error:
                    response = self._degrade(request, str(error), chain=None)
            return response

        action = request.param("action", "list")
        table = request.param("table")
        relevant = self._is_workflow_relevant(action, table)
        if not relevant:
            # "Non-workflow-related actions (e.g., read-only operations)
            # would be allowed to proceed normally."
            self.stats.passed_through += 1
            return chain.proceed(request)

        ready, cause = self._ready()
        if not ready:
            return self._degrade(request, cause, chain=chain)

        # Mode (a): preprocess — validate before the original servlet.
        self.stats.preprocessed += 1
        with _span(hub, "filter.preprocess", table=table, action=action):
            try:
                payload = self._payload_for_validation(request, action, table)
                allowed, reason = self.engine.validate_user_action(
                    table, action, payload
                )
            except _DEGRADE_ERRORS as error:
                return self._degrade(request, str(error), chain=chain)
        if not allowed:
            self.stats.denied += 1
            self.engine.events.emit(
                "request.denied",
                table=table,
                action=action,
                reason=reason,
                mode="deny",
                path=request.path,
            )
            return HttpResponse.denied(f"workflow manager denied request: {reason}")
        self._decision(
            mode="preprocess", action=action, table=table, path=request.path
        )

        response = chain.proceed(request)

        # Mode (c): postprocess successful changes only.
        if response.ok:
            self.stats.postprocessed += 1
            try:
                with _span(hub, "filter.postprocess", table=table, action=action):
                    events = self.engine.on_data_change(
                        table, response.attributes
                    )
            except _DEGRADE_ERRORS as error:
                # The user's write already succeeded — never mask it
                # with an error now.  Note the gap and move on; the
                # engine re-evaluates on the next data change.
                self.stats.degraded += 1
                self._decision(
                    mode="degraded",
                    phase="postprocess",
                    table=table,
                    action=action,
                    reason=str(error),
                    path=request.path,
                )
                response.append_notice(
                    "workflow manager unavailable; workflow state will be "
                    "updated when it recovers"
                )
                return response
            for event in events:
                render = _NOTICE_KINDS.get(event.kind)
                if render is not None:
                    response.append_notice(render(event))
            response.attributes["workflow_events"] = events
        return response

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------

    def _ready(self) -> tuple[bool, str]:
        """Consult the readiness probe; a probe crash means *not* ready."""
        if self.readiness is None:
            return True, ""
        try:
            return self.readiness()
        except _DEGRADE_ERRORS as error:
            return False, f"readiness probe failed: {error}"

    def _degrade(
        self, request: HttpRequest, reason: str, chain: FilterChain | None
    ) -> HttpResponse:
        """Answer a workflow-relevant request while the machinery is down.

        ``chain=None`` marks a mode-(b) request, which has no original
        destination and is always rejected.
        """
        self.stats.degraded += 1
        self.engine.events.emit(
            "request.degraded", mode="degraded", path=request.path, reason=reason
        )
        if self.degradation.mode == "passthrough" and chain is not None:
            return chain.proceed(request)
        response = HttpResponse.error(
            503, f"workflow support unavailable: {reason}"
        )
        response.headers["Retry-After"] = str(self.degradation.retry_after_s)
        return response

    # ------------------------------------------------------------------

    def _obs(self):
        """The observability hub, when one is installed on the container."""
        if self.container is None:
            return None
        return self.container.context.get("obs")

    def _decision(self, mode: str, **fields) -> None:
        """Record a Fig. 7 routing decision (it has no acting party).

        Denials and degradations have their own ``request.*`` events;
        pass-throughs, the workflow-irrelevant bulk, are not recorded.
        """
        self.engine.events.emit("filter.decision", actor=None, mode=mode, **fields)

    def _is_workflow_relevant(self, action: str, table: str | None) -> bool:
        """Whether the request "might impact the state of a workflow".

        Update requests involving workflow definitions, experiment
        types, experiments, samples, experiment I/O and agents are
        relevant; reads and form generation are not.
        """
        if action not in ("insert", "update", "delete"):
            return False
        if table is None:
            return False
        if table in WORKFLOW_TABLES:
            return True
        if table in (
            "Experiment",
            "Sample",
            "ExperimentIO",
            "ExperimentTypeIO",
            "ExperimentType",
            "SampleType",
        ):
            return True
        # Dynamic discovery of type tables through the metadata tables —
        # new experiment types are covered without touching the filter.
        if self.engine._is_experiment_table(table):
            return True
        bean = self._bean()
        return bean is not None and bean.sample_type_of(table) is not None

    def _bean(self):
        if self.container is None:
            return None
        return self.container.context.get("table_bean")

    def _payload_for_validation(
        self, request: HttpRequest, action: str, table: str
    ) -> dict[str, Any]:
        # JSON-style clients (the /api web-service interface) carry
        # whole objects in 'values'/'criteria'; form-style clients use
        # v_/c_ prefixed fields.
        json_name = "criteria" if action == "delete" else "values"
        raw_json = request.param(json_name)
        if raw_json:
            try:
                decoded = json.loads(raw_json)
            except json.JSONDecodeError:
                return {}  # the servlet will produce the proper 400
            return decoded if isinstance(decoded, dict) else {}
        bean = self._bean()
        prefix = "c_" if action == "delete" else "v_"
        if bean is None:
            return request.params_with_prefix(prefix)
        try:
            return UserRequestServlet._typed_params(bean, table, request, prefix)
        except BadRequestError:
            # Let the original servlet produce the proper 400.
            return {}


class WorkflowServlet(Servlet):
    """The controller for explicit workflow operations (Fig. 6).

    Reachable directly at ``/workflow`` and via the filter's mode (b)
    when a request carries a ``workflow_action`` parameter.
    """

    name = "WorkflowServlet"

    def __init__(self, engine: WorkflowBean) -> None:
        self.engine = engine

    def service(
        self, request: HttpRequest, container: "WebContainer"
    ) -> HttpResponse:
        templates = container.context["templates"]
        action = request.param("workflow_action") or request.param("action")
        if not action:
            return HttpResponse.error(400, "missing workflow_action")
        handler = getattr(self, f"_do_{action}", None)
        if handler is None:
            return HttpResponse.error(400, f"unknown workflow action {action!r}")
        hub = container.context.get("obs") if container is not None else None
        try:
            with _span(hub, f"engine.{action}"):
                return handler(request, templates)
        except WorkflowError as error:
            response = HttpResponse.error(409, str(error))
            response.attributes["error"] = str(error)
            return response
        except BadRequestError as error:
            response = HttpResponse.error(400, str(error))
            response.attributes["error"] = str(error)
            return response

    @staticmethod
    def _int_param(request: HttpRequest, name: str, required: bool = True) -> int | None:
        """A numeric parameter, as a proper 400 when malformed."""
        raw = request.require_param(name) if required else request.param(name)
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            raise BadRequestError(
                f"parameter {name!r} must be an integer, got {raw!r}"
            ) from None

    # -- actions -----------------------------------------------------------

    def _do_start(self, request: HttpRequest, templates) -> HttpResponse:
        pattern = request.require_param("pattern")
        project_id = self._int_param(request, "project_id", required=False)
        workflow = self.engine.start_workflow(
            pattern,
            name=request.param("name"),
            project_id=project_id,
        )
        response = self._confirm(
            templates,
            f"workflow {workflow['workflow_id']} started from "
            f"pattern {pattern!r}",
        )
        response.attributes["workflow_id"] = workflow["workflow_id"]
        return response

    def _do_status(self, request: HttpRequest, templates) -> HttpResponse:
        workflow_id = self._int_param(request, "workflow_id")
        view = self.engine.workflow_view(workflow_id)
        tasks = [
            {
                "name": task.name,
                "state": task.state,
                "instances": len(task.instances),
                "completed": task.completed_instances,
                "aborted": task.aborted_instances,
            }
            for task in view.tasks.values()
        ]
        body = templates.render(
            "wf_status",
            {
                "workflow_id": view.workflow_id,
                "pattern": view.pattern_name,
                "status": view.status,
                "tasks": tasks,
            },
        )
        response = HttpResponse.html(body)
        response.attributes["view"] = view
        return response

    def _do_list(self, request: HttpRequest, templates) -> HttpResponse:
        workflows = self.engine.list_workflows(request.param("status"))
        body = templates.render("wf_list", {"workflows": workflows})
        response = HttpResponse.html(body)
        response.attributes["workflows"] = workflows
        return response

    def _do_authorize(self, request: HttpRequest, templates) -> HttpResponse:
        auth_id = self._int_param(request, "auth_id")
        approve = request.require_param("approve").lower() == "true"
        self.engine.respond_authorization(
            auth_id, approve, decided_by=request.param("by", "")
        )
        verdict = "granted" if approve else "denied"
        return self._confirm(templates, f"authorization {auth_id} {verdict}")

    def _do_authorizations(
        self, request: HttpRequest, templates
    ) -> HttpResponse:
        pending = self.engine.pending_authorizations(
            self._int_param(request, "workflow_id", required=False)
        )
        body = templates.render("wf_auths", {"authorizations": pending})
        response = HttpResponse.html(body)
        response.attributes["authorizations"] = pending
        return response

    def _do_complete_instance(
        self, request: HttpRequest, templates
    ) -> HttpResponse:
        experiment_id = self._int_param(request, "experiment_id")
        success = request.require_param("success").lower() == "true"
        outputs_json = request.param("outputs", "[]")
        chosen = request.param("chosen_inputs", "")
        try:
            outputs = json.loads(outputs_json)
        except json.JSONDecodeError as error:
            raise BadRequestError(f"bad outputs JSON: {error}") from None
        chosen_ids = [int(part) for part in chosen.split(",") if part.strip()]
        result_values = {
            name: value
            for name, value in request.params_with_prefix("r_").items()
        }
        self.engine.complete_instance(
            experiment_id,
            success=success,
            outputs=outputs,
            chosen_input_ids=chosen_ids,
            result_values=_typed_result_values(self.engine, experiment_id, result_values)
            if result_values
            else None,
        )
        return self._confirm(
            templates,
            f"instance {experiment_id} recorded as "
            f"{'successful' if success else 'failed'}",
        )

    def _do_spawn(self, request: HttpRequest, templates) -> HttpResponse:
        workflow_id = self._int_param(request, "workflow_id")
        task = request.require_param("task")
        experiment = self.engine.spawn_instance(workflow_id, task)
        response = self._confirm(
            templates,
            f"spawned instance {experiment['experiment_id']} for task {task!r}",
        )
        response.attributes["experiment_id"] = experiment["experiment_id"]
        return response

    def _do_restart(self, request: HttpRequest, templates) -> HttpResponse:
        workflow_id = self._int_param(request, "workflow_id")
        task = request.require_param("task")
        cascade = request.param("cascade", "true").lower() == "true"
        self.engine.restart_task(workflow_id, task, cascade=cascade)
        return self._confirm(templates, f"task {task!r} restarted")

    def _do_cancel(self, request: HttpRequest, templates) -> HttpResponse:
        workflow_id = self._int_param(request, "workflow_id")
        self.engine.cancel_workflow(
            workflow_id, by=request.param("by", "")
        )
        return self._confirm(templates, f"workflow {workflow_id} cancelled")

    def _do_events(self, request: HttpRequest, templates) -> HttpResponse:
        """The engine's event stream — the workflow monitoring page.

        Optional filters: ``workflow_id`` (events touching one
        workflow), ``since`` (events after a sequence number, for
        incremental polling), ``kind``.
        """
        events = self.engine.events.events
        since = self._int_param(request, "since", required=False)
        if since is not None:
            events = self.engine.events.since(since)
        kind = request.param("kind")
        if kind:
            events = [event for event in events if event.kind == kind]
        target = self._int_param(request, "workflow_id", required=False)
        if target is not None:
            events = [
                event
                for event in events
                if event.get("workflow_id") == target
            ]
        rendered = [
            {
                "sequence": event.sequence,
                "kind": event.kind,
                "details": ", ".join(
                    f"{key}={value}" for key, value in event.payload.items()
                ),
            }
            for event in events
        ]
        body = templates.render("wf_events", {"events": rendered})
        response = HttpResponse.html(body)
        response.attributes["events"] = events
        response.attributes["last_sequence"] = (
            events[-1].sequence if events else (since or 0)
        )
        return response

    def _do_define(self, request: HttpRequest, templates) -> HttpResponse:
        """Define and store a new workflow pattern from JSON.

        "Scientists describe the execution order of experiments as a
        workflow model" — this is that step, over the web interface.
        The description is validated against the live schema (and the
        already-stored patterns, for sub-workflow references) before it
        is saved; final tasks get the mandatory authorization flag.
        """
        from repro.core.persistence import (
            pattern_from_dict,
            pattern_registry,
            save_pattern,
        )
        from repro.core.validation import validate_pattern

        raw = request.require_param("pattern_json")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as error:
            raise BadRequestError(f"bad pattern JSON: {error}") from None
        pattern = pattern_from_dict(data)
        for name in pattern.final_tasks():
            pattern.task(name).requires_authorization = True
        registry = pattern_registry(self.engine.db)
        validate_pattern(pattern, db=self.engine.db, registry=registry)
        pattern_id = save_pattern(self.engine.db, pattern)
        self.engine.events.emit(
            "pattern.defined", pattern=pattern.name, pattern_id=pattern_id
        )
        response = self._confirm(
            templates,
            f"pattern {pattern.name!r} stored with "
            f"{len(pattern.tasks)} task(s)",
        )
        response.attributes["pattern_id"] = pattern_id
        return response

    def _do_patterns(self, request: HttpRequest, templates) -> HttpResponse:
        """List stored patterns; ``name`` exports one as JSON."""
        from repro.core.persistence import load_pattern, pattern_to_dict

        name = request.param("name")
        if name:
            pattern = load_pattern(self.engine.db, name)
            response = HttpResponse(
                status=200,
                body=json.dumps(pattern_to_dict(pattern)),
                content_type="application/json",
            )
            response.attributes["pattern"] = pattern
            return response
        rows = self.engine.db.select("WorkflowPattern", order_by="pattern_id")
        response = self._confirm(
            templates, f"{len(rows)} stored pattern(s)"
        )
        response.attributes["patterns"] = rows
        return response

    def _do_abort_instance(
        self, request: HttpRequest, templates
    ) -> HttpResponse:
        experiment_id = self._int_param(request, "experiment_id")
        self.engine.abort_instance(experiment_id)
        return self._confirm(templates, f"instance {experiment_id} aborted")

    def _do_inputs(self, request: HttpRequest, templates) -> HttpResponse:
        workflow_id = self._int_param(request, "workflow_id")
        task = request.require_param("task")
        inputs = self.engine.collect_available_inputs(workflow_id, task)
        response = self._confirm(
            templates, f"{len(inputs)} candidate input(s) for task {task!r}"
        )
        response.attributes["inputs"] = inputs
        return response

    @staticmethod
    def _confirm(templates, message: str) -> HttpResponse:
        body = templates.render("wf_confirm", {"message": message})
        response = HttpResponse.html(body)
        response.attributes["message"] = message
        return response


def _typed_result_values(
    engine: WorkflowBean, experiment_id: int, raw: dict[str, str]
) -> dict[str, Any]:
    """Coerce web-form result values against the experiment's schemas."""
    from repro.minidb.types import coerce

    experiment = engine.db.get("Experiment", experiment_id)
    if experiment is None:
        raise BadRequestError(f"no experiment {experiment_id}")
    type_table = engine._type_table(experiment["type_name"])
    experiment_schema = engine.db.schema("Experiment")
    child_schema = engine.db.schema(type_table) if type_table else None
    typed: dict[str, Any] = {}
    for name, value in raw.items():
        if child_schema is not None and child_schema.has_column(name):
            column = child_schema.column(name)
        elif experiment_schema.has_column(name):
            column = experiment_schema.column(name)
        else:
            raise BadRequestError(
                f"no column {name!r} for experiment {experiment_id}"
            )
        typed[name] = None if value == "" else coerce(
            value, column.type, f"result.{name}"
        )
    return typed


#: Workflow-specific "JSP pages" added alongside Exp-DB's defaults.
WORKFLOW_TEMPLATES = {
    "wf_status": (
        "<html><body><h1>Workflow {{ workflow_id }} ({{ pattern }})</h1>"
        "<p>status: {{ status }}</p><table>"
        "<tr><th>task</th><th>state</th><th>instances</th>"
        "<th>completed</th><th>aborted</th></tr>"
        "{% for t in tasks %}<tr><td>{{ t.name }}</td><td>{{ t.state }}</td>"
        "<td>{{ t.instances }}</td><td>{{ t.completed }}</td>"
        "<td>{{ t.aborted }}</td></tr>{% endfor %}"
        "</table></body></html>"
    ),
    "wf_list": (
        "<html><body><h1>Workflows</h1><ul>"
        "{% for w in workflows %}<li>#{{ w.workflow_id }} {{ w.name }} — "
        "{{ w.status }}</li>{% endfor %}</ul></body></html>"
    ),
    "wf_auths": (
        "<html><body><h1>Pending authorizations</h1><ul>"
        "{% for a in authorizations %}<li>#{{ a.auth_id }} workflow "
        "{{ a.workflow_id }} ({{ a.kind }})</li>{% endfor %}"
        "</ul></body></html>"
    ),
    "wf_confirm": (
        "<html><body><p class=\"workflow\">{{ message }}</p></body></html>"
    ),
    "wf_events": (
        "<html><body><h1>Workflow events</h1><table>"
        "<tr><th>#</th><th>event</th><th>details</th></tr>"
        "{% for e in events %}<tr><td>{{ e.sequence }}</td>"
        "<td>{{ e.kind }}</td><td>{{ e.details }}</td></tr>{% endfor %}"
        "</table></body></html>"
    ),
}


def install_workflow_support(
    expdb: ExpDB,
    dispatcher: Dispatcher | None = None,
    install_datamodel: bool = True,
    degradation: DegradationPolicy | None = None,
) -> WorkflowBean:
    """Attach Exp-WF to a running Exp-DB — the paper's integration step.

    Everything happens through public extension points: the workflow
    tables are created (extending only ``Experiment``), the workflow
    templates are registered, and the WorkflowServlet / WorkflowFilter
    are declared in the deployment descriptor.  No existing component is
    modified.  Returns the :class:`WorkflowBean`.
    """
    if install_datamodel:
        install_workflow_datamodel(expdb.db)
    engine = WorkflowBean(expdb.db, dispatcher=dispatcher)
    servlet = WorkflowServlet(engine)
    filter_ = WorkflowFilter(engine, servlet, degradation=degradation)
    filter_.container = expdb.container

    for name, source in WORKFLOW_TEMPLATES.items():
        expdb.templates.register(name, source)
    expdb.container.descriptor.add_servlet(servlet, "/workflow", "/workflow/*")
    expdb.container.descriptor.add_filter(filter_, "/user", "/user/*")
    expdb.container.context["workflow_bean"] = engine
    expdb.container.context["workflow_filter"] = filter_
    return engine
