"""The WorkflowBean — Exp-WF's workflow engine (§5.2).

"The WorkflowBean's primary responsibility is to keep track of the state
of workflow instances and tasks, and to direct the workflow execution,
e.g., determining a task's eligibility, sending tasks to the
AgentManager, or writing instance information to the database."

Design decisions, mapped to the paper:

* **The database is the source of truth.**  Task state lives in
  ``WFTask.state``; instance state lives in the extended ``Experiment``
  row.  Every state mutation goes through the Fig. 4 state machines, so
  an illegal transition can never be persisted.  (This is also what
  makes the response-time profile DB-dominated, which is the paper's
  central performance observation.)

* **Eligibility (§4.2)**, task completion and workflow termination are
  decided by the pure rules of :mod:`repro.core.evaluator`;
  :meth:`WorkflowBean.check_workflow` is the shell that reads each
  pass's snapshot, applies the transitions and emits their events.
  A source enables its targets once completed, or active with its
  default number of instances completed — "giving users the power to
  delay that execution if more source task instances are desired" (the
  delay lever being the authorization gate).

* **Multiple task instances (§4.2)**: activating a task spawns its
  default number of instances; users may spawn more while the task is
  active.  A task completes when all its instances are decided and at
  least one completed; it aborts only when every instance aborted.
  Instance success is declared explicitly by the executor.

* **Output forwarding (§4.2)**: destination instances receive the
  outputs of *all successfully completed* source instances; the
  executing agent chooses which to consume and reports the choice with
  its results.

* **Backtracking (§4.2)**: any terminal or unreachable task can be
  restarted; its current instances are superseded (kept as history with
  ``wf_current = false``), undecided ones aborted, and every downstream
  task is restarted in cascade so the repetition propagates.

* **Termination control (§4.2)**: final tasks always require
  authorization; the workflow completes when its final tasks are decided
  and at least one completed.

* **One commit per engine call**: every public method is one unit of
  work (see :meth:`WorkflowBean.call`).  Its state transitions and the
  audit rows of the events it emits commit together in one transaction,
  or — if it raises — not at all; the events stay in the in-memory
  :class:`EventLog`, so the durable trail records only what committed.
  Broker messages (task dispatch, abort, authorization request) are
  queued during the call and sent only once its commit is durable, so
  no message ever names a row that recovery could lose.
"""

# conlint: module-allow=CC003 -- the bean lock is deliberately held
# across durable database writes: one re-entrant lock serialises all
# engine methods (the paper's servlet-bean concurrency model), and each
# call's one commit (plus one for its deferred broker messages) waits on
# its durability barrier under it.  This is the known cost of the
# current thread-per-request model; per-instance serialisation (ROADMAP
# item 2) replaces the bean lock entirely, and this module-allow is the
# inventory of exactly the sites that rewrite must move out from under
# a lock.

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.core.datamodel import EXPERIMENT_EXTENSION_COLUMNS
from repro.core.dispatch import Dispatcher, NullDispatcher
from repro.core.evaluator import (
    ContextGuard,
    PatternGraph,
    Snapshot,
    eligibility,
    settle,
    termination,
)
from repro.core.events import EventLog
from repro.core.instance import WorkflowView, load_workflow_view
from repro.core.persistence import PatternStore, agents_for_type
from repro.core.spec import TaskDef
from repro.core.states import (
    Event,
    InstanceState,
    TaskState,
    instance_machine,
    task_machine,
)
from repro.errors import (
    AuthorizationError,
    InstanceError,
    SpecificationError,
)
from repro.minidb.engine import Database
from repro.minidb.predicates import AND, EQ, IN

_Method = TypeVar("_Method", bound=Callable)


def _synchronized(method: _Method) -> _Method:
    """Run a public engine method as one unit of work (see
    :meth:`WorkflowBean.call`)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self.call():
            return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


class UnitOfWork:
    """The open outermost engine call: the broker messages it queued and
    the work that rides its last transaction."""

    __slots__ = ("sends", "audited", "last_commit")

    def __init__(self) -> None:
        self.sends: list[Callable[[], None]] = []
        #: Whether a queued message writes audit rows when it is sent
        #: (a task dispatch does; an abort or authorization request
        #: does not).
        self.audited = False
        self.last_commit: list[Callable[[], None]] = []

    def on_last_commit(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` inside the call's last transaction, just before
        it commits: the deferred-send transaction when a queued message
        writes audit rows, so the hook's rows follow them; otherwise the
        call's own unit.  If the call raises, the hook never runs."""
        self.last_commit.append(hook)

    def _run_last(self) -> None:
        for hook in self.last_commit:
            hook()


class WorkflowBean:
    """The workflow engine.  One instance serves one Exp-DB database."""

    def __init__(
        self,
        db: Database,
        dispatcher: Dispatcher | None = None,
    ) -> None:
        self.db = db
        self.dispatcher: Dispatcher = dispatcher or NullDispatcher()
        self.events = EventLog()
        #: Write-through-invalidated cache of specification data:
        #: pattern rows, compiled patterns, WFPTask rows, and the
        #: experiment/sample type-table mappings.  Subscribed to the
        #: database's write listeners, so editing a pattern is visible
        #: to the very next ``start_workflow``.  Set
        #: ``specs.enabled = False`` to audit the cache-bypass path.
        self.specs = PatternStore(db)
        #: Number of check_workflow evaluations (feeds the cost model).
        self.check_count = 0
        self._lock = threading.RLock()
        #: The open outermost call; ``None`` outside one.
        self._call: UnitOfWork | None = None

    @contextlib.contextmanager
    def call(self) -> Iterator[UnitOfWork]:
        """One engine call: a unit of work under the bean lock.

        The original WorkflowBean is a servlet-container bean invoked
        from concurrent request threads; one re-entrant lock per bean
        gives the same calls-run-one-at-a-time behaviour (engine methods
        freely call each other, hence an RLock).

        The outermost call opens one database transaction, runs its body
        and commits once, so it waits on a single durability barrier.
        Nested calls join it, as does a call from a thread that already
        owns a transaction (whose owner then commits it).  Broker
        messages queued through :meth:`_send` go out after the commit,
        in call order, inside one second transaction that holds their
        dispatch audit rows; if the call raises they are dropped with
        the rollback.  A caller that applies several engine methods as
        one call (the AgentManager, per inbound message) gets the
        :class:`UnitOfWork` to add work to the last transaction that
        writes.
        """
        with self._lock:
            unit = self._call
            if unit is not None:
                yield unit
                return
            self._call = unit = UnitOfWork()
            try:
                with self._unit():
                    yield unit
                    if not unit.audited:
                        unit._run_last()
            finally:
                self._call = None
            if unit.sends:
                with self._unit():
                    for send in unit.sends:
                        send()
                    if unit.audited:
                        unit._run_last()

    def _unit(self) -> contextlib.AbstractContextManager:
        """A transaction for one unit of work, unless this thread owns one."""
        if self.db.owns_transaction:
            return contextlib.nullcontext()
        return self.db.transaction()

    def _send(
        self, message: Callable[..., None], *args: Any, audited: bool = False
    ) -> None:
        """Queue a dispatcher message; it is sent after the unit commits.

        ``audited`` marks a message whose send writes audit rows.
        """
        unit = self._call
        assert unit is not None, "messages are sent from engine calls"
        unit.sends.append(functools.partial(message, *args))
        unit.audited |= audited

    # ------------------------------------------------------------------
    # Workflow lifecycle
    # ------------------------------------------------------------------

    @_synchronized
    def start_workflow(
        self,
        pattern_name: str,
        name: str | None = None,
        project_id: int | None = None,
        _parent: tuple[int, int] | None = None,
    ) -> dict[str, Any]:
        """Instantiate a stored pattern; returns the ``Workflow`` row.

        The run-through begins immediately: initial tasks are evaluated
        for eligibility and activated (or parked behind authorization).
        """
        pattern_row = self.specs.pattern_row(pattern_name)
        if pattern_row is None:
            raise SpecificationError(f"no stored pattern named {pattern_name!r}")
        parent_workflow_id, parent_wftask_id = _parent or (None, None)
        workflow = self.db.insert(
            "Workflow",
            {
                "pattern_id": pattern_row["pattern_id"],
                "name": name or pattern_name,
                "status": "running",
                "project_id": project_id,
                "parent_workflow_id": parent_workflow_id,
                "parent_wftask_id": parent_wftask_id,
            },
        )
        for task_row in self.specs.task_rows(pattern_row["pattern_id"]):
            self.db.insert(
                "WFTask",
                {
                    "workflow_id": workflow["workflow_id"],
                    "wfp_task_id": task_row["wfp_task_id"],
                    "state": TaskState.CREATED.value,
                },
            )
        self.events.emit(
            "workflow.started",
            workflow_id=workflow["workflow_id"],
            pattern=pattern_name,
        )
        self.check_workflow(workflow["workflow_id"])
        return self.db.get("Workflow", workflow["workflow_id"])

    def workflow_view(self, workflow_id: int) -> WorkflowView:
        """A full snapshot of one workflow instance."""
        return load_workflow_view(self.db, workflow_id)

    def list_workflows(self, status: str | None = None) -> list[dict[str, Any]]:
        """All workflow rows, optionally filtered by status."""
        predicate = EQ("status", status) if status else None
        return self.db.select("Workflow", predicate, order_by="workflow_id")

    # ------------------------------------------------------------------
    # The central evaluation loop
    # ------------------------------------------------------------------

    @_synchronized
    def check_workflow(self, workflow_id: int) -> None:
        """Re-evaluate one workflow until no more state changes happen.

        This is the routine the paper describes being triggered by every
        relevant data change — and the reason "a simple insert into an
        experiment related table can trigger several database reads".

        It is the shell around :mod:`repro.core.evaluator`, which holds
        the rules.  Each pass reads one snapshot (the task rows and the
        workflow's current instances), asks the evaluator for each
        task's transition in ``wftask_id`` order, applies it, and
        updates the snapshot in memory.  Starting a child workflow
        re-enters the engine, so the snapshot is read again after it.
        """
        self.check_count += 1
        workflow = self.db.get("Workflow", workflow_id)
        if workflow is None:
            raise InstanceError(f"no workflow with id {workflow_id}")
        if workflow["status"] != "running":
            return
        graph = self._graph(workflow["pattern_id"])

        changed = True
        while changed:
            changed = False
            rows, snapshot = self._snapshot(workflow_id)
            for name, task_row in rows.items():
                taskdef = graph.pattern.task(name)
                state = task_row["state"]
                if state == TaskState.CREATED:
                    event = self._eligibility(workflow, graph, name, rows, snapshot)
                elif state == TaskState.ELIGIBLE:
                    event = self._activation(workflow, task_row, taskdef)
                elif state == TaskState.ACTIVE:
                    event = settle(taskdef, snapshot.instances[name])
                else:
                    continue
                if event is None:
                    continue
                changed = True
                snapshot.states[name] = self._apply_task_event(task_row, event)
                if event is not Event.ACTIVATE:
                    continue
                if taskdef.is_subworkflow:
                    self._start_child_workflow(workflow, task_row, taskdef)
                    workflow = self.db.get("Workflow", workflow_id)
                    rows, snapshot = self._snapshot(workflow_id)
                else:
                    inputs = functools.cache(
                        functools.partial(
                            self.collect_available_inputs, workflow_id, name
                        )
                    )
                    for __ in range(taskdef.default_instances):
                        self._create_and_delegate(
                            workflow, task_row, taskdef, inputs
                        )

        status = termination(graph, snapshot)
        if status is None or workflow["status"] != "running":
            return
        self.db.update(
            "Workflow", EQ("workflow_id", workflow_id), {"status": status}
        )
        self.events.emit(
            "workflow.finished", workflow_id=workflow_id, status=status
        )
        self._notify_parent(dict(workflow, status=status))

    def _snapshot(
        self, workflow_id: int
    ) -> tuple[dict[str, dict[str, Any]], Snapshot]:
        """The workflow's task rows by name and its :class:`Snapshot`:
        one read of ``WFTask`` and one of its current ``Experiment``
        rows (through the ``Experiment(workflow_id)`` index).  The rules
        consult instances only of active and completed tasks, so with
        neither there is no instance read."""
        rows = {self._task_name(row): row for row in self._task_rows(workflow_id)}
        states = {name: row["state"] for name, row in rows.items()}
        names = {row["wftask_id"]: name for name, row in rows.items()}
        instances: dict[str, list[dict[str, Any]]] = {name: [] for name in rows}
        if any(
            state in (TaskState.ACTIVE, TaskState.COMPLETED)
            for state in states.values()
        ):
            for experiment in self.db.select(
                "Experiment",
                AND(EQ("workflow_id", workflow_id), EQ("wf_current", True)),
                order_by="experiment_id",
            ):
                instances[names[experiment["wftask_id"]]].append(experiment)
        return rows, Snapshot(states, instances)

    def _eligibility(
        self,
        workflow: dict[str, Any],
        graph: PatternGraph,
        task: str,
        rows: dict[str, dict[str, Any]],
        snapshot: Snapshot,
    ) -> Event | None:
        """The evaluator's verdict on a created task.  Conditions see
        their source's context; a condition that raises counts as false
        and is recorded — errors never route silently."""
        guard = ContextGuard(
            lambda source: self._condition_context(
                workflow,
                rows[source],
                graph.pattern.task(source),
                snapshot.instances[source],
            )
        )
        event = eligibility(graph, task, snapshot, guard)
        for condition, error in guard.errors:
            self.events.emit(
                "condition.error",
                workflow_id=workflow["workflow_id"],
                condition=condition.source,
                error=str(error),
            )
        return event

    # -- eligible → active (authorization permitting) ---------------------

    def _activation(
        self,
        workflow: dict[str, Any],
        task_row: dict[str, Any],
        taskdef: TaskDef,
    ) -> Event | None:
        """``ACTIVATE`` or ``DENY`` for an eligible task as its
        authorization decides; ``None`` while that is pending (the
        request is created on first sight)."""
        if not taskdef.requires_authorization:
            return Event.ACTIVATE
        decisions = self.db.select(
            "WFAuthorization",
            AND(
                EQ("workflow_id", workflow["workflow_id"]),
                EQ("wftask_id", task_row["wftask_id"]),
            ),
            order_by="auth_id",
        )
        live = [d for d in decisions if d["status"] != "cancelled"]
        if live:
            return {"granted": Event.ACTIVATE, "denied": Event.DENY}.get(
                live[-1]["status"]
            )
        authorizer = self._choose_authorizer(taskdef)
        request = self.db.insert(
            "WFAuthorization",
            {
                "workflow_id": workflow["workflow_id"],
                "wftask_id": task_row["wftask_id"],
                "kind": "final"
                if taskdef.name in self._graph(workflow["pattern_id"]).final
                else "start",
                "status": "pending",
                "agent_id": authorizer["agent_id"] if authorizer else None,
            },
        )
        self.events.emit(
            "authorization.requested",
            auth_id=request["auth_id"],
            workflow_id=workflow["workflow_id"],
            task=taskdef.name,
            agent=authorizer["name"] if authorizer else None,
        )
        self._send(
            self.dispatcher.notify_authorization,
            authorizer,
            request["auth_id"],
            workflow,
            taskdef.name,
            request["kind"],
        )
        return None

    def _choose_authorizer(self, taskdef: TaskDef) -> dict | None:
        """A human agent for the task's type, else any human agent."""
        if taskdef.experiment_type is not None:
            for agent in agents_for_type(self.db, taskdef.experiment_type):
                if agent["kind"] == "human":
                    return agent
        humans = self.db.select("Agent", EQ("kind", "human"), order_by="agent_id")
        return humans[0] if humans else None

    @_synchronized
    def respond_authorization(
        self, auth_id: int, approve: bool, decided_by: str = ""
    ) -> None:
        """Record an authorization decision and advance the workflow."""
        request = self.db.get("WFAuthorization", auth_id)
        if request is None:
            raise AuthorizationError(f"no authorization request {auth_id}")
        if request["status"] != "pending":
            raise AuthorizationError(
                f"authorization {auth_id} already {request['status']}"
            )
        self.db.update(
            "WFAuthorization",
            EQ("auth_id", auth_id),
            {
                "status": "granted" if approve else "denied",
                "decided_by": decided_by,
            },
        )
        self.events.emit(
            "authorization.decided",
            auth_id=auth_id,
            workflow_id=request["workflow_id"],
            wftask_id=request["wftask_id"],
            approved=approve,
            decided_by=decided_by,
        )
        self.check_workflow(request["workflow_id"])

    def pending_authorizations(
        self, workflow_id: int | None = None
    ) -> list[dict[str, Any]]:
        """All authorization requests awaiting a decision."""
        predicate = EQ("status", "pending")
        if workflow_id is not None:
            predicate = AND(predicate, EQ("workflow_id", workflow_id))
        return self.db.select("WFAuthorization", predicate, order_by="auth_id")

    # -- sub-workflows -----------------------------------------------------

    def _start_child_workflow(
        self,
        workflow: dict[str, Any],
        task_row: dict[str, Any],
        taskdef: TaskDef,
    ) -> None:
        child = self.start_workflow(
            taskdef.subworkflow,
            name=f"{workflow['name']}/{taskdef.name}",
            project_id=workflow["project_id"],
            _parent=(workflow["workflow_id"], task_row["wftask_id"]),
        )
        self.db.update(
            "WFTask",
            EQ("wftask_id", task_row["wftask_id"]),
            {"child_workflow_id": child["workflow_id"]},
        )

    def _notify_parent(self, workflow: dict[str, Any]) -> None:
        """Propagate a finished child workflow into its parent task."""
        parent_wftask_id = workflow["parent_wftask_id"]
        if parent_wftask_id is None:
            return
        parent_task = self.db.get("WFTask", parent_wftask_id)
        if parent_task is None or parent_task["state"] != TaskState.ACTIVE.value:
            return
        event = (
            Event.COMPLETE
            if workflow["status"] == "completed"
            else Event.ABORT
        )
        self._apply_task_event(parent_task, event)
        self.check_workflow(workflow["parent_workflow_id"])

    # -- instances ---------------------------------------------------------

    def _create_and_delegate(
        self,
        workflow: dict[str, Any],
        task_row: dict[str, Any],
        taskdef: TaskDef,
        inputs: Callable[[], list[dict[str, Any]]],
    ) -> dict[str, Any]:
        """Create one instance and delegate it to an agent, if the type
        has one.  ``inputs`` yields the task's candidate input samples;
        it is called only for an instance that gets an agent, and an
        activation passes one cached callable to all its instances, so
        the candidates are collected once per activation."""
        agent = self.dispatcher.choose_agent(taskdef.experiment_type)
        experiment = self.db.insert(
            "Experiment",
            {
                "project_id": workflow["project_id"],
                "type_name": taskdef.experiment_type,
                "status": "new",
                "workflow_id": workflow["workflow_id"],
                "wftask_id": task_row["wftask_id"],
                "agent_id": agent["agent_id"] if agent else None,
                "wf_state": InstanceState.CREATED.value,
                "wf_success": None,
                "wf_current": True,
            },
        )
        type_table = self._type_table(taskdef.experiment_type)
        if type_table is not None:
            self.db.insert(
                type_table, {"experiment_id": experiment["experiment_id"]}
            )
        self.events.emit(
            "instance.created",
            workflow_id=workflow["workflow_id"],
            task=taskdef.name,
            experiment_id=experiment["experiment_id"],
            agent=agent["name"] if agent else None,
        )
        experiment = self._apply_instance_event(experiment, Event.DELEGATE)
        if agent is not None:
            self._send(
                self.dispatcher.dispatch_instance,
                agent, workflow, taskdef.name, experiment, inputs(),
                audited=True,
            )
        return experiment

    @_synchronized
    def spawn_instance(self, workflow_id: int, task_name: str) -> dict[str, Any]:
        """User-requested additional instance for an active task (§4.2)."""
        workflow, task_row, taskdef = self._resolve_task(workflow_id, task_name)
        if task_row["state"] != TaskState.ACTIVE.value:
            raise InstanceError(
                f"task {task_name!r} is {task_row['state']}, instances can "
                "only be added while it is active"
            )
        if taskdef.is_subworkflow:
            raise InstanceError(
                f"task {task_name!r} is a sub-workflow and has no instances"
            )
        return self._create_and_delegate(
            workflow,
            task_row,
            taskdef,
            functools.partial(self.collect_available_inputs, workflow_id, task_name),
        )

    @_synchronized
    def instance_started(self, experiment_id: int) -> None:
        """An agent reported that it began executing the instance.

        Asynchronous messaging means a start notification can arrive
        after the instance was decided another way (a human entered the
        results through the web interface first, or the task was
        restarted).  Stale notifications are recorded and ignored — the
        queue must never wedge on them.
        """
        experiment = self.db.get("Experiment", experiment_id)
        if experiment is None or experiment["wftask_id"] is None:
            raise InstanceError(
                f"experiment {experiment_id} is not a workflow task instance"
            )
        if (
            experiment["wf_state"] != InstanceState.DELEGATED.value
            or not experiment["wf_current"]
        ):
            self.events.emit(
                "message.stale",
                experiment_id=experiment_id,
                message_kind="task.started",
                state=experiment["wf_state"],
            )
            return
        self._apply_instance_event(experiment, Event.START)

    @_synchronized
    def complete_instance(
        self,
        experiment_id: int,
        success: bool,
        outputs: Iterable[dict[str, Any]] = (),
        chosen_input_ids: Iterable[int] = (),
        result_values: dict[str, Any] | None = None,
    ) -> None:
        """Record an instance's results and its explicit success flag.

        "Success of an instance must now be specified explicitly by the
        executor of the task instance" — a successful instance completes,
        an unsuccessful one aborts.  ``outputs`` creates samples (plus
        their type rows and ``ExperimentIO`` output links);
        ``chosen_input_ids`` records which forwarded source outputs this
        instance consumed; ``result_values`` updates the experiment-type
        row.
        """
        experiment = self.db.get("Experiment", experiment_id)
        if experiment is None or experiment["wftask_id"] is None:
            raise InstanceError(
                f"experiment {experiment_id} is not a workflow task instance"
            )
        if not experiment["wf_current"] or experiment["wf_state"] in (
            InstanceState.COMPLETED.value,
            InstanceState.ABORTED.value,
        ):
            # A late result for an instance decided another way (human
            # raced the robot, or a restart superseded it).
            self.events.emit(
                "message.stale",
                experiment_id=experiment_id,
                message_kind="task.result",
                state=experiment["wf_state"],
            )
            return
        if experiment["wf_state"] == InstanceState.DELEGATED.value:
            experiment = self._apply_instance_event(experiment, Event.START)
        if experiment["wf_state"] != InstanceState.ACTIVE.value:
            raise InstanceError(
                f"instance {experiment_id} is {experiment['wf_state']!r}, "
                "cannot record results"
            )
        for sample_id in chosen_input_ids:
            self._link_io(experiment, sample_id, "input")
        for output in outputs:
            sample_id = self._create_output_sample(experiment, output)
            self._link_io(experiment, sample_id, "output")
        if result_values:
            self._update_result_values(experiment, result_values)
        self.db.update(
            "Experiment",
            EQ("experiment_id", experiment_id),
            {"wf_success": success, "status": "done"},
        )
        experiment = self.db.get("Experiment", experiment_id)
        self._apply_instance_event(
            experiment, Event.COMPLETE if success else Event.ABORT
        )
        self.events.emit(
            "instance.result",
            experiment_id=experiment_id,
            workflow_id=experiment["workflow_id"],
            wftask_id=experiment["wftask_id"],
            agent_id=experiment["agent_id"],
            success=success,
        )
        self._after_instance_decided(experiment)

    @_synchronized
    def abort_instance(self, experiment_id: int, _propagate: bool = True) -> None:
        """Abort one instance (user decision or agent failure).

        ``_propagate=False`` is used internally during restarts, where the
        caller re-evaluates the workflow itself once every instance of
        the restarted tasks has been dealt with.
        """
        experiment = self._require_instance(experiment_id)
        if experiment["wf_state"] not in (
            InstanceState.CREATED.value,
            InstanceState.DELEGATED.value,
            InstanceState.ACTIVE.value,
        ):
            raise InstanceError(
                f"instance {experiment_id} is already "
                f"{experiment['wf_state']!r}"
            )
        self.db.update(
            "Experiment",
            EQ("experiment_id", experiment_id),
            {"wf_success": False},
        )
        experiment = self.db.get("Experiment", experiment_id)
        self._apply_instance_event(experiment, Event.ABORT)
        if experiment["agent_id"] is not None:
            agent = self.db.get("Agent", experiment["agent_id"])
            if agent is not None:
                self._send(self.dispatcher.send_abort, agent, experiment_id)
        if _propagate:
            self._after_instance_decided(self.db.get("Experiment", experiment_id))

    def _after_instance_decided(self, experiment: dict[str, Any]) -> None:
        """Settle the instance's task first, then re-check its workflow
        (a task of a finished workflow still completes)."""
        task_row = self.db.get("WFTask", experiment["wftask_id"])
        workflow = self.db.get("Workflow", experiment["workflow_id"])
        if task_row is None or workflow is None:  # pragma: no cover
            return
        if task_row["state"] == TaskState.ACTIVE:
            taskdef = self._graph(workflow["pattern_id"]).pattern.task(
                self._task_name(task_row)
            )
            event = settle(taskdef, self._current_instances(task_row["wftask_id"]))
            if event is not None:
                self._apply_task_event(task_row, event)
        self.check_workflow(workflow["workflow_id"])

    @_synchronized
    def cancel_workflow(self, workflow_id: int, by: str = "") -> None:
        """Abort a running workflow as a whole.

        Undecided instances are aborted (with agent notifications), live
        tasks are aborted, pending authorizations cancelled, and the
        workflow is marked aborted.  Individual tasks can still be
        restarted later — backtracking reopens the workflow.
        """
        workflow = self.db.get("Workflow", workflow_id)
        if workflow is None:
            raise InstanceError(f"no workflow with id {workflow_id}")
        if workflow["status"] != "running":
            raise InstanceError(
                f"workflow {workflow_id} is already {workflow['status']}"
            )
        for task_row in self._task_rows(workflow_id):
            state = task_row["state"]
            if state == TaskState.ACTIVE.value:
                for experiment in self._current_instances(task_row["wftask_id"]):
                    if experiment["wf_state"] in (
                        InstanceState.CREATED.value,
                        InstanceState.DELEGATED.value,
                        InstanceState.ACTIVE.value,
                    ):
                        self.abort_instance(
                            experiment["experiment_id"], _propagate=False
                        )
                task_row = self.db.get("WFTask", task_row["wftask_id"])
                if task_row["state"] == TaskState.ACTIVE.value:
                    self._apply_task_event(task_row, Event.ABORT)
                # A cancelled sub-workflow task cancels its child too.
                if task_row["child_workflow_id"] is not None:
                    child = self.db.get(
                        "Workflow", task_row["child_workflow_id"]
                    )
                    if child is not None and child["status"] == "running":
                        self.cancel_workflow(child["workflow_id"], by=by)
            elif state == TaskState.ELIGIBLE.value:
                self._apply_task_event(task_row, Event.DENY)
        self.db.update(
            "WFAuthorization",
            AND(EQ("workflow_id", workflow_id), EQ("status", "pending")),
            {"status": "cancelled", "decided_by": by},
        )
        self.db.update(
            "Workflow", EQ("workflow_id", workflow_id), {"status": "aborted"}
        )
        self.events.emit(
            "workflow.cancelled", workflow_id=workflow_id, by=by
        )

    # -- backtracking --------------------------------------------------------

    @_synchronized
    def restart_task(
        self,
        workflow_id: int,
        task_name: str,
        cascade: bool = True,
        by: str = "",
    ) -> None:
        """Backtrack: re-run ``task_name`` (and, by default, everything
        downstream of it).

        "Restarting sends a task back to the eligible state, and the
        eligibility requirements are reevaluated" — here the task returns
        to ``created`` and the next :meth:`check_workflow` pass
        re-derives eligible/unreachable, which is the same observable
        semantics with one fewer transient state.
        """
        workflow, task_row, __ = self._resolve_task(workflow_id, task_name)
        graph = self._graph(workflow["pattern_id"])
        to_restart = [task_name]
        if cascade:
            seen = {task_name}
            frontier = [task_name]
            while frontier:
                current = frontier.pop()
                for downstream in graph.targets[current]:
                    if downstream not in seen:
                        seen.add(downstream)
                        frontier.append(downstream)
                        to_restart.append(downstream)
        task_rows = {
            self._task_name(row): row
            for row in self._task_rows(workflow_id)
        }
        for name in to_restart:
            self._restart_single(workflow, task_rows[name], name)
        self.events.emit(
            "task.restarted",
            workflow_id=workflow_id,
            task=task_name,
            by=by,
            cascade=[n for n in to_restart if n != task_name],
        )
        self.check_workflow(workflow_id)

    def _restart_single(
        self, workflow: dict[str, Any], task_row: dict[str, Any], name: str
    ) -> None:
        state = task_row["state"]
        if state == TaskState.CREATED.value:
            return  # nothing to reset
        if state == TaskState.ACTIVE.value:
            # Abort undecided instances before superseding them.
            for experiment in self._current_instances(task_row["wftask_id"]):
                if experiment["wf_state"] in (
                    InstanceState.CREATED.value,
                    InstanceState.DELEGATED.value,
                    InstanceState.ACTIVE.value,
                ):
                    self.abort_instance(
                        experiment["experiment_id"], _propagate=False
                    )
            task_row = self.db.get("WFTask", task_row["wftask_id"])
            if task_row["state"] == TaskState.ACTIVE.value:
                self._apply_task_event(task_row, Event.ABORT)
                task_row = self.db.get("WFTask", task_row["wftask_id"])
        # Supersede this activation's instances — kept as history.
        self.db.update(
            "Experiment",
            AND(
                EQ("wftask_id", task_row["wftask_id"]),
                EQ("wf_current", True),
            ),
            {"wf_current": False},
        )
        # Cancel stale authorization decisions: a fresh run needs fresh
        # approval.
        self.db.update(
            "WFAuthorization",
            AND(
                EQ("workflow_id", workflow["workflow_id"]),
                EQ("wftask_id", task_row["wftask_id"]),
                IN("status", ["pending", "granted", "denied"]),
            ),
            {"status": "cancelled"},
        )
        if task_row["state"] != TaskState.CREATED.value:
            self._apply_task_event(task_row, Event.RESTART)
        # Sub-workflow children of a restarted task are detached (and
        # cancelled if still running — they must not keep consuming
        # agents for a superseded activation); a new child is started on
        # re-activation.
        if task_row["child_workflow_id"] is not None:
            child = self.db.get("Workflow", task_row["child_workflow_id"])
            if child is not None and child["status"] == "running":
                self.cancel_workflow(child["workflow_id"], by="restart")
            self.db.update(
                "WFTask",
                EQ("wftask_id", task_row["wftask_id"]),
                {"child_workflow_id": None},
            )
        # A restart can re-open a finished workflow.
        if workflow["status"] != "running":
            self.db.update(
                "Workflow",
                EQ("workflow_id", workflow["workflow_id"]),
                {"status": "running"},
            )
            workflow["status"] = "running"

    # ------------------------------------------------------------------
    # Data flow: forwarding outputs, collecting inputs
    # ------------------------------------------------------------------

    @_synchronized
    def collect_available_inputs(
        self, workflow_id: int, task_name: str
    ) -> list[dict[str, Any]]:
        """Candidate input samples for instances of ``task_name``.

        Outputs of all successfully completed current instances of each
        data-transition source, plus free stock samples (samples no
        experiment produced) for required input types no transition
        covers — "tasks can have input objects not being produced by
        source tasks".

        An activation collects them once for all of the task's default
        instances (see :meth:`_create_and_delegate`), and only if one
        of them gets an agent.
        """
        workflow, __, taskdef = self._resolve_task(workflow_id, task_name)
        graph = self._graph(workflow["pattern_id"])
        task_rows = {
            self._task_name(row): row for row in self._task_rows(workflow_id)
        }
        inputs: list[dict[str, Any]] = []
        covered_types: set[str] = set()
        for transition in graph.incoming[task_name]:
            if not transition.is_data:
                continue
            covered_types.add(transition.sample_type)
            source_row = task_rows[transition.source]
            source_def = graph.pattern.task(transition.source)
            for experiment in self._successful_experiments(
                workflow, source_row, source_def
            ):
                inputs.extend(
                    self._output_samples(
                        experiment["experiment_id"], transition.sample_type
                    )
                )
        if taskdef.experiment_type is not None:
            for io_row in self.db.select(
                "ExperimentTypeIO",
                AND(
                    EQ("experiment_type", taskdef.experiment_type),
                    EQ("direction", "input"),
                ),
            ):
                sample_type = io_row["sample_type"]
                if sample_type in covered_types:
                    continue
                inputs.extend(self._stock_samples(sample_type))
        # Inputs reachable through the parent's sub-workflow task.
        if workflow["parent_workflow_id"] is not None and (
            task_name in graph.initial
        ):
            parent_task = self.db.get("WFTask", workflow["parent_wftask_id"])
            parent_workflow = self.db.get(
                "Workflow", workflow["parent_workflow_id"]
            )
            if parent_task is not None and parent_workflow is not None:
                inputs.extend(
                    self.collect_available_inputs(
                        parent_workflow["workflow_id"],
                        self._task_name(parent_task),
                    )
                )
        deduplicated: dict[int, dict[str, Any]] = {}
        for sample in inputs:
            deduplicated[sample["sample_id"]] = sample
        return list(deduplicated.values())

    def _successful_experiments(
        self,
        workflow: dict[str, Any],
        source_row: dict[str, Any],
        source_def: TaskDef,
    ) -> list[dict[str, Any]]:
        """Successfully completed current instances of a source task.

        For sub-workflow tasks, the successful instances of the child
        workflow's final tasks stand in for the task's own instances.
        """
        if not source_def.is_subworkflow:
            return [
                row
                for row in self._current_instances(source_row["wftask_id"])
                if row["wf_state"] == InstanceState.COMPLETED.value
            ]
        child_id = source_row["child_workflow_id"]
        if child_id is None:
            return []
        child = self.db.get("Workflow", child_id)
        if child is None:
            return []
        child_graph = self._graph(child["pattern_id"])
        child_tasks = {
            self._task_name(row): row for row in self._task_rows(child_id)
        }
        experiments: list[dict[str, Any]] = []
        for final_name in child_graph.final:
            final_def = child_graph.pattern.task(final_name)
            experiments.extend(
                self._successful_experiments(
                    child, child_tasks[final_name], final_def
                )
            )
        return experiments

    def _output_samples(
        self, experiment_id: int, sample_type: str | None = None
    ) -> list[dict[str, Any]]:
        """Merged sample records produced by ``experiment_id``."""
        samples = []
        for io_row in self.db.select(
            "ExperimentIO", EQ("experiment_id", experiment_id)
        ):
            etio = self.db.get("ExperimentTypeIO", io_row["etio_id"])
            if etio is None or etio["direction"] != "output":
                continue
            if sample_type is not None and etio["sample_type"] != sample_type:
                continue
            sample = self._merged_sample(io_row["sample_id"])
            if sample is not None:
                samples.append(sample)
        return samples

    def _stock_samples(self, sample_type: str) -> list[dict[str, Any]]:
        """Samples of ``sample_type`` that no experiment produced.

        A produced sample is linked to its experiment through an
        ``ExperimentTypeIO`` output row of its own sample type (see
        :meth:`_link_io`), so the produced ones are found through the
        ``ExperimentIO(etio_id)`` index, and only for a type that some
        experiment type outputs.  The cost follows the samples of the
        requested type, not the lab's whole history of experiments: one
        select of the type's ``Sample`` rows, then one child-table get
        per stock sample to merge its type columns.
        """
        outputs = [
            row["etio_id"]
            for row in self.db.select(
                "ExperimentTypeIO",
                AND(EQ("sample_type", sample_type), EQ("direction", "output")),
            )
        ]
        produced = {
            row["sample_id"]
            for row in (
                self.db.select("ExperimentIO", IN("etio_id", outputs))
                if outputs
                else ()
            )
        }
        type_table = self.specs.sample_type_table(sample_type)
        return [
            self._with_child(sample, type_table, "sample_id")
            for sample in self.db.select("Sample", EQ("type_name", sample_type))
            if sample["sample_id"] not in produced
        ]

    def _create_output_sample(
        self, experiment: dict[str, Any], output: dict[str, Any]
    ) -> int:
        sample_type = output.get("sample_type")
        if not sample_type:
            raise InstanceError("output sample needs a sample_type")
        sample = self.db.insert(
            "Sample",
            {
                "type_name": sample_type,
                "name": output.get("name"),
                "quality": output.get("quality"),
                "description": output.get("description"),
            },
        )
        type_table = self.specs.sample_type_table(sample_type)
        if type_table is not None:
            values = dict(output.get("values", {}))
            values["sample_id"] = sample["sample_id"]
            self.db.insert(type_table, values)
        return sample["sample_id"]

    def _link_io(
        self, experiment: dict[str, Any], sample_id: int, direction: str
    ) -> None:
        sample = self.db.get("Sample", sample_id)
        if sample is None:
            raise InstanceError(f"no sample with id {sample_id}")
        etio = self.db.select_one(
            "ExperimentTypeIO",
            AND(
                EQ("experiment_type", experiment["type_name"]),
                EQ("sample_type", sample["type_name"]),
                EQ("direction", direction),
            ),
        )
        if etio is None:
            raise InstanceError(
                f"experiment type {experiment['type_name']!r} does not "
                f"declare {sample['type_name']!r} as an {direction}"
            )
        self.db.insert(
            "ExperimentIO",
            {
                "experiment_id": experiment["experiment_id"],
                "sample_id": sample_id,
                "etio_id": etio["etio_id"],
            },
        )

    def _update_result_values(
        self, experiment: dict[str, Any], result_values: dict[str, Any]
    ) -> None:
        type_table = self._type_table(experiment["type_name"])
        experiment_schema = self.db.schema("Experiment")
        experiment_changes = {}
        child_changes = {}
        for name, value in result_values.items():
            if name in EXPERIMENT_EXTENSION_COLUMNS:
                raise InstanceError(
                    f"workflow column {name!r} cannot be set through results"
                )
            if type_table is not None and self.db.schema(type_table).has_column(
                name
            ):
                child_changes[name] = value
            elif experiment_schema.has_column(name):
                experiment_changes[name] = value
            else:
                raise InstanceError(
                    f"no column {name!r} on {experiment['type_name']!r} "
                    "experiments"
                )
        key = EQ("experiment_id", experiment["experiment_id"])
        if child_changes:
            self.db.update(type_table, key, child_changes)
        if experiment_changes:
            self.db.update("Experiment", key, experiment_changes)

    # ------------------------------------------------------------------
    # Condition contexts
    # ------------------------------------------------------------------

    def _condition_context(
        self,
        workflow: dict[str, Any],
        source_row: dict[str, Any],
        source_def: TaskDef,
        instances: list[dict[str, Any]],
    ) -> dict[str, Any]:
        """The namespace a transition condition sees.

        ``experiment.*`` — the merged row of the latest successful source
        instance; ``output.*`` — the merged attributes of that instance's
        output samples (later outputs win on clashes); ``task.*`` —
        instance counts of the source task, whose current instances are
        ``instances``.
        """
        if source_def.is_subworkflow:
            experiments = self._successful_experiments(
                workflow, source_row, source_def
            )
            instances = experiments
        else:
            experiments = [
                row
                for row in instances
                if row["wf_state"] == InstanceState.COMPLETED
            ]
        latest: dict[str, Any] = {}
        outputs: dict[str, Any] = {}
        if experiments:
            latest_row = max(experiments, key=lambda row: row["experiment_id"])
            latest = self._merged_experiment(latest_row["experiment_id"]) or {}
            for sample in self._output_samples(latest_row["experiment_id"]):
                outputs.update(sample)
        aborted = sum(
            1 for row in instances if row["wf_state"] == InstanceState.ABORTED
        )
        return {
            "experiment": latest,
            "output": outputs,
            "task": {
                "completed_instances": len(experiments),
                "aborted_instances": aborted,
                "total_instances": len(instances),
            },
        }

    # ------------------------------------------------------------------
    # Web-layer hooks (used by the WorkflowFilter)
    # ------------------------------------------------------------------

    @_synchronized
    def validate_user_action(
        self, table: str, action: str, payload: dict[str, Any]
    ) -> tuple[bool, str]:
        """Preprocessing verdict for a user request (Fig. 7a).

        Returns ``(allowed, reason)``.  Denied actions are those that
        would corrupt workflow state if they reached the original
        servlet: direct writes to the engine-owned workflow columns,
        or destruction of experiments belonging to a running workflow.
        """
        if action in ("update", "insert"):
            touched = set(payload) & set(EXPERIMENT_EXTENSION_COLUMNS)
            if touched and self._is_experiment_table(table):
                return (
                    False,
                    f"columns {sorted(touched)} are managed by the workflow "
                    "engine",
                )
        if action == "delete" and self._is_experiment_table(table):
            for experiment in self._experiments_matching(table, payload):
                if experiment.get("workflow_id") is not None:
                    workflow = self.db.get(
                        "Workflow", experiment["workflow_id"]
                    )
                    if workflow is not None and workflow["status"] == "running":
                        return (
                            False,
                            f"experiment {experiment['experiment_id']} belongs "
                            f"to running workflow {workflow['workflow_id']}",
                        )
        return True, ""

    @_synchronized
    def on_data_change(self, table: str, attributes: dict[str, Any]) -> list:
        """Postprocessing hook (Fig. 7c): react to a successful change.

        Re-checks every running workflow that could be affected and
        returns the events raised, which the filter renders as notices.
        """
        before = self.events.last_sequence
        for workflow in self.list_workflows(status="running"):
            self.check_workflow(workflow["workflow_id"])
        return self.events.since(before)

    def _is_experiment_table(self, table: str) -> bool:
        if table == "Experiment":
            return True
        return (
            self.db.select_one("ExperimentType", EQ("table_name", table))
            is not None
        )

    def _experiments_matching(
        self, table: str, criteria: dict[str, Any]
    ) -> list[dict[str, Any]]:
        candidates = (
            self.db.select_with_parent(table)
            if table != "Experiment"
            else self.db.select("Experiment")
        )
        if not criteria:
            return candidates
        return [
            row
            for row in candidates
            if all(row.get(column) == value for column, value in criteria.items())
        ]

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _graph(self, pattern_id: int) -> PatternGraph:
        graph = self.specs.graph(pattern_id)
        if graph is None:
            raise SpecificationError(f"no pattern with id {pattern_id}")
        return graph

    def _task_rows(self, workflow_id: int) -> list[dict[str, Any]]:
        return self.db.select(
            "WFTask", EQ("workflow_id", workflow_id), order_by="wftask_id"
        )

    def _task_name(self, task_row: dict[str, Any]) -> str:
        row = self.specs.wfp_task(task_row["wfp_task_id"])
        if row is None:
            raise SpecificationError(
                f"no WFPTask with id {task_row['wfp_task_id']}"
            )
        return row["name"]

    def _resolve_task(
        self, workflow_id: int, task_name: str
    ) -> tuple[dict[str, Any], dict[str, Any], TaskDef]:
        workflow = self.db.get("Workflow", workflow_id)
        if workflow is None:
            raise InstanceError(f"no workflow with id {workflow_id}")
        taskdef = self._graph(workflow["pattern_id"]).pattern.task(task_name)
        for task_row in self._task_rows(workflow_id):
            if self._task_name(task_row) == task_name:
                return workflow, task_row, taskdef
        raise InstanceError(  # pragma: no cover - rows created with workflow
            f"workflow {workflow_id} has no task row for {task_name!r}"
        )

    def _current_instances(self, wftask_id: int) -> list[dict[str, Any]]:
        return self.db.select(
            "Experiment",
            AND(EQ("wftask_id", wftask_id), EQ("wf_current", True)),
            order_by="experiment_id",
        )

    def _require_instance(self, experiment_id: int) -> dict[str, Any]:
        experiment = self.db.get("Experiment", experiment_id)
        if experiment is None:
            raise InstanceError(f"no experiment with id {experiment_id}")
        if experiment["wftask_id"] is None:
            raise InstanceError(
                f"experiment {experiment_id} is not a workflow task instance"
            )
        if not experiment["wf_current"]:
            raise InstanceError(
                f"experiment {experiment_id} belongs to a superseded "
                "task activation"
            )
        return experiment

    def _apply_task_event(self, task_row: dict[str, Any], event: Event) -> str:
        """Apply one Fig. 4 transition to a task row; returns the new state."""
        new_state = task_machine(task_row["state"]).apply(event)
        state_value = str(
            new_state.value if hasattr(new_state, "value") else new_state
        )
        self.db.update(
            "WFTask", EQ("wftask_id", task_row["wftask_id"]), {"state": state_value}
        )
        self.events.emit(
            "task.state",
            workflow_id=task_row["workflow_id"],
            wftask_id=task_row["wftask_id"],
            task=self._task_name(task_row),
            event=str(event.value),
            state=state_value,
        )
        return state_value

    def _apply_instance_event(
        self, experiment: dict[str, Any], event: Event
    ) -> dict[str, Any]:
        machine = instance_machine(experiment["wf_state"])
        new_state = machine.apply(event)
        state_value = (
            new_state.value if hasattr(new_state, "value") else new_state
        )
        self.db.update(
            "Experiment",
            EQ("experiment_id", experiment["experiment_id"]),
            {"wf_state": state_value},
        )
        self.events.emit(
            "instance.state",
            experiment_id=experiment["experiment_id"],
            workflow_id=experiment["workflow_id"],
            wftask_id=experiment["wftask_id"],
            agent_id=experiment["agent_id"],
            event=str(event.value),
            state=str(state_value),
        )
        return self.db.get("Experiment", experiment["experiment_id"])

    def _type_table(self, experiment_type: str | None) -> str | None:
        if experiment_type is None:
            return None
        return self.specs.type_table(experiment_type)

    def _with_child(
        self, row: dict[str, Any], type_table: str | None, key: str
    ) -> dict[str, Any]:
        """``row`` merged with its child row in ``type_table`` (one
        get), or ``row`` itself when there is none."""
        child = self.db.get(type_table, row[key]) if type_table else None
        if child is None:
            return row
        merged = dict(row)
        merged.update(child)
        return merged

    def _merged_experiment(self, experiment_id: int) -> dict[str, Any] | None:
        experiment = self.db.get("Experiment", experiment_id)
        if experiment is None:
            return None
        return self._with_child(
            experiment, self._type_table(experiment["type_name"]), "experiment_id"
        )

    def _merged_sample(self, sample_id: int) -> dict[str, Any] | None:
        sample = self.db.get("Sample", sample_id)
        if sample is None:
            return None
        return self._with_child(
            sample, self.specs.sample_type_table(sample["type_name"]), "sample_id"
        )
