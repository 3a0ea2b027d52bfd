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

* **Eligibility (§4.2)**: a task is eligible when, for every distinct
  source task of its incoming transitions, the source has *completed*,
  or is active with at least its default number of instances completed —
  "this allows the system to begin any tasks without undue delay, while
  giving users the power to delay that execution if more source task
  instances are desired" (the delay lever being the authorization gate).
  Conditions are evaluated at that moment; a false (or erroring)
  condition on any incoming transition makes the task unreachable, as
  does an aborted or unreachable source.

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
"""

# conlint: module-allow=CC003 -- the bean lock is deliberately held
# across durable database writes: one re-entrant lock serialises all
# engine methods (the paper's servlet-bean concurrency model), so the
# commit fsync runs under it.  This is the known cost of the current
# thread-per-request model; per-instance serialisation (ROADMAP item 2)
# replaces the bean lock entirely, and this module-allow is the
# inventory of exactly the sites that rewrite must move out from under
# a lock.

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Iterable, TypeVar

from repro.core.conditions import Condition
from repro.core.datamodel import EXPERIMENT_EXTENSION_COLUMNS
from repro.core.dispatch import Dispatcher, NullDispatcher
from repro.core.events import EventLog
from repro.core.instance import WorkflowView, load_workflow_view
from repro.core.persistence import PatternStore, agents_for_type
from repro.core.spec import TaskDef, WorkflowPattern
from repro.core.states import (
    Event,
    InstanceState,
    TaskState,
    instance_machine,
    task_machine,
)
from repro.errors import (
    AuthorizationError,
    ConditionError,
    InstanceError,
    SpecificationError,
)
from repro.minidb.engine import Database
from repro.minidb.predicates import AND, EQ, IN

_Method = TypeVar("_Method", bound=Callable)


def _synchronized(method: _Method) -> _Method:
    """Serialise a public engine method under the bean's lock.

    The original WorkflowBean is a servlet-container bean invoked from
    concurrent request threads; one re-entrant lock per bean gives the
    same calls-run-one-at-a-time behaviour (engine methods freely call
    each other, hence an RLock)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


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
        with self.db.transaction():
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
        """
        self.check_count += 1
        workflow = self.db.get("Workflow", workflow_id)
        if workflow is None:
            raise InstanceError(f"no workflow with id {workflow_id}")
        if workflow["status"] != "running":
            return
        pattern = self._pattern(workflow["pattern_id"])

        changed = True
        while changed:
            changed = False
            tasks = self._task_rows(workflow_id)
            for task_row in tasks:
                taskdef = pattern.task(self._task_name(task_row))
                state = task_row["state"]
                if state == TaskState.CREATED.value:
                    changed |= self._evaluate_created(
                        workflow, pattern, task_row, taskdef
                    )
                elif state == TaskState.ELIGIBLE.value:
                    changed |= self._try_activate(workflow, task_row, taskdef)
                elif state == TaskState.ACTIVE.value:
                    changed |= self._refresh_active(workflow, task_row, taskdef)
        self._update_workflow_status(workflow_id, pattern)

    # -- created → eligible | unreachable --------------------------------

    def _evaluate_created(
        self,
        workflow: dict[str, Any],
        pattern: WorkflowPattern,
        task_row: dict[str, Any],
        taskdef: TaskDef,
    ) -> bool:
        verdict = self._eligibility_verdict(workflow, pattern, taskdef)
        if verdict == "eligible":
            self._apply_task_event(task_row, Event.BECOME_ELIGIBLE)
            return True
        if verdict == "unreachable":
            self._apply_task_event(task_row, Event.BECOME_UNREACHABLE)
            return True
        return False

    def _eligibility_verdict(
        self,
        workflow: dict[str, Any],
        pattern: WorkflowPattern,
        taskdef: TaskDef,
    ) -> str:
        """``"eligible"``, ``"unreachable"`` or ``"pending"``.

        Per-source verdicts compose as follows:

        * an **aborted** source makes the task unreachable outright ("if
          a required source task ... aborts ... the task and tasks that
          depend on it become unreachable");
        * an **unreachable** source is a *dead path*: it is excluded
          from the join rather than blocking it — this is what lets
          Fig. 1's conditional branches (PCR screening vs. miniprep)
          rejoin downstream.  Only when *every* incoming path is dead
          does the task become unreachable;
        * a satisfied source whose transition **condition** evaluates
          false is likewise a dead path (the branch was not taken);
        * otherwise the task waits until each live source is satisfied
          (completed, or active with its default number of instances
          completed).
        """
        incoming = pattern.incoming(taskdef.name)
        if not incoming:
            return "eligible"
        task_rows = {
            self._task_name(row): row for row in self._task_rows(
                workflow["workflow_id"]
            )
        }
        live_sources = 0
        pending = False
        for source_name in pattern.control_sources(taskdef.name):
            source_row = task_rows[source_name]
            source_state = source_row["state"]
            # A loop back-edge (the source lies downstream of this task)
            # may *enable* the task when satisfied, but never blocks it —
            # otherwise "improve ⇄ check" style iterative loops deadlock
            # on first entry.
            back_edge = pattern.is_back_edge(source_name, taskdef.name)
            if source_state == TaskState.ABORTED.value:
                if back_edge:
                    continue  # a failed later iteration is a dead path
                return "unreachable"
            if source_state == TaskState.UNREACHABLE.value:
                continue  # dead path
            source_def = pattern.task(source_name)
            if not self._source_satisfied(source_row, source_def, source_state):
                if back_edge:
                    continue  # an un-run loop source never blocks
                pending = True
                live_sources += 1
                continue
            # Source is satisfied — evaluate this source's conditions now
            # ("once the destination task is considered for execution").
            branch_taken = True
            for transition in pattern.incoming(taskdef.name):
                if transition.source != source_name:
                    continue
                if transition.parsed_condition is None:
                    continue
                if not self._condition_holds(
                    workflow, source_row, source_def, transition.parsed_condition
                ):
                    branch_taken = False
                    break
            if branch_taken:
                live_sources += 1
            # A satisfied source whose condition failed is a dead path.
        if live_sources == 0:
            return "unreachable"
        if pending:
            return "pending"
        return "eligible"

    def _source_satisfied(
        self,
        source_row: dict[str, Any],
        source_def: TaskDef,
        source_state: str,
    ) -> bool:
        if source_state == TaskState.COMPLETED.value:
            return True
        if source_state != TaskState.ACTIVE.value:
            return False
        if source_def.is_subworkflow:
            return False  # a sub-workflow counts only once completed
        completed = self._count_instances(
            source_row["wftask_id"], InstanceState.COMPLETED.value
        )
        return completed >= source_def.default_instances

    def _condition_holds(
        self,
        workflow: dict[str, Any],
        source_row: dict[str, Any],
        source_def: TaskDef,
        condition: Condition,
    ) -> bool:
        context = self._condition_context(workflow, source_row, source_def)
        try:
            return condition.evaluate(context)
        except ConditionError as error:
            # Errors never route silently: record and treat as false.
            self.events.emit(
                "condition.error",
                workflow_id=workflow["workflow_id"],
                condition=condition.source,
                error=str(error),
            )
            return False

    # -- eligible → active (authorization permitting) ---------------------

    def _try_activate(
        self,
        workflow: dict[str, Any],
        task_row: dict[str, Any],
        taskdef: TaskDef,
    ) -> bool:
        if taskdef.requires_authorization:
            verdict = self._authorization_verdict(workflow, task_row, taskdef)
            if verdict == "denied":
                self._apply_task_event(task_row, Event.DENY)
                return True
            if verdict != "granted":
                return False
        self._apply_task_event(task_row, Event.ACTIVATE)
        if taskdef.is_subworkflow:
            self._start_child_workflow(workflow, task_row, taskdef)
        else:
            self._spawn_instances(
                workflow, task_row, taskdef, taskdef.default_instances
            )
        return True

    def _authorization_verdict(
        self,
        workflow: dict[str, Any],
        task_row: dict[str, Any],
        taskdef: TaskDef,
    ) -> str:
        """``granted`` / ``denied`` / ``pending`` (creating the request)."""
        decisions = self.db.select(
            "WFAuthorization",
            EQ("wftask_id", task_row["wftask_id"]),
            order_by="auth_id",
        )
        live = [d for d in decisions if d["status"] != "cancelled"]
        if live:
            return live[-1]["status"]
        authorizer = self._choose_authorizer(taskdef)
        request = self.db.insert(
            "WFAuthorization",
            {
                "workflow_id": workflow["workflow_id"],
                "wftask_id": task_row["wftask_id"],
                "kind": "final"
                if self._is_final(workflow, taskdef)
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
        self.dispatcher.notify_authorization(
            authorizer,
            request["auth_id"],
            workflow,
            taskdef.name,
            request["kind"],
        )
        return "pending"

    def _choose_authorizer(self, taskdef: TaskDef) -> dict | None:
        """A human agent for the task's type, else any human agent."""
        if taskdef.experiment_type is not None:
            for agent in agents_for_type(self.db, taskdef.experiment_type):
                if agent["kind"] == "human":
                    return agent
        humans = self.db.select("Agent", EQ("kind", "human"), order_by="agent_id")
        return humans[0] if humans else None

    def _is_final(self, workflow: dict[str, Any], taskdef: TaskDef) -> bool:
        pattern = self._pattern(workflow["pattern_id"])
        return taskdef.name in pattern.final_tasks()

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

    def _spawn_instances(
        self,
        workflow: dict[str, Any],
        task_row: dict[str, Any],
        taskdef: TaskDef,
        count: int,
    ) -> list[dict[str, Any]]:
        experiments = []
        for __ in range(count):
            experiments.append(
                self._create_and_delegate(workflow, task_row, taskdef)
            )
        return experiments

    def _create_and_delegate(
        self,
        workflow: dict[str, Any],
        task_row: dict[str, Any],
        taskdef: TaskDef,
    ) -> dict[str, Any]:
        agent = self.dispatcher.choose_agent(taskdef.experiment_type)
        with self.db.transaction():
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
            inputs = self.collect_available_inputs(
                workflow["workflow_id"], taskdef.name
            )
            self.dispatcher.dispatch_instance(
                agent, workflow, taskdef.name, experiment, inputs
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
        return self._create_and_delegate(workflow, task_row, taskdef)

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
        with self.db.transaction():
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
                self.dispatcher.send_abort(agent, experiment_id)
        if _propagate:
            self._after_instance_decided(self.db.get("Experiment", experiment_id))

    def _after_instance_decided(self, experiment: dict[str, Any]) -> None:
        task_row = self.db.get("WFTask", experiment["wftask_id"])
        workflow = self.db.get("Workflow", experiment["workflow_id"])
        if task_row is None or workflow is None:  # pragma: no cover
            return
        taskdef = self._pattern(workflow["pattern_id"]).task(
            self._task_name(task_row)
        )
        self._refresh_active(workflow, task_row, taskdef)
        self.check_workflow(workflow["workflow_id"])

    def _refresh_active(
        self,
        workflow: dict[str, Any],
        task_row: dict[str, Any],
        taskdef: TaskDef,
    ) -> bool:
        """Complete/abort an active task once all instances are decided."""
        if task_row["state"] != TaskState.ACTIVE.value:
            return False
        if taskdef.is_subworkflow:
            return False  # decided via _notify_parent
        instances = self._current_instances(task_row["wftask_id"])
        if not instances:
            return False
        undecided = [
            row
            for row in instances
            if row["wf_state"]
            not in (InstanceState.COMPLETED.value, InstanceState.ABORTED.value)
        ]
        if undecided:
            return False
        completed = [
            row
            for row in instances
            if row["wf_state"] == InstanceState.COMPLETED.value
        ]
        self._apply_task_event(
            task_row, Event.COMPLETE if completed else Event.ABORT
        )
        return True

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
        pattern = self._pattern(workflow["pattern_id"])
        to_restart = [task_name]
        if cascade:
            seen = {task_name}
            frontier = [task_name]
            while frontier:
                current = frontier.pop()
                for downstream in pattern.control_targets(current):
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
        """
        workflow, __, taskdef = self._resolve_task(workflow_id, task_name)
        pattern = self._pattern(workflow["pattern_id"])
        task_rows = {
            self._task_name(row): row for row in self._task_rows(workflow_id)
        }
        inputs: list[dict[str, Any]] = []
        covered_types: set[str] = set()
        for transition in pattern.incoming(task_name):
            if not transition.is_data:
                continue
            covered_types.add(transition.sample_type)
            source_row = task_rows[transition.source]
            source_def = pattern.task(transition.source)
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
            task_name in pattern.initial_tasks()
        ):
            parent_task = self.db.get("WFTask", workflow["parent_wftask_id"])
            parent_workflow = self.db.get(
                "Workflow", workflow["parent_workflow_id"]
            )
            if parent_task is not None and parent_workflow is not None:
                parent_pattern = self._pattern(parent_workflow["pattern_id"])
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
        child_pattern = self._pattern(child["pattern_id"])
        child_tasks = {
            self._task_name(row): row for row in self._task_rows(child_id)
        }
        experiments: list[dict[str, Any]] = []
        for final_name in child_pattern.final_tasks():
            final_def = child_pattern.task(final_name)
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
        """Samples of ``sample_type`` that no experiment produced."""
        produced: set[int] = set()
        for io_row in self.db.select("ExperimentIO"):
            etio = self.db.get("ExperimentTypeIO", io_row["etio_id"])
            if etio is not None and etio["direction"] == "output":
                produced.add(io_row["sample_id"])
        stock = []
        for sample in self.db.select("Sample", EQ("type_name", sample_type)):
            if sample["sample_id"] not in produced:
                merged = self._merged_sample(sample["sample_id"])
                if merged is not None:
                    stock.append(merged)
        return stock

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
        type_table = self._sample_type_table(sample_type)
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
    ) -> dict[str, Any]:
        """The namespace a transition condition sees.

        ``experiment.*`` — the merged row of the latest successful source
        instance; ``output.*`` — the merged attributes of that instance's
        output samples (later outputs win on clashes); ``task.*`` —
        instance counts of the source task.
        """
        experiments = self._successful_experiments(
            workflow, source_row, source_def
        )
        latest: dict[str, Any] = {}
        outputs: dict[str, Any] = {}
        if experiments:
            latest_row = max(experiments, key=lambda row: row["experiment_id"])
            latest = self._merged_experiment(latest_row["experiment_id"]) or {}
            for sample in self._output_samples(latest_row["experiment_id"]):
                outputs.update(sample)
        if source_def.is_subworkflow:
            instances = experiments
            completed = len(experiments)
            aborted = 0
        else:
            instances = self._current_instances(source_row["wftask_id"])
            completed = sum(
                1
                for row in instances
                if row["wf_state"] == InstanceState.COMPLETED.value
            )
            aborted = sum(
                1
                for row in instances
                if row["wf_state"] == InstanceState.ABORTED.value
            )
        return {
            "experiment": latest,
            "output": outputs,
            "task": {
                "completed_instances": completed,
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
    # Workflow status
    # ------------------------------------------------------------------

    def _update_workflow_status(
        self, workflow_id: int, pattern: WorkflowPattern
    ) -> None:
        workflow = self.db.get("Workflow", workflow_id)
        if workflow is None or workflow["status"] != "running":
            return
        final_names = pattern.final_tasks()
        task_rows = {
            self._task_name(row): row for row in self._task_rows(workflow_id)
        }
        final_states = [task_rows[name]["state"] for name in final_names]
        decided = all(
            state
            in (
                TaskState.COMPLETED.value,
                TaskState.ABORTED.value,
                TaskState.UNREACHABLE.value,
            )
            for state in final_states
        )
        if not decided:
            return
        if any(state == TaskState.COMPLETED.value for state in final_states):
            new_status = "completed"
        else:
            new_status = "aborted"
        self.db.update(
            "Workflow", EQ("workflow_id", workflow_id), {"status": new_status}
        )
        self.events.emit(
            "workflow.finished", workflow_id=workflow_id, status=new_status
        )
        workflow = self.db.get("Workflow", workflow_id)
        self._notify_parent(workflow)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _pattern(self, pattern_id: int) -> WorkflowPattern:
        pattern = self.specs.pattern_by_id(pattern_id)
        if pattern is None:
            raise SpecificationError(f"no pattern with id {pattern_id}")
        return pattern

    def _task_rows(self, workflow_id: int) -> list[dict[str, Any]]:
        return self.db.select(
            "WFTask", EQ("workflow_id", workflow_id), order_by="wftask_id"
        )

    def _wfp_task(self, wfp_task_id: int) -> dict[str, Any]:
        row = self.specs.wfp_task(wfp_task_id)
        if row is None:
            raise SpecificationError(f"no WFPTask with id {wfp_task_id}")
        return row

    def _task_name(self, task_row: dict[str, Any]) -> str:
        return self._wfp_task(task_row["wfp_task_id"])["name"]

    def _resolve_task(
        self, workflow_id: int, task_name: str
    ) -> tuple[dict[str, Any], dict[str, Any], TaskDef]:
        workflow = self.db.get("Workflow", workflow_id)
        if workflow is None:
            raise InstanceError(f"no workflow with id {workflow_id}")
        pattern = self._pattern(workflow["pattern_id"])
        taskdef = pattern.task(task_name)
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

    def _count_instances(self, wftask_id: int, state: str) -> int:
        return sum(
            1
            for row in self._current_instances(wftask_id)
            if row["wf_state"] == state
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

    def _apply_task_event(
        self, task_row: dict[str, Any], event: Event
    ) -> dict[str, Any]:
        machine = task_machine(task_row["state"])
        new_state = machine.apply(event)
        self.db.update(
            "WFTask",
            EQ("wftask_id", task_row["wftask_id"]),
            {"state": new_state.value if hasattr(new_state, "value") else new_state},
        )
        self.events.emit(
            "task.state",
            workflow_id=task_row["workflow_id"],
            wftask_id=task_row["wftask_id"],
            task=self._task_name(task_row),
            event=str(event.value),
            state=str(
                new_state.value if hasattr(new_state, "value") else new_state
            ),
        )
        return self.db.get("WFTask", task_row["wftask_id"])

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

    def _sample_type_table(self, sample_type: str) -> str | None:
        return self.specs.sample_type_table(sample_type)

    def _merged_experiment(self, experiment_id: int) -> dict[str, Any] | None:
        experiment = self.db.get("Experiment", experiment_id)
        if experiment is None:
            return None
        type_table = self._type_table(experiment["type_name"])
        if type_table is None:
            return experiment
        child = self.db.get(type_table, experiment_id)
        if child is None:
            return experiment
        merged = dict(experiment)
        merged.update(child)
        return merged

    def _merged_sample(self, sample_id: int) -> dict[str, Any] | None:
        sample = self.db.get("Sample", sample_id)
        if sample is None:
            return None
        type_table = self._sample_type_table(sample["type_name"])
        if type_table is None:
            return sample
        child = self.db.get(type_table, sample_id)
        if child is None:
            return sample
        merged = dict(sample)
        merged.update(child)
        return merged
