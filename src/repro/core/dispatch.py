"""The engine↔agent dispatch boundary and message protocol.

The WorkflowBean never talks to the message broker directly; it calls a
:class:`Dispatcher`.  The production implementation is
``repro.agents.manager.AgentManager`` (persistent messaging + XML), but
the indirection lets the engine run — and be tested — without any
messaging infrastructure via :class:`NullDispatcher`.

Message protocol (header ``kind`` on every message):

================  =============  ==========================================
kind              direction      body / headers
================  =============  ==========================================
task.dispatch     engine→agent   XML task-input document; headers carry
                                 experiment id, workflow id, task name,
                                 experiment type
task.abort        engine→agent   headers carry experiment id
auth.request      engine→agent   headers carry auth id, workflow id, task
task.started      agent→engine   headers carry experiment id
task.result       agent→engine   XML result document (outputs, chosen
                                 inputs, result values); headers carry
                                 experiment id and success flag
auth.response     agent→engine   headers carry auth id, approve flag
================  =============  ==========================================

The engine's inbound queue is :data:`ENGINE_QUEUE`.

Ordering: the engine calls :meth:`Dispatcher.choose_agent` while an
engine call runs, but queues every outbound message (``dispatch_instance``,
``send_abort``, ``notify_authorization``) and makes those calls only once
the engine call's transaction is durable — in call order, inside one
further transaction that holds the audit rows the dispatcher's events
write.  A message therefore never names a row that recovery could lose,
and a call that raises sends nothing.
"""

from __future__ import annotations

from typing import Any, Protocol

#: Queue the workflow manager consumes.
ENGINE_QUEUE = "workflow.manager"

#: Message kinds (header values).
KIND_DISPATCH = "task.dispatch"
KIND_ABORT = "task.abort"
KIND_AUTH_REQUEST = "auth.request"
KIND_STARTED = "task.started"
KIND_RESULT = "task.result"
KIND_AUTH_RESPONSE = "auth.response"


class Dispatcher(Protocol):
    """What the engine needs from the agent layer."""

    def choose_agent(self, experiment_type: str) -> dict | None:
        """Pick an agent row authorized for ``experiment_type`` or None."""

    def dispatch_instance(
        self,
        agent: dict,
        workflow: dict[str, Any],
        task_name: str,
        experiment: dict[str, Any],
        available_inputs: list[dict[str, Any]],
    ) -> None:
        """Send a task instance to ``agent`` with its candidate inputs."""

    def send_abort(self, agent: dict, experiment_id: int) -> None:
        """Tell an agent to stop working on an instance."""

    def notify_authorization(
        self,
        agent: dict | None,
        auth_id: int,
        workflow: dict[str, Any],
        task_name: str,
        kind: str,
    ) -> None:
        """Ask an (human) agent to authorize a task start."""


class NullDispatcher:
    """A dispatcher that records calls but sends nothing.

    Used by engine-level tests and by installations where every task is
    performed by humans through the web interface (the paper's
    pre-automation deployment mode).
    """

    def __init__(self) -> None:
        self.dispatched: list[dict[str, Any]] = []
        self.aborts: list[int] = []
        self.authorization_requests: list[dict[str, Any]] = []

    def choose_agent(self, experiment_type: str) -> dict | None:
        return None

    def dispatch_instance(
        self,
        agent: dict,
        workflow: dict[str, Any],
        task_name: str,
        experiment: dict[str, Any],
        available_inputs: list[dict[str, Any]],
    ) -> None:  # pragma: no cover - never reached with choose_agent=None
        self.dispatched.append(
            {
                "agent": agent,
                "workflow_id": workflow["workflow_id"],
                "task": task_name,
                "experiment_id": experiment["experiment_id"],
                "inputs": available_inputs,
            }
        )

    def send_abort(self, agent: dict, experiment_id: int) -> None:
        self.aborts.append(experiment_id)

    def notify_authorization(
        self,
        agent: dict | None,
        auth_id: int,
        workflow: dict[str, Any],
        task_name: str,
        kind: str,
    ) -> None:
        self.authorization_requests.append(
            {
                "agent": agent,
                "auth_id": auth_id,
                "workflow_id": workflow["workflow_id"],
                "task": task_name,
                "kind": kind,
            }
        )
