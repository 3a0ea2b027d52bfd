"""The AgentManager (§5.2): the bridge between engine and agents.

Responsibilities, verbatim from the paper: "(1) choosing an appropriate
agent for a task, (2) extracting the relevant input information from the
database, (3) sending messages to the agent (e.g., containing task input
data or abort notifications), (4) handling messages coming from the
agents (e.g., containing output data or notifications as that the agent
has started a given task instance), and (5) extracting output
information and sending it to the WorkflowBean for insertion into the
database."

The manager implements the engine's :class:`~repro.core.dispatch.Dispatcher`
protocol on the outbound side, and :meth:`pump` on the inbound side —
consuming the persistent ``workflow.manager`` queue and applying agent
messages through the WorkflowBean.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.agents.protocol import parse_result_xml
from repro.core.dispatch import (
    ENGINE_QUEUE,
    KIND_ABORT,
    KIND_AUTH_REQUEST,
    KIND_AUTH_RESPONSE,
    KIND_DISPATCH,
    KIND_RESULT,
    KIND_STARTED,
)
from repro.core.persistence import agents_for_type
from repro.core.states import InstanceState
from repro.errors import (
    AgentFormatError,
    DispatchError,
    FaultInjected,
    MessagingError,
    ReproError,
)
from repro.messaging.broker import MessageBroker
from repro.messaging.client import Connection, Producer
from repro.minidb.engine import Database
from repro.minidb.predicates import EQ
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import Clock, SystemClock
from repro.resilience.faults import FaultPlan, fire
from repro.resilience.leases import Lease, LeaseTable
from repro.xmlbridge import RelationalDocument

if TYPE_CHECKING:  # pragma: no cover
    from repro.agents.mailbox import EmailTransport
    from repro.core.engine import WorkflowBean


class AgentManager:
    """Outbound dispatcher + inbound message pump."""

    def __init__(
        self,
        db: Database,
        broker: MessageBroker,
        email: "EmailTransport | None" = None,
        clock: Clock | None = None,
        lease_ttl_s: float = 300.0,
        max_redispatches: int = 1,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 30.0,
    ) -> None:
        self.db = db
        self.broker = broker
        self.email = email
        self.engine: "WorkflowBean | None" = None
        #: Observability hub (set by ``repro.obs.install_observability``).
        #: When present, outbound messages carry the active trace
        #: context and inbound application is timed under a span.
        self.obs = None
        self.clock: Clock = clock or SystemClock()
        #: Liveness contracts for dispatched instances (see
        #: :mod:`repro.resilience.leases`); swept by :meth:`sweep_leases`.
        self.leases = LeaseTable(
            clock=self.clock, ttl_s=lease_ttl_s, max_redispatches=max_redispatches
        )
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Optional fault-injection plan (point ``manager.ack``).
        self.faults: FaultPlan | None = None
        self._connection = Connection(broker)
        self._consumer = self._connection.create_consumer(ENGINE_QUEUE)
        self._producers: dict[str, Producer] = {}
        self._round_robin: dict[str, int] = {}
        self.dispatch_count = 0
        self.result_count = 0
        self.messages_rejected = 0
        self.dispatch_failures = 0
        self.breaker_short_circuits = 0
        self.redispatches = 0
        self.lease_aborts = 0
        #: Wall-clock time of the last :meth:`pump` call (health probe).
        self.last_pump: float | None = None

    def attach_engine(self, engine: "WorkflowBean") -> None:
        """Wire the engine (done once at application assembly)."""
        self.engine = engine

    # ------------------------------------------------------------------
    # Dispatcher protocol (engine → agents)
    # ------------------------------------------------------------------

    def choose_agent(self, experiment_type: str | None) -> dict | None:
        """Round-robin among the agents authorized for the type."""
        if experiment_type is None:
            return None
        agents = agents_for_type(self.db, experiment_type)
        if not agents:
            return None
        index = self._round_robin.get(experiment_type, 0)
        self._round_robin[experiment_type] = (index + 1) % len(agents)
        return agents[index % len(agents)]

    def dispatch_instance(
        self,
        agent: dict,
        workflow: dict[str, Any],
        task_name: str,
        experiment: dict[str, Any],
        available_inputs: list[dict[str, Any]],
    ) -> None:
        """Extract the task input as XML and send it to the agent.

        The send runs behind the queue's circuit breaker, and every
        dispatch — even one the breaker or a fault swallowed — grants a
        liveness lease, so :meth:`sweep_leases` eventually retries or
        aborts the instance instead of letting it hang.  Dispatch
        failures therefore never propagate into the engine's workflow
        evaluation.
        """
        queue = agent["queue"]
        breaker = self._breaker_for(queue)
        if not breaker.allow():
            self.breaker_short_circuits += 1
            self._dispatch_event(
                "dispatch.skipped", agent, workflow, task_name, experiment,
                reason=f"circuit breaker for {queue!r} is {breaker.state}",
            )
            self._grant_lease(agent, workflow, task_name, experiment)
            return
        document = self.build_task_input(
            workflow, task_name, experiment, available_inputs
        )
        try:
            fire(
                self.faults,
                "agent.dispatch",
                queue=queue,
                agent=agent["name"],
                task=task_name,
            )
            self._producer_for(queue).send(
                document.to_xml(),
                headers=self._trace_headers(
                    {
                        "kind": KIND_DISPATCH,
                        "experiment_id": experiment["experiment_id"],
                        "workflow_id": workflow["workflow_id"],
                        "task": task_name,
                        "experiment_type": experiment["type_name"],
                        "agent": agent["name"],
                    }
                ),
            )
        except (FaultInjected, MessagingError) as error:
            breaker.record_failure()
            self.dispatch_failures += 1
            self._dispatch_event(
                "dispatch.failed", agent, workflow, task_name, experiment,
                reason=str(error),
            )
            self._grant_lease(agent, workflow, task_name, experiment)
            return
        breaker.record_success()
        self.dispatch_count += 1
        if self.engine is not None:
            self.engine.events.emit(
                "agent.dispatch",
                actor=agent["name"],
                workflow_id=workflow["workflow_id"],
                experiment_id=experiment["experiment_id"],
                task=task_name,
                queue=agent["queue"],
                experiment_type=experiment["type_name"],
            )
        self._grant_lease(agent, workflow, task_name, experiment)

    def _grant_lease(
        self,
        agent: dict,
        workflow: dict[str, Any],
        task_name: str,
        experiment: dict[str, Any],
    ) -> Lease:
        return self.leases.grant(
            experiment["experiment_id"],
            workflow_id=workflow["workflow_id"],
            task=task_name,
            agent=agent["name"],
            queue=agent["queue"],
        )

    def _dispatch_event(
        self,
        name: str,
        agent: dict,
        workflow: dict[str, Any],
        task_name: str,
        experiment: dict[str, Any],
        reason: str,
    ) -> None:
        if self.engine is not None:
            self.engine.events.emit(
                name,
                agent=agent["name"],
                queue=agent["queue"],
                workflow_id=workflow["workflow_id"],
                experiment_id=experiment["experiment_id"],
                task=task_name,
                reason=reason,
            )

    def _breaker_for(self, queue: str) -> CircuitBreaker:
        breaker = self._breakers.get(queue)
        if breaker is None:
            breaker = CircuitBreaker(
                name=f"dispatch.{queue}",
                failure_threshold=self.breaker_threshold,
                reset_timeout_s=self.breaker_reset_s,
                clock=self.clock,
            )
            self._breakers[queue] = breaker
        return breaker

    def breaker_snapshots(self) -> dict[str, dict[str, Any]]:
        """Per-queue breaker state for health reports and gauges."""
        return {
            queue: breaker.snapshot()
            for queue, breaker in sorted(self._breakers.items())
        }

    def build_task_input(
        self,
        workflow: dict[str, Any],
        task_name: str,
        experiment: dict[str, Any],
        available_inputs: list[dict[str, Any]],
    ) -> RelationalDocument:
        """The generic XML task-input document (the NeT/CoT step).

        Contains the (merged) experiment record and every candidate
        input sample, grouped under its most specific type table so the
        reverse mapping stays lossless.  Type tables come from the
        engine's spec cache; the only database read is the experiment's
        child row.
        """
        assert self.engine is not None
        specs = self.engine.specs
        document = RelationalDocument(
            "task-input",
            kind="dispatch",
            experiment_id=str(experiment["experiment_id"]),
            workflow_id=str(workflow["workflow_id"]),
            task=task_name,
        )
        type_name = experiment["type_name"]
        experiment_table = type_name and specs.type_table(type_name)
        merged = dict(experiment)
        if experiment_table:
            merged.update(
                self.db.get(experiment_table, experiment["experiment_id"]) or {}
            )
        document.add_table_from_db(
            self.db, experiment_table or "Experiment", [merged]
        )
        samples_by_table: dict[str, list[dict[str, Any]]] = {}
        for sample in available_inputs:
            table = specs.sample_type_table(sample["type_name"]) or "Sample"
            samples_by_table.setdefault(table, []).append(sample)
        for table, samples in samples_by_table.items():
            document.add_table_from_db(self.db, table, samples)
        return document

    def send_abort(self, agent: dict, experiment_id: int) -> None:
        self._producer_for(agent["queue"]).send(
            "",
            headers=self._trace_headers(
                {"kind": KIND_ABORT, "experiment_id": experiment_id}
            ),
        )

    def notify_authorization(
        self,
        agent: dict | None,
        auth_id: int,
        workflow: dict[str, Any],
        task_name: str,
        kind: str,
    ) -> None:
        """Route an authorization request to a human agent.

        With no suitable agent the request simply waits in the database
        for a decision through the web interface.
        """
        if agent is None:
            return
        self._producer_for(agent["queue"]).send(
            "",
            headers=self._trace_headers(
                {
                    "kind": KIND_AUTH_REQUEST,
                    "auth_id": auth_id,
                    "workflow_id": workflow["workflow_id"],
                    "task": task_name,
                    "authorization_kind": kind,
                }
            ),
        )
        if self.email is not None and agent.get("contact"):
            self.email.send(
                agent["contact"],
                subject=f"[Exp-WF] authorization needed: task {task_name!r}",
                body=(
                    f"Workflow {workflow['workflow_id']} requests {kind} "
                    f"authorization for task {task_name!r} "
                    f"(request #{auth_id})."
                ),
            )

    # ------------------------------------------------------------------
    # Inbound pump (agents → engine)
    # ------------------------------------------------------------------

    def pump(self, limit: int = 1000) -> int:
        """Apply queued agent messages through the engine.

        Returns the number of messages processed.  Malformed messages
        are *rejected*, not acknowledged: the broker redelivers them
        with backoff and, once the queue's delivery cap is hit,
        quarantines them in the dead-letter queue — a poison message can
        neither wedge the queue nor silently vanish.
        """
        if self.engine is None:
            raise DispatchError("AgentManager has no engine attached")
        self.last_pump = time.time()
        processed = 0
        while processed < limit:
            message = self._consumer.receive(timeout=0.0)
            if message is None:
                break
            try:
                self._apply_traced(message)
            except FaultInjected:
                # An injected crash is a simulated process death, not a
                # poison message — let it take the pump down.
                raise
            except (ReproError, KeyError, ValueError) as error:
                # Any library-level failure while applying a message —
                # bad XML, workflow-state conflicts, schema mismatches in
                # reported values — rejects that one message; the pump
                # itself must never die on poison input.
                self.messages_rejected += 1
                self.engine.events.emit(
                    "message.rejected",
                    message_kind=message.headers.get("kind"),
                    message_id=message.message_id,
                    delivery_count=message.delivery_count,
                    error=str(error),
                )
                will_retry = self._consumer.reject(message, reason=str(error))
                if not will_retry:
                    self.engine.events.emit(
                        "message.dead_letter",
                        actor=None,
                        message_kind=message.headers.get("kind"),
                        message_id=message.message_id,
                        delivery_count=message.delivery_count,
                        reason=str(error),
                    )
                processed += 1
                continue
            # Simulated manager death between applying a message and
            # acknowledging it: the broker redelivers on restart, which
            # is exactly the at-least-once duplicate the engine's stale
            # checks have to absorb.
            fire(self.faults, "manager.ack", kind=message.headers.get("kind"))
            self._consumer.ack(message)
            processed += 1
        return processed

    # ------------------------------------------------------------------
    # Lease sweep (liveness)
    # ------------------------------------------------------------------

    def sweep_leases(self, now: float | None = None) -> dict[str, int]:
        """Expire overdue leases; redispatch within budget, else abort.

        An expired lease on an instance that is no longer live (decided
        by a late result, restart, or cancellation) is just stale
        bookkeeping and is released quietly.  A live instance whose
        agent went silent is re-dispatched — round-robin naturally
        routes around the dead agent — until the redispatch budget is
        spent, after which the instance is aborted through the Fig. 4
        machine so the workflow fails cleanly instead of hanging.
        """
        if self.engine is None:
            raise DispatchError("AgentManager has no engine attached")
        counts = {"redispatched": 0, "aborted": 0, "released": 0}
        for lease in self.leases.expired(now):
            experiment = self.db.get("Experiment", lease.experiment_id)
            live = (
                experiment is not None
                and experiment.get("wf_current")
                and experiment.get("wf_state")
                in (InstanceState.DELEGATED.value, InstanceState.ACTIVE.value)
            )
            if not live:
                self.leases.release(lease.experiment_id)
                counts["released"] += 1
                continue
            self.leases.expiries += 1
            self.engine.events.emit(
                "lease.expired",
                actor=lease.agent,
                workflow_id=lease.workflow_id,
                experiment_id=lease.experiment_id,
                task=lease.task,
                redispatches=lease.redispatches,
            )
            redispatched = (
                lease.redispatches < self.leases.max_redispatches
                and self._redispatch_expired(lease, experiment)
            )
            if redispatched:
                counts["redispatched"] += 1
            else:
                self.leases.release(lease.experiment_id)
                self.engine.abort_instance(lease.experiment_id)
                self.lease_aborts += 1
                self.engine.events.emit(
                    "lease.abort",
                    experiment_id=lease.experiment_id,
                    workflow_id=lease.workflow_id,
                    task=lease.task,
                    agent=lease.agent,
                    redispatches=lease.redispatches,
                )
                counts["aborted"] += 1
        return counts

    def _redispatch_expired(
        self, lease: Lease, experiment: dict[str, Any]
    ) -> bool:
        """Hand an expired instance to a (possibly different) agent."""
        assert self.engine is not None
        workflow = self.db.get("Workflow", experiment["workflow_id"])
        task_name = lease.task
        if workflow is None or task_name is None:
            return False
        agent = self.choose_agent(experiment["type_name"])
        if agent is None:
            return False
        self.leases.note_redispatch(lease.experiment_id)
        self.redispatches += 1
        if agent["agent_id"] != experiment["agent_id"]:
            self.db.update(
                "Experiment",
                EQ("experiment_id", experiment["experiment_id"]),
                {"agent_id": agent["agent_id"]},
            )
            experiment = self.db.get("Experiment", experiment["experiment_id"])
        self.engine.events.emit(
            "lease.redispatch",
            experiment_id=experiment["experiment_id"],
            workflow_id=workflow["workflow_id"],
            task=task_name,
            agent=agent["name"],
            previous_agent=lease.agent,
        )
        inputs = self.engine.collect_available_inputs(
            workflow["workflow_id"], task_name
        )
        self.dispatch_instance(agent, workflow, task_name, experiment, inputs)
        return True

    def _apply_traced(self, message) -> None:
        """Apply one message, under a span joined to its origin trace."""
        if self.obs is None:
            self._apply(message)
            return
        kind = message.headers.get("kind")
        trace_id, parent_id = self.obs.tracer.extract(message.headers)
        with self.obs.tracer.span(
            "engine.apply_message",
            trace_id=trace_id,
            parent_id=parent_id,
            kind=kind,
        ) as span:
            self._apply(message)
        self.obs.registry.histogram(
            "engine_apply_ms",
            help="Engine time applying one inbound agent message",
            kind=str(kind),
        ).observe(span.duration_ms or 0.0)

    def _apply(self, message) -> None:
        """Apply one message as one engine call.

        Its ``agent.ack`` audit row commits in the call's last
        transaction — after any ``agent.dispatch`` rows of the sends the
        call queued — instead of as a commit of its own.
        """
        assert self.engine is not None
        kind = message.headers.get("kind")
        if kind == KIND_RESULT:
            result = parse_result_xml(message.body)
        with self.engine.call() as unit:
            if kind == KIND_STARTED:
                experiment_id = int(message.headers["experiment_id"])
                self.engine.instance_started(experiment_id)
                self.leases.renew(experiment_id)
            elif kind == KIND_RESULT:
                self.engine.complete_instance(
                    result.experiment_id,
                    success=result.success,
                    outputs=result.outputs,
                    chosen_input_ids=result.chosen_input_ids,
                    result_values=result.result_values or None,
                )
                self.leases.release(result.experiment_id)
                self.result_count += 1
            elif kind == KIND_AUTH_RESPONSE:
                self.engine.respond_authorization(
                    int(message.headers["auth_id"]),
                    message.headers.get("approve") in (True, "true", "True"),
                    decided_by=message.headers.get("agent", ""),
                )
            else:
                raise AgentFormatError(f"unknown inbound message kind {kind!r}")
            # Under the caller's span, so the ack row carries the
            # message's trace.
            unit.on_last_commit(
                lambda: self.engine.events.emit(
                    "agent.ack",
                    actor=str(message.headers.get("agent", "")) or None,
                    experiment_id=self._maybe_int(
                        message.headers.get("experiment_id")
                    ),
                    workflow_id=self._maybe_int(message.headers.get("workflow_id")),
                    task=message.headers.get("task"),
                    message_kind=kind,
                    message_id=message.message_id,
                )
            )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _trace_headers(self, headers: dict[str, Any]) -> dict[str, Any]:
        """Stamp the active trace context onto outbound headers."""
        if self.obs is not None:
            self.obs.tracer.inject(headers)
        return headers

    @staticmethod
    def _maybe_int(value: Any) -> int | None:
        try:
            return None if value is None else int(value)
        except (TypeError, ValueError):
            return None

    def _producer_for(self, queue: str) -> Producer:
        producer = self._producers.get(queue)
        if producer is None:
            producer = self._connection.create_producer(queue)
            self._producers[queue] = producer
        return producer

    def close(self) -> None:
        """Disconnect from the broker."""
        self._connection.close()
