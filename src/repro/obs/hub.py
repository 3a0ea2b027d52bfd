"""The ObservabilityHub: one object that sees every tier.

The hub owns a :class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and (when an engine is
wired) an :class:`~repro.obs.audit.AuditStore`, and knows how to feed
them from the instrumentation the system already has:

* the engine's :class:`~repro.core.events.EventLog` — the one event
  path.  Subscribed, every event becomes one ``WFAudit`` row, an
  ``engine_events_total{kind=...}`` increment *and* a zero-duration
  span under the active request span.  Components holding only the hub
  emit on ``hub.events``, the same log;
* ``DatabaseStats`` / ``BrokerStats`` / ``ContainerStats`` /
  ``FilterStats`` — mirrored into the registry by pull-time collectors;
* the broker — an observer hook times every send→delivery interval and
  records it both as a ``broker_delivery_wait_ms`` histogram and as a
  ``broker.deliver`` span stitched into the originating trace via the
  message's propagated headers;
* liveness data — every ``watch_*`` call also registers a health
  provider, aggregated by :meth:`ObservabilityHub.health_report` and
  served at ``GET /workflow/health``.

``install_observability`` attaches a hub to a running system (any
subset of tiers) and registers the ``/workflow/metrics``,
``/workflow/audit`` and ``/workflow/health`` servlets.  Installation is
idempotent per hub: watching the same object twice never double-wraps a
hook, double-subscribes the event stream or duplicates a collector, and
re-installing on an ``expdb`` that already carries a hub reuses that
hub instead of stacking a second one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceExporter, Tracer
from repro.resilience.clock import Clock, SystemClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WorkflowBean
    from repro.core.events import EventLog
    from repro.messaging.broker import MessageBroker
    from repro.obs.audit import AuditStore
    from repro.obs.prof.profiler import Profiler
    from repro.obs.watch import Watcher
    from repro.weblims.app import ExpDB


class _BrokerObserver:
    """Times send→delivery and stitches deliveries into traces.

    Installed as ``MessageBroker.observer``; called under the broker
    lock, so it must never call back into the broker.
    """

    def __init__(self, hub: "ObservabilityHub") -> None:
        self.hub = hub

    def on_send(self, message, persistent: bool) -> None:
        message.sent_at = self.hub.clock.monotonic()

    def on_deliver(self, message) -> None:
        sent_at, message.sent_at = message.sent_at, None
        if sent_at is None:
            # Journal-recovered and redelivered messages have no send
            # timestamp; count them so attribution reports can state how
            # many deliveries went unmeasured instead of undercounting.
            reason = (
                "redelivered" if message.delivery_count > 1 else "recovered"
            )
            self.hub.registry.counter(
                "broker_deliveries_untimed",
                help="Deliveries with no send timestamp, by reason",
                reason=reason,
            ).inc()
            return
        wait_ms = (self.hub.clock.monotonic() - sent_at) * 1000.0
        registry = self.hub.registry
        trace_id, parent_id = self.hub.tracer.extract(message.headers)
        registry.histogram(
            "broker_delivery_wait_ms",
            help="Time between send and delivery per queue",
            queue=message.queue,
        ).observe(
            wait_ms,
            trace_id=trace_id if self.hub.profiler is not None else None,
        )
        if trace_id is not None:
            self.hub.tracer.record(
                "broker.deliver",
                trace_id=trace_id,
                parent_id=parent_id,
                duration_ms=wait_ms,
                # Backdate to the send instant so the span sits where the
                # queue wait actually happened on the trace timeline.
                start_time=self.hub.clock.now() - wait_ms / 1000.0,
                queue=message.queue,
                message_id=message.message_id,
                kind=message.headers.get("kind"),
            )

    def on_receive_wait(self, queue: str, waited_ms: float) -> None:
        """Time a consumer spent blocked on its queue before a delivery.

        Distinct from ``broker_delivery_wait_ms`` (send→deliver, the
        message's view): this is the *consumer's* view — how long the
        receive call sat on its queue condition, the quantity the
        per-queue locking work is meant to shrink.
        """
        self.hub.registry.histogram(
            "broker_receive_wait_ms",
            help="Time a blocking receive waited before delivery",
            queue=queue,
        ).observe(waited_ms)


class ObservabilityHub:
    """Tracer + registry + audit + exporter, with wiring helpers."""

    def __init__(self, clock: Clock | None = None) -> None:
        #: Injectable time source shared with the hub's tracer.
        self.clock: Clock = clock or SystemClock()
        self.tracer = Tracer(clock=self.clock)
        self.registry = MetricsRegistry()
        self.exporter = TraceExporter(self.tracer)
        self.broker_observer = _BrokerObserver(self)
        #: Durable provenance store (set by :meth:`install_audit`).
        self.audit: "AuditStore | None" = None
        #: The wired engine's event log (set by :meth:`install_audit` /
        #: :meth:`watch_engine`); components holding only the hub emit
        #: here.  ``None`` until an engine is wired: nothing is recorded.
        self.events: "EventLog | None" = None
        #: Attribution/contention profiler, attached by
        #: :func:`repro.obs.prof.install_profiling`; ``None`` (the
        #: default) keeps every profiling hook dormant.
        self.profiler: "Profiler | None" = None
        #: Flight-recorder/alerting layer, attached by
        #: :func:`repro.obs.watch.install_watch`; ``None`` (the
        #: default) keeps the watch layer dormant.
        self.watcher: "Watcher | None" = None
        #: Guards against double-wiring the same object into this hub.
        self._watched: set[tuple[str, int]] = set()
        #: Health providers by component name, registered by ``watch_*``.
        self._health: dict[str, Callable[[], dict[str, Any]]] = {}
        #: Cheaper status-only providers, where a component's full
        #: health reads files (see :meth:`register_health`).
        self._status: dict[str, Callable[[], dict[str, Any]]] = {}
        #: (agent, broker) pairs feeding the per-agent health component.
        self._agents: list[tuple[Any, Any]] = []
        self.registry.add_collector(self._collect_self)

    def span(self, name: str, **attributes: Any):
        """Shorthand for ``hub.tracer.span``."""
        return self.tracer.span(name, **attributes)

    def _once(self, role: str, target: Any) -> bool:
        """Whether ``target`` still needs wiring for ``role`` on this hub."""
        key = (role, id(target))
        if key in self._watched:
            return False
        self._watched.add(key)
        return True

    # ------------------------------------------------------------------
    # Event stream bridge
    # ------------------------------------------------------------------

    def on_event(self, event) -> None:
        """EventLog subscriber: count the event and pin it to the trace.

        Never raises — a metrics problem must not take the engine down.
        """
        try:
            self.registry.counter(
                "engine_events_total",
                help="Engine events by kind",
                kind=event.kind,
            ).inc()
            scalars = {
                key: value
                for key, value in event.payload.items()
                if isinstance(value, (str, int, float, bool, type(None)))
            }
            self.tracer.annotate(
                f"event.{event.kind}", sequence=event.sequence, **scalars
            )
        except Exception:  # noqa: BLE001 - observability is best-effort
            pass

    # ------------------------------------------------------------------
    # Audit plumbing
    # ------------------------------------------------------------------

    def _collect_self(self) -> None:
        """Mirror the tracer's ring-buffer drop counter."""
        self.registry.counter(
            "trace_spans_dropped_total",
            help="Finished spans evicted from the tracer ring",
        ).set(self.tracer.dropped)

    def install_audit(self, engine: "WorkflowBean") -> "AuditStore":
        """Create (or reuse) the durable audit store over ``engine.db``
        and subscribe it to the engine's event stream."""
        from repro.obs.audit import AuditStore, install_audit_schema

        if self.audit is None or self.audit.db is not engine.db:
            install_audit_schema(engine.db)
            self.audit = AuditStore(
                engine.db, tracer=self.tracer, clock=self.clock
            )
        self.events = engine.events
        if self._once("audit-events", engine):
            engine.events.subscribe(self.audit.on_event)
        return self.audit

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def register_health(
        self,
        component: str,
        provider: Callable[[], dict[str, Any]],
        status: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        """Register (or replace) a component's health provider.

        ``status``, when given, returns the same ``status``/``ready``
        verdict as ``provider`` without its costlier detail (the
        database's WAL and the broker's journal layout, which stat
        every log file); :func:`hub_readiness` reads it instead.
        """
        self._health[component] = provider
        if status is None:
            self._status.pop(component, None)
        else:
            self._status[component] = status

    def component_health(self, component: str) -> dict[str, Any] | None:
        """One component's health (``None`` if it was never watched).

        A provider that raises is reported as ``error`` rather than
        failing the caller.
        """
        return self._probe(self._health.get(component))

    def component_status(self, component: str) -> dict[str, Any] | None:
        """One component's verdict, from its status-only provider when
        it has one (``None`` if it was never watched)."""
        return self._probe(
            self._status.get(component) or self._health.get(component)
        )

    @staticmethod
    def _probe(
        provider: Callable[[], dict[str, Any]] | None,
    ) -> dict[str, Any] | None:
        if provider is None:
            return None
        try:
            return provider()
        except Exception as error:  # noqa: BLE001 - report, don't die
            return {"status": "error", "error": str(error)}

    def health_report(self) -> dict[str, Any]:
        """Aggregate every component's health into one readiness report.

        Overall status is ``ok`` only when every component reports
        ``ok``; a provider that raises is reported as ``error`` rather
        than failing the endpoint.
        """
        components: dict[str, Any] = {}
        overall = "ok"
        for name in self._health:
            info = self.component_health(name)
            if info.get("status", "ok") != "ok":
                overall = "degraded"
            components[name] = info
        return {
            "status": overall,
            "generated_at": self.clock.now(),
            "components": components,
        }

    def _agents_health(self) -> dict[str, Any]:
        agents: dict[str, Any] = {}
        status = "ok"
        now = self.clock.now()
        for agent, broker in self._agents:
            spec = agent.spec
            last_poll = getattr(agent, "last_poll", None)
            depth = None
            if broker is not None:
                try:
                    depth = broker.queue_depth(spec.queue)
                except Exception:  # noqa: BLE001 - queue may not exist yet
                    depth = None
            agent_status = "ok"
            if last_poll is None and depth:
                # Messages are waiting but the agent never polled.
                agent_status = "stale"
                status = "degraded"
            agents[spec.name] = {
                "status": agent_status,
                "kind": spec.kind,
                "queue": spec.queue,
                "queue_depth": depth,
                "last_poll_age_s": (
                    None if last_poll is None else now - last_poll
                ),
                "handled": agent.handled_count,
                "errors": len(agent.errors),
                "in_progress": len(agent.in_progress),
            }
        return {"status": status, "agents": agents}

    # ------------------------------------------------------------------
    # Collector wiring (pull-time mirrors of external counters)
    # ------------------------------------------------------------------

    def watch_database(self, db) -> None:
        """Mirror ``DatabaseStats`` (global and per-table) at scrape time."""
        if not self._once("database", db):
            return

        def collect() -> None:
            stats = db.stats
            self.registry.counter(
                "db_reads_total", help="Logical read statements"
            ).set(stats.reads)
            self.registry.counter(
                "db_writes_total", help="Logical write statements"
            ).set(stats.writes)
            self.registry.counter(
                "db_rows_scanned_total", help="Rows scanned"
            ).set(stats.rows_scanned)
            self.registry.counter(
                "db_index_lookups_total", help="Index lookups"
            ).set(stats.index_lookups)
            self.registry.counter(
                "db_full_scans_total",
                help="Statements served without any index",
            ).set(stats.full_scans)
            self.registry.counter(
                "db_plan_cache_hits_total", help="Plan-cache hits"
            ).set(stats.plan_cache_hits)
            self.registry.counter(
                "db_plan_cache_misses_total", help="Plan-cache misses"
            ).set(stats.plan_cache_misses)
            mvcc_info = getattr(db, "mvcc_info", None)
            if mvcc_info is not None:
                mvcc = mvcc_info()
                self.registry.counter(
                    "db_snapshot_reads_total",
                    help="Reads served from pinned MVCC snapshots",
                ).set(mvcc["snapshot_reads"])
                self.registry.counter(
                    "db_snapshot_versions_total",
                    help="Committed versions published",
                ).set(mvcc["versions_published"])
                self.registry.gauge(
                    "db_snapshot_versions",
                    help="Committed versions still reachable by a pin",
                ).set(mvcc["live_versions"])
                self.registry.gauge(
                    "db_snapshot_pins",
                    help="Currently pinned snapshot readers",
                ).set(mvcc["pinned_snapshots"])
                self.registry.gauge(
                    "db_snapshot_oldest_pin_age_s",
                    help="Age of the oldest pinned snapshot (0 when none)",
                ).set(mvcc["oldest_pin_age_s"] or 0.0)
                self.registry.gauge(
                    "db_mvcc_gc_pending",
                    help="Superseded images awaiting version GC",
                ).set(mvcc["gc_pending"])
                self.registry.counter(
                    "db_mvcc_gc_reclaims_total",
                    help="Superseded images reclaimed by version GC",
                ).set(mvcc["gc_reclaims"])
            wal = db.wal_info()
            if wal.get("enabled"):
                self.registry.counter(
                    "db_wal_fsyncs_total", help="WAL fsync barriers"
                ).set(wal["fsyncs"])
                self.registry.counter(
                    "db_checkpoint_total", help="Online checkpoints taken"
                ).set(wal.get("checkpoints", 0))
                self.registry.counter(
                    "db_wal_rotations_total", help="WAL segment rotations"
                ).set(wal.get("rotations", 0))
                self.registry.gauge(
                    "db_wal_segments", help="Live WAL segment files"
                ).set(wal.get("segments", 0))
                self.registry.gauge(
                    "db_wal_size_bytes", help="On-disk WAL size"
                ).set(wal.get("size_bytes", 0))
                self.registry.gauge(
                    "db_wal_records_since_checkpoint",
                    help="Tail records a crash would replay",
                ).set(wal.get("records_since_checkpoint", 0))
            for table, count in stats.per_table_reads.items():
                self.registry.counter(
                    "db_table_reads_total",
                    help="Read statements per table",
                    table=table,
                ).set(count)
            for table, count in stats.per_table_writes.items():
                self.registry.counter(
                    "db_table_writes_total",
                    help="Write statements per table",
                    table=table,
                ).set(count)

        self.registry.add_collector(collect)

        if getattr(db, "on_commit", None) is None:
            commit_histogram = self.registry.histogram(
                "db_commit_latency_ms",
                help="Commit durability latency (WAL append to fsync)",
            )

            def on_commit(elapsed_ms: float) -> None:
                current = self.tracer.current_span()
                trace_id = current.trace_id if current is not None else None
                profiled = self.profiler is not None
                commit_histogram.observe(
                    elapsed_ms, trace_id=trace_id if profiled else None
                )
                # Commit spans only exist under a profiler: on the bare
                # hub a hot loop of tiny commits must not flood the ring.
                if profiled and current is not None:
                    self.tracer.record(
                        "db.commit",
                        trace_id=current.trace_id,
                        parent_id=current.span_id,
                        duration_ms=elapsed_ms,
                        start_time=self.clock.now() - elapsed_ms / 1000.0,
                    )

            db.on_commit = on_commit

        if getattr(db, "on_checkpoint", None) is None:

            def on_checkpoint(info: dict[str, Any]) -> None:
                # Fires for every checkpoint — operator POST, CLI, and
                # the engine's automatic policy alike — so the audit
                # trail is the one complete record of compactions.
                if self.events is None:
                    return
                self.events.emit(
                    "db.checkpoint",
                    actor=None,
                    event=info.get("reason"),
                    records=info.get("records"),
                    watermark=info.get("watermark"),
                    elapsed_ms=info.get("elapsed_ms"),
                )

            db.on_checkpoint = on_checkpoint

        def status() -> dict[str, Any]:
            return {
                "status": "ok",
                "tables": len(db.tables()),
                "reads": db.stats.reads,
                "writes": db.stats.writes,
            }

        def health() -> dict[str, Any]:
            info = status()
            info["wal"] = db.wal_info()
            if getattr(db, "mvcc_info", None) is not None:
                info["mvcc"] = db.mvcc_info()
            return info

        self.register_health("database", health, status)

    def watch_container(self, container) -> None:
        """Mirror ``ContainerStats`` at scrape time."""
        if not self._once("container", container):
            return

        def collect() -> None:
            stats = container.stats
            self.registry.counter(
                "http_requests_handled_total", help="Requests handled"
            ).set(stats.requests)
            self.registry.counter(
                "http_filter_invocations_total", help="Filter invocations"
            ).set(stats.filter_invocations)
            self.registry.counter(
                "http_servlet_invocations_total", help="Servlet invocations"
            ).set(stats.servlet_invocations)
            self.registry.counter(
                "http_internal_forwards_total", help="Internal forwards"
            ).set(stats.internal_forwards)
            self.registry.counter(
                "http_errors_total", help="Requests answered with an error"
            ).set(stats.errors)

        self.registry.add_collector(collect)

        def health() -> dict[str, Any]:
            stats = container.stats
            return {
                "status": "ok",
                "requests": stats.requests,
                "errors": stats.errors,
                "servlets": len(container.descriptor.servlet_names()),
            }

        self.register_health("container", health)

    def watch_filter(self, workflow_filter) -> None:
        """Mirror ``FilterStats`` (the Fig. 7 mode counters)."""
        if not self._once("filter", workflow_filter):
            return

        def collect() -> None:
            stats = workflow_filter.stats
            for mode, count in (
                ("passed_through", stats.passed_through),
                ("preprocessed", stats.preprocessed),
                ("denied", stats.denied),
                ("processed", stats.processed),
                ("postprocessed", stats.postprocessed),
                ("degraded", stats.degraded),
            ):
                self.registry.counter(
                    "workflow_filter_requests_total",
                    help="WorkflowFilter requests per handling mode",
                    mode=mode,
                ).set(count)

        self.registry.add_collector(collect)

    def watch_engine(self, engine: "WorkflowBean") -> None:
        """Subscribe to the event stream and mirror the check counter."""
        self.events = engine.events
        if not self._once("engine", engine):
            return
        engine.events.subscribe(self.on_event)

        def collect() -> None:
            self.registry.counter(
                "engine_checks_total", help="check_workflow evaluations"
            ).set(engine.check_count)
            self.registry.counter(
                "engine_events_dropped_total",
                help="Events evicted from the EventLog ring buffer",
            ).set(engine.events.dropped)

        self.registry.add_collector(collect)

        def health() -> dict[str, Any]:
            info: dict[str, Any] = {
                "status": "ok",
                "checks": engine.check_count,
                "last_event_sequence": engine.events.last_sequence,
                "events_dropped": engine.events.dropped,
            }
            if self.audit is not None:
                info["audit_write_errors"] = self.audit.write_errors
            return info

        def history() -> dict[str, Any]:
            # Counts that grow with the lab's age: reported on
            # /workflow/health, never consulted by readiness.
            from repro.minidb.predicates import EQ

            info: dict[str, Any] = {"status": "ok"}
            if engine.db.has_table("Workflow"):
                info["running_workflows"] = engine.db.count(
                    "Workflow", EQ("status", "running")
                )
            if self.audit is not None:
                info["audit_records"] = self.audit.count()
            return info

        self.register_health("engine", health)
        self.register_health("history", history)

    def watch_broker(self, broker: "MessageBroker") -> None:
        """Install the delivery observer and mirror ``BrokerStats``."""
        broker.observer = self.broker_observer
        if not self._once("broker", broker):
            return

        def collect() -> None:
            stats = broker.stats
            self.registry.counter(
                "broker_sends_total", help="Messages sent"
            ).set(stats.sends)
            self.registry.counter(
                "broker_persistent_sends_total", help="Journalled sends"
            ).set(stats.persistent_sends)
            self.registry.counter(
                "broker_deliveries_total", help="Messages delivered"
            ).set(stats.deliveries)
            self.registry.counter(
                "broker_redeliveries_total", help="Redeliveries"
            ).set(stats.redeliveries)
            self.registry.counter(
                "broker_acks_total", help="Acknowledgements"
            ).set(stats.acks)
            self.registry.counter(
                "broker_rejections_total",
                help="Messages negatively acknowledged by consumers",
            ).set(stats.rejections)
            self.registry.counter(
                "broker_dead_lettered_total",
                help="Messages quarantined after exhausting their retries",
            ).set(stats.dead_lettered)
            self.registry.counter(
                "broker_dlq_requeued_total",
                help="Quarantined messages returned to their queue",
            ).set(stats.dlq_requeued)
            self.registry.gauge(
                "broker_dlq_depth",
                help="Messages currently in the dead-letter quarantine",
            ).set(broker.dlq_depth())
            for queue, count in stats.per_queue_sends.items():
                self.registry.counter(
                    "broker_queue_sends_total",
                    help="Sends per queue",
                    queue=queue,
                ).set(count)
            for queue in broker.queue_names():
                self.registry.gauge(
                    "broker_queue_depth",
                    help="Messages waiting per queue",
                    queue=queue,
                ).set(broker.queue_depth(queue))
                self.registry.counter(
                    "broker_queue_wakeups_total",
                    help="Notified wakeups of blocked receives per queue",
                    queue=queue,
                ).set(broker.queue_wakeups(queue))
            self.registry.gauge(
                "broker_in_flight", help="Delivered but unacked messages"
            ).set(broker.in_flight_count())
            journal = broker.journal_info()
            self.registry.gauge(
                "broker_journal_backlog",
                help="Journalled messages a replay would restore",
            ).set(journal["backlog"])
            self.registry.counter(
                "broker_journal_records_total",
                help="Records appended to the broker journal",
            ).set(journal.get("appended_records", 0))
            self.registry.counter(
                "broker_journal_fsyncs_total",
                help="fsync barriers issued by the broker journal",
            ).set(journal.get("fsyncs", 0))

        self.registry.add_collector(collect)

        def status() -> dict[str, Any]:
            dlq_depth = broker.dlq_depth()
            info: dict[str, Any] = {
                "status": "ok",
                "queues": {
                    name: broker.queue_depth(name)
                    for name in broker.queue_names()
                },
                "in_flight": broker.in_flight_count(),
                "dlq_depth": dlq_depth,
            }
            if dlq_depth:
                # Quarantined messages are an operator signal, not a
                # reason for the filter to refuse traffic: degrade the
                # component (health goes 503, like a burning SLO) but
                # keep readiness explicitly true.
                info["status"] = "degraded"
                info["ready"] = True
                info["reason"] = (
                    f"{dlq_depth} message(s) in the dead-letter queue"
                )
            return info

        def health() -> dict[str, Any]:
            info = status()
            info["journal"] = broker.journal_info()
            return info

        self.register_health("broker", health, status)

    def watch_manager(self, manager) -> None:
        """Engine-queue depth and pump liveness for the AgentManager."""
        if not self._once("manager", manager):
            return
        from repro.core.dispatch import ENGINE_QUEUE

        def engine_queue_depth() -> int | None:
            try:
                return manager.broker.queue_depth(ENGINE_QUEUE)
            except Exception:  # noqa: BLE001 - queue may not exist yet
                return None

        def collect() -> None:
            depth = engine_queue_depth()
            if depth is not None:
                self.registry.gauge(
                    "manager_engine_queue_depth",
                    help="Agent messages waiting for the manager's pump",
                ).set(depth)
            self.registry.counter(
                "manager_dispatches_total", help="Task inputs dispatched"
            ).set(manager.dispatch_count)
            self.registry.counter(
                "manager_results_total", help="Task results applied"
            ).set(manager.result_count)
            self.registry.counter(
                "messages_rejected_total",
                help="Inbound agent messages the pump rejected as poison",
            ).set(manager.messages_rejected)
            self.registry.counter(
                "manager_dispatch_failures_total",
                help="Dispatch sends that failed (broker/fault errors)",
            ).set(manager.dispatch_failures)
            self.registry.counter(
                "manager_breaker_short_circuits_total",
                help="Dispatches skipped because a circuit breaker was open",
            ).set(manager.breaker_short_circuits)
            self.registry.counter(
                "manager_redispatches_total",
                help="Instances re-dispatched after a lease expired",
            ).set(manager.redispatches)
            self.registry.counter(
                "manager_lease_aborts_total",
                help="Instances aborted after exhausting the lease budget",
            ).set(manager.lease_aborts)
            self.registry.counter(
                "manager_lease_expiries_total",
                help="Lease deadlines missed by silent agents",
            ).set(manager.leases.expiries)
            self.registry.gauge(
                "manager_active_leases",
                help="Dispatched instances holding a liveness lease",
            ).set(manager.leases.active_count())
            from repro.resilience.breaker import STATE_CODES

            for queue, snap in manager.breaker_snapshots().items():
                self.registry.gauge(
                    "manager_breaker_state",
                    help="Dispatch circuit-breaker state "
                    "(0=closed, 1=half-open, 2=open)",
                    queue=queue,
                ).set(STATE_CODES.get(snap["state"], 0))

        self.registry.add_collector(collect)

        def health() -> dict[str, Any]:
            last_pump = manager.last_pump
            lease_rows = manager.leases.snapshot()
            breakers = manager.breaker_snapshots()
            status = "ok"
            if any(snap["state"] == "open" for snap in breakers.values()):
                status = "degraded"
            return {
                "status": status,
                "dispatches": manager.dispatch_count,
                "results": manager.result_count,
                "messages_rejected": manager.messages_rejected,
                "engine_queue_depth": engine_queue_depth(),
                "last_pump_age_s": (
                    None if last_pump is None else self.clock.now() - last_pump
                ),
                "leases": {
                    "active": len(lease_rows),
                    "expired": sum(1 for row in lease_rows if row["expired"]),
                    "expiries_total": manager.leases.expiries,
                    "redispatches_total": manager.redispatches,
                    "aborts_total": manager.lease_aborts,
                    "rows": lease_rows,
                },
                "breakers": breakers,
            }

        self.register_health("manager", health)

    def watch_agent(self, agent, broker: "MessageBroker | None" = None) -> None:
        """Per-agent queue depth and last-poll-age gauges + health."""
        if not self._once("agent", agent):
            return
        self._agents.append((agent, broker))
        name = agent.spec.name

        def collect() -> None:
            if broker is not None:
                try:
                    self.registry.gauge(
                        "agent_queue_depth",
                        help="Messages waiting per agent queue",
                        agent=name,
                    ).set(broker.queue_depth(agent.spec.queue))
                except Exception:  # noqa: BLE001 - queue may not exist yet
                    pass
            last_poll = getattr(agent, "last_poll", None)
            if last_poll is not None:
                self.registry.gauge(
                    "agent_last_poll_age_seconds",
                    help="Seconds since the agent last polled its queue",
                    agent=name,
                ).set(self.clock.now() - last_poll)
            self.registry.counter(
                "agent_errors_total",
                help="Errors recorded by the agent",
                agent=name,
            ).set(len(agent.errors))

        self.registry.add_collector(collect)
        self.register_health("agents", self._agents_health)

    def watch_email(self, email) -> None:
        """Mailbox-depth gauges for the simulated email transport."""
        if not self._once("email", email):
            return

        def collect() -> None:
            self.registry.counter(
                "email_sent_total", help="Emails delivered"
            ).set(email.sent_count)
            for address, depth in email.depths().items():
                self.registry.gauge(
                    "agent_mailbox_depth",
                    help="Unread emails per recipient address",
                    address=address,
                ).set(depth)

        self.registry.add_collector(collect)

        def health() -> dict[str, Any]:
            return {
                "status": "ok",
                "sent": email.sent_count,
                "unread_total": email.unread_count(),
            }

        self.register_health("email", health)


#: Components whose health gates the WorkflowFilter's readiness.  None
#: of their providers does work that grows with the lab's history.
READINESS_COMPONENTS = ("database", "engine", "broker", "manager")


def hub_readiness(hub: ObservabilityHub) -> tuple[bool, str]:
    """Readiness verdict for the filter's graceful-degradation probe.

    Ready iff every *present* core component reports ``ok`` — a tier
    that was never watched does not count against readiness (a
    filter-only deployment has no broker to be unhealthy).  A component
    may degrade without losing readiness by reporting an explicit
    ``ready: True`` alongside its non-ok status (the broker does this
    for a populated DLQ): ``/workflow/health`` still answers 503, but
    the filter keeps serving.  Only the ``READINESS_COMPONENTS``
    providers run, each through its status-only variant where it has
    one, so the probe neither grows with the lab's age nor touches a
    file.
    """
    bad = []
    for name in READINESS_COMPONENTS:
        info = hub.component_status(name)
        if info is None:
            continue
        ready = info.get("ready", info.get("status", "ok") == "ok")
        if not ready:
            detail = f" ({info['error']})" if "error" in info else ""
            bad.append(f"{name}={info.get('status')}{detail}")
    if bad:
        return False, f"unhealthy components: {', '.join(bad)}"
    return True, ""


def install_observability(
    expdb: "ExpDB | None" = None,
    engine: "WorkflowBean | None" = None,
    broker: "MessageBroker | None" = None,
    manager=None,
    agents: Iterable[Any] = (),
    email=None,
    hub: ObservabilityHub | None = None,
) -> ObservabilityHub:
    """Attach observability to a running system (any subset of tiers).

    * ``expdb`` — the web container gets per-request root spans and the
      latency histogram, plus the ``/workflow/metrics``,
      ``/workflow/audit`` and ``/workflow/health`` servlets;
    * ``engine`` — event-stream subscription, check-count mirror and
      the durable ``WFAudit`` provenance store on the engine's
      database; discovered from the container context when omitted;
    * ``broker`` — delivery timing, trace stitching, queue-depth and
      journal-backlog gauges;
    * ``manager`` / ``agents`` — trace propagation through dispatches,
      pump application spans, agent turnaround histograms, queue-depth
      and last-poll-age gauges;
    * ``email`` — mailbox-depth gauges for the human-in-the-loop path.

    Idempotent per system: a second installation on the same ``expdb``
    reuses the hub already in its container context (unless an explicit
    ``hub`` overrides it), and every ``watch_*`` no-ops for an object
    this hub already wired.

    Returns the hub (created fresh unless one was passed or found).
    """
    if hub is None and expdb is not None:
        existing = expdb.container.context.get("obs")
        if isinstance(existing, ObservabilityHub):
            hub = existing
    hub = hub or ObservabilityHub()
    if engine is None and expdb is not None:
        engine = expdb.container.context.get("workflow_bean")
    if broker is None and manager is not None:
        broker = manager.broker
    if engine is not None:
        hub.install_audit(engine)
    if expdb is not None:
        from repro.weblims.auditservlet import AuditServlet
        from repro.weblims.checkpointservlet import CheckpointServlet
        from repro.weblims.dlqservlet import DeadLetterServlet
        from repro.weblims.healthservlet import HealthServlet
        from repro.weblims.lintservlet import LintServlet
        from repro.weblims.metricsservlet import MetricsServlet
        from repro.weblims.profservlet import ProfileServlet

        expdb.container.context["obs"] = hub
        hub.watch_container(expdb.container)
        hub.watch_database(expdb.db)
        workflow_filter = expdb.container.context.get("workflow_filter")
        if workflow_filter is not None:
            hub.watch_filter(workflow_filter)
            if workflow_filter.readiness is None:
                workflow_filter.readiness = lambda: hub_readiness(hub)
        descriptor = expdb.container.descriptor
        names = descriptor.servlet_names()
        if "MetricsServlet" not in names:
            descriptor.add_servlet(MetricsServlet(hub), "/workflow/metrics")
        if "AuditServlet" not in names:
            descriptor.add_servlet(AuditServlet(hub), "/workflow/audit")
        if "HealthServlet" not in names:
            descriptor.add_servlet(HealthServlet(hub), "/workflow/health")
        if "LintServlet" not in names:
            descriptor.add_servlet(LintServlet(expdb.db), "/workflow/lint")
        if "ProfileServlet" not in names:
            descriptor.add_servlet(ProfileServlet(hub), "/workflow/profile")
        if "CheckpointServlet" not in names:
            descriptor.add_servlet(
                CheckpointServlet(expdb.db, hub), "/workflow/checkpoint"
            )
        if broker is not None and "DeadLetterServlet" not in names:
            descriptor.add_servlet(
                DeadLetterServlet(broker, hub), "/workflow/dlq"
            )
    if engine is not None:
        hub.watch_engine(engine)
    if broker is not None:
        hub.watch_broker(broker)
    if manager is not None:
        manager.obs = hub
        hub.watch_manager(manager)
    for agent in agents:
        agent.obs = hub
        hub.watch_agent(agent, broker)
    if email is not None:
        hub.watch_email(email)
    return hub
