"""ObservabilityHub wiring: events, broker, collectors, installation."""

from __future__ import annotations

from repro.core.events import EventLog
from repro.messaging.broker import MessageBroker
from repro.obs import ObservabilityHub, install_observability
from repro.weblims import build_expdb


class TestEventBridge:
    def test_events_counted_by_kind(self):
        hub = ObservabilityHub()
        log = EventLog()
        log.subscribe(hub.on_event)
        log.emit("task.state", task="pcr", state="active")
        log.emit("task.state", task="pcr", state="completed")
        log.emit("workflow.started", workflow_id=1)
        snapshot = hub.registry.snapshot()
        by_kind = {
            series["labels"]["kind"]: series["value"]
            for series in snapshot["engine_events_total"]["series"]
        }
        assert by_kind == {"task.state": 2, "workflow.started": 1}

    def test_events_become_spans_inside_an_active_trace(self):
        hub = ObservabilityHub()
        log = EventLog()
        log.subscribe(hub.on_event)
        with hub.span("request") as root:
            log.emit("instance.state", experiment_id=3, state="completed")
        spans = hub.tracer.spans_for(root.trace_id)
        [marker] = [s for s in spans if s.name == "event.instance.state"]
        assert marker.parent_id == root.span_id
        assert marker.attributes["state"] == "completed"

    def test_non_scalar_payload_values_are_skipped(self):
        hub = ObservabilityHub()
        log = EventLog()
        log.subscribe(hub.on_event)
        with hub.span("request") as root:
            log.emit("outputs.recorded", rows=[{"a": 1}], table="Sample")
        [marker] = [
            s
            for s in hub.tracer.spans_for(root.trace_id)
            if s.name == "event.outputs.recorded"
        ]
        assert "rows" not in marker.attributes
        assert marker.attributes["table"] == "Sample"


class TestBrokerBridge:
    def test_delivery_wait_histogram(self):
        hub = ObservabilityHub()
        broker = MessageBroker()
        hub.watch_broker(broker)
        broker.declare_queue("q")
        broker.send("q", "body")
        message = broker.receive("q")
        broker.ack(message)
        snapshot = hub.registry.snapshot()
        [series] = snapshot["broker_delivery_wait_ms"]["series"]
        assert series["labels"] == {"queue": "q"}
        assert series["summary"]["count"] == 1.0

    def test_delivery_span_stitched_from_headers(self):
        hub = ObservabilityHub()
        broker = MessageBroker()
        hub.watch_broker(broker)
        broker.declare_queue("q")
        with hub.span("sender") as sender:
            broker.send("q", "body", headers=hub.tracer.inject({}))
        broker.receive("q")
        [delivery] = [
            s
            for s in hub.tracer.spans_for(sender.trace_id)
            if s.name == "broker.deliver"
        ]
        assert delivery.parent_id == sender.span_id
        assert delivery.attributes["queue"] == "q"

    def test_untraced_delivery_records_no_span(self):
        hub = ObservabilityHub()
        broker = MessageBroker()
        hub.watch_broker(broker)
        broker.declare_queue("q")
        broker.send("q", "body")
        broker.receive("q")
        assert hub.tracer.finished_spans() == []

    def test_broker_stats_mirrored(self):
        hub = ObservabilityHub()
        broker = MessageBroker()
        hub.watch_broker(broker)
        broker.declare_queue("q")
        broker.send("q", "one")
        broker.send("q", "two")
        broker.receive("q")
        text = hub.registry.render()
        assert "broker_sends_total 2" in text
        assert 'broker_queue_depth{queue="q"} 1' in text
        assert "broker_in_flight 1" in text


class TestInstall:
    def test_container_requests_traced_and_timed(self):
        app = build_expdb()
        hub = install_observability(expdb=app)
        response = app.get("/user", action="list")
        assert response.ok
        assert hub.registry.family_quantile("http_request_latency_ms", 0.5) > 0
        [root] = [
            s for s in hub.tracer.finished_spans() if s.name == "http.request"
        ]
        assert root.attributes["path"] == "/user"
        assert root.attributes["status"] == 200

    def test_requests_inside_an_open_span_share_one_trace(self):
        app = build_expdb()
        hub = install_observability(expdb=app)
        with hub.span("submission") as root:
            app.get("/user", action="list")
            app.get("/user", action="list")
        requests = [
            s
            for s in hub.tracer.spans_for(root.trace_id)
            if s.name == "http.request"
        ]
        assert len(requests) == 2
        assert all(s.parent_id == root.span_id for s in requests)

    def test_metrics_servlet_served_at_exact_path(self):
        app = build_expdb()
        install_observability(expdb=app)
        response = app.get("/workflow/metrics")
        assert response.ok
        assert response.content_type.startswith("text/plain")
        assert "db_reads_total" in response.body

    def test_database_collector_reports_per_table_counters(self):
        app = build_expdb()
        hub = install_observability(expdb=app)
        app.get("/user", action="read", table="Project")
        text = hub.registry.render()
        assert 'db_table_reads_total{table="Project"}' in text

    def test_install_is_idempotent_about_the_servlet(self):
        app = build_expdb()
        hub = install_observability(expdb=app)
        install_observability(expdb=app, hub=hub)
        for name in ("MetricsServlet", "AuditServlet", "HealthServlet"):
            assert app.container.descriptor.servlet_names().count(name) == 1

    def test_reinstall_reuses_the_context_hub(self):
        app = build_expdb()
        first = install_observability(expdb=app)
        second = install_observability(expdb=app)
        assert second is first
        assert app.container.context["obs"] is first

    def test_reinstall_does_not_double_subscribe_the_event_stream(self):
        from repro.core.engine import WorkflowBean

        app = build_expdb()
        engine = WorkflowBean(app.db)
        hub = install_observability(expdb=app, engine=engine)
        install_observability(expdb=app, engine=engine, hub=hub)
        engine.events.emit("task.state", task="a", state="active")
        snapshot = hub.registry.snapshot()
        [series] = snapshot["engine_events_total"]["series"]
        assert series["value"] == 1
        # Exactly one audit row too — the audit subscriber is also guarded.
        assert hub.audit.count() == 1

    def test_reinstall_does_not_duplicate_collectors(self):
        app = build_expdb()
        hub = install_observability(expdb=app)
        collectors_after_first = len(hub.registry._collectors)
        install_observability(expdb=app)
        assert len(hub.registry._collectors) == collectors_after_first

    def test_watch_broker_is_idempotent(self):
        hub = ObservabilityHub()
        broker = MessageBroker()
        hub.watch_broker(broker)
        before = len(hub.registry._collectors)
        hub.watch_broker(broker)
        assert len(hub.registry._collectors) == before
        assert broker.observer is hub.broker_observer


class TestHealth:
    def test_empty_hub_reports_ok_with_no_components(self):
        report = ObservabilityHub().health_report()
        assert report["status"] == "ok"
        assert report["components"] == {}

    def test_provider_exception_degrades_not_crashes(self):
        hub = ObservabilityHub()

        def broken():
            raise RuntimeError("probe failed")

        hub.register_health("flaky", broken)
        report = hub.health_report()
        assert report["status"] == "degraded"
        assert report["components"]["flaky"]["status"] == "error"
        assert "probe failed" in report["components"]["flaky"]["error"]

    def test_broker_component_reports_queue_depths_and_journal(self):
        hub = ObservabilityHub()
        broker = MessageBroker()
        hub.watch_broker(broker)
        broker.declare_queue("q")
        broker.send("q", "body")
        info = hub.health_report()["components"]["broker"]
        assert info["queues"] == {"q": 1}
        assert info["in_flight"] == 0
        assert info["journal"]["enabled"] is False

    def test_database_component_reports_wal_status(self):
        app = build_expdb()
        hub = install_observability(expdb=app)
        info = hub.health_report()["components"]["database"]
        assert info["wal"] == {"enabled": False}
        assert info["tables"] > 0

    def test_overall_status_is_the_worst_component(self):
        hub = ObservabilityHub()
        hub.register_health("fine", lambda: {"status": "ok"})
        hub.register_health("limping", lambda: {"status": "degraded"})

        def broken():
            raise RuntimeError("probe failed")

        hub.register_health("dead", broken)
        report = hub.health_report()
        assert report["status"] == "degraded"
        assert report["components"]["fine"]["status"] == "ok"
        assert report["components"]["limping"]["status"] == "degraded"
        assert report["components"]["dead"]["status"] == "error"

    def _broker_with_dead_letter(self):
        from repro.resilience import RetryPolicy

        broker = MessageBroker()
        broker.declare_queue("q")
        broker.set_retry_policy("q", RetryPolicy(max_deliveries=1))
        broker.send("q", "poison")
        message = broker.receive("q")
        broker.reject(message, reason="cannot parse")
        assert broker.dlq_depth() == 1
        return broker

    def test_dlq_depth_degrades_the_broker_component(self):
        hub = ObservabilityHub()
        broker = self._broker_with_dead_letter()
        hub.watch_broker(broker)
        info = hub.health_report()["components"]["broker"]
        assert info["status"] == "degraded"
        assert info["dlq_depth"] == 1
        assert info["ready"] is True
        assert "dead-letter" in info["reason"]

    def test_dlq_degradation_does_not_cost_readiness(self):
        from repro.obs import hub_readiness

        hub = ObservabilityHub()
        broker = self._broker_with_dead_letter()
        hub.watch_broker(broker)
        ready, reason = hub_readiness(hub)
        assert ready is True
        assert reason == ""

    def test_plain_degraded_readiness_component_blocks_readiness(self):
        from repro.obs import hub_readiness

        hub = ObservabilityHub()
        hub.register_health("engine", lambda: {"status": "degraded"})
        ready, reason = hub_readiness(hub)
        assert ready is False
        assert "engine=degraded" in reason

    def test_non_readiness_component_never_blocks_readiness(self):
        from repro.obs import hub_readiness

        hub = ObservabilityHub()
        hub.register_health("alerts", lambda: {"status": "degraded"})
        report = hub.health_report()
        assert report["status"] == "degraded"
        ready, __ = hub_readiness(hub)
        assert ready is True


class TestSelfMetrics:
    def test_dropped_counters_exposed_as_metrics(self):
        hub = ObservabilityHub()
        hub.tracer.capacity = 1
        with hub.span("a"):
            pass
        with hub.span("b"):
            pass
        text = hub.registry.render()
        assert "trace_spans_dropped_total 1" in text
