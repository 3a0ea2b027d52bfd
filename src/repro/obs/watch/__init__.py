"""Workflow watch layer: flight recorder, stuck detection, alerting.

PR 6's profiling answers "why was this *request* slow"; this package
answers the operational questions a lab running thousand-instance,
multi-day workflows actually asks:

* *what happened to instance N?* — the
  :class:`~repro.obs.watch.recorder.FlightRecorder` joins the durable
  audit trail, the span archive, lease state and the DLQ into one
  causally-ordered timeline (``GET /workflow/instances/<id>/timeline``
  and the ``python -m repro.obs.watch`` CLI);
* *which instances are stuck?* — the
  :class:`~repro.obs.watch.residency.StateResidencyTracker` measures
  wall time per Fig. 4 state against per-pattern baselines;
* *who gets told?* — the :class:`~repro.obs.watch.alerts.AlertEngine`
  evaluates declarative rules (stuck instances, DLQ depth, expired
  leases, queue depths, SLO burn, any metric family) through a
  pending→firing→resolved machine with for-duration hysteresis;
* *does the record survive the process?* — the
  :class:`~repro.obs.watch.export.TelemetryExporter` streams alert
  transitions and metrics snapshots to pluggable sinks behind a
  bounded queue, so a dead sink can never stall the hot path.

``install_watch(hub, ...)`` is the single switch, mirroring
``install_profiling``: until it runs, ``hub.watcher`` stays ``None``
and nothing here costs anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.watch.alerts import AlertEngine, AlertRule
from repro.obs.watch.export import (
    JsonLinesSink,
    MemorySink,
    TelemetryExporter,
    TelemetrySink,
)
from repro.obs.watch.recorder import FlightRecorder
from repro.obs.watch.residency import StateResidencyTracker, StuckPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import ObservabilityHub

__all__ = [
    "AlertEngine",
    "AlertRule",
    "FlightRecorder",
    "JsonLinesSink",
    "MemorySink",
    "StateResidencyTracker",
    "StuckPolicy",
    "TelemetryExporter",
    "TelemetrySink",
    "Watcher",
    "install_watch",
]


class Watcher:
    """Facade over the residency tracker, alert engine, recorder and
    exporter — what ``hub.watcher`` points at once installed."""

    def __init__(
        self,
        hub: "ObservabilityHub",
        residency: StateResidencyTracker,
        alerts: AlertEngine,
        recorder: FlightRecorder,
        exporter: TelemetryExporter,
        stuck_policy: StuckPolicy,
    ) -> None:
        self.hub = hub
        self.residency = residency
        self.alerts = alerts
        self.recorder = recorder
        self.exporter = exporter
        self.stuck_policy = stuck_policy

    def evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """One alert-evaluation pass; returns the transitions caused."""
        return self.alerts.evaluate(now=now)

    def export_metrics_snapshot(self) -> dict[str, Any]:
        """Queue the full registry snapshot as one telemetry record."""
        return self.exporter.offer(
            "metrics.snapshot", metrics=self.hub.registry.snapshot()
        )

    def stuck(self) -> list[dict[str, Any]]:
        """Currently stuck entities under the installed policy."""
        return self.residency.scan(self.stuck_policy)

    def report(self) -> dict[str, Any]:
        """Everything the watch layer knows, JSON-friendly."""
        return {
            "enabled": True,
            "alerts": self.alerts.report(),
            "stuck": self.stuck(),
            "residency": {
                "tracked": len(self.residency.current()),
                "evicted": self.residency.evicted,
                "baselines": self.residency.baselines(),
            },
            "exporter": self.exporter.info(),
        }

    def health(self) -> dict[str, Any]:
        """The ``alerts`` health component (never gates readiness)."""
        info = self.alerts.health()
        info["exporter"] = self.exporter.info()
        return info

    def close(self) -> None:
        """Drain the export queue to whatever sinks are attached."""
        self.exporter.flush()


def default_rules(
    broker=None, manager=None, stuck_for_s: float = 30.0
) -> list[AlertRule]:
    """The stock rule set ``install_watch`` registers.

    Every rule reads a source that *resolves* when the condition
    clears (currently-stuck count, current DLQ depth, currently-expired
    leases) so the pending→firing→resolved lifecycle is reachable —
    monotone counters would fire forever.
    """
    rules = [
        AlertRule(
            name="stuck-instances",
            source="stuck_instances",
            threshold=0,
            comparison=">",
            for_s=stuck_for_s,
            severity="critical",
            description="entities stuck past their pattern baseline",
        )
    ]
    if broker is not None:
        rules.append(
            AlertRule(
                name="dlq-depth",
                source="broker_dlq_depth",
                threshold=0,
                comparison=">",
                severity="warning",
                description="messages quarantined in the dead-letter queue",
            )
        )
    if manager is not None:
        rules.append(
            AlertRule(
                name="expired-leases",
                source="expired_leases",
                threshold=0,
                comparison=">",
                severity="warning",
                description="dispatched instances whose agent went silent",
            )
        )
    return rules


def install_watch(
    hub: "ObservabilityHub",
    expdb=None,
    engine=None,
    broker=None,
    manager=None,
    stuck_policy: StuckPolicy | None = None,
    telemetry_path: str | None = None,
    clock=None,
) -> Watcher:
    """Turn the watch layer on for a wired system (idempotent per hub).

    * ``engine`` — the residency tracker subscribes to its event
      stream (discovered from the container context when omitted);
    * ``broker`` / ``manager`` — DLQ-depth, queue-depth and
      expired-lease alert sources and their stock rules, plus
      lease/DLQ sections in flight recordings (more rules go in through
      ``watcher.alerts.add_rule``);
    * ``telemetry_path`` — attach a :class:`JsonLinesSink` so alert
      transitions and snapshots survive the process;
    * ``expdb`` — registers ``GET /workflow/instances[/<id>[/timeline]]``
      and ``GET /workflow/alerts``, and the non-readiness ``alerts``
      health component;
    * ``clock`` — time source for residency measurement, hysteresis
      and export stamping (defaults to ``hub.clock``; chaos tests and
      the CLI demo pass the lab's ``ManualClock``).

    Returns the (new or already-installed) :class:`Watcher`.
    """
    if hub.watcher is not None:
        return hub.watcher
    if engine is None and expdb is not None:
        engine = expdb.container.context.get("workflow_bean")
    if broker is None and manager is not None:
        broker = manager.broker
    db = None
    if engine is not None:
        db = engine.db
    elif expdb is not None:
        db = expdb.db
    if db is None:
        raise ValueError("install_watch needs an engine or expdb for its db")
    clock = clock or hub.clock
    exporter = TelemetryExporter(clock=clock)
    if telemetry_path is not None:
        exporter.add_sink(JsonLinesSink(telemetry_path))
    residency = StateResidencyTracker(clock=clock, registry=hub.registry)
    if engine is not None and hub._once("watch-events", engine):
        engine.events.subscribe(residency.on_event)
    alerts = AlertEngine(hub, exporter=exporter, clock=clock)
    recorder = FlightRecorder(
        hub,
        db,
        leases=manager.leases if manager is not None else None,
        residency=residency,
        broker=broker,
    )
    policy = stuck_policy or StuckPolicy()
    watcher = Watcher(hub, residency, alerts, recorder, exporter, policy)

    alerts.add_source(
        "stuck_instances", lambda: float(len(residency.scan(policy)))
    )
    if broker is not None:
        alerts.add_source(
            "broker_dlq_depth", lambda: float(broker.dlq_depth())
        )
        alerts.add_source(
            "queue_depth_max",
            lambda: float(
                max(
                    (broker.queue_depth(name) for name in broker.queue_names()),
                    default=0,
                )
            ),
        )
    if manager is not None:
        alerts.add_source(
            "expired_leases",
            lambda: float(
                sum(1 for row in manager.leases.snapshot() if row["expired"])
            ),
        )
        alerts.add_source(
            "lease_expiries_total", lambda: float(manager.leases.expiries)
        )

    def slo_burning() -> float:
        profiler = hub.profiler
        if profiler is None:
            return 0.0
        return float(
            sum(
                1
                for status in profiler.slo_tracker.report().values()
                if not status["ok"]
            )
        )

    alerts.add_source("slo_burning", slo_burning)
    for rule in default_rules(broker=broker, manager=manager):
        alerts.add_rule(rule)

    def collect() -> None:
        counts = alerts.counts()
        for status in ("pending", "firing"):
            hub.registry.gauge(
                "watch_alerts",
                help="Alert rules per lifecycle status",
                status=status,
            ).set(counts.get(status, 0))
        info = exporter.info()
        hub.registry.gauge(
            "watch_export_pending",
            help="Telemetry records queued for export",
        ).set(info["pending"])
        hub.registry.counter(
            "watch_export_dropped_total",
            help="Telemetry records dropped by the bounded export queue",
        ).set(info["dropped"])
        hub.registry.counter(
            "watch_export_sink_errors_total",
            help="Telemetry sink emit() calls that raised",
        ).set(info["sink_errors"])

    hub.registry.add_collector(collect)
    hub.register_health("alerts", watcher.health)
    if expdb is not None:
        from repro.weblims.alertservlet import AlertServlet
        from repro.weblims.instancesservlet import InstancesServlet

        names = expdb.container.descriptor.servlet_names()
        if "InstancesServlet" not in names:
            expdb.container.descriptor.add_servlet(
                InstancesServlet(hub),
                "/workflow/instances",
                "/workflow/instances/*",
            )
        if "AlertServlet" not in names:
            expdb.container.descriptor.add_servlet(
                AlertServlet(hub), "/workflow/alerts"
            )
    hub.watcher = watcher
    return watcher
