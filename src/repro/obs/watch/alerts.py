"""Declarative alert rules with hysteresis over live system signals.

An :class:`AlertRule` names a *source* (a registered callable, or
``metric:<family>`` to read the metrics registry directly), a threshold
and a comparison, plus ``for_s`` — how long the condition must hold
before the alert *fires*.  The :class:`AlertEngine` evaluates every
rule on demand and walks each through the state machine::

    inactive --breach--> pending --held for_s--> firing
       ^                   |                        |
       |                   v (condition clears)     v (condition clears)
       +---------------- cancel                  resolved

``pending`` is the hysteresis stage: a condition that clears before
``for_s`` elapses cancels silently back to ``inactive`` instead of
flapping.  ``resolved`` is sticky for display (operators see that an
alert fired and recovered) but behaves like ``inactive`` for re-entry.

Every transition is emitted as an ``alert.transition`` event on
``hub.events`` (one ``WFAudit`` row once the audit store subscribes),
exported through the :class:`~repro.obs.watch.export.TelemetryExporter`
and counted (``watch_alert_transitions_total{rule,to}``), so the alert
history survives the process and a notification relay can tail the
export stream.  Evaluation is pull-based and Clock-injected — the chaos
suite drives the full lifecycle under a ``ManualClock``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.resilience.clock import Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import ObservabilityHub
    from repro.obs.watch.export import TelemetryExporter

#: Supported rule comparisons, by operator spelling.
COMPARISONS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    "==": lambda value, threshold: value == threshold,
}

#: Prefix selecting a metrics-registry family as a rule source.
METRIC_SOURCE_PREFIX = "metric:"

#: Transitions kept in the in-memory history ring.
HISTORY_LIMIT = 256


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting condition."""

    name: str
    #: Registered source name, or ``metric:<family>`` for the registry.
    source: str
    threshold: float
    comparison: str = ">"
    #: Seconds the condition must hold before ``pending`` becomes
    #: ``firing`` (0 = fire on first breach).
    for_s: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.comparison not in COMPARISONS:
            raise ValueError(
                f"unknown comparison {self.comparison!r}; "
                f"expected one of {sorted(COMPARISONS)}"
            )
        if self.for_s < 0:
            raise ValueError("for_s must be >= 0")

    def breached(self, value: float) -> bool:
        return COMPARISONS[self.comparison](value, self.threshold)


@dataclass
class _RuleRuntime:
    """Mutable evaluation state of one rule."""

    status: str = "inactive"
    #: When the current breach streak began (``pending`` entry time).
    pending_since: float | None = None
    #: When the alert last entered ``firing``.
    firing_since: float | None = None
    last_value: float | None = None
    last_evaluated: float | None = None
    transitions: int = 0
    error: str | None = None


class AlertEngine:
    """Evaluates :class:`AlertRule` sets and drives their lifecycle."""

    def __init__(
        self,
        hub: "ObservabilityHub",
        exporter: "TelemetryExporter | None" = None,
        clock: Clock | None = None,
    ) -> None:
        self.hub = hub
        self.exporter = exporter
        self.clock: Clock = clock or hub.clock
        self._lock = threading.Lock()
        self._rules: dict[str, AlertRule] = {}
        self._runtime: dict[str, _RuleRuntime] = {}
        self._sources: dict[str, Callable[[], float]] = {}
        self._history: deque[dict[str, Any]] = deque(maxlen=HISTORY_LIMIT)
        #: Evaluation passes run (for the benchmark's latency account).
        self.evaluations = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def add_source(self, name: str, fn: Callable[[], float]) -> None:
        """Register (or replace) a named signal source."""
        if name.startswith(METRIC_SOURCE_PREFIX):
            raise ValueError(
                f"source name {name!r} collides with the metric: namespace"
            )
        with self._lock:
            self._sources[name] = fn

    def add_rule(self, rule: AlertRule) -> None:
        """Register (or replace) a rule; replacement resets its state."""
        with self._lock:
            self._rules[rule.name] = rule
            self._runtime[rule.name] = _RuleRuntime()

    def rules(self) -> list[AlertRule]:
        with self._lock:
            return list(self._rules.values())

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _resolve(self, source: str) -> float:
        if source.startswith(METRIC_SOURCE_PREFIX):
            family = source[len(METRIC_SOURCE_PREFIX):]
            return self.hub.registry.family_value(family)
        with self._lock:
            fn = self._sources.get(source)
        if fn is None:
            raise LookupError(f"unknown alert source {source!r}")
        return float(fn())

    def evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """One evaluation pass; returns the transitions it caused.

        Runs every registered source at most once per pass, walks every
        rule's state machine, and audits/exports each transition.  A
        source that raises marks its rules' runtime ``error`` without
        aborting the pass.
        """
        now = self.clock.now() if now is None else now
        # One registry collection serves every metric:-sourced rule.
        self.hub.registry.collect()
        with self._lock:
            rules = list(self._rules.values())
            self.evaluations += 1
        values: dict[str, float | None] = {}
        errors: dict[str, str] = {}
        for rule in rules:
            if rule.source in values:
                continue
            try:
                values[rule.source] = self._resolve(rule.source)
            except Exception as error:  # noqa: BLE001 - a broken source
                values[rule.source] = None  # must not kill the pass
                errors[rule.source] = str(error)
        transitions: list[dict[str, Any]] = []
        for rule in rules:
            value = values[rule.source]
            with self._lock:
                runtime = self._runtime[rule.name]
                runtime.last_evaluated = now
                if value is None:
                    runtime.error = errors.get(rule.source, "source failed")
                    continue
                runtime.error = None
                runtime.last_value = value
                transitions.extend(self._step(rule, runtime, value, now))
        return transitions

    def _step(
        self, rule: AlertRule, runtime: _RuleRuntime, value: float, now: float
    ) -> list[dict[str, Any]]:
        """Advance one rule's state machine; returns its transitions."""
        breached = rule.breached(value)
        made: list[dict[str, Any]] = []
        if runtime.status in ("inactive", "resolved") and breached:
            runtime.pending_since = now
            made.append(
                self._transition(rule, runtime, "pending", "breach", value, now)
            )
        if runtime.status == "pending":
            if not breached:
                runtime.pending_since = None
                made.append(
                    self._transition(
                        rule, runtime, "inactive", "cancel", value, now
                    )
                )
            elif (
                runtime.pending_since is not None
                and now - runtime.pending_since >= rule.for_s
            ):
                runtime.firing_since = now
                made.append(
                    self._transition(rule, runtime, "firing", "fire", value, now)
                )
        elif runtime.status == "firing" and not breached:
            runtime.pending_since = None
            made.append(
                self._transition(rule, runtime, "resolved", "resolve", value, now)
            )
        return made

    def _transition(
        self,
        rule: AlertRule,
        runtime: _RuleRuntime,
        to_status: str,
        event: str,
        value: float,
        now: float,
    ) -> dict[str, Any]:
        """Apply and fan out one transition (audit, export, metrics)."""
        record = {
            "rule": rule.name,
            "from": runtime.status,
            "to": to_status,
            "event": event,
            "at": now,
            "value": value,
            "threshold": rule.threshold,
            "severity": rule.severity,
        }
        runtime.status = to_status
        runtime.transitions += 1
        self._history.append(record)
        try:
            self.hub.registry.counter(
                "watch_alert_transitions_total",
                help="Alert state-machine transitions by rule and target",
                rule=rule.name,
                to=to_status,
            ).inc()
        except Exception:  # noqa: BLE001 - metrics are best-effort
            pass
        if self.hub.events is not None:
            self.hub.events.emit(
                "alert.transition",
                actor="watch",
                event=event,
                state=to_status,
                rule=rule.name,
                value=value,
                threshold=rule.threshold,
                severity=rule.severity,
            )
        if self.exporter is not None:
            self.exporter.offer("alert.transition", **record)
        return dict(record)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Current rule statuses + recent transition history."""
        with self._lock:
            rules = []
            for name in sorted(self._rules):
                rule = self._rules[name]
                runtime = self._runtime[name]
                rules.append(
                    {
                        "name": name,
                        "source": rule.source,
                        "comparison": rule.comparison,
                        "threshold": rule.threshold,
                        "for_s": rule.for_s,
                        "severity": rule.severity,
                        "description": rule.description,
                        "status": runtime.status,
                        "value": runtime.last_value,
                        "pending_since": runtime.pending_since,
                        "firing_since": runtime.firing_since,
                        "last_evaluated": runtime.last_evaluated,
                        "transitions": runtime.transitions,
                        "error": runtime.error,
                    }
                )
            history = list(self._history)
        firing = [r["name"] for r in rules if r["status"] == "firing"]
        pending = [r["name"] for r in rules if r["status"] == "pending"]
        return {
            "rules": rules,
            "firing": firing,
            "pending": pending,
            "history": history,
        }

    def counts(self) -> dict[str, int]:
        """Rule count per status (cheap — no source evaluation)."""
        with self._lock:
            counts: dict[str, int] = {}
            for runtime in self._runtime.values():
                counts[runtime.status] = counts.get(runtime.status, 0) + 1
        return counts

    def health(self) -> dict[str, Any]:
        """Health-provider view: degraded while any alert is firing.

        Registered as the ``alerts`` component — deliberately *not* in
        ``READINESS_COMPONENTS``: a firing alert is for operators, not
        a reason for the filter to refuse traffic.
        """
        with self._lock:
            firing = sorted(
                name
                for name, runtime in self._runtime.items()
                if runtime.status == "firing"
            )
            pending = sorted(
                name
                for name, runtime in self._runtime.items()
                if runtime.status == "pending"
            )
            rules = len(self._rules)
        return {
            "status": "degraded" if firing else "ok",
            "rules": rules,
            "firing": firing,
            "pending": pending,
        }
