"""repro.obs — unified observability for the Exp-WF reproduction.

The paper evaluates Exp-WF almost entirely through *observed costs*:
database read/write amplification per request (§6) and the overhead of
each WorkflowFilter mode.  The reproduction's instrumentation grew up
fragmented — ``core/events`` has an engine-local event stream,
``minidb/stats`` counts DB accesses, the broker and agents keep their
own counters — and nothing correlated one user request across those
layers.  This package is the missing correlation layer:

* :mod:`repro.obs.trace` — trace IDs and nested spans with wall-clock
  durations, propagated through ``HttpRequest.attributes`` and message
  headers so one experiment submission yields one coherent span tree
  across filter, engine, broker and agents;
* :mod:`repro.obs.metrics` — a metrics registry (counters, gauges,
  histograms with p50/p95/p99 summaries) with a Prometheus-style text
  exposition;
* :mod:`repro.obs.audit` — the durable provenance trail: a ``WFAudit``
  table written through the same transaction/WAL path as engine state,
  one row per event of the engine's event log (every task/instance
  transition, authorization decision, restart, dispatch/ack and
  filter-mode decision), queryable as a timeline via
  ``GET /workflow/audit``;
* :mod:`repro.obs.hub` — the :class:`ObservabilityHub` that wires the
  existing instrumentation sources (EventLog, DatabaseStats,
  BrokerStats, ContainerStats, FilterStats) into one registry plus the
  audit store, aggregates per-component health for
  ``GET /workflow/health``, and ``install_observability`` which
  attaches the hub to a running system (idempotently).
"""

from repro.obs.audit import (
    AUDIT_TABLE,
    AuditStore,
    decode_record,
    install_audit_schema,
    verify_timeline,
)
from repro.obs.hub import ObservabilityHub, hub_readiness, install_observability
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, TraceExporter, Tracer

__all__ = [
    "AUDIT_TABLE",
    "AuditStore",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityHub",
    "Span",
    "TraceExporter",
    "Tracer",
    "decode_record",
    "install_audit_schema",
    "hub_readiness",
    "install_observability",
    "verify_timeline",
]
