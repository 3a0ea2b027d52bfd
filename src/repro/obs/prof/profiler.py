"""The Profiler facade: one object wiring all profiling concerns.

``install_profiling(hub, ...)`` is the single switch.  Until it is
called nothing in this package runs: the hub's ``profiler`` stays
``None``, histograms record no exemplars, broker/minidb locks stay
plain, no commit spans are recorded and no sampler thread exists — the
profiling-off cost is the cost of a few ``is None`` checks.  Once
installed:

* broker registry/per-queue locks and the minidb statement mutex are
  swapped for :class:`~repro.obs.prof.locks.ProfiledLock` wrappers
  (through the seams those tiers expose — they never import this
  package);
* hub-fed histograms start recording ``(value, trace_id)`` exemplars
  and the commit hook records ``db.commit`` spans;
* the workflow filter feeds finished requests into the
  :class:`~repro.obs.prof.slo.SLOTracker` and the
  :class:`~repro.obs.prof.retain.SlowTraceRetainer`;
* optionally a :class:`~repro.obs.prof.sampler.StackSampler` thread
  collects collapsed stacks.

:meth:`Profiler.report` assembles everything — per-pattern latency
attribution (:class:`~repro.obs.prof.attribution.CriticalPathAnalyzer`
over the tracer's archive), lock contention, SLO burn rates, slow
traces, exemplars and sampler output — into one JSON-friendly dict,
served by ``GET /workflow/profile`` and the ``repro.obs.prof`` CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.prof.attribution import (
    ASYNC_STAGE_ORDER,
    SYNC_STAGE_ORDER,
    CriticalPathAnalyzer,
)
from repro.obs.prof.locks import LockProfiler
from repro.obs.prof.retain import SlowTraceRetainer
from repro.obs.prof.sampler import StackSampler
from repro.obs.prof.slo import SLOPolicy, SLOTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import ObservabilityHub
    from repro.obs.prof.witness import LockOrderWitness


class Profiler:
    """Aggregates attribution, contention, SLO and slow-trace state."""

    def __init__(
        self,
        hub: "ObservabilityHub",
        lock_profiler: LockProfiler | None = None,
        sampler: StackSampler | None = None,
        retainer: SlowTraceRetainer | None = None,
        slo_tracker: SLOTracker | None = None,
        witness: "LockOrderWitness | None" = None,
    ) -> None:
        self.hub = hub
        self.lock_profiler = lock_profiler
        #: Optional runtime lock-order witness (shared with the
        #: profiled locks); its verdict joins :meth:`report`.
        self.witness = witness
        self.sampler = sampler
        self.retainer = retainer or SlowTraceRetainer(hub.exporter)
        self.slo_tracker = slo_tracker or SLOTracker()
        self.analyzer = CriticalPathAnalyzer(hub.exporter)

    # -- request feed -------------------------------------------------------

    def observe_request(
        self,
        operation: str,
        duration_ms: float,
        trace_id: str | None = None,
        pattern: str | None = None,
    ) -> None:
        """One finished request: feed SLOs and the slow-trace retainer.

        Never raises — profiling must not take the request path down.
        """
        try:
            self.slo_tracker.observe(operation, duration_ms)
            if pattern is not None:
                self.slo_tracker.observe(pattern, duration_ms)
            key = f"{operation}:{pattern}" if pattern else operation
            self.retainer.offer(key, duration_ms, trace_id)
        except Exception:  # noqa: BLE001 - observability is best-effort
            pass

    # -- reporting ----------------------------------------------------------

    def attribution(self) -> dict[str, Any]:
        """Per-pattern stage attribution over the archived traces."""
        return self.analyzer.aggregate(self.analyzer.attribute_all())

    def report(self) -> dict[str, Any]:
        """Everything the profiling layer knows, JSON-friendly."""
        registry = self.hub.registry
        report: dict[str, Any] = {
            "enabled": True,
            "attribution": self.attribution(),
            "locks": (
                self.lock_profiler.report()
                if self.lock_profiler is not None
                else []
            ),
            "slo": self.slo_tracker.report(),
            "slow_traces": self.retainer.report(),
            "exemplars": {
                name: registry.family_exemplars(name)
                for name in (
                    "http_request_latency_ms",
                    "broker_delivery_wait_ms",
                    "db_commit_latency_ms",
                )
                if registry.family_exemplars(name)
            },
        }
        if self.sampler is not None:
            report["sampler"] = self.sampler.report()
        if self.witness is not None:
            report["lock_order"] = self.witness.check().to_dict()
        untimed = registry.snapshot().get("broker_deliveries_untimed")
        if untimed is not None:
            report["untimed_deliveries"] = {
                series["labels"].get("reason", "?"): series["value"]
                for series in untimed["series"]
            }
        return report

    def render_text(self) -> str:
        """Human-readable profile report (CLI/servlet text mode)."""
        report = self.report()
        lines: list[str] = []
        lines.append("== latency attribution (per pattern) ==")
        attribution = report["attribution"]
        if not attribution:
            lines.append("  (no attributable traces)")
        for pattern, agg in attribution.items():
            lines.append(
                f"  {pattern}: {agg['traces']} traces, "
                f"mean {agg['mean_total_ms']:.2f} ms, "
                f"max {agg['max_total_ms']:.2f} ms "
                f"(slowest trace {agg['slowest_trace_id']})"
            )
            for stage in SYNC_STAGE_ORDER:
                value = agg["stages"].get(stage, 0.0)
                share = (
                    value / agg["mean_total_ms"] * 100.0
                    if agg["mean_total_ms"]
                    else 0.0
                )
                lines.append(
                    f"    sync  {stage:<16} {value:8.3f} ms  {share:5.1f}%"
                )
            for stage in ASYNC_STAGE_ORDER:
                value = agg["async_stages"].get(stage, 0.0)
                lines.append(f"    async {stage:<16} {value:8.3f} ms")
        if report["locks"]:
            lines.append("== lock contention ==")
            for lock in report["locks"]:
                wait = lock["wait_ms"]
                hold = lock["hold_ms"]
                lines.append(
                    f"  {lock['name']}: {lock['acquisitions']} acq, "
                    f"{lock['contended']} contended "
                    f"({lock['contention_rate'] * 100.0:.1f}%), "
                    f"wait p95 {wait['p95']:.3f} ms, "
                    f"hold p95 {hold['p95']:.3f} ms"
                )
                for holder in lock["holders"][:3]:
                    lines.append(
                        f"    holder {holder['site']:<28}"
                        f" {holder['hold_ms']:8.3f} ms"
                        f" ({holder['share'] * 100.0:.1f}%)"
                    )
        if report["slo"]:
            lines.append("== SLO burn rates ==")
            for operation, status in report["slo"].items():
                verdict = "ok" if status["ok"] else "BURNING"
                lines.append(
                    f"  {operation}: {verdict}, "
                    f"burn {status['burn_rate']:.2f}, "
                    f"{status['violations']}/{status['window_count']} "
                    f"over {status['threshold_ms']:.1f} ms "
                    f"(objective {status['objective']:.3f})"
                )
        if report["slow_traces"]:
            lines.append("== slowest retained traces ==")
            for operation, entries in report["slow_traces"].items():
                for entry in entries:
                    lines.append(
                        f"  {operation}: {entry['duration_ms']:.2f} ms "
                        f"trace {entry['trace_id']} "
                        f"({entry['spans']} spans)"
                    )
        if report.get("untimed_deliveries"):
            lines.append("== untimed deliveries ==")
            for reason, count in report["untimed_deliveries"].items():
                lines.append(f"  {reason}: {count:g}")
        if "sampler" in report:
            sampler = report["sampler"]
            lines.append(
                f"== sampler: {sampler['samples']} samples, "
                f"{sampler['distinct_stacks']} stacks =="
            )
            for hot in sampler["hottest"][:5]:
                lines.append(f"  {hot['count']:6d} {hot['stack']}")
        if self.witness is not None:
            lines.append("== lock-order witness ==")
            lines.append("  " + self.witness.check().render_text().replace(
                "\n", "\n  "
            ))
        return "\n".join(lines)

    def close(self) -> None:
        """Stop background work (the sampler thread, if running)."""
        if self.sampler is not None:
            self.sampler.stop()


def install_profiling(
    hub: "ObservabilityHub",
    db=None,
    broker=None,
    slos: Iterable[SLOPolicy] = (),
    sampler: bool = False,
    witness: "LockOrderWitness | bool | None" = None,
) -> Profiler:
    """Turn profiling on for a wired system (idempotent per hub).

    * ``db`` / ``broker`` — their locks are swapped for profiled
      wrappers;
    * ``slos`` — :class:`SLOPolicy` objects to track; registers an
      ``slo`` health component (never part of readiness gating);
    * ``sampler=True`` — start the collapsed-stack wall-clock sampler;
    * ``witness`` — a :class:`~repro.obs.prof.witness.LockOrderWitness`
      (or ``True`` for a fresh one against the installed tree's static
      graph): every profiled lock reports its acquisition order to it,
      and the witness verdict joins :meth:`Profiler.report` under
      ``lock_order``.

    Returns the (new or already-installed) :class:`Profiler`.
    """
    if hub.profiler is not None:
        return hub.profiler
    lock_witness: "LockOrderWitness | None" = None
    if witness:
        from repro.obs.prof.witness import LockOrderWitness

        lock_witness = (
            witness if isinstance(witness, LockOrderWitness)
            else LockOrderWitness()
        )
    lock_profiler: LockProfiler | None = None
    if db is not None or broker is not None:
        lock_profiler = LockProfiler(clock=hub.clock, witness=lock_witness)
        if broker is not None:
            broker.install_lock_profiler(
                lock_profiler.wrap, lock_profiler.condition_factory()
            )
        if db is not None:
            db.wrap_mutex(lock_profiler.wrap)
    stack_sampler: StackSampler | None = None
    if sampler:
        stack_sampler = StackSampler(clock=hub.clock)
        stack_sampler.start()
    tracker = SLOTracker(policies=slos)
    profiler = Profiler(
        hub,
        lock_profiler=lock_profiler,
        sampler=stack_sampler,
        retainer=SlowTraceRetainer(hub.exporter),
        slo_tracker=tracker,
        witness=lock_witness,
    )
    hub.profiler = profiler
    if tracker.policies():
        hub.register_health("slo", tracker.health)
    return profiler
