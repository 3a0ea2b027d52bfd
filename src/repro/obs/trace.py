"""Trace context: trace IDs, nested spans, propagation, JSON export.

A *trace* is the story of one logical operation — typically one
experiment submission — across every tier it touches.  A *span* is one
timed step of that story.  Spans nest: the WorkflowFilter's
``filter.process`` span parents the engine's event spans, which parent
the broker deliveries, which parent the agent executions.

Propagation is explicit, matching how the system actually crosses
boundaries:

* **same thread** — the :class:`Tracer` keeps a per-thread stack of
  active spans; a new span parents to the top of the stack, so code deep
  in the engine joins the surrounding request span without any plumbing;
* **across the message broker** — :meth:`Tracer.inject` copies the
  active trace context into message headers and :meth:`Tracer.extract`
  recovers it on the consumer side, so a span started in an agent thread
  (or a later pump cycle) joins the originating trace as a *remote*
  child.

Finished spans accumulate in a bounded ring so long-running servers
cannot leak; the :class:`TraceExporter` reassembles them into span trees
and dumps them as JSON for the benchmark harness.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.resilience.clock import Clock, SystemClock

#: Header/attribute keys used for cross-boundary propagation.
TRACE_ID_KEY = "obs.trace_id"
PARENT_SPAN_KEY = "obs.parent_span"


@dataclass(slots=True)
class Span:
    """One timed step of a trace (slotted: the tracer keeps thousands)."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start_time: float = 0.0  # wall clock, seconds since the epoch
    duration_ms: float | None = None  # None while the span is open
    attributes: dict[str, Any] = field(default_factory=dict)
    #: ``True`` when the parent span lives on the other side of a
    #: process/thread boundary (recovered from message headers).
    remote_parent: bool = False
    error: str | None = None
    #: Monotonic start, for the duration; not part of the span's data.
    _start_pc: float | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def finished(self) -> bool:
        return self.duration_ms is not None

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly flat representation."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
            "remote_parent": self.remote_parent,
            "error": self.error,
        }


class Tracer:
    """Creates, nests and collects spans.

    Thread-safe: the active-span stack is per-thread (crossing threads
    is what :meth:`inject`/:meth:`extract` are for), the finished-span
    ring is shared under a lock.
    """

    def __init__(
        self, capacity: int = 10_000, clock: Clock | None = None
    ) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self.capacity = capacity
        self.dropped = 0
        #: Injectable time source: ``now()`` stamps span start times,
        #: ``monotonic()`` measures durations — so a ``ManualClock``
        #: makes span durations deterministic in tests.
        self.clock: Clock = clock or SystemClock()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        with self._lock:
            return f"{next(self._ids):012x}"

    def current_span(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start_span(
        self,
        name: str,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span; it parents to the current span unless an explicit
        (remote) context is given.  Pair with :meth:`end_span`."""
        remote = trace_id is not None or parent_id is not None
        if not remote:
            current = self.current_span()
            if current is not None:
                trace_id = current.trace_id
                parent_id = current.span_id
        span = Span(
            name=name,
            trace_id=trace_id or f"trace-{self._new_id()}",
            span_id=self._new_id(),
            parent_id=parent_id,
            start_time=self.clock.now(),
            attributes=attributes,
            remote_parent=remote,
        )
        span._start_pc = self.clock.monotonic()
        self._stack().append(span)
        return span

    def end_span(self, span: Span, error: str | None = None) -> Span:
        """Close a span, compute its duration and archive it."""
        now_pc = self.clock.monotonic()
        start_pc = now_pc if span._start_pc is None else span._start_pc
        span._start_pc = None  # the finished span keeps its duration only
        span.duration_ms = (now_pc - start_pc) * 1000.0
        if error is not None:
            span.error = error
        stack = self._stack()
        if span in stack:
            # Pop through to the span even if an inner span leaked open.
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        self._archive(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attributes: Any,
    ) -> Iterator[Span]:
        """``with tracer.span("engine.check") as s: ...``"""
        opened = self.start_span(
            name, trace_id=trace_id, parent_id=parent_id, **attributes
        )
        try:
            yield opened
        except BaseException as exc:
            self.end_span(opened, error=f"{type(exc).__name__}: {exc}")
            raise
        else:
            self.end_span(opened)

    def record(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None = None,
        duration_ms: float = 0.0,
        start_time: float | None = None,
        **attributes: Any,
    ) -> Span:
        """Archive an already-finished span (e.g. a measured broker
        delivery) without touching the active stack."""
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            start_time=self.clock.now() if start_time is None else start_time,
            duration_ms=duration_ms,
            attributes=attributes,
            remote_parent=parent_id is not None,
        )
        self._archive(span)
        return span

    def annotate(self, name: str, **attributes: Any) -> Span | None:
        """A zero-duration child of the current span (event marker).

        Returns ``None`` when no span is active — annotations never
        start traces of their own.
        """
        current = self.current_span()
        if current is None:
            return None
        return self.record(
            name,
            trace_id=current.trace_id,
            parent_id=current.span_id,
            duration_ms=0.0,
            **attributes,
        )

    def _archive(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            overflow = len(self._spans) - self.capacity
            if overflow > 0:
                del self._spans[:overflow]
                self.dropped += overflow

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def inject(self, headers: dict[str, Any] | None = None) -> dict[str, Any]:
        """Copy the active trace context into ``headers`` (new dict when
        omitted); a no-op without an active span."""
        headers = {} if headers is None else headers
        current = self.current_span()
        if current is not None:
            headers[TRACE_ID_KEY] = current.trace_id
            headers[PARENT_SPAN_KEY] = current.span_id
        return headers

    @staticmethod
    def extract(headers: dict[str, Any]) -> tuple[str | None, str | None]:
        """``(trace_id, parent_span_id)`` from carrier headers."""
        return headers.get(TRACE_ID_KEY), headers.get(PARENT_SPAN_KEY)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def spans_for(self, trace_id: str) -> list[Span]:
        """All archived spans of one trace, oldest first."""
        with self._lock:
            return [span for span in self._spans if span.trace_id == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in archive order."""
        seen: dict[str, None] = {}
        with self._lock:
            for span in self._spans:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


class TraceExporter:
    """Reassembles archived spans into trees and dumps them as JSON."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def tree(self, trace_id: str) -> list[dict[str, Any]]:
        """The trace as a forest of nested span dicts (children under
        ``children``); spans with missing parents become roots."""
        spans = self.tracer.spans_for(trace_id)
        nodes = {span.span_id: {**span.to_dict(), "children": []} for span in spans}
        roots: list[dict[str, Any]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def to_json(self, trace_id: str, indent: int | None = 2) -> str:
        return json.dumps(
            {"trace_id": trace_id, "spans": self.tree(trace_id)},
            indent=indent,
            default=str,
        )

    def dump(self, trace_id: str, path: str | os.PathLike[str]) -> None:
        """Write one trace's span tree to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(trace_id))
