"""The system's one record of observable occurrences.

Every state change, dispatch, acknowledgement and authorization or
routing decision is emitted once, as an :class:`Event`, by the component
that caused it: the engine, the WorkflowFilter, the AgentManager, and —
through ``ObservabilityHub.events`` — the checkpoint and DLQ servlets,
the alert engine and the database's checkpoint hook.  Every output is a
subscriber's view of the same event:

* the **web layer** — the WorkflowFilter turns events raised during a
  request into user-visible notices ("the workflow manager may modify
  the response sent back to the user with details about its own
  actions");
* ``AuditStore.on_event`` — one durable ``WFAudit`` row per event;
* ``ObservabilityHub.on_event`` — ``engine_events_total{kind}`` and a
  trace annotation under the active span;
* ``StateResidencyTracker.on_event`` — time spent in each state;
* the **test suite** — ``log.of_kind("task.state") == [...]``.

Sequences increase monotonically and are **never reused**:
:meth:`EventLog.clear` keeps the counter advancing (``since()`` markers
stay valid); :meth:`EventLog.reset` is the full rewind.  A ``capacity``
turns the log into a ring buffer of the most recent events.

Thread safety: :meth:`EventLog.emit` may be called from any thread.
The sequence is assigned and the event appended under one leaf lock, so
sequences are unique and ``events`` stays sorted (which lets
:meth:`EventLog.since` bisect).  Subscribers run on the emitting thread
after that lock is released — the audit insert waits for the WAL — so
two threads' subscribers may see their events in either order; callers
keep per-entity order with their own locks (the engine emits
transitions under its bean lock).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable

_sequence_of = attrgetter("sequence")


@dataclass(frozen=True, slots=True)
class Event:
    """One observable occurrence."""

    kind: str
    payload: dict[str, Any]
    sequence: int

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)


class EventLog:
    """Append-only event log with subscriber callbacks.

    ``capacity=None`` (the default) keeps every event; a positive
    capacity turns the log into a ring buffer of the most recent events
    (``dropped`` counts the discards).  Subscriber callbacks run
    synchronously during :meth:`emit`; an exception from one propagates
    to the emitter and skips the remaining subscribers — observability
    subscribers are expected to catch their own errors.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.events: list[Event] = []
        self.capacity = capacity
        self.dropped = 0
        self._subscribers: tuple[Callable[[Event], None], ...] = ()
        self._next_sequence = 1
        self._lock = threading.Lock()

    def emit(self, kind: str, **payload: Any) -> Event:
        """Record an event and notify subscribers."""
        with self._lock:
            event = Event(kind=kind, payload=payload, sequence=self._next_sequence)
            self._next_sequence += 1
            self.events.append(event)
            if self.capacity is not None and self.capacity >= 0:
                overflow = len(self.events) - self.capacity
                if overflow > 0:
                    del self.events[:overflow]
                    self.dropped += overflow
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Register a callback invoked for every future event."""
        with self._lock:
            self._subscribers = (*self._subscribers, callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        """Remove a previously registered callback (idempotent)."""
        with self._lock:
            subscribers = list(self._subscribers)
            if callback in subscribers:
                subscribers.remove(callback)
            self._subscribers = tuple(subscribers)

    def of_kind(self, kind: str) -> list[Event]:
        """All retained events of one kind, in emission order."""
        return [event for event in self.events if event.kind == kind]

    def since(self, sequence: int) -> list[Event]:
        """Retained events emitted after ``sequence`` (exclusive)."""
        with self._lock:
            start = bisect_right(self.events, sequence, key=_sequence_of)
            return self.events[start:]

    @property
    def last_sequence(self) -> int:
        """Sequence number of the most recent *emitted* event.

        Stays accurate across :meth:`clear` and ring-buffer eviction —
        it reflects what was emitted, not what is retained; 0 only when
        nothing was ever emitted (or after :meth:`reset`).
        """
        return self._next_sequence - 1

    def clear(self) -> None:
        """Drop recorded events; sequence numbering continues.

        Subscribers stay registered.  Use :meth:`reset` to also rewind
        the sequence counter.
        """
        with self._lock:
            self.events.clear()

    def reset(self) -> None:
        """Full rewind: drop events, zero the sequence counter and the
        drop count (subscribers stay registered)."""
        with self._lock:
            self.events.clear()
            self._next_sequence = 1
            self.dropped = 0
