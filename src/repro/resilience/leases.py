"""Agent liveness leases for dispatched task instances.

The paper's asynchronous messaging means a dispatched instance has no
built-in liveness: an agent that silently wedges (or whose host dies
without closing its consumer) blocks the instance — and with it the
task, the workflow, and everything downstream — forever.  The lease
table closes that gap:

* every dispatch grants a lease: *this instance should produce a
  ``task.started``/``task.result`` before ``deadline``*;
* inbound agent traffic renews (started) or releases (result) it;
* the manager's sweep expires overdue leases — each expiry either
  re-dispatches the instance (possibly to a different agent) or, once
  the redispatch budget is spent, aborts it through the Fig. 4 instance
  machine so the workflow fails *cleanly* instead of hanging.

The table is in-memory by design: leases describe *delivery* state, not
workflow state.  After a manager restart the instances are still in the
database as ``delegated``/``active`` rows, and the broker's journal
holds every dispatch that was sent before the crash.  It does not hold
one the crash cut off: an engine call sends its messages only after its
commit is durable, so a crash between that commit and the send leaves
an instance ``delegated`` with no message anywhere, and since the table
starts empty no lease ever expires to redispatch it.  Closing that
commit→send window needs a durable outbox relayed on open (ROADMAP
items 4 and 5); until then such an instance waits for an operator.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.clock import Clock, SystemClock


@dataclass
class Lease:
    """One dispatched instance's liveness contract."""

    experiment_id: int
    workflow_id: int | None
    task: str | None
    agent: str | None
    queue: str | None
    granted_at: float
    deadline: float
    #: How many times the sweep already re-dispatched this instance.
    redispatches: int = 0
    #: Renewal count (``task.started`` arrivals).
    renewals: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def remaining(self, now: float) -> float:
        """Seconds of lease left (negative = expired)."""
        return self.deadline - now


class LeaseTable:
    """All outstanding leases, keyed by experiment id."""

    def __init__(
        self,
        clock: Clock | None = None,
        ttl_s: float = 300.0,
        max_redispatches: int = 1,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("lease ttl must be positive")
        self.clock: Clock = clock or SystemClock()
        self.ttl_s = ttl_s
        self.max_redispatches = max_redispatches
        self._lock = threading.Lock()
        self._leases: dict[int, Lease] = {}
        self.expiries = 0

    # ------------------------------------------------------------------

    def grant(
        self,
        experiment_id: int,
        workflow_id: int | None = None,
        task: str | None = None,
        agent: str | None = None,
        queue: str | None = None,
        ttl_s: float | None = None,
    ) -> Lease:
        """Grant (or re-grant) a lease for a freshly dispatched instance.

        Re-granting an existing lease — a redispatch — keeps its
        ``redispatches`` counter so the budget spans agent changes.
        """
        now = self.clock.monotonic()
        with self._lock:
            previous = self._leases.get(experiment_id)
            lease = Lease(
                experiment_id=experiment_id,
                workflow_id=workflow_id,
                task=task,
                agent=agent,
                queue=queue,
                granted_at=now,
                deadline=now + (ttl_s if ttl_s is not None else self.ttl_s),
                redispatches=previous.redispatches if previous else 0,
            )
            self._leases[experiment_id] = lease
            return lease

    def renew(self, experiment_id: int, ttl_s: float | None = None) -> Lease | None:
        """Extend a lease (the agent proved liveness); ``None`` if unknown."""
        now = self.clock.monotonic()
        with self._lock:
            lease = self._leases.get(experiment_id)
            if lease is None:
                return None
            lease.deadline = now + (ttl_s if ttl_s is not None else self.ttl_s)
            lease.renewals += 1
            return lease

    def release(self, experiment_id: int) -> Lease | None:
        """Remove a lease (instance decided); ``None`` if unknown."""
        with self._lock:
            return self._leases.pop(experiment_id, None)

    def note_redispatch(self, experiment_id: int) -> int:
        """Count a sweep-triggered redispatch; returns the new total."""
        with self._lock:
            lease = self._leases.get(experiment_id)
            if lease is None:
                return 0
            lease.redispatches += 1
            return lease.redispatches

    # ------------------------------------------------------------------

    def get(self, experiment_id: int) -> Lease | None:
        with self._lock:
            return self._leases.get(experiment_id)

    def expired(self, now: float | None = None) -> list[Lease]:
        """Leases past their deadline, oldest deadline first."""
        reading = self.clock.monotonic() if now is None else now
        with self._lock:
            overdue = [
                lease
                for lease in self._leases.values()
                if lease.deadline <= reading
            ]
        return sorted(overdue, key=lambda lease: lease.deadline)

    def active_count(self) -> int:
        with self._lock:
            return len(self._leases)

    def snapshot(self) -> list[dict[str, Any]]:
        """Health-report view: one row per outstanding lease."""
        now = self.clock.monotonic()
        with self._lock:
            leases = list(self._leases.values())
        return [
            {
                "experiment_id": lease.experiment_id,
                "workflow_id": lease.workflow_id,
                "task": lease.task,
                "agent": lease.agent,
                "queue": lease.queue,
                "remaining_s": lease.remaining(now),
                "expired": lease.remaining(now) <= 0,
                "redispatches": lease.redispatches,
                "renewals": lease.renewals,
            }
            for lease in leases
        ]
