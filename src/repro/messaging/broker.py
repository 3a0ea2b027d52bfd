"""The message broker: queues, delivery, acknowledgement, redelivery.

The broker is the process-wide hub; producers and consumers talk to it
through :mod:`repro.messaging.client`.  Shared *registry* state — the
queue directory, the in-flight set, the dead-letter quarantine, id
allocation, stats, and journal appends — lives under one registry lock.
Each queue then owns its own message deque and condition variable, so a
blocked consumer only ever waits (and is only ever woken) on its own
queue: send on queue B never wakes a consumer parked on queue A, and a
single ``notify`` hands one message to one waiter instead of stampeding
every consumer in the process.  The two levels are never held together —
an operation settles registry bookkeeping first, releases the lock, and
only then touches a queue.

Delivery contract (matching what the paper relies on from OpenJMS):

* ``send`` journals the message before returning — a crash after ``send``
  never loses it; under ``sync_policy="group"`` the fsync barrier is
  shared with other in-flight operations, but the message still becomes
  *visible* to consumers only after it is durable;
* a message handed to a consumer stays *in flight* until acked; closing
  the consumer (or replaying the journal after a crash) returns in-flight
  messages to the front of their queue for redelivery;
* acknowledging journals the ack, after which the message is gone for
  good;
* *rejecting* (``Consumer.reject``) consults the queue's
  :class:`~repro.resilience.retry.RetryPolicy`: the message is requeued
  with an exponential-backoff ``not_before`` schedule until its delivery
  count hits the cap, after which it is dead-lettered — quarantined in
  the broker's DLQ, inspectable and requeueable, never silently dropped.

Fault points (see :mod:`repro.resilience.faults`): ``broker.publish``,
``broker.deliver``, ``broker.ack`` — each with ``queue`` (and ``kind``
header, when present) as match context.
"""

# conlint: never-nested
# (The registry lock and the per-queue conditions declared in this
# module must never be held together — the invariant described above,
# now machine-checked: any interprocedural path nesting them is a CC002
# error, and the runtime LockOrderWitness cross-checks it under chaos.)

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import AcknowledgeError, DeadLetterError, UnknownQueueError
from repro.messaging.journal import DEFAULT_COMPACT_EVERY as _DEFAULT_COMPACT
from repro.messaging.journal import BrokerJournal
from repro.messaging.message import Message
from repro.resilience.clock import Clock, SystemClock
from repro.resilience.faults import FaultPlan, fire, mangle
from repro.resilience.retry import RetryPolicy

#: How long a blocking receive waits per wakeup when the only queued
#: messages are backoff-scheduled: short enough that an injected clock
#: advanced by another thread is noticed promptly, long enough not to
#: busy-spin on a real clock.
_SCHEDULE_POLL_S = 0.05


@dataclass
class BrokerStats:
    """Operation counters used by the benchmark cost model."""

    sends: int = 0
    persistent_sends: int = 0
    deliveries: int = 0
    redeliveries: int = 0
    acks: int = 0
    rejections: int = 0
    dead_lettered: int = 0
    dlq_requeued: int = 0
    per_queue_sends: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.sends = 0
        self.persistent_sends = 0
        self.deliveries = 0
        self.redeliveries = 0
        self.acks = 0
        self.rejections = 0
        self.dead_lettered = 0
        self.dlq_requeued = 0
        self.per_queue_sends.clear()


class _QueueState:
    """One queue's private world: messages, condition, wakeup count."""

    __slots__ = ("name", "messages", "cond", "wakeups")

    def __init__(self, name: str) -> None:
        self.name = name
        self.messages: deque[Message] = deque()
        self.cond = threading.Condition()
        #: Times a blocked receive on this queue was *notified* awake
        #: (schedule-poll timeouts do not count).  The no-thundering-herd
        #: regression test pins this to zero for idle queues.
        self.wakeups = 0


class MessageBroker:
    """A point-to-point message broker with optional durability."""

    def __init__(
        self,
        journal_path: str | os.PathLike[str] | None = None,
        clock: Clock | None = None,
        default_retry_policy: RetryPolicy | None = None,
        sync_policy: str = "group",
        group_window_s: float = 0.0,
        journal_segment_bytes: int | None = None,
        journal_compact_every: int | None = _DEFAULT_COMPACT,
        journal_salvage: bool = False,
    ) -> None:
        self._lock = threading.Lock()
        self._queues: dict[str, _QueueState] = {}
        self._in_flight: dict[int, Message] = {}
        #: Quarantined poison messages: id → (message, reason).
        self._dead: dict[int, tuple[Message, str]] = {}
        self._retry_policies: dict[str, RetryPolicy] = {}
        self._next_id = 1
        self.clock: Clock = clock or SystemClock()
        self.default_retry_policy = default_retry_policy or RetryPolicy()
        #: Jitter RNG — fixed seed so a broker's redelivery schedule is
        #: reproducible run to run (chaos tests rely on this).
        self._rng = random.Random(17)
        self.stats = BrokerStats()
        #: Optional observability hook with ``on_send(message,
        #: persistent)`` / ``on_deliver(message)`` (and optionally
        #: ``on_receive_wait(queue, waited_ms)``) — called under the
        #: broker registry lock, so observers must never call back into
        #: the broker (see ``repro.obs``).
        self.observer = None
        #: Optional factory ``f(queue_name) -> threading.Condition``
        #: used for new queues' condition variables — installed by
        #: :meth:`install_lock_profiler` so per-queue lock contention is
        #: measurable; ``None`` keeps plain conditions.
        self.condition_factory = None
        #: Optional fault-injection plan shared with the journal.
        self.faults: FaultPlan | None = None
        self._journal: BrokerJournal | None = None
        if journal_path is not None:
            journal_kwargs: dict = {}
            if journal_segment_bytes is not None:
                journal_kwargs["segment_max_bytes"] = journal_segment_bytes
            self._journal = BrokerJournal(
                journal_path,
                sync_policy=sync_policy,
                group_window_s=group_window_s,
                clock=self.clock,
                compact_every=journal_compact_every,
                salvage=journal_salvage,
                **journal_kwargs,
            )
            self._recover()

    @property
    def persistent(self) -> bool:
        """Whether sends are journalled to disk."""
        return self._journal is not None

    def attach_faults(self, plan: FaultPlan | None) -> None:
        """Install (or clear) a fault plan on the broker and its journal."""
        with self._lock:
            self.faults = plan
            if self._journal is not None:
                self._journal.seg.faults = plan

    def _new_state(self, name: str) -> _QueueState:
        """Build one queue's state, honouring the condition factory."""
        state = _QueueState(name)
        if self.condition_factory is not None:
            state.cond = self.condition_factory(name)
        return state

    def install_lock_profiler(self, wrap, condition_factory=None) -> None:
        """Swap broker locks for profiled drop-ins (``repro.obs.prof``).

        ``wrap(name, lock)`` must return an object with the plain-Lock
        ``acquire``/``release``/context-manager contract; it replaces
        the registry lock.  ``condition_factory(queue_name)`` builds the
        condition variable (over a profiled lock) for new *and* existing
        queues.  Install at wiring time, before consumers start blocking
        — a consumer parked on an old condition would never see a notify
        on its replacement.
        """
        with self._lock:
            self.condition_factory = condition_factory
            if condition_factory is not None:
                for state in self._queues.values():
                    state.cond = condition_factory(state.name)
        self._lock = wrap("broker.registry", self._lock)

    def _recover(self) -> None:
        assert self._journal is not None
        snapshot = self._journal.replay()
        for name in snapshot.queues:
            if name not in self._queues:
                self._queues[name] = self._new_state(name)
        for message in snapshot.outstanding:
            state = self._queues.get(message.queue)
            if state is None:
                state = self._queues[message.queue] = self._new_state(
                    message.queue
                )
            state.messages.append(message)
        for message, reason in snapshot.dead:
            self._dead[message.message_id] = (message, reason)
        self._next_id = snapshot.next_id

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------

    def declare_queue(self, name: str) -> None:
        """Create a queue if it does not already exist (idempotent)."""
        seq = None
        with self._lock:
            if name in self._queues:
                return
            self._queues[name] = self._new_state(name)
            if self._journal is not None:
                seq = self._journal.append({"type": "declare", "queue": name})
        self._journal_sync(seq)

    def set_retry_policy(self, queue: str, policy: RetryPolicy) -> None:
        """Override the redelivery policy for one queue."""
        with self._lock:
            self._retry_policies[queue] = policy

    def retry_policy(self, queue: str) -> RetryPolicy:
        """The policy :meth:`reject` applies for ``queue``."""
        with self._lock:
            return self._retry_policies.get(queue, self.default_retry_policy)

    def queue_names(self) -> list[str]:
        """All declared queues."""
        with self._lock:
            return list(self._queues)

    def queue_depth(self, name: str) -> int:
        """Messages waiting (not in flight) on ``name``."""
        return len(self._state(name).messages)

    def queue_wakeups(self, name: str) -> int:
        """Times a blocked receive on ``name`` was notified awake.

        With per-queue conditions this only moves when *this* queue has
        traffic — an idle consumer never pays for a busy neighbour.
        """
        return self._state(name).wakeups

    def in_flight_count(self) -> int:
        """Messages delivered but not yet acknowledged, broker-wide."""
        with self._lock:
            return len(self._in_flight)

    def journal_info(self) -> dict[str, object]:
        """Durability status of the broker's journal.

        ``backlog`` is the number of unacknowledged messages a replay of
        the journal would restore — queued plus in-flight — i.e. the
        work a restarted broker would hand back out.
        """
        with self._lock:
            if self._journal is None:
                return {"enabled": False, "backlog": 0}
            backlog = sum(
                len(state.messages) for state in self._queues.values()
            ) + len(self._in_flight)
            return {
                "enabled": True,
                "path": str(self._journal.path),
                "backlog": backlog,
                **self._journal.info(),
            }

    def compact_journal(self) -> bool:
        """Force a journal compaction now (operator/tooling entry).

        The automatic trigger (:meth:`BrokerJournal.maybe_compact`)
        fires on the record threshold; this forces the same rotation +
        snapshot + GC immediately.  Returns ``False`` on a
        non-persistent broker, ``True`` after a completed compaction.
        Runs outside the registry lock, like the automatic trigger.
        """
        if self._journal is None:
            return False
        self._journal.compact()
        return True

    def _state(self, name: str) -> _QueueState:
        with self._lock:
            return self._state_locked(name)

    def _state_locked(self, name: str) -> _QueueState:
        try:
            return self._queues[name]
        except KeyError:
            raise UnknownQueueError(name) from None

    def _journal_sync(self, seq: int | None) -> None:
        """Wait out the group-commit barrier for one journal append.

        Also the compaction trigger: we are past the durability barrier
        and outside the registry lock, so a due compaction (rotation +
        mirror snapshot + segment GC) delays no broker operation.
        """
        if self._journal is not None:
            self._journal.seg.sync(seq)
            self._journal.maybe_compact()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def send(self, queue: str, body: str, headers: dict | None = None) -> Message:
        """Enqueue a message; durable before return when persistent.

        The message is journalled (and, in group mode, fsync'd) *before*
        it is appended to the queue — a consumer can never observe a
        message that a crash could still lose.

        Fault point ``broker.publish``: ``crash`` dies before anything
        is journalled or enqueued, ``drop`` silently loses the message
        (the producer still believes it sent), ``duplicate`` enqueues a
        second copy under its own id, ``corrupt`` mangles the body.
        """
        seq = None
        with self._lock:
            state = self._state_locked(queue)
            header_map = dict(headers or {})
            action = fire(
                self.faults,
                "broker.publish",
                queue=queue,
                kind=header_map.get("kind"),
            )
            body_to_send = mangle(body) if action == "corrupt" else body
            copies = 2 if action == "duplicate" else 1
            message = Message(
                queue=queue,
                body=body_to_send,
                headers=header_map,
                message_id=self._next_id,
            )
            self._next_id += 1
            if action == "drop":
                return message
            enqueued_messages = [message]
            for __ in range(1, copies):
                enqueued_messages.append(
                    Message(
                        queue=queue,
                        body=body_to_send,
                        headers=dict(header_map),
                        message_id=self._next_id,
                    )
                )
                self._next_id += 1
            for enqueued in enqueued_messages:
                if self._journal is not None:
                    seq = self._journal.append(
                        {"type": "send", "message": enqueued.to_wire()}
                    )
                    self.stats.persistent_sends += 1
                self.stats.sends += 1
                self.stats.per_queue_sends[queue] = (
                    self.stats.per_queue_sends.get(queue, 0) + 1
                )
                if self.observer is not None:
                    self.observer.on_send(enqueued, self._journal is not None)
        # Durability first (one barrier covers every copy), visibility
        # second — and only this queue's waiters are woken.
        self._journal_sync(seq)
        with state.cond:
            for enqueued in enqueued_messages:
                state.messages.append(enqueued)
                state.cond.notify()
        return message

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    @staticmethod
    def _pop_ready(target: deque[Message], now: float) -> Message | None:
        """Remove and return the first message whose backoff has elapsed."""
        for index, message in enumerate(target):
            if message.not_before <= now:
                del target[index]
                return message
        return None

    @staticmethod
    def _next_ready_delay(
        target: deque[Message], now: float
    ) -> float | None:
        """Seconds until the earliest scheduled message becomes visible."""
        if not target:
            return None
        return max(0.0, min(m.not_before for m in target) - now)

    def receive(self, queue: str, timeout: float | None = 0.0) -> Message | None:
        """Take the next deliverable message off ``queue``.

        ``timeout=0`` polls without blocking; ``timeout=None`` blocks until
        a message arrives; a positive timeout blocks up to that many
        seconds *total* — the deadline is computed once, so spurious
        condition wakeups no longer restart the full wait.  Returns
        ``None`` when nothing became deliverable in time.  Messages whose
        ``not_before`` schedule has not elapsed are invisible.  The
        returned message stays in flight until :meth:`ack`,
        :meth:`requeue`, or :meth:`reject`.

        The wait happens entirely on the queue's own condition variable:
        traffic on other queues neither wakes nor delays this consumer.

        Fault point ``broker.deliver``: ``crash`` dies with the message
        still safely queued, ``drop`` discards the would-be delivery
        (lost datagram), ``corrupt`` mangles the body on the way out.
        """
        poll = timeout is not None and timeout <= 0
        deadline: float | None = None
        if timeout is not None and timeout > 0:
            deadline = self.clock.monotonic() + timeout
        state = self._state(queue)
        wait_t0 = time.perf_counter()
        with state.cond:
            while True:
                now = self.clock.monotonic()
                message = self._pop_ready(state.messages, now)
                if message is not None:
                    action = fire(
                        self.faults,
                        "broker.deliver",
                        queue=queue,
                        kind=message.headers.get("kind"),
                    )
                    if action == "drop":
                        if not poll:
                            continue
                        return None
                    if action == "corrupt":
                        message.body = mangle(message.body)
                    break
                if poll:
                    return None
                wait_s: float | None = None
                if deadline is not None:
                    wait_s = deadline - now
                    if wait_s <= 0:
                        return None
                hold = self._next_ready_delay(state.messages, now)
                if hold is not None:
                    # Everything queued is backoff-scheduled: wake early
                    # enough to notice the schedule (or an injected
                    # clock) moving.
                    cap = min(hold, _SCHEDULE_POLL_S)
                    wait_s = cap if wait_s is None else min(wait_s, cap)
                if state.cond.wait(timeout=wait_s):
                    state.wakeups += 1
        waited_ms = (time.perf_counter() - wait_t0) * 1000.0
        seq = None
        with self._lock:
            message.delivery_count += 1
            if self._journal is not None:
                seq = self._journal.append(
                    {"type": "deliver", "message_id": message.message_id}
                )
            self._in_flight[message.message_id] = message
            self.stats.deliveries += 1
            if message.redelivered:
                self.stats.redeliveries += 1
            observer = self.observer
            if observer is not None:
                observer.on_deliver(message)
                on_wait = getattr(observer, "on_receive_wait", None)
                if on_wait is not None:
                    on_wait(queue, waited_ms)
        self._journal_sync(seq)
        return message

    def ack(self, message: Message) -> None:
        """Acknowledge a delivered message, removing it permanently.

        Fault point ``broker.ack``: ``crash`` dies *before* the ack is
        recorded, so the message is still in flight and a journal replay
        (or consumer close) redelivers it — at-least-once semantics.
        """
        seq = None
        with self._lock:
            if message.message_id not in self._in_flight:
                raise AcknowledgeError(
                    f"message {message.message_id} is not in flight"
                )
            fire(
                self.faults,
                "broker.ack",
                queue=message.queue,
                kind=message.headers.get("kind"),
            )
            del self._in_flight[message.message_id]
            if self._journal is not None:
                seq = self._journal.append(
                    {
                        "type": "ack",
                        "queue": message.queue,
                        "message_id": message.message_id,
                    }
                )
            self.stats.acks += 1
        self._journal_sync(seq)

    def reject(self, message: Message, reason: str = "") -> bool:
        """Negative-acknowledge a delivered message.

        Applies the queue's :class:`RetryPolicy`: under the delivery cap
        the message is requeued with a backoff ``not_before`` schedule
        and ``True`` is returned (it will come back); at the cap it is
        dead-lettered and ``False`` is returned.  Either way it leaves
        the in-flight set — a rejected message is never lost.
        """
        seq = None
        state: _QueueState | None = None
        with self._lock:
            if message.message_id not in self._in_flight:
                raise AcknowledgeError(
                    f"message {message.message_id} is not in flight"
                )
            del self._in_flight[message.message_id]
            self.stats.rejections += 1
            policy = self._retry_policies.get(
                message.queue, self.default_retry_policy
            )
            if policy.exhausted(message.delivery_count):
                self._dead[message.message_id] = (message, reason)
                self.stats.dead_lettered += 1
                if self._journal is not None:
                    seq = self._journal.append(
                        {
                            "type": "dead_letter",
                            "message_id": message.message_id,
                            "reason": reason,
                        }
                    )
            else:
                delay = policy.backoff(message.delivery_count, self._rng)
                message.not_before = self.clock.monotonic() + delay
                state = self._state_locked(message.queue)
        self._journal_sync(seq)
        if state is None:
            return False
        with state.cond:
            state.messages.append(message)
            state.cond.notify()
        return True

    # ------------------------------------------------------------------
    # Dead-letter queue
    # ------------------------------------------------------------------

    def dlq_depth(self) -> int:
        """Messages currently quarantined."""
        with self._lock:
            return len(self._dead)

    def dead_letters(self) -> list[dict[str, object]]:
        """Inspectable snapshot of the quarantine, oldest first."""
        with self._lock:
            entries = [self._dead[mid] for mid in sorted(self._dead)]
        return [
            {
                "message_id": message.message_id,
                "queue": message.queue,
                "reason": reason,
                "delivery_count": message.delivery_count,
                "headers": dict(message.headers),
                "body_bytes": len(message.body),
            }
            for message, reason in entries
        ]

    def requeue_dead(self, message_id: int) -> Message:
        """Return a quarantined message to its queue for a fresh attempt.

        Resets the delivery count (the operator presumably fixed the
        underlying problem) and makes it immediately deliverable.
        """
        seq = None
        with self._lock:
            entry = self._dead.pop(message_id, None)
            if entry is None:
                raise DeadLetterError(message_id)
            message = entry[0]
            message.delivery_count = 0
            message.not_before = 0.0
            self.stats.dlq_requeued += 1
            if self._journal is not None:
                seq = self._journal.append(
                    {"type": "dlq_requeue", "message_id": message_id}
                )
            state = self._state_locked(message.queue)
        self._journal_sync(seq)
        with state.cond:
            state.messages.append(message)
            state.cond.notify()
        return message

    # ------------------------------------------------------------------

    def requeue(self, message: Message) -> None:
        """Return an in-flight message to the front of its queue."""
        with self._lock:
            if message.message_id not in self._in_flight:
                raise AcknowledgeError(
                    f"message {message.message_id} is not in flight"
                )
            del self._in_flight[message.message_id]
            state = self._state_locked(message.queue)
        with state.cond:
            state.messages.appendleft(message)
            state.cond.notify()

    def requeue_all_in_flight(self) -> int:
        """Return every in-flight message to its queue (consumer crash)."""
        with self._lock:
            messages = sorted(
                self._in_flight.values(), key=lambda m: m.message_id
            )
            self._in_flight.clear()
            states = {
                message.queue: self._state_locked(message.queue)
                for message in messages
            }
        by_queue: dict[str, list[Message]] = {}
        for message in messages:
            by_queue.setdefault(message.queue, []).append(message)
        for name, queue_messages in by_queue.items():
            state = states[name]
            with state.cond:
                for message in reversed(queue_messages):
                    state.messages.appendleft(message)
                state.cond.notify_all()
        return len(messages)

    def close(self) -> None:
        """Flush pending journal appends and release the handle."""
        if self._journal is not None:
            self._journal.seg.close()
