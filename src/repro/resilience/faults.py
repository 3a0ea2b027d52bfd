"""Deterministic, seeded fault injection (the chaos substrate).

A :class:`FaultPlan` is an ordered list of :class:`FaultRule` objects.
Instrumented call sites — the durable log core (``repro.seglog``,
under its ``wal`` and ``journal`` prefixes), the broker, the agent
manager and the template agent — each hold an optional ``faults``
attribute (``None`` in production, costing one attribute read per
operation) and call :func:`fire` at their injection points:

=========================  ==============================================
point                      where it sits
=========================  ==============================================
``wal.append``             before a minidb WAL record is written
``wal.fsync``              in the group-commit barrier leader, after
                           the WAL records are written, before the
                           fsync that makes them durable
``wal.rotate``             before the active WAL segment is sealed
``wal.manifest.swap``      after the WAL manifest tmp file is durable,
                           before it replaces the live manifest
``checkpoint.write``       before the checkpoint side file is written
``checkpoint.swap``        after the side file is durable, before the
                           manifest publishes it
``wal.compact``            before superseded WAL segments are unlinked
``journal.append``         before a broker-journal record is written
``journal.fsync``          like ``wal.fsync``, for the journal's barrier
``journal.replay``         at the start of a broker-journal replay
``journal.rotate``         before the active journal segment is sealed
``journal.manifest.swap``  like ``wal.manifest.swap``, for the journal
``journal.compact``        before the journal compaction snapshot is
                           written
``journal.compact.swap``   before the manifest publishes the snapshot
``journal.compact.gc``     before fully-acked journal segments are
                           unlinked
``broker.publish``         inside ``MessageBroker.send``, before enqueue
``broker.deliver``         inside ``MessageBroker.receive``, before
                           handing out
``broker.ack``             inside ``MessageBroker.ack``, before removal
``agent.dispatch``         inside ``AgentManager.dispatch_instance``
``manager.ack``            inside ``AgentManager.pump``, before
                           acknowledging
``agent.step``             inside ``TemplateAgent.step``, before handling
``agent.ack``              inside ``TemplateAgent.step``, before
                           acknowledging
=========================  ==============================================

Actions: ``crash`` raises :class:`~repro.errors.FaultInjected` at the
point (the caller's process "dies" there); ``delay`` advances/sleeps the
plan's clock; ``drop``, ``duplicate`` and ``corrupt`` are returned to
the call site, which implements the point-specific semantics (a dropped
delivery vanishes, a corrupted publish mangles the body into a poison
message, ...).

Determinism: rule order is evaluated first-match; probabilistic rules
draw from one ``random.Random(seed)`` owned by the plan, and ``after``/
``times`` counters make "crash exactly the 3rd append" expressible
without randomness at all.  The same plan object replays the same
faults for the same operation sequence — which is what lets the chaos
suite assert exact recovery outcomes per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Iterable

from repro.errors import FaultInjected
from repro.resilience.clock import Clock, SystemClock

#: The actions a rule may carry.
ACTIONS = ("crash", "delay", "drop", "duplicate", "corrupt")


@dataclass
class FaultRule:
    """One trigger: *at this point, under these conditions, do this*.

    ``point`` is an ``fnmatch`` pattern (``broker.*`` matches every
    broker hook); ``where`` adds equality filters on the context the
    call site supplies (``where={"queue": "agent.pcr-bot"}``).  The rule
    skips its first ``after`` matches, then fires at most ``times``
    times (``None`` = unlimited), each firing additionally gated by
    ``probability`` when below 1.
    """

    point: str
    action: str
    times: int | None = 1
    after: int = 0
    probability: float = 1.0
    where: dict[str, Any] = field(default_factory=dict)
    delay_s: float = 0.0
    note: str = ""
    #: Runtime counters (how often the rule matched / actually fired).
    seen: int = 0
    fired: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )

    def matches(self, point: str, ctx: dict[str, Any]) -> bool:
        """Whether this rule applies to ``point`` with context ``ctx``."""
        if not fnmatchcase(point, self.point):
            return False
        return all(ctx.get(key) == value for key, value in self.where.items())

    @property
    def exhausted(self) -> bool:
        """Whether the rule's ``times`` budget is spent."""
        return self.times is not None and self.fired >= self.times


class FaultPlan:
    """A seeded, ordered set of fault rules plus a firing history."""

    def __init__(
        self,
        seed: int = 0,
        rules: Iterable[FaultRule] = (),
        clock: Clock | None = None,
    ) -> None:
        self.seed = seed
        self.rules: list[FaultRule] = list(rules)
        self.clock: Clock = clock or SystemClock()
        self._rng = random.Random(seed)
        #: Every fault actually applied: ``(point, action, context)``.
        self.history: list[tuple[str, str, dict[str, Any]]] = []

    def rule(self, point: str, action: str, **kwargs: Any) -> "FaultPlan":
        """Append a rule (builder style); returns the plan."""
        self.rules.append(FaultRule(point, action, **kwargs))
        return self

    def fire(self, point: str, **ctx: Any) -> FaultRule | None:
        """The first armed rule matching ``point``/``ctx``, or ``None``.

        Matching rules advance their ``seen`` counter even while held
        back by ``after``; a firing rule advances ``fired`` and is
        recorded in :attr:`history`.
        """
        for rule in self.rules:
            if not rule.matches(point, ctx):
                continue
            rule.seen += 1
            if rule.seen <= rule.after:
                continue
            if rule.exhausted:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            rule.fired += 1
            self.history.append((point, rule.action, dict(ctx)))
            return rule
        return None

    def fired_points(self) -> list[str]:
        """The points that fired, in order (assertion convenience)."""
        return [point for point, __, __ in self.history]


def fire(faults: FaultPlan | None, point: str, **ctx: Any) -> str | None:
    """Consult ``faults`` at ``point``; apply crash/delay in place.

    The universal call-site helper: ``None`` plans (production) cost one
    comparison.  A ``crash`` rule raises :class:`FaultInjected` here so
    call sites cannot forget to die; a ``delay`` rule sleeps the plan's
    clock and returns ``None`` (execution continues).  ``drop`` /
    ``duplicate`` / ``corrupt`` are returned for the caller to apply.
    """
    if faults is None:
        return None
    rule = faults.fire(point, **ctx)
    if rule is None:
        return None
    if rule.action == "crash":
        raise FaultInjected(point, rule.note)
    if rule.action == "delay":
        faults.clock.sleep(rule.delay_s)
        return None
    return rule.action


def mangle(body: str) -> str:
    """Deterministically corrupt a message body (the ``corrupt`` action).

    Truncates at the midpoint and splices in a marker that breaks both
    XML and JSON parsing, turning the message into reproducible poison.
    """
    cut = len(body) // 2
    return body[:cut] + "\x00<corrupted/>"
