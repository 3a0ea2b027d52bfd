"""Durable journal for the message broker.

A :class:`repro.seglog.SegmentedLog` (prefix ``journal``) — the same
checksummed segment/manifest core, sync policy and group-commit barrier
as the minidb WAL — plus the two things only the broker needs: the
replay mirror with its compaction, and replay into broker state.  The
broker appends under its registry lock and calls ``seg.sync`` after
releasing it, so senders on different threads share fsync barriers.
Replay rebuilds the set of *outstanding* messages: everything sent but
not acknowledged — including messages that were in flight to a consumer
when the broker died — reappears in its queue in send order, carrying
the delivery count it had accumulated (so the redelivered flag survives
a broker crash), and the dead-letter quarantine is restored alongside
the live queues.

Compaction (the journal's checkpoint): the journal maintains an
in-memory *mirror* of what a replay of the on-disk records would
restore, updated on every append under the same write lock.  When the
tail since the last compaction exceeds ``compact_every`` records,
:meth:`maybe_compact` rotates to a fresh segment, snapshots the mirror
as of that cut, and installs it as a checkpoint — fully-acked messages
vanish from disk, so exactly-once-armed redelivery survives with
*bounded* storage however long the broker runs.  The broker triggers
this from ``_journal_sync``, outside its registry lock.

Record shapes::

    {"type": "declare", "queue": "agent.robot-1"}
    {"type": "send", "message": {...}}
    {"type": "deliver", "message_id": 17}
    {"type": "ack", "queue": "agent.robot-1", "message_id": 17}
    {"type": "dead_letter", "message_id": 17, "reason": "..."}
    {"type": "dlq_requeue", "message_id": 17}

A compaction snapshot re-expresses the mirror in the same vocabulary
(``declare`` + ``send`` per live message, with the accumulated
``delivery_count`` embedded in the wire dict, plus ``send`` +
``dead_letter`` per quarantined one), so replay needs no special cases.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import JournalError
from repro.messaging.message import Message
from repro.resilience.faults import fire
from repro.seglog import DEFAULT_SEGMENT_BYTES, SegmentedLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.clock import Clock

#: Default compaction threshold: tail records since the last compaction.
DEFAULT_COMPACT_EVERY = 1024


@dataclass
class JournalSnapshot:
    """What a replay restores: queues, live messages, quarantine, ids."""

    queues: list[str] = field(default_factory=list)
    #: Unacknowledged, not dead-lettered messages in send order.
    outstanding: list[Message] = field(default_factory=list)
    #: ``(message, reason)`` pairs quarantined before the crash.
    dead: list[tuple[Message, str]] = field(default_factory=list)
    next_id: int = 1


class BrokerJournal:
    """A segmented log with a compaction mirror and broker-state replay."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        sync_policy: str = "group",
        group_window_s: float = 0.0,
        clock: "Clock | None" = None,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        segment_max_records: int | None = None,
        compact_every: int | None = DEFAULT_COMPACT_EVERY,
        salvage: bool = False,
    ) -> None:
        self.path = Path(path)
        #: The durable log itself: appends, sync, counters, close.
        self.seg = SegmentedLog(
            self.path,
            error_cls=JournalError,
            prefix="journal",
            sync_policy=sync_policy,
            group_window_s=group_window_s,
            clock=clock,
            segment_max_bytes=segment_max_bytes,
            segment_max_records=segment_max_records,
            salvage=salvage,
        )
        #: Serialises appends *and* their mirror updates across broker
        #: threads — and lets compaction cut a consistent (rotation
        #: watermark, mirror state) pair.
        self._write_lock = threading.Lock()
        #: Compaction trigger (tail records); ``None`` disables.
        self.compact_every = compact_every
        #: Compactions completed through this journal's lifetime.
        self.compactions = 0
        #: Serialises compactions against each other.
        self._compact_lock = threading.Lock()
        # -- the replay mirror (see module docstring) -------------------
        self._mirror_queues: list[str] = []
        self._mirror_outstanding: dict[int, dict[str, Any]] = {}
        self._mirror_dead: dict[int, tuple[dict[str, Any], str]] = {}
        self._mirror_next_id = 1
        #: The mirror matches the on-disk history only once a full
        #: :meth:`replay` has run (or the journal started fresh);
        #: compaction is gated on this so it can never snapshot a
        #: partial view of a history it has not read.
        self._mirror_ready = not self.seg.segments and self.seg.checkpoint is None

    def append(self, record: dict[str, Any]) -> int | None:
        """Append one record and fold it into the mirror.

        Returns the ticket to hand to ``seg.sync`` once the broker has
        released its registry lock (see
        :meth:`repro.seglog.SegmentedLog.append`, which also documents
        the ``journal.append`` fault point).  A dropped record is not
        mirrored: the mirror tracks what is actually on disk.
        """
        with self._write_lock:
            seq = self.seg.append(record)
            if seq is not None:
                self._mirror_apply(record)
            return seq

    def info(self) -> dict[str, Any]:
        """Durability counters and segment layout, plus compaction state."""
        info = self.seg.info()
        info["compactions"] = self.compactions
        info["compact_every"] = self.compact_every
        return info

    # -- the replay mirror ---------------------------------------------------

    def _mirror_reset(self) -> None:
        self._mirror_queues = []
        self._mirror_outstanding = {}
        self._mirror_dead = {}
        self._mirror_next_id = 1

    def _mirror_apply(self, record: dict[str, Any]) -> None:
        """Fold one journal record into the replay mirror.

        Mirrors exactly the semantics of :meth:`replay`, operating on
        wire dicts (the accumulated ``delivery_count`` is stored *in*
        the wire dict so a compaction snapshot carries it for free).
        """
        kind = record.get("type")
        if kind == "declare":
            if record["queue"] not in self._mirror_queues:
                self._mirror_queues.append(record["queue"])
        elif kind == "send":
            wire = dict(record["message"])
            message_id = int(wire["message_id"])
            self._mirror_outstanding[message_id] = wire
            self._mirror_next_id = max(self._mirror_next_id, message_id + 1)
        elif kind == "deliver":
            wire = self._mirror_outstanding.get(record["message_id"])
            if wire is not None:
                wire["delivery_count"] = int(wire.get("delivery_count", 0)) + 1
        elif kind == "ack":
            self._mirror_outstanding.pop(record["message_id"], None)
        elif kind == "dead_letter":
            wire = self._mirror_outstanding.pop(record["message_id"], None)
            if wire is not None:
                self._mirror_dead[int(wire["message_id"])] = (
                    wire,
                    str(record.get("reason", "")),
                )
        elif kind == "dlq_requeue":
            entry = self._mirror_dead.pop(record["message_id"], None)
            if entry is not None:
                wire = entry[0]
                wire["delivery_count"] = 0
                self._mirror_outstanding[int(wire["message_id"])] = wire
        else:
            raise JournalError(f"unknown journal record type {kind!r}")

    def _mirror_records(self) -> list[dict[str, Any]]:
        """The mirror re-expressed as replayable journal records."""
        records: list[dict[str, Any]] = [
            {"type": "declare", "queue": name} for name in self._mirror_queues
        ]
        for message_id in sorted(self._mirror_outstanding):
            records.append(
                {
                    "type": "send",
                    "message": dict(self._mirror_outstanding[message_id]),
                }
            )
        for message_id in sorted(self._mirror_dead):
            wire, reason = self._mirror_dead[message_id]
            records.append({"type": "send", "message": dict(wire)})
            records.append(
                {
                    "type": "dead_letter",
                    "message_id": message_id,
                    "reason": reason,
                }
            )
        return records

    # -- compaction ----------------------------------------------------------

    def maybe_compact(self) -> bool:
        """Compact when the tail has outgrown ``compact_every`` records.

        Called by the broker after every durability barrier, outside its
        registry lock.  Skips silently when below threshold, when the
        mirror is not ready, or when another compaction is in flight.
        """
        if self.compact_every is None or not self._mirror_ready:
            return False
        if self.seg.records_since_checkpoint < self.compact_every:
            return False
        if not self._compact_lock.acquire(blocking=False):
            return False
        try:
            self.compact()
        finally:
            self._compact_lock.release()
        return True

    def compact(self) -> int:
        """Snapshot the mirror behind a rotation cut; GC acked history.

        Fault points ``journal.compact`` (before the snapshot file is
        written), ``journal.compact.swap`` (before the manifest
        publishes it) and ``journal.compact.gc`` (before pre-watermark
        segments are unlinked): a crash at any of them recovers to
        exactly the old or the new organisation of the same outstanding
        set — no acked message resurrects, no live message is lost.
        Returns the number of records in the snapshot.
        """
        if not self._mirror_ready:
            raise JournalError(
                "cannot compact before a full replay has built the mirror"
            )
        with self._write_lock:
            # The cut: everything at or below `watermark` is exactly
            # what the mirror describes, because appends (which update
            # both) are excluded while we hold the write lock.
            watermark = self.seg.rotate()
            records = self._mirror_records()
        count = self.seg.install_checkpoint(
            records,
            watermark,
            write_point="journal.compact",
            swap_point="journal.compact.swap",
            gc_point="journal.compact.gc",
        )
        self.compactions += 1
        return count

    # -- replay ---------------------------------------------------------------

    def replay(self) -> JournalSnapshot:
        """Rebuild broker state from checkpoint + tail.

        Streams record-by-record (O(1) memory in the history length
        beyond the live set).  A torn final frame is discarded (the
        operation never completed); any other corruption raises
        :class:`JournalError` with structured diagnostics — or, with
        ``salvage=True``, quarantines the corrupt suffix and restores
        the longest intact prefix.  Delivery records accumulate onto
        their message so a replayed message keeps its true
        ``delivery_count``; dead-letter records move the message into
        the quarantine (and ``dlq_requeue`` moves it back, with the
        count reset exactly as the live operation does).  Also (re)builds
        the compaction mirror.
        """
        fire(self.seg.faults, "journal.replay")
        with self._write_lock:
            self._mirror_reset()
            for record in self.seg.replay():
                if not isinstance(record, dict) or "type" not in record:
                    raise JournalError(
                        f"malformed journal record in {self.path} "
                        "(not a typed dict)"
                    )
                self._mirror_apply(record)
            self._mirror_ready = True
            snapshot = JournalSnapshot()
            snapshot.queues = list(self._mirror_queues)
            snapshot.outstanding = [
                Message.from_wire(self._mirror_outstanding[message_id])
                for message_id in sorted(self._mirror_outstanding)
            ]
            snapshot.dead = [
                (Message.from_wire(wire), reason)
                for wire, reason in (
                    self._mirror_dead[message_id]
                    for message_id in sorted(self._mirror_dead)
                )
            ]
            snapshot.next_id = self._mirror_next_id
        return snapshot
