"""Multi-version concurrency control for minidb.

The engine keeps every row as an immutable *version chain* (see
:mod:`repro.minidb.table`); this module owns the other half of the MVCC
protocol: which committed version a reader is allowed to see, and when
superseded row images and their index entries may be reclaimed.

The contract, in one paragraph: writers mutate chains under the engine's
statement mutex and, at commit, stamp every touched chain with the next
version number before :meth:`SnapshotManager.publish` makes that number
visible.  Readers call :meth:`SnapshotManager.pin` — O(1) under a tiny
leaf lock, never the statement mutex — to freeze a ``(version, epoch)``
pair, resolve rows against it lock-free, and :meth:`unpin` when done.
Index maintenance for superseded images is *deferred*: each commit
enqueues reclamation records, and :meth:`collect` (run by writers, under
the statement mutex) applies them only once no reader pins a version old
enough to still need the superseded image.

Visibility rule (:func:`visible_row`): a chain entry is visible to a
reader when it is committed at or below the reader's pinned version, or
when it belongs to the reader's own open transaction (read-your-writes
overlay).  Chains are newest-first, so the first visible entry wins; a
``None`` row image is a tombstone (the row is deleted at that version).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

__all__ = ["SnapshotManager", "visible_row"]


def visible_row(
    chain: tuple | dict[str, Any] | None, version: int, token: Any = None
) -> dict[str, Any] | None:
    """Resolve a version chain to the row visible at ``(version, token)``.

    ``chain`` is the newest-first linked tuple ``(version, token, row,
    older)`` maintained by :class:`repro.minidb.table.Heap`, possibly
    ending in a flat (bare dict) image that every version sees.  Returns
    the row dict, or ``None`` when the row does not exist at that
    version (never created yet, or tombstoned).
    """
    entry = chain
    while entry is not None:
        if type(entry) is dict:
            return entry
        entry_version, entry_token, row, older = entry
        if entry_token is not None:
            if token is not None and entry_token is token:
                return row
        elif entry_version <= version:
            return row
        entry = older
    return None


class SnapshotManager:
    """Version counter, reader pins, and deferred version GC.

    One instance per :class:`~repro.minidb.engine.Database`.  The lock
    here is a *leaf* in the engine's lock hierarchy (it nests strictly
    inside the statement mutex and nothing is ever acquired under it),
    and every critical section is O(1)-ish dict/deque work — readers can
    never block behind a group-commit fsync through it.

    Reclamation records are ``(entry, rowid, old_row, next_row)`` tuples:
    ``old_row`` is the superseded image whose index entries may need
    removal, ``next_row`` the image that replaced it (``None`` for a
    delete).  They queue per publish under the *engine mutex* (the queue
    is writer-owned state; the lock below only guards the pin table and
    the version/epoch pair shared with readers).
    """

    def __init__(self, clock: Any = None) -> None:
        if clock is None:
            from repro.resilience.clock import SystemClock

            clock = SystemClock()
        self.clock = clock
        self._lock = threading.Lock()
        self._version = 0
        self._epoch = 0
        #: version -> [pin count, monotonic time of first pin]
        self._pins: dict[int, list] = {}
        #: Pending reclamation, oldest first: (version, [records]).
        self._gc_queue: deque[tuple[int, list]] = deque()
        self.snapshot_reads = 0
        self.versions_published = 0
        self.gc_reclaims = 0

    def wrap_lock(self, wrap: Callable[[str, Any], Any]) -> None:
        """Swap the version lock for a profiled drop-in (see
        ``Database.wrap_mutex``); the witness sees it as
        ``minidb.version``."""
        self._lock = wrap("minidb.version", self._lock)

    # -- reader side ---------------------------------------------------

    @property
    def version(self) -> int:
        """The latest committed version number."""
        return self._version

    @property
    def epoch(self) -> int:
        """The current catalog epoch (bumped by every DDL)."""
        return self._epoch

    def read_state(self) -> tuple[int, int]:
        """The ``(version, epoch)`` pair without pinning — the writer
        path's view constructor (the engine mutex excludes concurrent
        publishes, so no pin is needed to keep the pair stable)."""
        return self._version, self._epoch

    def pin(self) -> tuple[int, int]:
        """Pin the latest committed snapshot; returns (version, epoch).

        The pin keeps version GC from reclaiming any row image the
        snapshot can still see.  Must be paired with :meth:`unpin`.
        """
        with self._lock:
            version = self._version
            epoch = self._epoch
            pin = self._pins.get(version)
            if pin is None:
                self._pins[version] = [1, self.clock.monotonic()]
            else:
                pin[0] += 1
            self.snapshot_reads += 1
        return version, epoch

    def unpin(self, version: int) -> None:
        """Release one pin on ``version``."""
        with self._lock:
            pin = self._pins[version]
            pin[0] -= 1
            if pin[0] == 0:
                del self._pins[version]

    # -- writer side (engine mutex held) -------------------------------

    def begin_version(self) -> int:
        """The version number the next commit will publish."""
        return self._version + 1

    def publish(
        self,
        version: int,
        records: list | None = None,
        epoch: int | None = None,
    ) -> None:
        """Make ``version`` the latest committed snapshot.

        Every chain stamped with ``version`` must already be in place —
        a reader may pin the new version the instant this returns.
        ``records`` queues deferred reclamation for the images the
        version superseded; ``epoch`` (DDL only) advances the catalog
        epoch atomically with the version.
        """
        if records:
            self._gc_queue.append((version, list(records)))
        with self._lock:
            self._version = version
            if epoch is not None:
                self._epoch = epoch
        self.versions_published += 1

    def horizon(self) -> int:
        """Reclamation horizon: records published at or below it are safe.

        A reader pinned at version ``v`` resolves every chain to its
        newest entry committed at or below ``v`` — so images superseded
        *by* version ``v`` itself are already invisible to it, and the
        horizon is exactly the oldest pinned version (or the current
        version when nothing is pinned).
        """
        with self._lock:
            if self._pins:
                return min(self._pins)
            return self._version

    def collect(self, limit: int = 8192) -> int:
        """Apply queued reclamation records up to the pin horizon.

        Called by writers after publishing (and by checkpoints), under
        the engine mutex.  A record published at version ``v`` is safe
        once no pin is older than ``v``: every remaining reader then
        resolves past the superseded image.  Returns the number of
        records applied.
        """
        if not self._gc_queue:
            return 0
        horizon = self.horizon()
        applied = 0
        while self._gc_queue and applied < limit:
            version, records = self._gc_queue[0]
            if version > horizon:
                break
            self._gc_queue.popleft()
            for entry, rowid, old_row, next_row in records:
                self._reclaim(entry, rowid, old_row, next_row, horizon)
                applied += 1
        self.gc_reclaims += applied
        return applied

    @staticmethod
    def _reclaim(entry, rowid, old_row, next_row, horizon) -> None:
        """Drop one superseded image: compact its chain, fix indexes."""
        entry.heap.compact(rowid, horizon)
        latest = entry.heap.latest_committed(rowid)
        # Hash buckets (including the PK index) are set-based: the entry
        # for a key is shared by every image carrying it, so it goes
        # only when the live image no longer does.
        for index in (entry.pk_index, *entry.hash_indexes.values()):
            if latest is None or index.key_of(latest) != index.key_of(old_row):
                index.remove(rowid, old_row)
        # Ordered indexes hold one pair *instance* per key transition
        # (writers add an instance only when the key changed), so the
        # removal mirrors the add rule exactly: one instance per
        # transition away from ``old_row``'s key.
        for ordered in entry.ordered_indexes.values():
            next_key = None if next_row is None else ordered.key_of(next_row)
            if ordered.key_of(old_row) != next_key:
                ordered.remove(rowid, old_row)

    # -- introspection -------------------------------------------------

    def gc_pending(self) -> int:
        """Reclamation records queued behind the pin horizon."""
        return sum(len(records) for __, records in self._gc_queue)

    def info(self) -> dict[str, Any]:
        """MVCC accounting for ``python -m repro.minidb info`` and
        ``/workflow/metrics``."""
        with self._lock:
            version = self._version
            epoch = self._epoch
            pins = sum(count for count, __ in self._pins.values())
            oldest = min(self._pins) if self._pins else None
            oldest_age = (
                max(0.0, self.clock.monotonic() - self._pins[oldest][1])
                if oldest is not None
                else 0.0
            )
        return {
            "current_version": version,
            "catalog_epoch": epoch,
            "live_versions": version - (oldest if oldest is not None else version) + 1,
            "pinned_snapshots": pins,
            "oldest_pin_version": oldest,
            "oldest_pin_age_s": oldest_age,
            "snapshot_reads": self.snapshot_reads,
            "versions_published": self.versions_published,
            "gc_pending": self.gc_pending(),
            "gc_reclaims": self.gc_reclaims,
        }
