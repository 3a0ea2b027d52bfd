"""Versioned heap storage for one minidb table (MVCC row chains).

Each rowid maps to an immutable *version chain*: a newest-first linked
tuple ``(version, token, row, older)``.

* Committed entries carry ``token=None`` and the version number of the
  commit that installed them.
* Uncommitted entries carry ``version=0`` and ``token=<the open
  Transaction>`` — the read-your-writes overlay key.
* ``row=None`` is a tombstone (the row is deleted as of that entry).
* A bare row dict, in place of a tuple, is a *flat* image: one
  committed image visible at every version.  WAL replay writes every
  row flat (no reader exists yet, and every later pin is at or above
  the replayed version); a committed fresh insert is flattened once no
  reader is pinned below its version.  Either way the stamp would never
  be read, and the row saves the tuple.

Chains are never mutated in place: every write replaces the rowid's
slot with a fresh chain, so a lock-free reader that grabbed a chain
reference always walks a consistent structure, and replacing the slot
is a single GIL-atomic list store.  Resolution against a pinned version lives in
:func:`repro.minidb.mvcc.visible_row`.

The heap still enforces nothing; typing, constraints and index
maintenance are the engine's job.  ``len(heap)`` counts *live* rows —
rows whose newest entry is not a tombstone — which the heap maintains
incrementally so ``row_count``/``explain`` stay O(1).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.minidb.mvcc import visible_row


class Heap:
    """Version-chained row storage with stable rowids."""

    def __init__(self) -> None:
        # Rowids are dense (1, 2, 3, ...), so chains sit in a list
        # indexed by rowid; slot 0 is unused, a dead rowid's slot is None.
        self._chains: list[tuple | dict[str, Any] | None] = [None]
        self._live = 0

    def __len__(self) -> int:
        return self._live

    # -- writes (engine mutex held) ------------------------------------

    def insert(
        self, row: dict[str, Any], token: Any = None, version: int = 0
    ) -> int:
        """Store a new row, returning its rowid."""
        rowid = len(self._chains)
        self._chains.append((version, token, row, None))
        self._live += 1
        return rowid

    def put(self, rowid: int, row: dict[str, Any], token: Any) -> None:
        """Push an uncommitted new image on top of ``rowid``'s chain."""
        self._chains[rowid] = (0, token, row, self._chains[rowid])

    def put_tombstone(self, rowid: int, token: Any) -> None:
        """Push an uncommitted delete marker on top of ``rowid``'s chain."""
        self._chains[rowid] = (0, token, None, self._chains[rowid])
        self._live -= 1

    def commit(self, rowid: int, token: Any, version: int) -> None:
        """Restamp ``token``'s entries in the chain as committed at
        ``version`` (the chain object is rebuilt, never mutated)."""
        chain = self.chain(rowid)
        if chain is None or type(chain) is dict:
            return
        older = chain[3]
        if chain[1] is token and (
            older is None or type(older) is dict or older[1] is None
        ):
            # Hot paths: a fresh insert (no history) or one update over a
            # committed image.  Uncommitted entries are contiguous at the
            # head (concurrent statements join the one open transaction),
            # so a committed next entry means only the head needs stamping.
            self._chains[rowid] = (version, None, chain[2], older)
            return
        entries = []
        entry = chain
        changed = False
        while entry is not None and type(entry) is not dict:
            entry_version, entry_token, row, older = entry
            if entry_token is token:
                entries.append((version, None, row))
                changed = True
            else:
                entries.append((entry_version, entry_token, row))
            entry = older
        if not changed:
            return
        rebuilt = entry  # None, or the flat image the chain ends in
        for entry_version, entry_token, row in reversed(entries):
            rebuilt = (entry_version, entry_token, row, rebuilt)
        self._chains[rowid] = rebuilt

    def flatten(self, rowid: int, version: int) -> None:
        """Store a fresh (or replayed) row committed at ``version`` flat.

        The caller guarantees that no reader is pinned below
        ``version``; a chain with any history is left as it is.
        """
        chain = self.chain(rowid)
        if (
            type(chain) is tuple
            and chain[0] == version
            and chain[1] is None
            and chain[2] is not None
            and chain[3] is None
        ):
            self._chains[rowid] = chain[2]

    def rollback_head(self, rowid: int) -> dict[str, Any] | None:
        """Pop the newest (uncommitted) entry; returns its row image."""
        __, __, row, older = self._chains[rowid]
        self._chains[rowid] = older
        if row is None:
            self._live += 1  # popped a tombstone: the row is live again
        elif older is None:
            self._live -= 1  # popped a fresh insert: the rowid is gone
        return row

    def compact(self, rowid: int, horizon: int) -> None:
        """Drop chain entries no pinned reader can resolve to.

        Keeps uncommitted entries, committed entries above ``horizon``,
        and the newest committed entry at or below it (the image every
        remaining reader lands on) — unless that image is a tombstone
        with nothing newer, in which case the rowid itself is dead.
        """
        chain = self.chain(rowid)
        if chain is None:
            return
        kept: list[tuple] = []
        flat = None
        entry = chain
        while entry is not None:
            if type(entry) is dict:
                flat = entry  # committed below every pin: the landing image
                break
            version, token, row, older = entry
            if token is not None or version > horizon:
                kept.append((version, token, row))
            else:
                if row is not None or kept:
                    kept.append((version, token, row))
                break
            entry = older
        if not kept and flat is None:
            self._chains[rowid] = None
            return
        rebuilt = flat
        for version, token, row in reversed(kept):
            rebuilt = (version, token, row, rebuilt)
        self._chains[rowid] = rebuilt

    # -- recovery writes (flat chains, no concurrent readers) ----------

    def replace_committed(
        self, rowid: int, row: dict[str, Any], version: int
    ) -> None:
        """Overwrite ``rowid`` with a single committed entry (replay)."""
        self._chains[rowid] = (version, None, row, None)

    def remove(self, rowid: int) -> None:
        """Hard-drop ``rowid`` (replay of a committed delete)."""
        self._chains[rowid] = None
        self._live -= 1

    # -- reads (safe without the engine mutex) -------------------------

    def chain(self, rowid: int) -> tuple | dict[str, Any] | None:
        """The version chain at ``rowid`` (``None`` if never created)."""
        chains = self._chains
        return chains[rowid] if rowid < len(chains) else None

    def chains(self) -> Iterator[tuple[int, tuple | dict[str, Any]]]:
        """Iterate ``(rowid, chain)`` pairs over one atomic snapshot of
        the chain table (safe against concurrent writers)."""
        return (
            (rowid, chain)
            for rowid, chain in enumerate(list(self._chains))
            if chain is not None
        )

    def visible(
        self, rowid: int, version: int, token: Any = None
    ) -> dict[str, Any] | None:
        """The row image visible at ``(version, token)``, if any."""
        return visible_row(self.chain(rowid), version, token)

    def visible_items(
        self, version: int, token: Any = None
    ) -> Iterator[tuple[int, dict[str, Any]]]:
        """Iterate ``(rowid, row)`` for every row visible at the snapshot."""
        for rowid, chain in self.chains():
            row = visible_row(chain, version, token)
            if row is not None:
                yield rowid, row

    def latest_committed(self, rowid: int) -> dict[str, Any] | None:
        """The newest committed image (``None`` if deleted or unknown)."""
        entry = self.chain(rowid)
        while entry is not None:
            if type(entry) is dict:
                return entry
            if entry[1] is None:
                return entry[2]
            entry = entry[3]
        return None

    def latest_items(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Iterate ``(rowid, row)`` over the newest committed images —
        the index-rebuild feed for DDL (which forbids open
        transactions, so no token entries exist)."""
        for rowid, __ in self.chains():
            row = self.latest_committed(rowid)
            if row is not None:
                yield rowid, row

    def prepend_committed(
        self, rowid: int, row: dict[str, Any], version: int
    ) -> None:
        """Push a committed image on top of ``rowid``'s chain — the
        ``add_column`` backfill path, which rewrites every row at one
        new version while pinned readers keep the old images."""
        self._chains[rowid] = (version, None, row, self._chains[rowid])

    def images(self, rowid: int) -> list[dict[str, Any]]:
        """Every non-tombstone image still in ``rowid``'s chain."""
        out = []
        entry = self.chain(rowid)
        while entry is not None:
            if type(entry) is dict:
                out.append(entry)
                break
            if entry[2] is not None:
                out.append(entry[2])
            entry = entry[3]
        return out

    def clear(self) -> None:
        """Drop every row (used by DROP TABLE and recovery)."""
        self._chains = [None]
        self._live = 0
