"""Transactions for minidb: undo log, write set, and the MVCC token.

The engine serialises all *writes* under its statement mutex, so the
transaction machinery is about atomicity, visibility and ownership:

* every mutation appends an **undo entry**; ``rollback`` replays the undo
  entries in reverse through the engine, restoring heap and indexes;
* every mutation also adds its row to the **write set** (``touched``);
  ``commit`` derives the redo record from it — one net-effect op per
  touched row — and hands it to the write-ahead log as one atomic
  record;
* the :class:`Transaction` object itself is the **MVCC token**: the
  heap stamps every uncommitted chain entry with it, and reads on the
  thread that opened it (``owner``) overlay those entries on their
  pinned snapshot — read-your-writes without publishing anything to
  other readers;
* the transaction belongs to its ``owner`` thread: only that thread may
  write into it, commit it or roll it back.  The engine makes every
  other thread's writes wait until it closes.

At commit the engine walks ``touched`` to encode the redo record and to
restamp the token entries with the new version number, then hands
``deferred`` (the superseded images whose index entries must eventually
go) to the snapshot manager's GC queue.  Outside an explicit
transaction the engine runs in autocommit mode: each statement forms
its own single-operation transaction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.errors import TransactionError


@dataclass(frozen=True)
class UndoInsert:
    """Reverse of an insert: remove the row again."""

    table: str
    rowid: int


@dataclass(frozen=True)
class UndoUpdate:
    """Reverse of an update: restore the previous row image."""

    table: str
    rowid: int
    old_row: dict[str, Any]


@dataclass(frozen=True)
class UndoDelete:
    """Reverse of a delete: put the old row back at its rowid."""

    table: str
    rowid: int
    old_row: dict[str, Any]


UndoEntry = UndoInsert | UndoUpdate | UndoDelete


class Transaction:
    """One open transaction's undo entries, write set and MVCC
    bookkeeping.  Identity (``is``) is what makes it a token — never
    compared by value, and never recycled (a reader holding a stale
    chain reference must not match a token from an earlier life).

    A plain ``__slots__`` class rather than a dataclass: autocommit
    allocates one per statement, so construction is on the write hot
    path.
    """

    __slots__ = ("undo", "owner", "touched", "deferred")

    def __init__(self) -> None:
        self.undo: list[UndoEntry] = []
        #: Ident of the thread that opened (and alone may use) it.
        self.owner = threading.get_ident()
        #: The write set: ``(table, rowid) -> (table entry, rowid)`` for
        #: every chain holding entries stamped with this token, in
        #: first-touch order — encoded as redo and restamped to the
        #: commit version at publish.
        self.touched: dict = {}
        #: Deferred index reclamation: ``(entry, rowid, old_row,
        #: next_row)`` per superseded image; queued to version GC at
        #: commit, discarded on rollback.
        self.deferred: list = []


class TransactionManager:
    """Tracks the (at most one) open transaction of a Database."""

    def __init__(self) -> None:
        self._current: Transaction | None = None

    @property
    def active(self) -> bool:
        """Whether an explicit transaction is open."""
        return self._current is not None

    @property
    def current(self) -> Transaction | None:
        """The open transaction (the MVCC token), if any."""
        return self._current

    def begin(self) -> Transaction:
        """Open a transaction owned by the calling thread."""
        if self._current is not None:
            raise TransactionError("transaction already in progress")
        self._current = Transaction()
        return self._current

    def owned_elsewhere(self) -> bool:
        """Whether the open transaction belongs to another thread."""
        txn = self._current
        return txn is not None and txn.owner != threading.get_ident()

    def owned_here(self) -> bool:
        """Whether the open transaction belongs to the calling thread."""
        txn = self._current
        return txn is not None and txn.owner == threading.get_ident()

    def record(self, undo: UndoEntry, entry: Any) -> None:
        """Log one mutation of a row of ``entry`` into the open transaction.

        Must only be called while a transaction is open (the engine opens
        an implicit one for autocommit statements).
        """
        txn = self._current
        if txn is None:
            raise TransactionError("no transaction in progress")
        txn.undo.append(undo)
        key = (undo.table, undo.rowid)
        if key not in txn.touched:
            txn.touched[key] = (entry, undo.rowid)

    def take_commit(self) -> Transaction:
        """Close the transaction, returning it for publish + WAL append."""
        if self._current is None or self.owned_elsewhere():
            raise TransactionError("commit without begin")
        txn = self._current
        self._current = None
        return txn

    def take_rollback(self) -> list[UndoEntry]:
        """Close the transaction, returning undo entries in reverse order."""
        if self._current is None or self.owned_elsewhere():
            raise TransactionError("rollback without begin")
        undo = list(reversed(self._current.undo))
        self._current = None
        return undo
