"""The minidb database engine: DDL, DML, constraints, planning, recovery.

:class:`Database` is the single public entry point.  It glues together the
catalog (schemas, heaps, indexes), the transaction manager (atomicity),
the MVCC snapshot manager (read isolation), the write-ahead log
(durability) and the statistics collector (the read/write accounting the
paper's evaluation is phrased in).

Usage::

    db = Database()                      # in-memory
    db = Database("/var/lib/lims.wal")   # durable, recovers on open

    db.create_table(TableSchema(...))
    db.insert("Experiment", {"name": "pcr-7", ...})
    rows = db.select("Experiment", EQ("project_id", 3))
    with db.transaction():
        db.update(...)
        db.delete(...)
    with db.snapshot() as snap:          # repeatable reads, no mutex
        snap.select("Experiment")
"""

from __future__ import annotations

import contextlib
import gc
import os
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import (
    ConstraintError,
    ForeignKeyError,
    NotNullError,
    PrimaryKeyError,
    RecoveryError,
    SchemaError,
    TransactionError,
)
from repro.minidb.catalog import Catalog, TableEntry
from repro.minidb.index import HashIndex, OrderedIndex
from repro.minidb.mvcc import SnapshotManager, visible_row
from repro.minidb.predicates import GE, GT, IN, LE, LT, Predicate
from repro.minidb.schema import Column, TableSchema
from repro.minidb.stats import DatabaseStats
from repro.minidb.transactions import (
    Transaction,
    TransactionManager,
    UndoDelete,
    UndoEntry,
    UndoInsert,
    UndoUpdate,
)
from repro.minidb.types import ColumnType, coerce, from_wire, to_wire
from repro.seglog import SegmentedLog

_MISSING = object()

#: Rows per ``txn`` record in a checkpoint snapshot — keeps individual
#: checkpoint frames bounded without changing the replayed state.
_CHECKPOINT_BATCH_ROWS = 500

#: Log size from which recovery first runs a full garbage collection.
#: Replaying a large log allocates a whole store at once, and a process
#: that reopens a store often still holds a closed incarnation as
#: cyclic garbage the collector has not reached yet; reclaiming it first
#: lets the replayed rows reuse that memory instead of sitting next to
#: it.  Small logs skip the collection, whose cost grows with the heap.
_COLLECT_BEFORE_REPLAY_BYTES = 1 << 20

#: Longest string value that WAL replay shares between rows: statuses,
#: names, trace ids and the audit trail's repeated detail texts.
_SHARED_STRING_MAX = 128


class _ReadView:
    """Visibility context for one read: a pinned committed version, the
    catalog epoch it was pinned under, and (for threads participating in
    the open transaction) the transaction whose uncommitted writes
    overlay the snapshot."""

    __slots__ = ("version", "epoch", "token")

    def __init__(self, version: int, epoch: int, token: Transaction | None):
        self.version = version
        self.epoch = epoch
        self.token = token


class CheckpointPolicy:
    """When the engine should checkpoint on its own.

    ``every_records`` triggers once that many records have accumulated
    in the WAL tail since the last checkpoint; ``interval_s`` triggers
    on elapsed time through an injectable clock (so the chaos suite can
    drive time-based checkpoints without wall time).  Either may be
    ``None``; a policy with both ``None`` never triggers.  The engine
    consults the policy after each commit's durability barrier — outside
    the statement mutex, so an automatic checkpoint delays no writer.
    """

    def __init__(
        self,
        every_records: int | None = None,
        interval_s: float | None = None,
        clock: Any = None,
    ) -> None:
        self.every_records = every_records
        self.interval_s = interval_s
        if clock is None:
            from repro.resilience.clock import SystemClock

            clock = SystemClock()
        self.clock = clock
        self._last_at = self.clock.now()

    def due(self, records_since_checkpoint: int) -> bool:
        """Whether a checkpoint should run now."""
        if (
            self.every_records is not None
            and records_since_checkpoint >= self.every_records
        ):
            return True
        if self.interval_s is not None:
            return self.clock.now() - self._last_at >= self.interval_s
        return False

    def note_checkpoint(self) -> None:
        """Restart the interval timer (called after any checkpoint)."""
        self._last_at = self.clock.now()


class Snapshot:
    """A pinned committed snapshot: every read through it resolves at
    the same version, regardless of concurrent commits.

    Obtained from :meth:`Database.snapshot`; reads run entirely outside
    the statement mutex, so they can never wait behind a writer's
    group-commit window.  The handle does not overlay any transaction —
    it sees exactly the committed state at pin time.
    """

    def __init__(self, db: "Database", view: _ReadView) -> None:
        self._db = db
        self._view = view

    @property
    def version(self) -> int:
        """The committed version this snapshot is pinned at."""
        return self._view.version

    def select(
        self,
        table: str,
        where: Predicate | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
        columns: Sequence[str] | None = None,
    ) -> list[dict[str, Any]]:
        """Like :meth:`Database.select`, at the pinned version."""
        return self._db._select_at(
            self._view, table, where, order_by, descending, limit, columns
        )

    def select_one(
        self, table: str, where: Predicate | None = None
    ) -> dict[str, Any] | None:
        """The first matching row at the pinned version, or ``None``."""
        rows = self.select(table, where, limit=1)
        return rows[0] if rows else None

    def get(self, table: str, *key: Any) -> dict[str, Any] | None:
        """Primary-key lookup at the pinned version."""
        return self._db._get_at(self._view, table, key)

    def count(self, table: str, where: Predicate | None = None) -> int:
        """Number of matching rows at the pinned version."""
        return self._db._count_at(self._view, table, where)

    def explain(
        self, table: str, where: Predicate | None = None
    ) -> dict[str, Any]:
        """The access path a select at the pinned version would take."""
        return self._db._explain_at(self._view, table, where)


class Database:
    """An in-process relational database with optional durability.

    Thread safety: every *write* statement (DDL, DML) runs under one
    re-entrant mutex, so autocommit statements from concurrent threads
    are safe.  *Reads* (``select``/``select_one``/``get``/``count``/
    ``explain``/``select_with_parent``) never take that mutex: they pin
    the latest committed MVCC snapshot — O(1) under a tiny leaf lock —
    and resolve row version chains lock-free, so a read can never block
    behind a writer's group-commit fsync window.  An explicit
    multi-statement transaction belongs to the thread that opened it:
    that thread reads its own uncommitted writes overlaid on the pinned
    snapshot, and every other thread's ``begin``, DML and DDL waits —
    without holding the mutex — until it commits or rolls back.  The
    durability wait happens *after* the mutex is released, which is
    what lets concurrent committers share one fsync instead of queueing
    on the lock for theirs.
    """

    def __init__(
        self,
        wal_path: str | os.PathLike[str] | None = None,
        sync_policy: str = "group",
        group_window_s: float = 0.0,
        clock: Any = None,
        segment_max_records: int | None = None,
        salvage: bool = False,
        checkpoint_policy: CheckpointPolicy | None = None,
    ) -> None:
        self._catalog = Catalog()
        self._txn = TransactionManager()
        self._mvcc = SnapshotManager(clock=clock)
        self.stats = DatabaseStats()
        self._mutex = threading.RLock()
        #: Signalled when an explicit transaction closes; built over the
        #: statement mutex so waiting for another thread's transaction
        #: releases it (see :meth:`_await_txn_slot`).
        self._txn_closed = threading.Condition(self._mutex)
        #: Per-thread (wal sequence, start time) of a commit awaiting
        #: its durability barrier — drained by :meth:`_sync_pending`.
        self._pending_commit = threading.local()
        #: Cached access-path choice per (table, catalog epoch,
        #: predicate shape); cleared wholesale on any DDL.  The epoch in
        #: the key pins each plan to the index set it was derived from,
        #: so a reader pinned before a CREATE INDEX never executes a
        #: plan that routes through the too-new index.
        self._plan_cache: dict[tuple[str, int, tuple], tuple[str, Any]] = {}
        #: Test/bench escape hatch: bypass (not just miss) the cache.
        self.plan_cache_enabled = True
        #: Callbacks ``f(table_name)`` fired after each row write —
        #: the invalidation feed for higher-level caches.  Listeners
        #: run under the database mutex: keep them cheap and never call
        #: back into the database.
        self._write_listeners: list[Callable[[str], None]] = []
        #: Optional hook ``f(elapsed_ms)`` observing commit durability
        #: latency (append → fsync barrier); never allowed to raise.
        self.on_commit: Callable[[float], None] | None = None
        #: Optional hook ``f(detail)`` fired after each completed
        #: checkpoint with ``{"reason", "records", "watermark",
        #: "elapsed_ms"}``; never allowed to raise (observability wires
        #: audit records and metrics through it).
        self.on_checkpoint: Callable[[dict[str, Any]], None] | None = None
        #: Automatic checkpointing policy (``None`` = manual only).
        self.checkpoint_policy = checkpoint_policy
        #: Checkpoints completed through this Database's lifetime.
        self.checkpoints = 0
        #: What the last :meth:`_recover` replayed (timings + shape).
        self.last_recovery: dict[str, Any] = {}
        #: Serialises checkpoints against each other (writers are *not*
        #: blocked: the mutex is only held for the brief version pin).
        self._ckpt_lock = threading.Lock()
        self.sync_policy = sync_policy
        #: The write-ahead log.  Each committed transaction (and each
        #: DDL statement) is one record; see :meth:`_recover` for the
        #: record shapes replay accepts.
        self._wal: SegmentedLog | None = None
        if wal_path is not None:
            self._wal = SegmentedLog(
                wal_path,
                error_cls=RecoveryError,
                prefix="wal",
                sync_policy=sync_policy,
                group_window_s=group_window_s,
                clock=clock,
                segment_max_records=segment_max_records,
                salvage=salvage,
            )
            self._recover()

    def attach_faults(self, plan) -> None:
        """Install (or clear) a fault plan on the database's WAL.

        ``plan`` is a :class:`repro.resilience.faults.FaultPlan` (typed
        loosely to keep minidb free of upward imports).  A no-op on a
        non-durable database — there is no WAL to inject into.
        """
        if self._wal is not None:
            self._wal.faults = plan

    def wrap_mutex(self, wrap: Callable[[str, Any], Any]) -> None:
        """Swap the engine locks for profiled drop-ins.

        ``wrap(name, lock)`` must return an object with the same
        ``acquire``/``release``/context-manager contract (re-entrant for
        the statement mutex, whose inner lock is an RLock).  Installed
        by the profiling layer (``repro.obs.prof``) — minidb itself
        never imports it, the wrapper comes in from above.  The MVCC
        version lock is wrapped alongside (as ``minidb.version``) so
        the lock-order witness observes the mutex → version nesting.
        """
        self._mutex = wrap("minidb.mutex", self._mutex)
        self._txn_closed = threading.Condition(self._mutex)
        self._mvcc.wrap_lock(wrap)

    # ------------------------------------------------------------------
    # MVCC plumbing
    # ------------------------------------------------------------------

    def _pin_view(self) -> _ReadView:
        """Pin the latest committed snapshot for one read statement.

        O(1) under the version lock — never the statement mutex.  If the
        calling thread owns the open transaction, its uncommitted writes
        overlay the snapshot (read-your-writes).  Must be released with
        :meth:`_unpin_view`.
        """
        txn = self._txn.current
        if txn is not None and txn.owner != threading.get_ident():
            txn = None
        version, epoch = self._mvcc.pin()
        return _ReadView(version, epoch, txn)

    def _unpin_view(self, view: _ReadView) -> None:
        self._mvcc.unpin(view.version)

    def _await_txn_slot(self) -> None:
        """Wait (mutex held) until no other thread's transaction is open.

        Every write statement, ``begin`` and a manual checkpoint call
        this first.  The wait releases the statement mutex — the
        condition is built over it — so the owner can finish its
        transaction meanwhile.  It cannot deadlock: a ``TableBean`` or
        ``save_pattern`` transaction runs only database statements, and
        an engine call's (``WorkflowBean``) takes only leaf locks and the
        broker's beyond the bean lock it already holds, so an owner
        never waits on a lock a waiter holds.
        """
        while self._txn.owned_elsewhere():
            # conlint: allow=CC003 -- the condition is built over the
            # statement mutex, so this wait releases the mutex it holds.
            self._txn_closed.wait(timeout=1.0)

    def _writer_view(self) -> _ReadView:
        """Visibility for reads inside a write statement (mutex held):
        the latest committed state plus the statement's transaction."""
        version, epoch = self._mvcc.read_state()
        return _ReadView(version, epoch, self._txn.current)

    def _resolve(
        self, entry: TableEntry, rowid: int, view: _ReadView
    ) -> dict[str, Any] | None:
        """The row image of ``rowid`` visible at ``view``, if any."""
        return visible_row(entry.heap.chain(rowid), view.version, view.token)

    def _advance_epoch(self, records: list | None = None) -> int:
        """Publish a new version + catalog epoch after DDL (mutex held)."""
        self._plan_cache.clear()
        version = self._mvcc.begin_version()
        self._mvcc.publish(version, records, epoch=self._mvcc.epoch + 1)
        self._mvcc.collect()
        return version

    @contextlib.contextmanager
    def snapshot(self) -> Iterator[Snapshot]:
        """Pin the latest committed version for repeatable reads.

        Every read through the yielded :class:`Snapshot` resolves at the
        pinned version — concurrent commits are invisible, and no read
        ever takes the statement mutex.  The pin holds version GC back
        for the images the snapshot can still see; release promptly.
        """
        version, epoch = self._mvcc.pin()
        try:
            yield Snapshot(self, _ReadView(version, epoch, None))
        finally:
            self._mvcc.unpin(version)

    def mvcc_info(self) -> dict[str, Any]:
        """MVCC accounting: current version, pins, GC backlog/reclaims."""
        return self._mvcc.info()

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        """Create a table.  Not allowed inside a transaction."""
        with self._mutex:
            self._await_txn_slot()
            self._forbid_in_transaction("create_table")
            self._catalog.add_table(schema)
            self._advance_epoch()
            self._log({"type": "create_table", "schema": schema.describe()})
        self._sync_pending()

    def drop_table(self, name: str) -> None:
        """Drop a table (fails if referenced by other tables)."""
        with self._mutex:
            self._await_txn_slot()
            self._forbid_in_transaction("drop_table")
            self._catalog.remove_table(name)
            self._advance_epoch()
            self._log({"type": "drop_table", "table": name})
        self._sync_pending()

    def create_index(
        self, table: str, columns: Sequence[str], unique: bool = False
    ) -> str:
        """Create a hash index over ``columns``; returns the index name."""
        with self._mutex:
            self._await_txn_slot()
            self._forbid_in_transaction("create_index")
            entry = self._catalog.entry(table)
            entry.schema.validate_column_names(columns)
            name = self._index_name(table, columns)
            if name in entry.hash_indexes:
                raise SchemaError(f"index {name!r} already exists")
            index = HashIndex(tuple(columns), unique=unique)
            index.rebuild(entry.heap.latest_items())
            if unique:
                self._verify_unique(entry, index, columns)
            # Valid only from the post-DDL epoch: a reader pinned before
            # this statement may still see superseded images the new
            # index holds no entries for, so its plans must not route
            # through it.  The wholesale dict swap keeps concurrent
            # lock-free iteration over the old dict safe.
            index.created_epoch = self._mvcc.epoch + 1
            entry.hash_indexes = {**entry.hash_indexes, name: index}
            self._advance_epoch()
            self._log(
                {
                    "type": "create_index",
                    "table": table,
                    "columns": list(columns),
                    "unique": unique,
                    "ordered": False,
                }
            )
        self._sync_pending()
        return name

    def create_ordered_index(self, table: str, column: str) -> str:
        """Create a sorted index on one column (enables range scans)."""
        with self._mutex:
            self._await_txn_slot()
            self._forbid_in_transaction("create_ordered_index")
            entry = self._catalog.entry(table)
            entry.schema.validate_column_names([column])
            name = self._index_name(table, [column]) + "__ordered"
            if name in entry.ordered_indexes:
                raise SchemaError(f"index {name!r} already exists")
            index = OrderedIndex(column)
            index.rebuild(entry.heap.latest_items())
            index.created_epoch = self._mvcc.epoch + 1
            entry.ordered_indexes = {**entry.ordered_indexes, name: index}
            self._advance_epoch()
            self._log(
                {
                    "type": "create_index",
                    "table": table,
                    "columns": [column],
                    "unique": False,
                    "ordered": True,
                }
            )
        self._sync_pending()
        return name

    def add_column(self, table: str, column) -> None:
        """ALTER TABLE ADD COLUMN: extend ``table`` with one new column.

        Existing rows are backfilled with the column default (which must
        be NULL-compatible with the column's nullability).  This is the
        mechanism Exp-WF uses to extend the ``Experiment`` table with its
        workflow pointers — the only modification the paper makes to the
        original data model.
        """
        with self._mutex:
            self._await_txn_slot()
            self._add_column_locked(table, column)
        self._sync_pending()

    def _add_column_locked(self, table: str, column) -> None:
        self._forbid_in_transaction("add_column")
        entry = self._catalog.entry(table)
        schema = entry.schema
        if schema.has_column(column.name):
            raise SchemaError(
                f"table {table!r} already has a column {column.name!r}"
            )
        backfill = column.resolve_default()
        if backfill is None and not column.nullable:
            raise SchemaError(
                f"cannot add NOT NULL column {column.name!r} without a "
                "default to backfill existing rows"
            )
        backfill = coerce(backfill, column.type, f"{table}.{column.name}")
        new_schema = TableSchema(
            name=schema.name,
            columns=[*schema.columns, column],
            primary_key=schema.primary_key,
            foreign_keys=list(schema.foreign_keys),
            parent=schema.parent,
            autoincrement=schema.autoincrement,
        )
        # The backfill is itself versioned: every row gets a new
        # committed image at the DDL's version, while readers pinned
        # earlier keep resolving to the old images under the old schema
        # (schema_versions carries the cutover point).  The superseded
        # images queue for GC with unchanged index keys, so reclamation
        # is pure chain compaction.
        version = self._mvcc.begin_version()
        records = []
        for rowid, row in entry.heap.latest_items():
            new_row = dict(row)
            new_row[column.name] = backfill
            entry.heap.prepend_committed(rowid, new_row, version)
            records.append((entry, rowid, row, new_row))
        entry.schema = new_schema
        entry.schema_versions.append((version, new_schema))
        self._plan_cache.clear()
        self._mvcc.publish(version, records, epoch=self._mvcc.epoch + 1)
        self._mvcc.collect()
        self._log(
            {
                "type": "add_column",
                "table": table,
                "column": {
                    "name": column.name,
                    "type": column.type.value,
                    "nullable": column.nullable,
                    "default": None if callable(column.default) else column.default,
                },
            }
        )

    @staticmethod
    def _index_name(table: str, columns: Sequence[str]) -> str:
        return f"{table}__{'_'.join(columns)}"

    @staticmethod
    def _verify_unique(
        entry: TableEntry, index: HashIndex, columns: Sequence[str]
    ) -> None:
        seen: set[tuple] = set()
        for __, row in entry.heap.latest_items():
            key = index.key_of(row)
            if any(part is None for part in key):
                continue
            if key in seen:
                raise ConstraintError(
                    f"cannot create unique index on {entry.schema.name!r}"
                    f"{tuple(columns)}: duplicate key {key!r}"
                )
            seen.add(key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def tables(self) -> list[str]:
        """All table names in creation order."""
        return self._catalog.table_names()

    def has_table(self, name: str) -> bool:
        """Whether a table called ``name`` exists."""
        return name in self._catalog

    def schema(self, name: str) -> TableSchema:
        """The schema of table ``name``."""
        return self._catalog.entry(name).schema

    def row_count(self, name: str) -> int:
        """Number of rows currently in table ``name``."""
        return len(self._catalog.entry(name).heap)

    def wal_info(self) -> dict[str, object]:
        """Durability status: whether a WAL is attached, and its shape.

        ``appended_records`` counts appends through this Database's
        lifetime (it restarts at 0 on reopen — replayed records were
        appended by the *previous* incarnation); ``size_bytes`` is the
        on-disk log size, which a :meth:`checkpoint` shrinks.
        """
        if self._wal is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "path": str(self._wal.path),
            **self._wal.info(),
            "checkpoints": self.checkpoints,
            "last_recovery": dict(self.last_recovery),
        }

    def add_write_listener(self, listener: Callable[[str], None]) -> None:
        """Register ``listener(table_name)``, fired after each row write.

        Fired for inserts, updates and deletes — including writes that a
        later rollback undoes, so listeners must treat notifications as
        "this table *may* have changed" (cache invalidation is the
        intended use; spurious invalidation is harmless).
        """
        self._write_listeners.append(listener)

    def _notify_write(self, table: str) -> None:
        for listener in self._write_listeners:
            listener(table)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Open an explicit transaction owned by the calling thread.

        Waits while another thread's transaction is open; raises
        :class:`TransactionError` if this thread already has one.
        """
        with self._mutex:
            self._await_txn_slot()
            self._txn.begin()

    def commit(self) -> None:
        """Commit this thread's transaction, making it durable."""
        with self._mutex:
            try:
                self._commit_locked()
            finally:
                self._txn_closed.notify_all()
        self._sync_pending()

    def rollback(self) -> None:
        """Abort this thread's transaction, undoing all of its changes."""
        with self._mutex:
            try:
                self._rollback_locked()
            finally:
                self._txn_closed.notify_all()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """``with db.transaction():`` — commit on success, rollback on error."""
        self.begin()
        try:
            yield
        except BaseException:
            self.rollback()
            raise
        self.commit()

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is open."""
        return self._txn.active

    @property
    def owns_transaction(self) -> bool:
        """Whether the calling thread has an explicit transaction open."""
        return self._txn.owned_here()

    def _forbid_in_transaction(self, operation: str) -> None:
        if self._txn.active:
            raise TransactionError(f"{operation} is not allowed in a transaction")

    def _commit_locked(self) -> None:
        """Publish the open transaction's writes, then log its redo.

        The redo record is built here, once, from the write set: one
        net-effect op per touched row (see :func:`_redo_op`), so a row
        written several times costs one op, and a transaction whose
        changes cancel out logs nothing.  The commit protocol: stamp
        every touched chain with the next version number, *then*
        publish that number — a reader pinning the new version the
        instant publish returns already finds every chain restamped.
        Deferred index reclamation rides the publish into the GC queue
        and is collected opportunistically (with no pinned readers it
        drains immediately, so single-threaded flows keep today's exact
        index shapes).
        """
        txn = self._txn.take_commit()
        if not txn.touched:
            return
        touched = txn.touched.values()
        ops = []
        if self._wal is not None:
            for entry, rowid in touched:
                op = _redo_op(entry, entry.heap.chain(rowid), txn)
                if op is not None:
                    ops.append(op)
        version = self._mvcc.begin_version()
        for entry, rowid in touched:
            entry.heap.commit(rowid, txn, version)
        self._mvcc.publish(version, txn.deferred)
        self._flatten_fresh(touched, version)
        self._mvcc.collect()
        if ops:
            self._log({"type": "txn", "ops": ops})

    def _flatten_fresh(
        self, touched: Iterable[tuple[TableEntry, int]], version: int
    ) -> None:
        """Store the rows first inserted at ``version`` as flat images.

        Safe once no reader is pinned below ``version``: every pin, now
        or later, sees the row, so its stamp would never be read.  Under
        a concurrent older pin the rows keep their stamped chains.
        """
        if self._mvcc.horizon() < version:
            return
        for entry, rowid in touched:
            entry.heap.flatten(rowid, version)

    def _rollback_locked(self) -> None:
        for undo in self._txn.take_rollback():
            self._apply_undo(undo)

    @contextlib.contextmanager
    def _statement(self) -> Iterator[None]:
        """Run one DML statement, autocommitting if no transaction is open.

        Called after :meth:`_await_txn_slot`, so an open transaction is
        the calling thread's own and the statement joins it.
        """
        if self._txn.active:
            yield
            return
        self._txn.begin()
        try:
            yield
        except BaseException:
            self._rollback_locked()
            raise
        self._commit_locked()

    # ------------------------------------------------------------------
    # DML — insert
    # ------------------------------------------------------------------

    def insert(self, table: str, values: dict[str, Any]) -> dict[str, Any]:
        """Insert one row; returns the stored row (defaults filled in)."""
        with self._mutex:
            self._await_txn_slot()
            entry = self._catalog.entry(table)
            if self._txn.active:
                with self._statement():
                    txn = self._txn.current
                    view = self._writer_view()
                    row = self._materialise_row(entry, values)
                    self._check_primary_key(entry, row, view)
                    self._check_parent(entry, row, view)
                    self._check_foreign_keys(entry, row, view)
                    rowid = self._store(entry, row, txn)
                    self._txn.record(UndoInsert(table, rowid), entry)
                    self.stats.record_write(table)
                    self._notify_write(table)
            else:
                row = self._insert_autocommit(entry, table, values)
        self._sync_pending()
        return dict(row)

    def _insert_autocommit(
        self, entry: TableEntry, table: str, values: dict[str, Any]
    ) -> dict[str, Any]:
        """Insert outside a transaction without the per-statement
        transaction machinery (the insert hot path).

        A single-statement insert needs no undo log, token overlay or
        commit restamp: once the constraint checks pass, the row is
        stored directly stamped with the next version — invisible to
        every reader until :meth:`SnapshotManager.publish` makes that
        version current, which is the same stamp-then-publish protocol
        :meth:`_commit_locked` follows, minus one chain rewrite.
        """
        version, epoch = self._mvcc.read_state()
        view = _ReadView(version, epoch, None)
        row = self._materialise_row(entry, values)
        self._check_primary_key(entry, row, view)
        self._check_parent(entry, row, view)
        self._check_foreign_keys(entry, row, view)
        rowid = self._store(entry, row, None, version=version + 1)
        try:
            self.stats.record_write(table)
            self._notify_write(table)
        except BaseException:
            # The version was never published, but the next commit would
            # expose the orphaned row — retract it like a rollback would.
            self._apply_undo(UndoInsert(table, rowid))
            raise
        self._mvcc.publish(version + 1)
        self._flatten_fresh(((entry, rowid),), version + 1)
        self._mvcc.collect()
        self._log({"type": "txn", "ops": [_insert_op(entry.schema, row)]})
        return row

    def _materialise_row(
        self, entry: TableEntry, values: dict[str, Any]
    ) -> dict[str, Any]:
        schema = entry.schema
        schema.validate_column_names(values)
        row: dict[str, Any] = {}
        for column in schema.columns:
            value = values.get(column.name, _MISSING)
            if value is _MISSING:
                if column.name == schema.autoincrement:
                    value = None
                else:
                    value = column.resolve_default()
            if value is None and column.name == schema.autoincrement:
                value = entry.autoincrement_next
                entry.autoincrement_next += 1
            value = coerce(value, column.type, f"{schema.name}.{column.name}")
            if value is None and not column.nullable:
                raise NotNullError(
                    f"column {schema.name}.{column.name} may not be NULL"
                )
            row[column.name] = value
        if schema.autoincrement is not None:
            provided = row[schema.autoincrement]
            if provided is not None and provided >= entry.autoincrement_next:
                entry.autoincrement_next = provided + 1
        return row

    def _pk_visible_row(
        self, entry: TableEntry, key: tuple[Any, ...], view: _ReadView
    ) -> dict[str, Any] | None:
        """Resolve a primary-key lookup against a read view.

        Index entries may be stale (removal is deferred to version GC),
        so each candidate's visible image is re-checked against the key.
        """
        for rowid in sorted(entry.pk_index.lookup(key)):
            row = self._resolve(entry, rowid, view)
            if row is not None and entry.pk_index.key_of(row) == key:
                return row
        return None

    def _check_primary_key(
        self, entry: TableEntry, row: dict[str, Any], view: _ReadView
    ) -> None:
        schema = entry.schema
        key = entry.pk_index.key_of(row)
        if any(part is None for part in key):
            raise PrimaryKeyError(
                f"primary key of {schema.name!r} may not contain NULL"
            )
        self.stats.record_index_lookup()
        # Fast path: no index entry at all means no duplicate under any
        # view.  Only a present key (live duplicate, or a stale entry
        # awaiting version GC) pays for visibility resolution.
        if entry.pk_index.contains_key(key) and (
            self._pk_visible_row(entry, key, view) is not None
        ):
            raise PrimaryKeyError(
                f"duplicate primary key {key!r} in table {schema.name!r}"
            )

    def _check_parent(
        self, entry: TableEntry, row: dict[str, Any], view: _ReadView
    ) -> None:
        """Child tables require a matching parent row (table inheritance)."""
        schema = entry.schema
        if schema.parent is None:
            return
        parent = self._catalog.entry(schema.parent)
        key = tuple(row[column] for column in schema.primary_key)
        self.stats.record_read(schema.parent)
        self.stats.record_index_lookup()
        if self._pk_visible_row(parent, key, view) is None:
            raise ForeignKeyError(
                f"no parent row in {schema.parent!r} for child "
                f"{schema.name!r} key {key!r}"
            )

    def _check_foreign_keys(
        self, entry: TableEntry, row: dict[str, Any], view: _ReadView
    ) -> None:
        for foreign in entry.schema.foreign_keys:
            key = tuple(row[column] for column in foreign.columns)
            if any(part is None for part in key):
                continue  # NULL foreign keys are unconstrained, as in SQL
            referenced = self._catalog.entry(foreign.ref_table)
            self.stats.record_read(foreign.ref_table)
            self.stats.record_index_lookup()
            if self._pk_visible_row(referenced, key, view) is None:
                raise ForeignKeyError(
                    f"{entry.schema.name}.{foreign.columns} = {key!r} has no "
                    f"match in {foreign.ref_table!r}"
                )

    def _store(
        self,
        entry: TableEntry,
        row: dict[str, Any],
        token: Transaction | None,
        version: int = 0,
    ) -> int:
        rowid = entry.heap.insert(row, token=token, version=version)
        entry.pk_index.add(rowid, row)
        for index in entry.hash_indexes.values():
            index.add(rowid, row)
        for ordered in entry.ordered_indexes.values():
            ordered.add(rowid, row)
        return rowid

    # ------------------------------------------------------------------
    # DML — select
    # ------------------------------------------------------------------

    def select(
        self,
        table: str,
        where: Predicate | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
        columns: Sequence[str] | None = None,
    ) -> list[dict[str, Any]]:
        """Return copies of every row matching ``where``.

        ``order_by`` sorts by one column (NULLs first); ``limit`` caps the
        result after sorting; ``columns`` projects the result to the
        named columns (the full row by default).  The ``order_by``
        column does not need to appear in the projection.

        Served entirely from a pinned MVCC snapshot — no statement
        mutex; concurrent commits never block or tear the row set.
        """
        view = self._pin_view()
        try:
            return self._select_at(
                view, table, where, order_by, descending, limit, columns
            )
        finally:
            self._unpin_view(view)

    def _select_at(
        self,
        view: _ReadView,
        table: str,
        where: Predicate | None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
        columns: Sequence[str] | None = None,
    ) -> list[dict[str, Any]]:
        entry = self._catalog.entry(table)
        schema = entry.schema_at(view.version)
        if where is not None:
            schema.validate_column_names(where.columns())
        if order_by is not None:
            schema.validate_column_names([order_by])
        if columns is not None:
            schema.validate_column_names(columns)
        self.stats.record_read(table)
        rows = [dict(row) for __, row in self._matching_rows(entry, where, view)]
        if order_by is not None:
            rows.sort(key=_order_key(order_by), reverse=descending)
        if limit is not None:
            rows = rows[:limit]
        if columns is not None:
            rows = [{name: row[name] for name in columns} for row in rows]
        return rows

    def select_one(
        self, table: str, where: Predicate | None = None
    ) -> dict[str, Any] | None:
        """The first matching row, or ``None``."""
        rows = self.select(table, where, limit=1)
        return rows[0] if rows else None

    def get(self, table: str, *key: Any) -> dict[str, Any] | None:
        """Primary-key lookup; always served by the PK hash index."""
        view = self._pin_view()
        try:
            return self._get_at(view, table, key)
        finally:
            self._unpin_view(view)

    def _get_at(
        self, view: _ReadView, table: str, key: tuple[Any, ...]
    ) -> dict[str, Any] | None:
        entry = self._catalog.entry(table)
        if len(key) != len(entry.schema.primary_key):
            raise ConstraintError(
                f"table {table!r} has a "
                f"{len(entry.schema.primary_key)}-column "
                f"primary key, got {len(key)} values"
            )
        self.stats.record_read(table)
        self.stats.record_index_lookup()
        row = self._pk_visible_row(entry, tuple(key), view)
        return None if row is None else dict(row)

    def count(self, table: str, where: Predicate | None = None) -> int:
        """Number of rows matching ``where``."""
        view = self._pin_view()
        try:
            return self._count_at(view, table, where)
        finally:
            self._unpin_view(view)

    def _count_at(
        self, view: _ReadView, table: str, where: Predicate | None
    ) -> int:
        entry = self._catalog.entry(table)
        self.stats.record_read(table)
        if where is None:
            return sum(
                1 for __ in entry.heap.visible_items(view.version, view.token)
            )
        entry.schema_at(view.version).validate_column_names(where.columns())
        return sum(1 for __ in self._matching_rows(entry, where, view))

    def select_with_parent(
        self,
        table: str,
        where: Predicate | None = None,
    ) -> list[dict[str, Any]]:
        """Select from a child table, merging inherited parent columns.

        Reproduces TableBean's behaviour for experiment-type tables: a read
        on ``PCR`` performs reads on both ``PCR`` and ``Experiment`` and
        returns one merged record per child row.  Child columns win on name
        clashes.  Works recursively up a multi-level parent chain.  The
        whole join resolves against one pinned snapshot, so child and
        ancestor rows always come from the same version.
        """
        view = self._pin_view()
        try:
            entry = self._catalog.entry(table)
            child_rows = self._select_at(view, table, where)
            chain: list[TableEntry] = []
            current = entry
            while current.schema.parent is not None:
                current = self._catalog.entry(current.schema.parent)
                chain.append(current)
            merged_rows = []
            for child_row in child_rows:
                merged: dict[str, Any] = {}
                key = tuple(
                    child_row[column] for column in entry.schema.primary_key
                )
                for ancestor in reversed(chain):
                    self.stats.record_read(ancestor.schema.name)
                    self.stats.record_index_lookup()
                    row = self._pk_visible_row(ancestor, key, view)
                    if row is not None:
                        merged.update(row)
                merged.update(child_row)
                merged_rows.append(merged)
            return merged_rows
        finally:
            self._unpin_view(view)

    def _matching_rows(
        self, entry: TableEntry, where: Predicate | None, view: _ReadView
    ) -> Iterator[tuple[int, dict[str, Any]]]:
        """Yield ``(rowid, row)`` for every visible row matching ``where``.

        Index candidates may include rowids whose entry belongs to a
        superseded image (removal is deferred to version GC), so every
        candidate is resolved through the view and re-checked against
        the predicate — a stale entry either resolves to an image that
        still matches (then it *should* be returned) or is filtered.
        """
        rowids = self._plan(entry, where, view)
        if rowids is None:
            self.stats.record_full_scan()
            self.stats.record_scan(len(entry.heap))
            for rowid, chain in entry.heap.chains():
                row = visible_row(chain, view.version, view.token)
                if row is not None and (where is None or where.matches(row)):
                    yield rowid, row
        else:
            self.stats.record_scan(len(rowids))
            for rowid in rowids:
                row = self._resolve(entry, rowid, view)
                if row is not None and (where is None or where.matches(row)):
                    yield rowid, row

    def _plan(
        self, entry: TableEntry, where: Predicate | None, view: _ReadView
    ) -> list[int] | None:
        """Pick an access path: PK index, secondary index, range, or scan."""
        rowids, __ = self._plan_with_info(entry, where, view)
        return rowids

    def _plan_with_info(
        self, entry: TableEntry, where: Predicate | None, view: _ReadView
    ) -> tuple[list[int] | None, dict[str, Any]]:
        """The planner: candidate rowids plus the chosen access path.

        Split into strategy *selection* (cacheable — depends only on the
        predicate's shape and the table's indexes) and strategy
        *execution* (per-query — plugs the predicate's values into the
        chosen index).
        """
        strategy = self._plan_strategy(entry, where, view)
        return self._execute_strategy(entry, where, strategy)

    def _plan_strategy(
        self, entry: TableEntry, where: Predicate | None, view: _ReadView
    ) -> tuple[str, Any]:
        """The cached access-path decision for (table, epoch, shape)."""
        if where is None:
            return ("full_scan", None)
        if not self.plan_cache_enabled:
            return self._derive_strategy(entry, where, view.epoch)
        key = (entry.schema.name, view.epoch, where.shape())
        strategy = self._plan_cache.get(key)
        if strategy is not None:
            self.stats.record_plan_cache(hit=True)
            return strategy
        self.stats.record_plan_cache(hit=False)
        strategy = self._derive_strategy(entry, where, view.epoch)
        self._plan_cache[key] = strategy
        return strategy

    def _derive_strategy(
        self, entry: TableEntry, where: Predicate, epoch: int
    ) -> tuple[str, Any]:
        """Choose an access path from scratch (cache miss / bypass).

        The decision depends only on the predicate's *shape*: which
        columns are bound, and how.  The second element names the index
        to use (``"__pk__"`` standing for the primary-key hash index),
        so execution never searches the index dictionaries again.  Only
        indexes created at or before the view's epoch are considered —
        a newer index holds no entries for images only this snapshot
        can still see.
        """
        bindings = where.equality_bindings()
        if bindings:
            pk_columns = entry.schema.primary_key
            if all(column in bindings for column in pk_columns):
                return ("pk_lookup", "__pk__")
            for name, index in entry.hash_indexes.items():
                if index.created_epoch <= epoch and all(
                    column in bindings for column in index.columns
                ):
                    return ("hash_index", name)
        if isinstance(where, IN):
            if entry.schema.primary_key == (where.column,):
                return ("in_index", "__pk__")
            for name, index in entry.hash_indexes.items():
                if index.created_epoch <= epoch and index.columns == (
                    where.column,
                ):
                    return ("in_index", name)
        if isinstance(where, (LT, LE, GT, GE)):
            for name, ordered in entry.ordered_indexes.items():
                if (
                    ordered.created_epoch <= epoch
                    and ordered.column == where.column
                ):
                    return ("range_scan", name)
        return ("full_scan", None)

    def _execute_strategy(
        self,
        entry: TableEntry,
        where: Predicate | None,
        strategy: tuple[str, Any],
    ) -> tuple[list[int] | None, dict[str, Any]]:
        """Run a chosen access path against the current predicate values."""
        access, index_name = strategy
        if access == "full_scan":
            return None, {"access": "full_scan", "columns": None}
        self.stats.record_index_lookup()
        if access == "pk_lookup":
            pk_columns = entry.schema.primary_key
            bindings = where.equality_bindings()
            key = tuple(bindings[column] for column in pk_columns)
            return sorted(entry.pk_index.lookup(key)), {
                "access": "pk_lookup",
                "columns": list(pk_columns),
            }
        if access == "hash_index":
            index = entry.hash_indexes[index_name]
            bindings = where.equality_bindings()
            key = tuple(bindings[column] for column in index.columns)
            return sorted(index.lookup(key)), {
                "access": "hash_index",
                "columns": list(index.columns),
            }
        if access == "in_index":
            index = (
                entry.pk_index
                if index_name == "__pk__"
                else entry.hash_indexes[index_name]
            )
            rowids: set[int] = set()
            for value in where.values:
                rowids.update(index.lookup((value,)))
            return sorted(rowids), {
                "access": "in_index",
                "columns": [where.column],
            }
        ordered = entry.ordered_indexes[index_name]
        info = {"access": "range_scan", "columns": [where.column]}
        if isinstance(where, LT):
            return (
                list(ordered.range(high=where.value, include_high=False)),
                info,
            )
        if isinstance(where, LE):
            return list(ordered.range(high=where.value)), info
        if isinstance(where, GT):
            return (
                list(ordered.range(low=where.value, include_low=False)),
                info,
            )
        return list(ordered.range(low=where.value)), info

    def explain(
        self, table: str, where: Predicate | None = None
    ) -> dict[str, Any]:
        """Describe how a SELECT over ``where`` would be executed.

        Returns ``access`` (``pk_lookup`` / ``hash_index`` / ``in_index``
        / ``range_scan`` / ``full_scan``), the ``columns`` the chosen
        index covers, and ``candidate_rows`` the path would touch before
        post-filtering.  ``update`` and ``delete`` locate their targets
        through the same planner, so an ``explain`` of their predicate
        describes their access path too.
        """
        view = self._pin_view()
        try:
            return self._explain_at(view, table, where)
        finally:
            self._unpin_view(view)

    def _explain_at(
        self, view: _ReadView, table: str, where: Predicate | None
    ) -> dict[str, Any]:
        entry = self._catalog.entry(table)
        if where is not None:
            entry.schema_at(view.version).validate_column_names(where.columns())
        rowids, info = self._plan_with_info(entry, where, view)
        info["candidate_rows"] = (
            len(entry.heap) if rowids is None else len(rowids)
        )
        return info

    # ------------------------------------------------------------------
    # DML — update
    # ------------------------------------------------------------------

    def update(
        self,
        table: str,
        where: Predicate | None,
        changes: dict[str, Any],
    ) -> int:
        """Update matching rows; returns the number of rows changed.

        Primary-key columns may not be updated (Exp-DB never rewrites
        experiment ids, and immutable keys keep the referential graph
        simple and cheap to maintain).
        """
        with self._mutex:
            self._await_txn_slot()
            entry = self._catalog.entry(table)
            schema = entry.schema
            schema.validate_column_names(changes)
            if where is not None:
                schema.validate_column_names(where.columns())
            for column in changes:
                if column in schema.primary_key:
                    raise ConstraintError(
                        f"primary key column {schema.name}.{column} "
                        "cannot be updated"
                    )
            coerced = {
                name: coerce(
                    value, schema.column(name).type, f"{schema.name}.{name}"
                )
                for name, value in changes.items()
            }
            for name, value in coerced.items():
                if value is None and not schema.column(name).nullable:
                    raise NotNullError(
                        f"column {schema.name}.{name} may not be NULL"
                    )

            self.stats.record_read(table)  # locating targets is a read
            targets = [
                (rowid, dict(row))
                for rowid, row in self._matching_rows(
                    entry, where, self._writer_view()
                )
            ]

            changed = 0
            with self._statement():
                txn = self._txn.current
                for rowid, old_row in targets:
                    new_row = dict(old_row)
                    new_row.update(coerced)
                    if new_row == old_row:
                        continue
                    self._check_changed_foreign_keys(
                        entry, old_row, new_row, self._writer_view()
                    )
                    self._replace(entry, rowid, old_row, new_row, txn)
                    txn.deferred.append((entry, rowid, old_row, new_row))
                    self._txn.record(UndoUpdate(table, rowid, old_row), entry)
                    self.stats.record_write(table)
                    self._notify_write(table)
                    changed += 1
        self._sync_pending()
        return changed

    def _check_changed_foreign_keys(
        self,
        entry: TableEntry,
        old_row: dict[str, Any],
        new_row: dict[str, Any],
        view: _ReadView,
    ) -> None:
        for foreign in entry.schema.foreign_keys:
            old_key = tuple(old_row[column] for column in foreign.columns)
            new_key = tuple(new_row[column] for column in foreign.columns)
            if old_key == new_key or any(part is None for part in new_key):
                continue
            referenced = self._catalog.entry(foreign.ref_table)
            self.stats.record_read(foreign.ref_table)
            self.stats.record_index_lookup()
            if self._pk_visible_row(referenced, new_key, view) is None:
                raise ForeignKeyError(
                    f"{entry.schema.name}.{foreign.columns} = {new_key!r} has "
                    f"no match in {foreign.ref_table!r}"
                )

    def _replace(
        self,
        entry: TableEntry,
        rowid: int,
        old_row: dict[str, Any],
        new_row: dict[str, Any],
        token: Transaction,
    ) -> None:
        """Install a new uncommitted image; index entries for the old
        image stay until version GC proves no snapshot needs them.  An
        index gains an entry only when the image changed its key under
        that index (the PK never does — PK updates are forbidden)."""
        entry.heap.put(rowid, new_row, token)
        for index in entry.hash_indexes.values():
            if index.key_of(new_row) != index.key_of(old_row):
                index.add(rowid, new_row)
        for ordered in entry.ordered_indexes.values():
            if ordered.key_of(new_row) != ordered.key_of(old_row):
                ordered.add(rowid, new_row)

    # ------------------------------------------------------------------
    # DML — delete
    # ------------------------------------------------------------------

    def delete(self, table: str, where: Predicate | None) -> int:
        """Delete matching rows; returns the number of rows removed.

        Deleting a parent row cascades to inheritance children; foreign
        keys honour their declared ``on_delete`` action.
        """
        with self._mutex:
            self._await_txn_slot()
            entry = self._catalog.entry(table)
            if where is not None:
                entry.schema.validate_column_names(where.columns())
            self.stats.record_read(table)
            targets = [
                rowid
                for rowid, __ in self._matching_rows(
                    entry, where, self._writer_view()
                )
            ]
            deleted = 0
            with self._statement():
                view = self._writer_view()
                for rowid in targets:
                    if self._resolve(entry, rowid, view) is None:
                        continue  # already removed by a cascade
                    deleted += self._delete_row(entry, rowid, view)
        self._sync_pending()
        return deleted

    def _delete_row(
        self, entry: TableEntry, rowid: int, view: _ReadView
    ) -> int:
        table = entry.schema.name
        row = dict(self._resolve(entry, rowid, view))
        key = entry.pk_index.key_of(row)

        # Inheritance children share the PK: cascade to them first.
        deleted = 0
        for child_name in self._catalog.children(table):
            child = self._catalog.entry(child_name)
            self.stats.record_read(child_name)
            self.stats.record_index_lookup()
            for child_rowid in sorted(child.pk_index.lookup(key)):
                child_row = self._resolve(child, child_rowid, view)
                if child_row is None or child.pk_index.key_of(child_row) != key:
                    continue
                deleted += self._delete_row(child, child_rowid, view)

        # Referential actions.
        for referrer_name, foreign in self._catalog.referrers(table):
            referrer = self._catalog.entry(referrer_name)
            self.stats.record_read(referrer_name)
            matches = self._referencing_rowids(referrer, foreign, key, view)
            if not matches:
                continue
            if foreign.on_delete == "restrict":
                raise ForeignKeyError(
                    f"cannot delete {table!r} key {key!r}: referenced by "
                    f"{referrer_name!r}"
                )
            for referencing_rowid in matches:
                if self._resolve(referrer, referencing_rowid, view) is not None:
                    deleted += self._delete_row(referrer, referencing_rowid, view)

        current = self._resolve(entry, rowid, view)
        if current is None:
            return deleted  # removed transitively by a cycle of cascades
        row = dict(current)
        txn = self._txn.current
        entry.heap.put_tombstone(rowid, txn)
        txn.deferred.append((entry, rowid, row, None))
        self._txn.record(UndoDelete(table, rowid, row), entry)
        self.stats.record_write(table)
        self._notify_write(table)
        return deleted + 1

    def _referencing_rowids(
        self,
        referrer: TableEntry,
        foreign,
        key: tuple[Any, ...],
        view: _ReadView,
    ) -> list[int]:
        """Rowids in ``referrer`` whose visible FK columns equal ``key``."""
        for index in referrer.hash_indexes.values():
            if index.columns == tuple(foreign.columns):
                self.stats.record_index_lookup()
                matches = []
                for rowid in sorted(index.lookup(key)):
                    row = self._resolve(referrer, rowid, view)
                    if row is not None and index.key_of(row) == key:
                        matches.append(rowid)
                return matches
        matches = []
        self.stats.record_scan(len(referrer.heap))
        for rowid, chain in referrer.heap.chains():
            row = visible_row(chain, view.version, view.token)
            if row is not None and (
                tuple(row.get(column) for column in foreign.columns) == key
            ):
                matches.append(rowid)
        return matches

    # ------------------------------------------------------------------
    # Undo / redo plumbing
    # ------------------------------------------------------------------

    def _apply_undo(self, undo: UndoEntry) -> None:
        """Reverse one mutation by popping its chain entry.

        Undo entries run newest-first, so the popped head is always the
        image this entry installed.  Index reversal mirrors the write
        rules: a delete made no index changes (nothing to undo); an
        insert/update added entries for the popped image, which are
        retracted only where no surviving image still owns them (hash
        buckets are shared per key; ordered instances are per
        transition).
        """
        entry = self._catalog.entry(undo.table)
        rowid = undo.rowid
        popped = entry.heap.rollback_head(rowid)
        if isinstance(undo, UndoDelete):
            return  # popped the tombstone; the old image is live again
        remaining = entry.heap.images(rowid)
        for index in (entry.pk_index, *entry.hash_indexes.values()):
            key = index.key_of(popped)
            if not any(index.key_of(image) == key for image in remaining):
                index.remove(rowid, popped)
        old_row = undo.old_row if isinstance(undo, UndoUpdate) else None
        for ordered in entry.ordered_indexes.values():
            if old_row is None or ordered.key_of(popped) != ordered.key_of(
                old_row
            ):
                ordered.remove(rowid, popped)

    def _unwire(self, column: Column, value: Any) -> Any:
        """A replayed value, as lean as one the live insert path stored.

        Each short string is shared through the replay-scoped memo, and
        rows are keyed by the schema's own ``Column.name`` objects: a
        recovered row then costs no more memory than a live one.
        """
        value = from_wire(value, column.type)
        if type(value) is str and len(value) <= _SHARED_STRING_MAX:
            value = self._replay_strings.setdefault(value, value)
        return value

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _log(self, record: dict[str, Any]) -> None:
        """Buffer one WAL record; durability is settled in _sync_pending.

        The (sequence, start-time) pair is parked in a thread-local and
        only assigned *after* the append returns, so an injected crash
        inside ``append`` never leaves a stale pending commit behind.
        """
        if self._wal is not None and not self._recovering:
            t0 = time.perf_counter()
            seq = self._wal.append(record)
            self._pending_commit.seq = seq
            self._pending_commit.t0 = t0

    def _sync_pending(self) -> None:
        """Wait for this thread's buffered commit to become durable.

        Called *after* the engine mutex is released: under
        ``sync_policy="group"`` that is what lets commits from many
        threads share one fsync barrier instead of serialising their
        own behind the lock.  Also feeds the :attr:`on_commit` latency
        hook (append → durable, in milliseconds).
        """
        t0 = getattr(self._pending_commit, "t0", None)
        if t0 is None:
            return
        seq = self._pending_commit.seq
        self._pending_commit.t0 = None
        self._pending_commit.seq = None
        if self._wal is not None:
            self._wal.sync(seq)
        if self.on_commit is not None:
            try:
                self.on_commit((time.perf_counter() - t0) * 1000.0)
            except Exception:
                pass
        self._maybe_auto_checkpoint()

    def _maybe_auto_checkpoint(self) -> None:
        """Run a policy-triggered checkpoint after a commit is durable.

        Runs outside the statement mutex (we are past the durability
        barrier) and skips silently when another checkpoint is already
        in flight — the next commit will re-evaluate the policy.
        """
        policy = self.checkpoint_policy
        if policy is None or self._wal is None or self._recovering:
            return
        if not policy.due(self._wal.records_since_checkpoint):
            return
        if not self._ckpt_lock.acquire(blocking=False):
            return
        try:
            self._checkpoint_online("policy", wait=False)
        except TransactionError:
            pass  # a transaction is open; the next commit retries
        finally:
            self._ckpt_lock.release()

    _recovering = False
    #: Replay-scoped string memo (see :meth:`_unwire_row`); ``None``
    #: outside :meth:`_recover`, so it pins nothing once replay ends.
    _replay_strings: dict[str, str] | None = None

    def _recover(self) -> None:
        """Replay checkpoint + tail to rebuild state after (re)opening.

        WAL record shapes::

            {"type": "create_table", "schema": {...}}
            {"type": "drop_table", "table": "PCR"}
            {"type": "create_index", "table": "...", "columns": [...],
             "unique": false, "ordered": false}
            {"type": "add_column", "table": "...", "column": {...}}
            {"type": "autoincrement", "table": "...", "next": 8}
            {"type": "txn", "ops": [op, ...]}

        where each op is one row's net change in its transaction, with
        values in their wire form (:func:`repro.minidb.types.to_wire`)::

            {"op": "insert", "table": "...", "values": [v0, v1, ...]}
            {"op": "update", "table": "...", "pk": [...],
             "set": [[position, value], ...]}
            {"op": "delete", "table": "...", "pk": [...]}

        ``values`` lists the row in schema column order with trailing
        NULLs dropped; replay fills every missing column with NULL,
        never with its default.  ``set`` names columns by schema
        position and holds only those whose committed value changed;
        replay merges it into the current row.  An op in any other
        shape (such as the whole-row ``"row"`` image of older logs) is
        refused with a :class:`RecoveryError` whose ``reason`` names it.

        Recovery runs before any reader exists, so replay stores each
        row as a flat image (a bare row dict, see
        :mod:`repro.minidb.table`) and maintains indexes exactly — no
        tokens, no version stamps, no deferred GC.  Reader pins taken
        later are always at or above the replayed version, so
        everything replayed is visible to all of them.
        """
        assert self._wal is not None
        if self._wal.size_bytes() >= _COLLECT_BEFORE_REPLAY_BYTES:
            gc.collect()
        self._recovering = True
        self._replay_strings = {}
        t0 = time.perf_counter()
        replayed = 0
        try:
            for record in self._wal.replay():
                if not isinstance(record, dict) or "type" not in record:
                    raise RecoveryError(
                        f"malformed WAL record in {self._wal.path} "
                        "(not a typed dict)"
                    )
                replayed += 1
                kind = record["type"]
                if kind == "create_table":
                    self._catalog.add_table(
                        TableSchema.from_description(record["schema"])
                    )
                    self._advance_epoch()
                elif kind == "drop_table":
                    self._catalog.remove_table(record["table"])
                    self._advance_epoch()
                elif kind == "create_index":
                    if record["ordered"]:
                        self.create_ordered_index(
                            record["table"], record["columns"][0]
                        )
                    else:
                        self.create_index(
                            record["table"], record["columns"], record["unique"]
                        )
                elif kind == "add_column":
                    spec = record["column"]
                    self.add_column(
                        record["table"],
                        Column(
                            name=spec["name"],
                            type=ColumnType(spec["type"]),
                            nullable=spec["nullable"],
                            default=spec["default"],
                        ),
                    )
                elif kind == "autoincrement":
                    entry = self._catalog.entry(record["table"])
                    entry.autoincrement_next = max(
                        entry.autoincrement_next, record["next"]
                    )
                elif kind == "txn":
                    for op in record["ops"]:
                        self._replay_op(op)
                else:
                    raise RecoveryError(f"unknown WAL record type {kind!r}")
        finally:
            self._recovering = False
            self._replay_strings = None
        replay_shape = dict(self._wal.last_replay)
        self.last_recovery = {
            "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
            "records": replayed,
            **replay_shape,
        }
        self.stats.reset()

    def _replay_rowid(
        self, entry: TableEntry, key: tuple[Any, ...], table: str
    ) -> tuple[int, dict[str, Any]]:
        """Locate the committed row carrying ``key`` during replay."""
        for candidate in sorted(entry.pk_index.lookup(key)):
            row = entry.heap.latest_committed(candidate)
            if row is not None and entry.pk_index.key_of(row) == key:
                return candidate, row
        raise RecoveryError(
            f"WAL references missing row {key!r} in {table!r}"
        )

    def _replay_op(self, op: dict[str, Any]) -> None:
        entry = self._catalog.entry(op["table"])
        schema = entry.schema
        version = self._mvcc.version
        kind = op["op"]
        if "row" in op:
            raise RecoveryError(
                f"WAL {kind} op on {op['table']!r} carries a whole-row "
                "'row' image; this log was written in an older record "
                "shape that replay does not read",
                path=str(self._wal.path),
                reason="row-shape",
            )
        if kind == "insert":
            values = op["values"]
            values += [None] * (len(schema.columns) - len(values))
            row = {
                column.name: self._unwire(column, value)
                for column, value in zip(schema.columns, values)
            }
            rowid = self._store(entry, row, token=None, version=version)
            entry.heap.flatten(rowid, version)
            if schema.autoincrement is not None:
                value = row.get(schema.autoincrement)
                if value is not None and value >= entry.autoincrement_next:
                    entry.autoincrement_next = value + 1
            return
        key = tuple(
            from_wire(value, schema.column(column).type)
            for column, value in zip(schema.primary_key, op["pk"])
        )
        rowid, old_row = self._replay_rowid(entry, key, op["table"])
        if kind == "update":
            new_row = dict(old_row)
            for position, value in op["set"]:
                column = schema.columns[position]
                new_row[column.name] = self._unwire(column, value)
            entry.pk_index.remove(rowid, old_row)
            for index in entry.hash_indexes.values():
                index.remove(rowid, old_row)
            for ordered in entry.ordered_indexes.values():
                ordered.remove(rowid, old_row)
            entry.heap.replace_committed(rowid, new_row, version)
            entry.heap.flatten(rowid, version)
            entry.pk_index.add(rowid, new_row)
            for index in entry.hash_indexes.values():
                index.add(rowid, new_row)
            for ordered in entry.ordered_indexes.values():
                ordered.add(rowid, new_row)
        elif kind == "delete":
            entry.heap.remove(rowid)
            entry.pk_index.remove(rowid, old_row)
            for index in entry.hash_indexes.values():
                index.remove(rowid, old_row)
            for ordered in entry.ordered_indexes.values():
                ordered.remove(rowid, old_row)
        else:
            raise RecoveryError(f"unknown WAL op {kind!r}")

    def checkpoint(self, reason: str = "manual") -> int:
        """Online checkpoint: snapshot state, compact the WAL behind it.

        Writers are paused only for the WAL segment rotation plus an
        O(1) MVCC version pin and per-table metadata capture — the rows
        themselves stream out of the pinned snapshot *after* the
        statement mutex is released, concurrently with new commits.
        Serialisation, the checkpoint-file fsync, the atomic manifest
        swap and the compaction of pre-watermark segments likewise run
        while appends continue into the new segment.  Recovery
        afterwards replays the checkpoint plus only the post-watermark
        tail, so recovery time stops growing with history.  Returns the
        number of records in the checkpoint snapshot.

        Fault points ``checkpoint.write`` (before the side file is
        written), ``checkpoint.swap`` (after it is durable, before the
        manifest publishes it) and ``wal.compact`` (before old segments
        are unlinked): a crash at any of them recovers to exactly the
        old or the new organisation of the same committed state.

        Waits while another thread's transaction is open (the checkpoint
        captures committed state only); raises :class:`TransactionError`
        if the calling thread has one open.
        """
        if self._wal is None:
            raise TransactionError("checkpoint requires a WAL-backed database")
        # Refused before taking the checkpoint lock: a transaction owner
        # must never block on it while a checkpoint waits for its commit.
        if self._txn.owned_here():
            raise TransactionError("checkpoint is not allowed in a transaction")
        with self._ckpt_lock:
            return self._checkpoint_online(reason, wait=True)

    def _checkpoint_online(self, reason: str, wait: bool) -> int:
        """The checkpoint body; caller holds ``_ckpt_lock``.

        ``wait`` waits for another thread's open transaction to close;
        without it any open transaction refuses the checkpoint.
        """
        assert self._wal is not None
        t0 = time.perf_counter()
        with self._mutex:
            if wait:
                self._await_txn_slot()
            self._forbid_in_transaction("checkpoint")
            watermark = self._wal.rotate()
            version, __ = self._mvcc.pin()
            captured = self._capture_meta_locked()
        try:
            count = self._wal.install_checkpoint(
                self._snapshot_records(captured, version),
                watermark,
                write_point="checkpoint.write",
                swap_point="checkpoint.swap",
                gc_point="wal.compact",
            )
        finally:
            self._mvcc.unpin(version)
        self.checkpoints += 1
        if self.checkpoint_policy is not None:
            self.checkpoint_policy.note_checkpoint()
        if self.on_checkpoint is not None:
            try:
                self.on_checkpoint(
                    {
                        "reason": reason,
                        "records": count,
                        "watermark": watermark,
                        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
                    }
                )
            except Exception:
                pass
        return count

    def _capture_meta_locked(self) -> list[dict[str, Any]]:
        """Capture per-table metadata for a checkpoint (under mutex).

        O(#tables + #indexes) — no row copies.  The rows are streamed
        later from the pinned MVCC version; everything captured here is
        either immutable (schemas) or only mutated under the mutex by
        DDL, whose WAL records land after the rotation watermark and
        replay on top of the checkpoint.
        """
        captured: list[dict[str, Any]] = []
        for name in self._catalog.table_names():
            entry = self._catalog.entry(name)
            captured.append(
                {
                    "name": name,
                    "entry": entry,
                    "schema": entry.schema,
                    "hash_indexes": [
                        (list(index.columns), index.unique)
                        for index in entry.hash_indexes.values()
                    ],
                    "ordered_indexes": [
                        ordered.column
                        for ordered in entry.ordered_indexes.values()
                    ],
                    "autoincrement_next": (
                        entry.autoincrement_next
                        if entry.schema.autoincrement is not None
                        else None
                    ),
                }
            )
        return captured

    def _snapshot_records(
        self, captured: list[dict[str, Any]], version: int
    ) -> Iterator[dict[str, Any]]:
        """Stream the pinned version as replayable WAL records.

        Rows resolve against the pinned MVCC version lock-free while
        writers keep committing; replaying the sequence reproduces
        exactly the state as of the pin.  Rows are batched into ``txn``
        records of bounded size.
        """
        for table in captured:
            yield {"type": "create_table", "schema": table["schema"].describe()}
            for columns, unique in table["hash_indexes"]:
                yield {
                    "type": "create_index",
                    "table": table["name"],
                    "columns": columns,
                    "unique": unique,
                    "ordered": False,
                }
            for column in table["ordered_indexes"]:
                yield {
                    "type": "create_index",
                    "table": table["name"],
                    "columns": [column],
                    "unique": False,
                    "ordered": True,
                }
            if table["autoincrement_next"] is not None:
                yield {
                    "type": "autoincrement",
                    "table": table["name"],
                    "next": table["autoincrement_next"],
                }
        for table in captured:
            schema = table["schema"]
            batch: list[dict[str, Any]] = []
            for __, row in table["entry"].heap.visible_items(version):
                batch.append(_insert_op(schema, row))
                if len(batch) >= _CHECKPOINT_BATCH_ROWS:
                    yield {"type": "txn", "ops": batch}
                    batch = []
            if batch:
                yield {"type": "txn", "ops": batch}

    def close(self) -> None:
        """Flush and release the WAL file handle."""
        if self._wal is not None:
            self._wal.close()


def _insert_op(schema: TableSchema, row: dict[str, Any]) -> dict[str, Any]:
    """The redo op of an inserted row: its values in schema column
    order, trailing NULLs dropped."""
    values = [to_wire(row[column.name], column.type) for column in schema.columns]
    while values and values[-1] is None:
        values.pop()
    return {"op": "insert", "table": schema.name, "values": values}


def _redo_op(
    entry: TableEntry, chain: tuple, token: Transaction
) -> dict[str, Any] | None:
    """The net effect of ``token`` on one touched row, as a redo op.

    ``chain`` is the row's version chain before the commit restamps it:
    ``token``'s entries sit at its head, the newest being the final
    image (``None`` for a delete), and the first entry below them is
    the committed image (none for a row this transaction inserted).
    Returns ``None`` when nothing is left to log: a row inserted and
    deleted again, or updates that restored every committed value.
    """
    new = chain[2]
    below = chain[3]
    while type(below) is tuple and below[1] is token:
        below = below[3]
    old = below if below is None or type(below) is dict else below[2]
    schema = entry.schema
    if old is None:
        return None if new is None else _insert_op(schema, new)
    pk = [
        to_wire(old[name], schema.column(name).type)
        for name in schema.primary_key
    ]
    if new is None:
        return {"op": "delete", "table": schema.name, "pk": pk}
    changed = [
        [position, to_wire(new[column.name], column.type)]
        for position, column in enumerate(schema.columns)
        if new[column.name] != old[column.name]
    ]
    if not changed:
        return None
    return {"op": "update", "table": schema.name, "pk": pk, "set": changed}


def _order_key(column: str):
    """Sort key for ORDER BY: NULLs first, then natural ordering."""

    def key(row: dict[str, Any]) -> tuple[bool, Any]:
        value = row[column]
        if value is None:
            return (False, 0)
        return (True, value)

    return key
