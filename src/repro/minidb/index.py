"""Secondary indexes for minidb.

Two flavours are provided:

* :class:`HashIndex` — equality lookups; backs primary keys, foreign-key
  checks and the planner's equality-binding fast path.
* :class:`OrderedIndex` — range lookups over a sorted key list; used by the
  engine when a query's predicate is a single range comparison on an
  indexed column.

Index keys are tuples of column values.  ``None`` components are permitted
(NULL-able indexed columns) but a key containing ``None`` is never returned
by lookups, matching SQL comparison semantics — so such rows are not
indexed at all.

Under MVCC, indexes are *over-complete*: removal of a superseded image's
entries is deferred to version GC, so a lookup may return rowids whose
visible row no longer matches — the engine always re-checks the predicate
after resolving visibility.  Readers run without the statement mutex;
both structures therefore expose their lookups through single GIL-atomic
copies (``{rowid}`` or ``set(bucket)``, ``list(pairs)``) so a concurrent
writer can never hand a reader a half-updated view.  A hash bucket holds
a bare rowid until a second row shares its key; a writer switches a key
between rowid and set only by replacing the dict value, never by
mutating a set a reader may be copying.  ``created_epoch`` stamps when
the index became part of the catalog: the planner only routes a query
through an index created at or before the reader's pinned epoch, so a
snapshot taken before a ``CREATE INDEX`` never reads an index that lacks
entries for images only that snapshot can still see.
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Iterable, Iterator

_pair_key = operator.itemgetter(0)


class HashIndex:
    """Maps key tuples to the rowids holding them.

    A key held by one row maps to the bare rowid (85–99% of keys in the
    lab workloads); only a key shared by several rows gets a set.  A
    one-column index stores each key as the bare value, not a 1-tuple
    (48 bytes per distinct key saved); callers still pass key tuples.
    """

    def __init__(self, columns: tuple[str, ...], unique: bool = False) -> None:
        self.columns = columns
        self.unique = unique
        self.created_epoch = 0
        self._single = columns[0] if len(columns) == 1 else None
        self._buckets: dict[Any, int | set[int]] = {}

    def key_of(self, row: dict[str, Any]) -> tuple[Any, ...]:
        """Extract this index's key tuple from a row."""
        return tuple(row.get(column) for column in self.columns)

    def _stored(self, key: tuple[Any, ...]) -> Any:
        """The bucket key under which ``key`` is stored."""
        return key if self._single is None else key[0]

    def _stored_of(self, row: dict[str, Any]) -> Any:
        """The bucket key of ``row``; ``None`` when any part is NULL."""
        if self._single is not None:
            return row.get(self._single)
        key = self.key_of(row)
        return None if None in key else key

    def add(self, rowid: int, row: dict[str, Any]) -> None:
        """Register ``row`` (stored at ``rowid``) in the index."""
        key = self._stored_of(row)
        if key is None:
            return  # never returned by a lookup
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = rowid
        elif type(bucket) is int:
            if bucket != rowid:
                buckets[key] = {bucket, rowid}
        else:
            bucket.add(rowid)

    def remove(self, rowid: int, row: dict[str, Any]) -> None:
        """Unregister ``row`` from the index."""
        key = self._stored_of(row)
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            return
        if type(bucket) is int:
            if bucket == rowid:
                del buckets[key]
        elif rowid in bucket:
            if len(bucket) == 2:
                (other,) = bucket - {rowid}
                buckets[key] = other
            else:
                bucket.discard(rowid)

    def lookup(self, key: tuple[Any, ...]) -> set[int]:
        """Rowids whose key equals ``key`` (empty for NULL-bearing keys)."""
        bucket = self._buckets.get(self._stored(key))
        if bucket is None:
            return set()
        if type(bucket) is int:
            return {bucket}
        return set(bucket)

    def contains_key(self, key: tuple[Any, ...]) -> bool:
        """Whether any row carries ``key`` (NULL keys never match)."""
        return self._stored(key) in self._buckets

    def count_key(self, key: tuple[Any, ...]) -> int:
        """Number of rows carrying ``key``."""
        bucket = self._buckets.get(self._stored(key))
        if bucket is None:
            return 0
        if type(bucket) is int:
            return 1
        return len(bucket)

    def clear(self) -> None:
        self._buckets.clear()

    def rebuild(self, rows: Iterable[tuple[int, dict[str, Any]]]) -> None:
        """Rebuild from scratch over ``(rowid, row)`` pairs."""
        self.clear()
        for rowid, row in rows:
            self.add(rowid, row)


class OrderedIndex:
    """A sorted single-column index supporting range scans.

    NULL values are excluded from the sort order entirely (they can never
    satisfy a range predicate).  Entries live in one sorted
    ``(key, rowid)`` pair list, so a reader takes a single atomic copy
    and bisects it — there is no moment where key and rowid columns can
    disagree under a concurrent writer.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self.created_epoch = 0
        self._pairs: list[tuple[Any, int]] = []

    def key_of(self, row: dict[str, Any]) -> Any:
        """Extract this index's key value from a row."""
        return row.get(self.column)

    def add(self, rowid: int, row: dict[str, Any]) -> None:
        value = row.get(self.column)
        if value is None:
            return
        position = bisect.bisect_right(self._pairs, value, key=_pair_key)
        self._pairs.insert(position, (value, rowid))

    def remove(self, rowid: int, row: dict[str, Any]) -> None:
        """Drop one ``(value, rowid)`` instance, if present."""
        value = row.get(self.column)
        if value is None:
            return
        pairs = self._pairs
        position = bisect.bisect_left(pairs, value, key=_pair_key)
        while position < len(pairs) and pairs[position][0] == value:
            if pairs[position][1] == rowid:
                del pairs[position]
                return
            position += 1

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Yield rowids with ``low <(=) key <(=) high`` in key order."""
        pairs = list(self._pairs)  # one atomic snapshot; writers go on
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(pairs, low, key=_pair_key)
        else:
            start = bisect.bisect_right(pairs, low, key=_pair_key)
        if high is None:
            stop = len(pairs)
        elif include_high:
            stop = bisect.bisect_right(pairs, high, key=_pair_key)
        else:
            stop = bisect.bisect_left(pairs, high, key=_pair_key)
        for position in range(start, stop):
            yield pairs[position][1]

    def clear(self) -> None:
        self._pairs.clear()

    def rebuild(self, rows: Iterable[tuple[int, dict[str, Any]]]) -> None:
        self.clear()
        for rowid, row in rows:
            self.add(rowid, row)
