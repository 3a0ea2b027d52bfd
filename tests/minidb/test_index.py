"""Hash and ordered secondary indexes."""

from __future__ import annotations

import sys
import threading

from repro.minidb.index import HashIndex, OrderedIndex


class TestHashIndex:
    def test_add_lookup_remove(self):
        index = HashIndex(("name",))
        index.add(1, {"name": "a"})
        index.add(2, {"name": "a"})
        index.add(3, {"name": "b"})
        assert index.lookup(("a",)) == {1, 2}
        index.remove(1, {"name": "a"})
        assert index.lookup(("a",)) == {2}
        index.remove(2, {"name": "a"})
        assert index.lookup(("a",)) == set()

    def test_composite_key(self):
        index = HashIndex(("x", "y"))
        index.add(1, {"x": 1, "y": 2})
        assert index.lookup((1, 2)) == {1}
        assert index.lookup((2, 1)) == set()

    def test_null_keys_never_match(self):
        index = HashIndex(("name",))
        index.add(1, {"name": None})
        assert index.lookup((None,)) == set()
        assert not index.contains_key((None,))
        assert index.count_key((None,)) == 0

    def test_contains_and_count(self):
        index = HashIndex(("k",))
        index.add(1, {"k": "v"})
        index.add(2, {"k": "v"})
        assert index.contains_key(("v",))
        assert index.count_key(("v",)) == 2
        assert not index.contains_key(("w",))

    def test_remove_absent_is_noop(self):
        index = HashIndex(("k",))
        index.remove(9, {"k": "ghost"})  # must not raise

    def test_rebuild(self):
        index = HashIndex(("k",))
        index.add(1, {"k": "old"})
        index.rebuild([(5, {"k": "new"})])
        assert index.lookup(("old",)) == set()
        assert index.lookup(("new",)) == {5}

    def test_zero_one_two_rows_through_add_remove_readd(self):
        index = HashIndex(("k",))

        def state():
            return (
                index.lookup(("v",)),
                index.contains_key(("v",)),
                index.count_key(("v",)),
            )

        assert state() == (set(), False, 0)
        index.add(1, {"k": "v"})
        assert state() == ({1}, True, 1)
        index.add(1, {"k": "v"})  # re-adding the same rowid is idempotent
        assert state() == ({1}, True, 1)
        index.add(2, {"k": "v"})
        assert state() == ({1, 2}, True, 2)
        index.remove(1, {"k": "v"})
        assert state() == ({2}, True, 1)
        index.add(1, {"k": "v"})
        assert state() == ({1, 2}, True, 2)
        index.add(3, {"k": "v"})
        index.remove(2, {"k": "v"})
        assert state() == ({1, 3}, True, 2)
        index.remove(9, {"k": "v"})  # absent rowid under a present key
        index.remove(3, {"k": "v"})
        index.remove(1, {"k": "v"})
        assert state() == (set(), False, 0)
        index.add(4, {"k": "v"})
        assert state() == ({4}, True, 1)

    def test_lookup_returns_a_fresh_copy(self):
        index = HashIndex(("k",))
        index.add(1, {"k": "v"})
        single = index.lookup(("v",))
        index.add(2, {"k": "v"})
        shared = index.lookup(("v",))
        single.add(99)
        shared.add(99)
        index.remove(2, {"k": "v"})
        assert single == {1, 99} and shared == {1, 2, 99}
        assert index.lookup(("v",)) == {1}

    def test_null_bearing_keys_are_not_indexed(self):
        index = HashIndex(("x", "y"))
        index.add(1, {"x": 1, "y": None})
        index.add(2, {"x": None, "y": None})
        index.add(3, {"x": 1, "y": 2})
        assert len(index._buckets) == 1
        assert index.lookup((1, None)) == set()
        index.remove(1, {"x": 1, "y": None})  # must not raise
        index.remove(3, {"x": 1, "y": 2})
        assert index._buckets == {}

    def test_lock_free_readers_while_a_key_flips_between_rowid_and_set(self):
        """Rowid 1 never leaves the key while a writer adds and removes
        rowids 2 and 3; a reader copying the bucket mid-flip must still
        see it (a lookup mutated in place could lose it)."""
        index = HashIndex(("k",))
        index.add(1, {"k": "v"})
        stop = threading.Event()
        lost: list[set[int]] = []

        def reader() -> None:
            while not stop.is_set():
                found = index.lookup(("v",))
                if 1 not in found or not found <= {1, 2, 3}:
                    lost.append(found)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=reader) for __ in range(4)]
        try:
            for thread in readers:
                thread.start()
            for __ in range(2000):
                index.add(2, {"k": "v"})
                index.add(3, {"k": "v"})
                index.remove(2, {"k": "v"})
                index.remove(3, {"k": "v"})
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=5.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert lost == []
        assert index.lookup(("v",)) == {1}


class TestOrderedIndex:
    def build(self):
        index = OrderedIndex("score")
        for rowid, score in [(1, 0.5), (2, 0.1), (3, 0.9), (4, 0.5), (5, None)]:
            index.add(rowid, {"score": score})
        return index

    def test_full_range_sorted(self):
        index = self.build()
        assert list(index.range()) == [2, 1, 4, 3]

    def test_low_bound(self):
        index = self.build()
        assert list(index.range(low=0.5)) == [1, 4, 3]
        assert list(index.range(low=0.5, include_low=False)) == [3]

    def test_high_bound(self):
        index = self.build()
        assert list(index.range(high=0.5)) == [2, 1, 4]
        assert list(index.range(high=0.5, include_high=False)) == [2]

    def test_window(self):
        index = self.build()
        assert list(index.range(low=0.2, high=0.6)) == [1, 4]

    def test_nulls_excluded(self):
        index = self.build()
        assert 5 not in list(index.range())

    def test_remove_specific_rowid_among_duplicates(self):
        index = self.build()
        index.remove(1, {"score": 0.5})
        assert list(index.range(low=0.5, high=0.5)) == [4]

    def test_remove_null_is_noop(self):
        index = self.build()
        index.remove(5, {"score": None})
        assert list(index.range()) == [2, 1, 4, 3]

    def test_rebuild(self):
        index = self.build()
        index.rebuild([(7, {"score": 0.3})])
        assert list(index.range()) == [7]
