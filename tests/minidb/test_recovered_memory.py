"""Host-independent memory gate on WAL recovery.

A database reopened from disk holds the same rows as the one that
wrote them, and it must not pay more memory for them.  Replay keys each
row by the schema's own ``Column.name`` objects and shares repeated
short strings through a memo that lives only while replay runs, so a
recovered row costs no more than a live one.  Sizes come from a
``sys.getsizeof`` walk over distinct objects, so they are the same on
any host with the same interpreter.
"""

from __future__ import annotations

import sys

import pytest

from repro.minidb.engine import Database
from repro.workloads.protein import build_protein_lab


def _bytes_per_row(db: Database) -> tuple[float, int]:
    """Bytes held by heap chains and index entries, per stored row.

    Each object counts once, however many rows or indexes share it.
    """
    seen: set[int] = set()
    total = 0
    rows = 0

    def add(obj) -> bool:
        nonlocal total
        if id(obj) in seen:
            return False
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        return True

    for table in db.tables():
        entry = db._catalog.entry(table)
        for __, chain in entry.heap.chains():
            rows += 1
            link = chain
            while link is not None:
                flat = type(link) is dict
                row = link if flat else link[2]
                if not flat:
                    add(link)
                if row is not None and add(row):
                    for key, value in row.items():
                        add(key)
                        add(value)
                link = None if flat else link[3]
        for index in (entry.pk_index, *entry.hash_indexes.values()):
            add(index._buckets)
            for key, bucket in index._buckets.items():
                if add(key) and type(key) is tuple:
                    for part in key:
                        add(part)
                add(bucket)
        for ordered in entry.ordered_indexes.values():
            add(ordered._pairs)
            for pair in ordered._pairs:
                add(pair)
                add(pair[0])
    return total / rows, rows


@pytest.fixture(scope="module")
def live_and_recovered(tmp_path_factory):
    """A seeded WAL-backed lab after five protein workflows, measured
    live, then closed and reopened from its WAL."""
    work = tmp_path_factory.mktemp("lab")
    wal_path = str(work / "lab.wal")
    lab = build_protein_lab(
        seed=5, wal_path=wal_path, journal_path=str(work / "broker.journal")
    )
    for __ in range(5):
        workflow_id = lab.engine.start_workflow("protein_creation")["workflow_id"]
        assert lab.run_to_completion(workflow_id) == "completed"
    live = _bytes_per_row(lab.app.db)
    lab.close()
    recovered = Database(wal_path)
    yield live, recovered
    recovered.close()


def test_recovered_rows_are_keyed_by_schema_column_names(live_and_recovered):
    __, db = live_and_recovered
    for table in db.tables():
        schema = db.schema(table)
        for __, row in db._catalog.entry(table).heap.latest_items():
            for key in row:
                assert key is schema.column(key).name, (table, key)


def test_replay_string_memo_is_gone_after_recovery(live_and_recovered):
    __, db = live_and_recovered
    assert db.last_recovery["records"] > 0
    assert db._replay_strings is None


def test_recovered_row_costs_no_more_than_a_live_row(live_and_recovered):
    (live_per_row, live_rows), db = live_and_recovered
    recovered_per_row, recovered_rows = _bytes_per_row(db)
    assert recovered_rows == live_rows
    assert recovered_per_row <= 1.05 * live_per_row, (
        f"recovered {recovered_per_row:.0f} B/row vs live "
        f"{live_per_row:.0f} B/row"
    )
