"""Net-effect redo: each commit logs one op per touched row.

An inserted row is logged once with its final values, an updated row as
its primary key plus the columns whose committed value changed, and a
row whose changes cancel out (or that was inserted and deleted again)
not at all.  The property test drives random transactions, autocommit
statements, rollbacks, ``add_column`` and checkpoints, and checks that
the reopened database equals the live one row for row and that index
lookups agree with scans on both.
"""

from __future__ import annotations

import datetime as dt
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PrimaryKeyError, RecoveryError
from repro.minidb import EQ, Column, ColumnType, Database, TableSchema
from repro.minidb.predicates import GE, LE
from repro.seglog import SegmentedLog

SRC = str(Path(__file__).resolve().parents[2] / "src")


def item_schema() -> TableSchema:
    # ``label`` is last and has a default, so an explicit NULL in it is a
    # dropped trailing value that replay must fill with NULL, not "dflt".
    return TableSchema(
        name="Item",
        columns=[
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("num", ColumnType.INTEGER),
            Column("score", ColumnType.REAL),
            Column("flag", ColumnType.BOOLEAN),
            Column("stamp", ColumnType.TIMESTAMP),
            Column("label", ColumnType.TEXT, default="dflt"),
        ],
        primary_key=("id",),
    )


def fresh_db(wal_path) -> Database:
    db = Database(wal_path)
    db.create_table(item_schema())
    db.create_index("Item", ["num"])
    db.create_ordered_index("Item", "num")
    return db


def txn_ops(wal_path) -> list[list[dict]]:
    """The ``ops`` of every ``txn`` record in a closed WAL, in order."""
    log = SegmentedLog(wal_path, error_cls=RecoveryError, prefix="wal")
    try:
        return [
            record["ops"] for record in log.replay() if record["type"] == "txn"
        ]
    finally:
        log.close()


def tables_of(db: Database) -> dict[str, list[dict]]:
    """Every table, in heap order and in primary-key order."""
    state = {}
    for table in db.tables():
        key = db.schema(table).primary_key[0]
        state[table] = db.select(table)
        state[f"{table} by pk"] = db.select(table, order_by=key)
    return state


def assert_lookups_agree(db: Database) -> None:
    """Hash-index and ordered-index lookups on ``num`` equal a scan."""
    rows = db.select("Item", order_by="id")
    for value in {row["num"] for row in rows if row["num"] is not None}:
        scanned = [row for row in rows if row["num"] == value]
        assert db.select("Item", EQ("num", value), order_by="id") == scanned
        ranged = db.select(
            "Item", GE("num", value) & LE("num", value), order_by="id"
        )
        assert ranged == scanned
        above = [row for row in rows if row["num"] is not None and row["num"] >= value]
        assert db.select("Item", GE("num", value), order_by="id") == above


class TestOpShapes:
    def test_insert_logs_values_in_column_order_without_trailing_nulls(
        self, tmp_path
    ):
        wal = tmp_path / "t.wal"
        db = fresh_db(wal)
        db.insert("Item", {"id": 1, "num": 5, "label": None})
        db.close()
        assert txn_ops(wal) == [
            [{"op": "insert", "table": "Item", "values": [1, 5]}]
        ]
        reopened = Database(wal)
        assert reopened.get("Item", 1)["label"] is None
        reopened.close()

    def test_update_logs_only_changed_positions_once_per_row(self, tmp_path):
        wal = tmp_path / "t.wal"
        db = fresh_db(wal)
        db.insert("Item", {"id": 1, "num": 5, "label": "a"})
        with db.transaction():
            db.update("Item", EQ("id", 1), {"num": 6})
            db.update("Item", EQ("id", 1), {"num": 7, "label": "a"})
        db.close()
        assert txn_ops(wal)[-1] == [
            {"op": "update", "table": "Item", "pk": [1], "set": [[1, 7]]}
        ]

    def test_changes_that_cancel_out_log_nothing(self, tmp_path):
        wal = tmp_path / "t.wal"
        db = fresh_db(wal)
        db.insert("Item", {"id": 1, "num": 5})
        with db.transaction():
            db.update("Item", EQ("id", 1), {"num": None})
            db.update("Item", EQ("id", 1), {"num": 5})
            db.insert("Item", {"id": 2})
            db.update("Item", EQ("id", 2), {"num": 9})
            db.delete("Item", EQ("id", 2))
        db.close()
        assert len(txn_ops(wal)) == 1
        reopened = Database(wal)
        assert reopened.select("Item") == [db.get("Item", 1)]
        reopened.close()

    def test_delete_then_reinsert_of_one_key(self, tmp_path):
        wal = tmp_path / "t.wal"
        db = fresh_db(wal)
        db.insert("Item", {"id": 1, "num": 5, "label": "old"})
        with db.transaction():
            db.delete("Item", EQ("id", 1))
            db.insert("Item", {"id": 1, "num": 6})
        expected = db.select("Item")
        db.close()
        assert txn_ops(wal)[-1] == [
            {"op": "delete", "table": "Item", "pk": [1]},
            {
                "op": "insert",
                "table": "Item",
                "values": [1, 6, None, None, None, "dflt"],
            },
        ]
        reopened = Database(wal)
        assert reopened.select("Item") == expected
        assert_lookups_agree(reopened)
        reopened.close()


class TestOldRowShape:
    def write_row_shape_log(self, wal) -> None:
        db = fresh_db(wal)
        db.close()
        log = SegmentedLog(wal, error_cls=RecoveryError, prefix="wal")
        log.append(
            {
                "type": "txn",
                "ops": [{"op": "insert", "table": "Item", "row": {"id": 1}}],
            }
        )
        log.close()

    def test_replay_refuses_a_whole_row_op(self, tmp_path):
        wal = tmp_path / "t.wal"
        self.write_row_shape_log(wal)
        with pytest.raises(RecoveryError, match="'row'") as caught:
            Database(wal)
        assert caught.value.reason == "row-shape"

    def test_verify_prints_the_reason_and_exits_2(self, tmp_path):
        wal = tmp_path / "t.wal"
        self.write_row_shape_log(wal)
        result = subprocess.run(
            [sys.executable, "-m", "repro.minidb", "verify", str(wal)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 2
        assert '"reason": "row-shape"' in result.stdout


values = st.fixed_dictionaries(
    {},
    optional={
        "num": st.integers(min_value=-3, max_value=3) | st.none(),
        "score": st.floats(allow_nan=False, allow_infinity=False) | st.none(),
        "flag": st.booleans() | st.none(),
        "stamp": st.datetimes(
            min_value=dt.datetime(1970, 1, 1), max_value=dt.datetime(2100, 1, 1)
        )
        | st.none(),
        "label": st.text(alphabet=string.printable, max_size=8) | st.none(),
    },
)
keys = st.integers(min_value=1, max_value=5)


def statement(data, extras: list[str]):
    """Draw one DML statement over a small key space, so rows are
    inserted, updated, deleted and re-inserted within one transaction."""
    kind = data.draw(st.sampled_from(["insert", "update", "delete"]))
    key = data.draw(keys)
    changes = dict(data.draw(values))
    for name in extras:
        if data.draw(st.booleans()):
            changes[name] = data.draw(st.integers(0, 2) | st.none())
    return kind, key, changes


def execute(db: Database, kind: str, key: int, changes: dict) -> None:
    if kind == "insert":
        try:
            db.insert("Item", {"id": key, **changes})
        except PrimaryKeyError:
            pass
    elif kind == "update":
        if changes:
            db.update("Item", EQ("id", key), changes)
    else:
        db.delete("Item", EQ("id", key))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reopened_database_equals_the_live_one(data):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        wal = Path(tmp) / "prop.wal"
        db = fresh_db(wal)
        extras: list[str] = []
        for __ in range(data.draw(st.integers(1, 10), label="steps")):
            step = data.draw(
                st.sampled_from(
                    ["commit", "commit", "rollback", "autocommit", "add_column",
                     "checkpoint"]
                )
            )
            if step == "autocommit":
                execute(db, *statement(data, extras))
            elif step == "add_column":
                name = f"extra{len(extras)}"
                db.add_column("Item", Column(name, ColumnType.INTEGER, default=7))
                extras.append(name)
            elif step == "checkpoint":
                db.checkpoint()
            else:
                db.begin()
                for __ in range(data.draw(st.integers(1, 6))):
                    execute(db, *statement(data, extras))
                if step == "commit":
                    db.commit()
                else:
                    db.rollback()
        assert_lookups_agree(db)
        expected = tables_of(db)
        db.close()

        reopened = Database(wal)
        try:
            assert tables_of(reopened) == expected
            assert_lookups_agree(reopened)
        finally:
            reopened.close()
