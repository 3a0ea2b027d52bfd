"""WAL checkpointing (log compaction)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import TransactionError
from repro.minidb import EQ, Column, ColumnType, Database, TableSchema


def schema() -> TableSchema:
    return TableSchema(
        name="T",
        columns=[
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("value", ColumnType.TEXT),
        ],
        primary_key=("id",),
        autoincrement="id",
    )


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "ckpt.wal"


class TestCheckpoint:
    def test_checkpoint_shrinks_log(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        for index in range(50):
            db.insert("T", {"value": f"v{index}"})
        db.update("T", None, {"value": "same"})
        db.delete("T", EQ("id", 1))
        size_before = db.wal_info()["size_bytes"]
        db.checkpoint()
        assert db.wal_info()["size_bytes"] < size_before

    def test_state_identical_after_checkpoint_and_reopen(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        db.create_index("T", ["value"])
        db.create_ordered_index("T", "id")
        for index in range(10):
            db.insert("T", {"value": f"v{index}"})
        db.delete("T", EQ("id", 3))
        expected = db.select("T", order_by="id")
        db.checkpoint()
        db.close()

        reopened = Database(wal_path)
        assert reopened.select("T", order_by="id") == expected
        # The secondary index was rebuilt and serves queries.
        before = reopened.stats.rows_scanned
        assert len(reopened.select("T", EQ("value", "v5"))) == 1
        assert reopened.stats.rows_scanned - before <= 1

    def test_autoincrement_gap_survives_checkpoint(self, wal_path):
        """Deleting the max row must not recycle its id after a
        checkpoint+reopen."""
        db = Database(wal_path)
        db.create_table(schema())
        db.insert("T", {"value": "a"})  # id 1
        db.insert("T", {"value": "b"})  # id 2
        db.delete("T", EQ("id", 2))
        db.checkpoint()
        db.close()
        reopened = Database(wal_path)
        row = reopened.insert("T", {"value": "c"})
        assert row["id"] == 3  # not 2

    def test_writes_after_checkpoint_append_normally(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        db.insert("T", {"value": "pre"})
        db.checkpoint()
        db.insert("T", {"value": "post"})
        db.close()
        reopened = Database(wal_path)
        assert [row["value"] for row in reopened.select("T", order_by="id")] == [
            "pre",
            "post",
        ]

    def test_checkpoint_in_transaction_rejected(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        db.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.rollback()

    def test_checkpoint_waits_for_another_threads_transaction(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        db.begin()
        db.insert("T", {"value": "in flight"})
        outcome: list = []

        def checkpoint() -> None:
            try:
                outcome.append(db.checkpoint())
            except TransactionError as error:
                outcome.append(error)

        thread = threading.Thread(target=checkpoint)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive() and outcome == []
        db.commit()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], int)
        db.close()
        reopened = Database(wal_path)
        assert [row["value"] for row in reopened.select("T")] == ["in flight"]

    def test_checkpoint_without_wal_rejected(self):
        db = Database()
        with pytest.raises(TransactionError):
            db.checkpoint()

    def test_empty_database_checkpoint(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        db.checkpoint()
        db.close()
        reopened = Database(wal_path)
        assert reopened.tables() == ["T"]
        assert reopened.select("T") == []

    def test_repeated_checkpoints_idempotent(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        db.insert("T", {"value": "x"})
        first = db.checkpoint()
        second = db.checkpoint()
        assert first == second
        db.close()
        assert Database(wal_path).count("T") == 1
