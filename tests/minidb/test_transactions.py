"""Transaction atomicity: commit, rollback, autocommit failure paths."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import PrimaryKeyError, TransactionError
from repro.minidb import EQ, Column, ColumnType, TableSchema


class TestExplicitTransactions:
    def test_commit_keeps_changes(self, people_db):
        people_db.begin()
        people_db.insert("Person", {"name": "a"})
        people_db.commit()
        assert people_db.count("Person") == 1

    def test_rollback_undoes_insert(self, people_db):
        people_db.begin()
        people_db.insert("Person", {"name": "a"})
        people_db.rollback()
        assert people_db.count("Person") == 0

    def test_rollback_undoes_update(self, people_db):
        people_db.insert("Person", {"name": "a", "age": 1})
        people_db.begin()
        people_db.update("Person", EQ("name", "a"), {"age": 99})
        people_db.rollback()
        assert people_db.get("Person", 1)["age"] == 1

    def test_rollback_undoes_delete(self, people_db):
        people_db.insert("Person", {"name": "a"})
        people_db.begin()
        people_db.delete("Person", None)
        people_db.rollback()
        assert people_db.count("Person") == 1

    def test_rollback_restores_mixed_sequence_exactly(self, people_db):
        people_db.insert("Person", {"name": "keep", "age": 10})
        before = people_db.select("Person", order_by="person_id")
        people_db.begin()
        people_db.insert("Person", {"name": "temp"})
        people_db.update("Person", EQ("name", "keep"), {"age": 20})
        people_db.delete("Person", EQ("name", "temp"))
        people_db.insert("Person", {"name": "temp2"})
        people_db.rollback()
        assert people_db.select("Person", order_by="person_id") == before

    def test_rollback_restores_indexes(self, people_db):
        people_db.create_index("Person", ["name"])
        people_db.insert("Person", {"name": "a"})
        people_db.begin()
        people_db.update("Person", EQ("name", "a"), {"name": "b"})
        people_db.rollback()
        assert len(people_db.select("Person", EQ("name", "a"))) == 1
        assert people_db.select("Person", EQ("name", "b")) == []

    def test_nested_begin_rejected(self, people_db):
        people_db.begin()
        with pytest.raises(TransactionError):
            people_db.begin()
        people_db.rollback()

    def test_commit_without_begin_rejected(self, people_db):
        with pytest.raises(TransactionError):
            people_db.commit()

    def test_rollback_without_begin_rejected(self, people_db):
        with pytest.raises(TransactionError):
            people_db.rollback()

    def test_ddl_inside_transaction_rejected(self, people_db):
        people_db.begin()
        with pytest.raises(TransactionError):
            people_db.create_table(
                TableSchema(
                    name="X",
                    columns=[Column("id", ColumnType.INTEGER, nullable=False)],
                    primary_key=("id",),
                )
            )
        with pytest.raises(TransactionError):
            people_db.drop_table("Person")
        people_db.rollback()


class TestContextManager:
    def test_success_commits(self, people_db):
        with people_db.transaction():
            people_db.insert("Person", {"name": "a"})
        assert people_db.count("Person") == 1
        assert not people_db.in_transaction

    def test_exception_rolls_back_and_reraises(self, people_db):
        with pytest.raises(RuntimeError):
            with people_db.transaction():
                people_db.insert("Person", {"name": "a"})
                raise RuntimeError("boom")
        assert people_db.count("Person") == 0
        assert not people_db.in_transaction


class TestAutocommit:
    def test_failed_statement_leaves_no_trace(self, people_db):
        people_db.insert("Person", {"person_id": 1, "name": "a"})
        with pytest.raises(PrimaryKeyError):
            people_db.insert("Person", {"person_id": 1, "name": "b"})
        assert people_db.count("Person") == 1
        assert not people_db.in_transaction

    def test_multi_row_statement_is_atomic(self, people_db):
        """A delete that cascades into a FK restrict must undo fully."""
        from repro.minidb import Database, TableSchema
        from repro.minidb.schema import fk

        db = Database()
        db.create_table(
            TableSchema(
                name="Parent",
                columns=[Column("id", ColumnType.INTEGER, nullable=False)],
                primary_key=("id",),
            )
        )
        db.create_table(
            TableSchema(
                name="Child",
                columns=[
                    Column("id", ColumnType.INTEGER, nullable=False),
                    Column("parent_id", ColumnType.INTEGER),
                ],
                primary_key=("id",),
                foreign_keys=[fk("parent_id", "Parent", "id")],
            )
        )
        db.insert("Parent", {"id": 1})
        db.insert("Parent", {"id": 2})
        db.insert("Child", {"id": 10, "parent_id": 2})
        from repro.errors import ForeignKeyError

        # Deleting all parents hits the restrict on id=2 after id=1 was
        # already removed inside the statement; the whole statement must
        # roll back.
        with pytest.raises(ForeignKeyError):
            db.delete("Parent", None)
        assert db.count("Parent") == 2


def _in_thread(target) -> tuple[threading.Thread, list[BaseException]]:
    """Start ``target`` on a thread; its exception lands in the list."""
    errors: list[BaseException] = []

    def run() -> None:
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, errors


class TestThreadOwnership:
    """A transaction belongs to the thread that opened it; other threads'
    writes wait for it instead of failing or joining it."""

    def test_second_thread_begin_waits_for_the_owner(self, people_db):
        people_db.begin()
        people_db.insert("Person", {"name": "owner"})

        def second() -> None:
            with people_db.transaction():
                people_db.insert("Person", {"name": "second"})

        thread, errors = _in_thread(second)
        thread.join(timeout=0.2)
        assert thread.is_alive()  # parked until the owner finishes
        people_db.commit()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert errors == []
        names = sorted(row["name"] for row in people_db.select("Person"))
        assert names == ["owner", "second"]

    def test_other_thread_autocommit_survives_owner_rollback(self, people_db):
        people_db.begin()
        people_db.insert("Person", {"name": "doomed"})
        thread, errors = _in_thread(
            lambda: people_db.insert("Person", {"name": "acknowledged"})
        )
        thread.join(timeout=0.2)
        assert thread.is_alive()  # did not join the open transaction
        people_db.rollback()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert errors == []
        names = [row["name"] for row in people_db.select("Person")]
        assert names == ["acknowledged"]

    def test_only_the_owner_may_commit(self, people_db):
        people_db.begin()
        people_db.insert("Person", {"name": "a"})
        thread, errors = _in_thread(people_db.commit)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], TransactionError)
        assert people_db.in_transaction
        people_db.commit()
        assert people_db.count("Person") == 1

    def test_mixed_writers_keep_exactly_the_committed_rows(self, people_db):
        """Stress: more threads than cores, explicit transactions that
        commit or roll back interleaved with autocommit inserts; the
        table ends with exactly the rows whose writers were told they
        committed."""
        threads, rounds = 6, 30
        barrier = threading.Barrier(threads)

        def worker(n: int) -> None:
            barrier.wait(timeout=5.0)
            for i in range(rounds):
                if i % 3 == 2:
                    people_db.insert("Person", {"name": f"auto-{n}-{i}"})
                    continue
                people_db.begin()
                people_db.insert("Person", {"name": f"txn-{n}-{i}-a"})
                people_db.insert("Person", {"name": f"txn-{n}-{i}-b"})
                if i % 3 == 0:
                    people_db.commit()
                else:
                    people_db.rollback()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [_in_thread(lambda n=n: worker(n)) for n in range(threads)]
            for thread, __ in pool:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread, __ in pool)
        assert [error for __, errors in pool for error in errors] == []
        expected = sorted(
            name
            for n in range(threads)
            for i in range(rounds)
            for name in (
                [f"auto-{n}-{i}"] if i % 3 == 2
                else [f"txn-{n}-{i}-a", f"txn-{n}-{i}-b"] if i % 3 == 0
                else []
            )
        )
        assert sorted(row["name"] for row in people_db.select("Person")) == expected

