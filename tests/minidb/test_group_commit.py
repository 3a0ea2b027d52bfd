"""WAL sync policies and group commit: batching, durability, crash prefix."""

from __future__ import annotations

import threading

import pytest

from repro.errors import FaultInjected
from repro.minidb import Column, ColumnType, Database, TableSchema
from repro.resilience import FaultPlan


def person_schema() -> TableSchema:
    return TableSchema(
        name="Person",
        columns=[
            Column("person_id", ColumnType.INTEGER, nullable=False),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("age", ColumnType.INTEGER),
        ],
        primary_key=("person_id",),
        autoincrement="person_id",
    )


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "test.wal"


class TestSyncPolicyKnob:
    def test_unknown_policy_rejected(self, wal_path):
        with pytest.raises(ValueError):
            Database(wal_path, sync_policy="bogus")

    def test_policy_reported_in_wal_info(self, wal_path):
        db = Database(wal_path, sync_policy="group")
        info = db.wal_info()
        assert info["sync_policy"] == "group"
        assert info["fsyncs"] == 0
        db.close()

    def test_always_policy_is_gone(self, wal_path):
        with pytest.raises(ValueError):
            Database(wal_path, sync_policy="always")

    def test_one_writer_fsyncs_once_per_commit(self, wal_path):
        db = Database(wal_path)  # sync_policy="group" is the default
        db.create_table(person_schema())
        for i in range(5):
            db.insert("Person", {"name": f"p{i}"})
        info = db.wal_info()
        assert info["sync_policy"] == "group"
        assert info["fsyncs"] == info["appended_records"] == 6
        db.close()
        assert db.wal_info()["fsyncs"] == 6  # nothing left for close

    def test_off_never_fsyncs_but_clean_close_is_durable(self, wal_path):
        db = Database(wal_path, sync_policy="off")
        db.create_table(person_schema())
        for i in range(5):
            db.insert("Person", {"name": f"p{i}"})
        assert db.wal_info()["fsyncs"] == 0
        db.close()

        reopened = Database(wal_path)
        assert reopened.row_count("Person") == 5
        reopened.close()


class TestGroupCommit:
    def test_single_threaded_commits_are_durable(self, wal_path):
        db = Database(wal_path, sync_policy="group")
        db.create_table(person_schema())
        for i in range(10):
            db.insert("Person", {"name": f"p{i}"})
        db.close()

        reopened = Database(wal_path)
        assert [r["name"] for r in reopened.select("Person")] == [
            f"p{i}" for i in range(10)
        ]
        reopened.close()

    def test_concurrent_committers_share_fsyncs(self, wal_path):
        threads, inserts_per_thread = 8, 25
        db = Database(wal_path, sync_policy="group", group_window_s=0.002)
        db.create_table(person_schema())

        barrier = threading.Barrier(threads)

        def worker(worker_id: int) -> None:
            barrier.wait()
            for i in range(inserts_per_thread):
                db.insert("Person", {"name": f"w{worker_id}-{i}"})

        pool = [
            threading.Thread(target=worker, args=(n,)) for n in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        info = db.wal_info()
        total_appends = threads * inserts_per_thread + 1  # + create_table
        assert info["appended_records"] == total_appends
        # Every buffered append was covered by some shared barrier …
        assert info["group_writes_covered"] == total_appends
        assert info["group_syncs"] == info["fsyncs"]
        # … and batching actually happened: far fewer fsyncs than commits.
        assert info["fsyncs"] < total_appends
        db.close()

        reopened = Database(wal_path)
        assert reopened.row_count("Person") == threads * inserts_per_thread
        reopened.close()

    def test_close_drains_pending_group_appends(self, wal_path):
        db = Database(wal_path, sync_policy="group")
        db.create_table(person_schema())
        db.insert("Person", {"name": "last"})
        db.close()
        assert db.wal_info()["fsyncs"] >= 1

        reopened = Database(wal_path)
        assert reopened.row_count("Person") == 1
        reopened.close()


class TestGroupCommitChaos:
    def test_crash_between_write_and_fsync_replays_a_prefix(self, wal_path):
        """Die inside the group fsync barrier: the survivor set is a prefix.

        The append is buffered (and flushed) before the barrier runs, so
        the record of the in-doubt commit may or may not be on disk — but
        replay must never yield a gap: every acknowledged commit survives
        and the recovered rows are a contiguous prefix of the insert
        order.
        """
        db = Database(wal_path, sync_policy="group")
        db.create_table(person_schema())
        db.insert("Person", {"name": "p0"})
        db.insert("Person", {"name": "p1"})

        plan = FaultPlan(seed=7).rule(
            "wal.fsync",
            "crash",
            times=1,
            where={"record_type": "group"},
        )
        db.attach_faults(plan)
        with pytest.raises(FaultInjected):
            db.insert("Person", {"name": "p2"})
        # Simulate process death: no close(), no flush — just reopen.

        reopened = Database(wal_path)
        names = [r["name"] for r in reopened.select("Person")]
        assert names in ([["p0", "p1"], ["p0", "p1", "p2"]])
        reopened.close()

    def test_acknowledged_commits_survive_a_later_crash(self, wal_path):
        db = Database(wal_path, sync_policy="group")
        db.create_table(person_schema())
        for i in range(4):
            db.insert("Person", {"name": f"p{i}"})

        plan = FaultPlan(seed=11).rule(
            "wal.fsync", "crash", times=1, where={"record_type": "group"}
        )
        db.attach_faults(plan)
        with pytest.raises(FaultInjected):
            db.insert("Person", {"name": "doomed-or-not"})

        reopened = Database(wal_path)
        survivors = [r["name"] for r in reopened.select("Person")]
        # The four acknowledged inserts are a durable prefix.
        assert survivors[:4] == ["p0", "p1", "p2", "p3"]
        assert len(survivors) in (4, 5)
        reopened.close()


class TestInjectableClock:
    """The straggler-window sleep goes through the injectable clock —
    the one hot-path sleep the chaos suite previously could not
    control."""

    def test_manual_clock_absorbs_the_straggler_window(self):
        from repro.resilience import ManualClock
        from repro.seglog import GroupCommitter

        clock = ManualClock()
        committer = GroupCommitter(window_s=5.0, clock=clock)
        seq = committer.note_write()
        before = clock.now()
        committer.wait_durable(seq, do_sync=lambda: None)
        # The leader "slept" the full window on the simulated timeline,
        # no wall time passed, and the write is covered.
        assert clock.now() == before + 5.0
        assert committer.pending() == 0
        assert committer.syncs == 1

    def test_database_threads_clock_to_the_wal(self, wal_path):
        from repro.resilience import ManualClock

        clock = ManualClock()
        db = Database(
            wal_path,
            sync_policy="group",
            group_window_s=2.0,
            clock=clock,
        )
        db.create_table(person_schema())
        before = clock.now()
        db.insert("Person", {"name": "p0"})
        assert clock.now() == before + 2.0  # window served by the clock
        db.close()

    def test_default_clock_is_wall_clock(self):
        from repro.resilience.clock import SystemClock
        from repro.seglog import GroupCommitter

        assert isinstance(GroupCommitter().clock, SystemClock)
