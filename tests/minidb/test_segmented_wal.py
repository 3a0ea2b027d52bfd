"""Durability v2: segmented WAL, online checkpoints, corruption
handling.

Covers the segment/manifest machinery through the public ``Database``
and ``SegmentedLog`` surfaces: rotation at thresholds, streaming O(1)
replay, the fsync-the-parent-directory rule for atomic swaps,
structured corruption diagnostics, opt-in salvage, refusal of a file
that is not a segmented log, and crash-exactness at every checkpoint
fault point.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.errors import FaultInjected, RecoveryError
from repro.minidb import EQ, Column, ColumnType, Database, TableSchema
from repro.minidb.engine import CheckpointPolicy
from repro.seglog import SegmentedLog
from repro.resilience import FaultPlan, ManualClock


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
    return tmp_path / "seg.wal"


def rows_of(db: Database) -> list[dict]:
    return db.select("T", order_by="id")


def tail_segment(wal_path):
    segments = sorted(wal_path.parent.glob(wal_path.name + ".*.seg"))
    assert segments
    return segments[-1]


class TestRotation:
    def test_segments_rotate_at_record_threshold(self, wal_path):
        db = Database(wal_path, segment_max_records=5)
        db.create_table(schema())
        for i in range(23):
            db.insert("T", {"value": f"v{i}"})
        info = db.wal_info()
        assert info["segments"] >= 4
        assert info["rotations"] >= 3
        db.close()
        reopened = Database(wal_path, segment_max_records=5)
        assert len(rows_of(reopened)) == 23

    def test_manifest_lists_exactly_the_live_segments(self, wal_path):
        db = Database(wal_path, segment_max_records=4)
        db.create_table(schema())
        for i in range(10):
            db.insert("T", {"value": f"v{i}"})
        db.close()
        manifest = json.loads(
            (wal_path.parent / (wal_path.name + ".manifest"))
            .read_text()
            .split(" ", 2)[2]
        )
        on_disk = {
            int(p.name.rsplit(".", 2)[-2])
            for p in wal_path.parent.glob(wal_path.name + ".*.seg")
        }
        assert set(manifest["segments"]) == on_disk

    def test_crash_at_rotation_loses_nothing(self, wal_path):
        db = Database(wal_path, segment_max_records=3)
        db.create_table(schema())
        plan = FaultPlan(seed=11).rule("wal.rotate", "crash", times=1)
        db.attach_faults(plan)
        attempted = []
        with pytest.raises(FaultInjected):
            for i in range(20):
                attempted.append(f"v{i}")
                db.insert("T", {"value": f"v{i}"})
        assert plan.fired_points() == ["wal.rotate"]
        reopened = Database(wal_path)
        values = [row["value"] for row in rows_of(reopened)]
        # The crash hit *after* the threshold-crossing record was
        # written and flushed, so the in-flight insert may legally
        # survive — but nothing earlier may be lost and nothing beyond
        # the attempt may appear.
        assert values in (attempted, attempted[:-1])
        assert len(values) >= len(attempted) - 1

    def test_crash_at_manifest_swap_loses_nothing(self, wal_path):
        db = Database(wal_path, segment_max_records=3)
        db.create_table(schema())
        plan = FaultPlan(seed=12).rule("wal.manifest.swap", "crash", times=1)
        db.attach_faults(plan)
        attempted = []
        with pytest.raises(FaultInjected):
            for i in range(20):
                attempted.append(f"v{i}")
                db.insert("T", {"value": f"v{i}"})
        reopened = Database(wal_path)
        values = [row["value"] for row in rows_of(reopened)]
        assert values in (attempted, attempted[:-1])


class TestDirectoryFsync:
    def test_atomic_swaps_fsync_the_parent_directory(self, wal_path):
        """An ``os.replace`` is only durable once the parent directory
        entry is — every manifest/checkpoint swap must fsync it."""
        db = Database(wal_path, segment_max_records=4)
        db.create_table(schema())
        for i in range(10):
            db.insert("T", {"value": f"v{i}"})
        before = db.wal_info()["dir_fsyncs"]
        assert before > 0  # rotations already swapped the manifest
        db.checkpoint()
        after = db.wal_info()["dir_fsyncs"]
        # A checkpoint performs at least two directory fsyncs: one for
        # the checkpoint side file, one for the manifest swap.
        assert after >= before + 2


class TestStreamingReplay:
    def test_replay_memory_is_flat_in_log_size(self, tmp_path):
        """Replay streams frame-by-frame: peak replay memory stays far
        below the on-disk size of the log."""
        path = tmp_path / "big.wal"
        wal = SegmentedLog(path, error_cls=RecoveryError, prefix="wal")
        payload = "x" * 200
        record = {"type": "txn", "ops": [{"op": "insert", "v": payload}]}
        for __ in range(10_000):
            wal.write_frame(dict(record))
        wal.close()

        wal = SegmentedLog(path, error_cls=RecoveryError, prefix="wal")
        assert wal.size_bytes() > 2_000_000
        tracemalloc.start()
        count = 0
        for __ in wal.replay():
            count += 1
        __, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        wal.close()
        assert count == 10_000
        assert peak < 512 * 1024  # well under the >2MB log


class TestCorruption:
    def test_bit_flip_reports_structured_checksum_diagnostic(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        db.insert("T", {"value": "aaaa"})
        db.insert("T", {"value": "bbbb"})
        db.close()
        segment = tail_segment(wal_path)
        lines = segment.read_text().splitlines()
        assert len(lines) >= 3
        lines[1] = lines[1].replace("aaaa", "aaba")  # flip mid-record
        segment.write_text("\n".join(lines) + "\n")

        with pytest.raises(RecoveryError) as excinfo:
            Database(wal_path)
        detail = excinfo.value.detail()
        assert detail["reason"] == "checksum"
        assert detail["segment"] == 1
        assert detail["offset"] is not None
        assert detail["expected_crc"] != detail["actual_crc"]
        assert detail["expected_crc"] is not None

    def test_salvage_mode_quarantines_and_keeps_the_prefix(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        db.insert("T", {"value": "keep"})
        db.insert("T", {"value": "casualty"})
        # A record *after* the corruption: the damage is mid-file, not
        # a torn tail, so only salvage mode may recover the prefix.
        db.insert("T", {"value": "also-lost"})
        db.close()
        segment = tail_segment(wal_path)
        lines = segment.read_text().splitlines()
        [victim] = [i for i, line in enumerate(lines) if "casualty" in line]
        lines[victim] = lines[victim].replace("casualty", "casualtY")
        segment.write_text("\n".join(lines) + "\n")

        salvaged = Database(wal_path, salvage=True)
        assert [row["value"] for row in rows_of(salvaged)] == ["keep"]
        report = salvaged.wal_info()["salvaged"]
        assert report is not None
        assert report["segment"] == 1
        quarantined = list(wal_path.parent.glob("*.quarantined"))
        assert quarantined
        salvaged.insert("T", {"value": "after"})
        salvaged.close()
        # The salvaged log is fully usable: reopen sees prefix + new.
        reopened = Database(wal_path)
        assert [row["value"] for row in rows_of(reopened)] == [
            "keep",
            "after",
        ]


class TestForeignFile:
    def test_file_at_base_path_without_manifest_is_refused(self, wal_path):
        wal_path.write_text(
            json.dumps({"type": "create_table", "schema": schema().describe()})
            + "\n"
        )
        with pytest.raises(RecoveryError) as excinfo:
            Database(wal_path)
        assert excinfo.value.detail()["reason"] == "manifest"
        assert wal_path.exists()  # refused, never rewritten or deleted


class TestCheckpointCrash:
    """Satellite 4: kills at every checkpoint fault point must recover
    to exactly the old or the new organisation of the same state."""

    def _loaded_db(self, wal_path) -> tuple[Database, list[dict]]:
        db = Database(wal_path, segment_max_records=6)
        db.create_table(schema())
        for i in range(20):
            db.insert("T", {"value": f"v{i}"})
        return db, rows_of(db)

    @pytest.mark.parametrize(
        "point", ["checkpoint.write", "checkpoint.swap", "wal.compact"]
    )
    def test_crash_point_preserves_state_exactly(self, wal_path, point):
        db, expected = self._loaded_db(wal_path)
        plan = FaultPlan(seed=13).rule(point, "crash", times=1)
        db.attach_faults(plan)
        with pytest.raises(FaultInjected):
            db.checkpoint()
        assert plan.fired_points() == [point]

        recovered = Database(wal_path)
        assert rows_of(recovered) == expected
        info = recovered.wal_info()
        if point == "checkpoint.write":
            # Died before the side file: strictly the old organisation.
            assert info["checkpoint"] is None
        elif point == "wal.compact":
            # Died after the manifest swap: strictly the new one — the
            # checkpoint is live and the obsolete segments were cleaned
            # up as strays on open.
            assert info["checkpoint"] is not None
        # checkpoint.swap: either side of the manifest swap is legal;
        # state equality above is the invariant.
        recovered.insert("T", {"value": "post-recovery"})
        assert len(rows_of(recovered)) == len(expected) + 1

    def test_interrupted_checkpoint_leaves_live_db_usable(self, wal_path):
        db, expected = self._loaded_db(wal_path)
        plan = FaultPlan(seed=14).rule("checkpoint.write", "crash", times=1)
        db.attach_faults(plan)
        with pytest.raises(FaultInjected):
            db.checkpoint()
        # The same process survives the failed checkpoint attempt: the
        # engine keeps appending, and a later checkpoint succeeds.
        db.attach_faults(None)
        db.insert("T", {"value": "onward"})
        assert db.checkpoint() > 0
        db.close()
        reopened = Database(wal_path)
        assert len(rows_of(reopened)) == len(expected) + 1


class TestCheckpointPolicy:
    def test_policy_checkpoints_by_record_count(self, wal_path):
        db = Database(
            wal_path,
            checkpoint_policy=CheckpointPolicy(every_records=10),
        )
        db.create_table(schema())
        for i in range(35):
            db.insert("T", {"value": f"v{i}"})
        assert db.checkpoints >= 2
        assert db.wal_info()["records_since_checkpoint"] < 15
        db.close()
        assert len(rows_of(Database(wal_path))) == 35

    def test_policy_checkpoints_by_interval(self, wal_path):
        clock = ManualClock()
        db = Database(
            wal_path,
            clock=clock,
            checkpoint_policy=CheckpointPolicy(
                interval_s=60.0, clock=clock
            ),
        )
        db.create_table(schema())
        db.insert("T", {"value": "a"})
        assert db.checkpoints == 0
        clock.advance(61.0)
        db.insert("T", {"value": "b"})
        assert db.checkpoints == 1

    def test_on_checkpoint_hook_sees_reason_and_counts(self, wal_path):
        seen = []
        db = Database(wal_path)
        db.on_checkpoint = seen.append
        db.create_table(schema())
        db.insert("T", {"value": "x"})
        db.checkpoint()
        [info] = seen
        assert info["reason"] == "manual"
        assert info["records"] > 0
        assert info["watermark"] >= 1


class TestRecoveryAccounting:
    def test_last_recovery_reports_checkpoint_and_tail_split(self, wal_path):
        db = Database(wal_path)
        db.create_table(schema())
        for i in range(8):
            db.insert("T", {"value": f"v{i}"})
        db.checkpoint()
        db.insert("T", {"value": "tail"})
        db.close()
        reopened = Database(wal_path)
        recovery = reopened.wal_info()["last_recovery"]
        assert recovery["checkpoint_records"] > 0
        assert recovery["tail_records"] == 1
        assert recovery["records"] == (
            recovery["checkpoint_records"] + recovery["tail_records"]
        )
        assert recovery["elapsed_ms"] >= 0
