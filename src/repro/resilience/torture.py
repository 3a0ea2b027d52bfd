"""Crash-point torture harness for the durability layer (durability v2).

Exhaustive, deterministic crash testing of the segmented WAL and broker
journal.  Two sweeps:

*Crash-point sweep* — for every named fault point in the durability
stack (``wal.append``, ``wal.fsync``, ``wal.rotate``,
``wal.manifest.swap``, ``checkpoint.write``, ``checkpoint.swap``,
``wal.compact``, and the journal equivalents including
``journal.fsync`` and ``journal.compact``/``.swap``/``.gc``), and for
every *occurrence* of
that point under a seeded workload, the process "dies" exactly there
(:class:`~repro.errors.FaultInjected`), the store is reopened, and the
recovered state is checked against the committed prefix: it must equal
the state either *before* or *after* the operation in flight — nothing
earlier, nothing invented, nothing duplicated.

*Truncation sweep* — the same workload runs fault-free, then the live
tail segment is truncated at every byte offset (optionally strided) and
recovery must land on some committed prefix of the operation history.

A parallel in-memory *shadow* copy of the store supplies the expected
fingerprints: the real store and the shadow apply the same deterministic
operation sequence, so the shadow's state after operation *k* is the
ground truth for "the committed prefix of length *k*".  Broker
fingerprints are restart-normalised — a delivered-but-unacked message
counts as pending, because that is what a restart makes of it.

Every violation is collected (never raised) so one CLI run reports the
whole sweep; ``python -m repro.resilience torture`` exits non-zero when
any scenario misbehaves.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import FaultInjected
from repro.minidb import EQ, Column, ColumnType, Database, TableSchema
from repro.minidb.engine import CheckpointPolicy
from repro.messaging import MessageBroker
from repro.resilience.faults import FaultPlan

__all__ = [
    "DB_POINTS",
    "JOURNAL_POINTS",
    "TortureReport",
    "TortureViolation",
    "database_fingerprint",
    "run_torture",
    "torture_database",
    "torture_journal",
    "truncation_sweep_database",
    "truncation_sweep_journal",
]

#: Fault points swept against the minidb WAL workload.
DB_POINTS = (
    "wal.append",
    "wal.fsync",
    "wal.rotate",
    "wal.manifest.swap",
    "checkpoint.write",
    "checkpoint.swap",
    "wal.compact",
)

#: Fault points swept against the broker-journal workload.
JOURNAL_POINTS = (
    "journal.append",
    "journal.fsync",
    "journal.rotate",
    "journal.manifest.swap",
    "journal.compact",
    "journal.compact.swap",
    "journal.compact.gc",
)

#: Safety cap on occurrences per point — far above what the bundled
#: workloads generate, so a sweep that hits it is itself suspicious.
MAX_OCCURRENCES = 200


@dataclass
class TortureViolation:
    """One scenario whose recovery broke an invariant."""

    scenario: str  #: "db.crash", "journal.crash", "db.truncate", ...
    point: str  #: fault point, or "truncate@<offset>"
    occurrence: int
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "point": self.point,
            "occurrence": self.occurrence,
            "message": self.message,
        }


@dataclass
class TortureReport:
    """Outcome of a full sweep: scenario counts + collected violations."""

    seed: int
    scenarios: dict[str, int] = field(default_factory=dict)
    violations: list[TortureViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def total_scenarios(self) -> int:
        return sum(self.scenarios.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "scenarios": dict(self.scenarios),
            "total_scenarios": self.total_scenarios(),
            "violations": [v.to_dict() for v in self.violations],
        }


# -- database workload -------------------------------------------------------


def _schema() -> TableSchema:
    return TableSchema(
        name="T",
        columns=[
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("value", ColumnType.TEXT),
        ],
        primary_key=("id",),
        autoincrement="id",
    )


def database_fingerprint(db: Database) -> str:
    """Stable digest of the full logical state (tables + rows)."""
    state = {
        name: sorted(
            json.dumps(row, sort_keys=True) for row in db.select(name)
        )
        for name in sorted(db.tables())
    }
    blob = json.dumps(state, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _db_ops(seed: int, n_ops: int) -> list[tuple]:
    """Seeded operation tape: DDL, inserts, updates, deletes,
    checkpoints."""
    rng = random.Random(seed)
    ops: list[tuple] = [("create",)]
    ops += [("insert", f"seed{i}") for i in range(3)]
    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.55:
            ops.append(("insert", f"v{i}"))
        elif roll < 0.75:
            ops.append(("update", rng.randrange(64), f"u{i}"))
        elif roll < 0.88:
            ops.append(("delete", rng.randrange(64)))
        else:
            ops.append(("checkpoint",))
    return ops


def _apply_db_op(db: Database, op: tuple) -> None:
    kind = op[0]
    if kind == "create":
        db.create_table(_schema())
    elif kind == "insert":
        db.insert("T", {"value": op[1]})
    elif kind in ("update", "delete"):
        rows = db.select("T", order_by="id")
        if not rows:
            return
        target = rows[op[1] % len(rows)]["id"]
        if kind == "update":
            db.update("T", EQ("id", target), {"value": op[2]})
        else:
            db.delete("T", EQ("id", target))
    elif kind == "checkpoint":
        db.checkpoint()


def _apply_db_op_shadow(shadow: Database, op: tuple) -> None:
    if op[0] != "checkpoint":  # checkpoints never change logical state
        _apply_db_op(shadow, op)


def _quiet_close(store: Any) -> None:
    try:
        store.close()
    except Exception:
        pass  # a crashed store may refuse a clean close; that is fine


def _snapshot_rows(snap) -> list[str]:
    return sorted(
        json.dumps(row, sort_keys=True) for row in snap.select("T")
    )


def _run_db_crash(
    base: Path,
    point: str,
    occurrence: int,
    seed: int,
    ops: list[tuple],
    violations: list[TortureViolation],
    pinned: bool = False,
) -> bool:
    """One crash scenario; returns ``False`` once the point stops
    firing at this occurrence index (the sweep for it is complete).

    With ``pinned=True``, a reader pins an MVCC snapshot right after the
    seed prefix and holds it across the rest of the tape — including
    any checkpoints, which then stream under the pin with a version-GC
    backlog building behind it.  The pinned view must still read
    exactly its pin-time rows at the moment of the crash, and recovery
    must land on a committed prefix as usual.
    """
    base.mkdir(parents=True, exist_ok=True)
    wal_path = base / "db.wal"
    db = Database(
        wal_path,
        segment_max_records=8,
        checkpoint_policy=CheckpointPolicy(every_records=23),
    )
    plan = FaultPlan(seed=seed).rule(point, "crash", times=1, after=occurrence)
    db.attach_faults(plan)
    shadow = Database()
    scenario = "db.crash.pinned" if pinned else "db.crash"
    pin_at = 4  # after ("create",) + the three seed inserts
    snap_ctx = None
    snap = None
    pinned_rows: list[str] = []
    crashed_at: tuple | None = None
    try:
        for index, op in enumerate(ops):
            if pinned and index == pin_at:
                snap_ctx = db.snapshot()
                snap = snap_ctx.__enter__()
                pinned_rows = _snapshot_rows(snap)
            crashed_at = op
            _apply_db_op(db, op)
            _apply_db_op_shadow(shadow, op)
            crashed_at = None
    except FaultInjected:
        fp_before = database_fingerprint(shadow)
        if crashed_at is not None:
            _apply_db_op_shadow(shadow, crashed_at)
        fp_after = database_fingerprint(shadow)
        if snap is not None and _snapshot_rows(snap) != pinned_rows:
            violations.append(
                TortureViolation(
                    scenario=scenario,
                    point=point,
                    occurrence=occurrence,
                    message=(
                        "pinned snapshot drifted from its pin-time rows "
                        f"(op {crashed_at!r})"
                    ),
                )
            )
        if snap_ctx is not None:
            snap_ctx.__exit__(None, None, None)
        recovered = Database(wal_path)
        fp = database_fingerprint(recovered)
        if fp not in (fp_before, fp_after):
            violations.append(
                TortureViolation(
                    scenario=scenario,
                    point=point,
                    occurrence=occurrence,
                    message=(
                        f"recovered state matches neither the pre- nor "
                        f"post-op committed prefix (op {crashed_at!r})"
                    ),
                )
            )
        _quiet_close(recovered)
        _quiet_close(db)
        return True
    if snap_ctx is not None:
        snap_ctx.__exit__(None, None, None)
    _quiet_close(db)
    return False  # the plan never fired: no such occurrence


def torture_database(
    root: Path, seed: int = 7, n_ops: int = 40, pinned: bool = False
) -> tuple[int, list[TortureViolation]]:
    """Crash at every occurrence of every WAL fault point; verify each
    recovery.  Returns (scenarios run, violations)."""
    ops = _db_ops(seed, n_ops)
    violations: list[TortureViolation] = []
    scenarios = 0
    for point in DB_POINTS:
        for occurrence in range(MAX_OCCURRENCES):
            base = root / ("db-pinned" if pinned else "db") / point / str(
                occurrence
            )
            if not _run_db_crash(
                base, point, occurrence, seed, ops, violations, pinned=pinned
            ):
                break
            scenarios += 1
    return scenarios, violations


# -- journal workload --------------------------------------------------------


class _ShadowBroker:
    """Restart-normalised expected broker state (pure Python)."""

    def __init__(self) -> None:
        self.pending: dict[str, list[str]] = {}
        self.outstanding: dict[str, list[str]] = {}

    def fingerprint(self) -> str:
        state = {
            queue: sorted(
                self.pending.get(queue, []) + self.outstanding.get(queue, [])
            )
            for queue in self.pending
        }
        blob = json.dumps(state, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "declare":
            self.pending.setdefault(op[1], [])
            self.outstanding.setdefault(op[1], [])
        elif kind == "send":
            self.pending[op[1]].append(op[2])
        elif kind == "receive":
            if self.pending[op[1]]:
                self.outstanding[op[1]].append(self.pending[op[1]].pop(0))
        elif kind == "ack":
            if self.outstanding[op[1]]:
                self.outstanding[op[1]].pop(0)


def _journal_ops(seed: int, n_ops: int) -> list[tuple]:
    rng = random.Random(seed + 1)
    queues = ("agent.torture-a", "agent.torture-b")
    ops: list[tuple] = [("declare", queue) for queue in queues]
    for i in range(n_ops):
        queue = queues[rng.randrange(len(queues))]
        roll = rng.random()
        if roll < 0.5:
            ops.append(("send", queue, f"m{i}"))
        elif roll < 0.8:
            ops.append(("receive", queue))
        else:
            ops.append(("ack", queue))
    return ops


def _apply_journal_op(
    broker: MessageBroker, real_outstanding: dict[str, list], op: tuple
) -> None:
    kind = op[0]
    if kind == "declare":
        broker.declare_queue(op[1])
        real_outstanding.setdefault(op[1], [])
    elif kind == "send":
        broker.send(op[1], op[2])
    elif kind == "receive":
        message = broker.receive(op[1])
        if message is not None:
            real_outstanding[op[1]].append(message)
    elif kind == "ack":
        if real_outstanding[op[1]]:
            broker.ack(real_outstanding[op[1]].pop(0))


def _drain_fingerprint(broker: MessageBroker) -> str:
    """Receive everything the reopened broker still holds and digest it
    the same way the shadow does."""
    state = {}
    for queue in broker.queue_names():
        bodies = []
        while (message := broker.receive(queue)) is not None:
            bodies.append(message.body)
        state[queue] = sorted(bodies)
    blob = json.dumps(state, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _open_broker(journal_path: Path) -> MessageBroker:
    return MessageBroker(
        journal_path,
        journal_segment_bytes=512,
        journal_compact_every=16,
    )


def _run_journal_crash(
    base: Path,
    point: str,
    occurrence: int,
    seed: int,
    ops: list[tuple],
    violations: list[TortureViolation],
) -> bool:
    base.mkdir(parents=True, exist_ok=True)
    journal_path = base / "broker.journal"
    broker = _open_broker(journal_path)
    plan = FaultPlan(seed=seed).rule(point, "crash", times=1, after=occurrence)
    broker.attach_faults(plan)
    shadow = _ShadowBroker()
    real_outstanding: dict[str, list] = {}
    crashed_at: tuple | None = None
    try:
        for op in ops:
            crashed_at = op
            _apply_journal_op(broker, real_outstanding, op)
            shadow.apply(op)
            crashed_at = None
    except FaultInjected:
        fp_before = shadow.fingerprint()
        if crashed_at is not None:
            shadow.apply(crashed_at)
        fp_after = shadow.fingerprint()
        reopened = _open_broker(journal_path)
        fp = _drain_fingerprint(reopened)
        if fp not in (fp_before, fp_after):
            violations.append(
                TortureViolation(
                    scenario="journal.crash",
                    point=point,
                    occurrence=occurrence,
                    message=(
                        f"acked/unacked message accounting diverged from "
                        f"the committed prefix (op {crashed_at!r})"
                    ),
                )
            )
        _quiet_close(reopened)
        _quiet_close(broker)
        return True
    _quiet_close(broker)
    return False


def torture_journal(
    root: Path, seed: int = 7, n_ops: int = 60
) -> tuple[int, list[TortureViolation]]:
    """Crash at every occurrence of every journal fault point; verify
    no acked message reappears and no unacked message is lost."""
    ops = _journal_ops(seed, n_ops)
    violations: list[TortureViolation] = []
    scenarios = 0
    for point in JOURNAL_POINTS:
        for occurrence in range(MAX_OCCURRENCES):
            base = root / "journal" / point / str(occurrence)
            if not _run_journal_crash(
                base, point, occurrence, seed, ops, violations
            ):
                break
            scenarios += 1
    return scenarios, violations


# -- truncation sweeps -------------------------------------------------------


def _copy_store(src_dir: Path, dst_dir: Path, stem: str) -> None:
    dst_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(src_dir.iterdir()):
        if path.name.startswith(stem):
            shutil.copy(path, dst_dir / path.name)


def _tail_segment(base_dir: Path, stem: str) -> Path:
    segments = sorted(base_dir.glob(stem + ".*.seg"))
    if not segments:
        raise FileNotFoundError(f"no segments for {stem} in {base_dir}")
    return segments[-1]


def truncation_sweep_database(
    root: Path, seed: int = 7, n_ops: int = 12, stride: int = 1
) -> tuple[int, list[TortureViolation]]:
    """Truncate the live WAL tail at every byte offset; each recovery
    must land on a committed prefix of the operation history."""
    build_dir = root / "db-trunc" / "base"
    build_dir.mkdir(parents=True, exist_ok=True)
    wal_path = build_dir / "db.wal"
    db = Database(wal_path, segment_max_records=64)
    shadow = Database()
    ops = [op for op in _db_ops(seed, n_ops) if op[0] != "checkpoint"]
    # One mid-history checkpoint so the sweep crosses a checkpointed
    # base, then a pure tail of per-op records.
    ops.insert(len(ops) // 2, ("checkpoint",))
    allowed = {database_fingerprint(shadow)}
    for op in ops:
        _apply_db_op(db, op)
        _apply_db_op_shadow(shadow, op)
        allowed.add(database_fingerprint(shadow))
    db.close()

    tail = _tail_segment(build_dir, "db.wal")
    raw = tail.read_bytes()
    violations: list[TortureViolation] = []
    scenarios = 0
    for offset in range(0, len(raw) + 1, max(1, stride)):
        case_dir = root / "db-trunc" / f"at{offset}"
        _copy_store(build_dir, case_dir, "db.wal")
        (case_dir / tail.name).write_bytes(raw[:offset])
        scenarios += 1
        try:
            recovered = Database(case_dir / "db.wal")
        except Exception as exc:
            violations.append(
                TortureViolation(
                    scenario="db.truncate",
                    point=f"truncate@{offset}",
                    occurrence=offset,
                    message=f"recovery raised {exc!r}",
                )
            )
            continue
        if database_fingerprint(recovered) not in allowed:
            violations.append(
                TortureViolation(
                    scenario="db.truncate",
                    point=f"truncate@{offset}",
                    occurrence=offset,
                    message="recovered state is not a committed prefix",
                )
            )
        _quiet_close(recovered)
        shutil.rmtree(case_dir, ignore_errors=True)
    return scenarios, violations


def truncation_sweep_journal(
    root: Path, seed: int = 7, n_ops: int = 18, stride: int = 1
) -> tuple[int, list[TortureViolation]]:
    """Truncate the live journal tail at every byte offset; recovery
    must preserve exactly the committed prefix of message operations."""
    build_dir = root / "journal-trunc" / "base"
    build_dir.mkdir(parents=True, exist_ok=True)
    journal_path = build_dir / "broker.journal"
    broker = MessageBroker(journal_path, journal_compact_every=None)
    shadow = _ShadowBroker()
    real_outstanding: dict[str, list] = {}
    allowed = {shadow.fingerprint()}
    for op in _journal_ops(seed, n_ops):
        _apply_journal_op(broker, real_outstanding, op)
        shadow.apply(op)
        allowed.add(shadow.fingerprint())
    broker.close()

    tail = _tail_segment(build_dir, "broker.journal")
    raw = tail.read_bytes()
    violations: list[TortureViolation] = []
    scenarios = 0
    for offset in range(0, len(raw) + 1, max(1, stride)):
        case_dir = root / "journal-trunc" / f"at{offset}"
        _copy_store(build_dir, case_dir, "broker.journal")
        (case_dir / tail.name).write_bytes(raw[:offset])
        scenarios += 1
        try:
            reopened = MessageBroker(
                case_dir / "broker.journal", journal_compact_every=None
            )
        except Exception as exc:
            violations.append(
                TortureViolation(
                    scenario="journal.truncate",
                    point=f"truncate@{offset}",
                    occurrence=offset,
                    message=f"recovery raised {exc!r}",
                )
            )
            continue
        if _drain_fingerprint(reopened) not in allowed:
            violations.append(
                TortureViolation(
                    scenario="journal.truncate",
                    point=f"truncate@{offset}",
                    occurrence=offset,
                    message="recovered state is not a committed prefix",
                )
            )
        _quiet_close(reopened)
        shutil.rmtree(case_dir, ignore_errors=True)
    return scenarios, violations


# -- full sweep --------------------------------------------------------------


def run_torture(
    root: Path | str,
    seed: int = 7,
    db_ops: int = 40,
    journal_ops: int = 60,
    stride: int = 1,
) -> TortureReport:
    """The whole battery: both crash-point sweeps + both truncation
    sweeps, under one scratch directory.  Deterministic per seed."""
    root = Path(root)
    report = TortureReport(seed=seed)
    count, violations = torture_database(root, seed=seed, n_ops=db_ops)
    report.scenarios["db.crash"] = count
    report.violations += violations
    count, violations = torture_database(
        root, seed=seed, n_ops=db_ops, pinned=True
    )
    report.scenarios["db.crash.pinned"] = count
    report.violations += violations
    count, violations = torture_journal(root, seed=seed, n_ops=journal_ops)
    report.scenarios["journal.crash"] = count
    report.violations += violations
    count, violations = truncation_sweep_database(
        root, seed=seed, stride=stride
    )
    report.scenarios["db.truncate"] = count
    report.violations += violations
    count, violations = truncation_sweep_journal(
        root, seed=seed, stride=stride
    )
    report.scenarios["journal.truncate"] = count
    report.violations += violations
    return report
