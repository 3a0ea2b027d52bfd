"""Segmented, checksummed durable log: the one durability core.

Both durable logs in the system — the minidb write-ahead log and the
broker journal — are a :class:`SegmentedLog`: :class:`repro.minidb.
engine.Database` holds one directly, :class:`repro.messaging.journal.
BrokerJournal` wraps one with its replay mirror and compaction.  The
on-disk layout:

``{base}.manifest``
    One checksummed frame holding ``{"version": 2, "segments": [...],
    "checkpoint": {...} | null, "next_seq": n}``.  The manifest is the
    *only* source of truth for which files belong to the log; it is
    replaced atomically (tmp file → fsync → ``os.replace`` → fsync of
    the parent directory) so a crash anywhere leaves either the old or
    the new manifest — never a torn mixture.
``{base}.00000007.seg``
    Append-only record segments with monotonically increasing ids.  The
    highest-id segment is the *active* tail; the rest are sealed (they
    were fsync'd when rotation retired them).
``{base}.00000007.ckpt``
    A checkpoint: the full state as of the rotation *watermark* in its
    name.  Replay = checkpoint frames + every segment newer than the
    watermark, which is what keeps recovery time flat as history grows.
``{base}.....quarantined``
    Corrupt suffixes set aside by the opt-in salvage mode.

A file at ``{base}`` itself with no manifest beside it is refused with
the owner's error class: it is not a log this module wrote.

Record framing is ``"{crc32:08x} {seq} {json}\\n"`` where the CRC32
covers ``"{seq} {json}"``.  A torn final line in the *active* segment is
tolerated (the write never committed) and truncated away before the next
append; a bad checksum, broken framing, or a sequence regression
anywhere else raises the owner's error class with structured diagnostics
(segment, byte offset, expected/actual checksum, machine-readable
``reason``).  With ``salvage=True`` the corrupt suffix — and every later
segment — is quarantined instead, and replay stops at the last good
record rather than refusing to start.

Durability is a two-step handshake, ``seq = append(record)`` under the
owner's lock, then ``sync(seq)`` after the owner has released it.  When
the record becomes durable is governed by the sync policy:

``group``
    (the default) ``append`` writes and flushes; ``sync`` waits on — or
    leads — a :class:`GroupCommitter` barrier whose single fsync covers
    every record written so far.  The caller does not return until its
    record is durable.  One writer pays exactly one fsync per commit;
    concurrent writers share barriers.
``off``
    flush only, never fsync — for benchmarks and throwaway state; a
    crash may lose the tail of the log but never corrupts it.

Locking: every append is serialised by the *owner's* write lock
(``Database._mutex``, ``BrokerJournal._write_lock``); rotation and
manifest/checkpoint installation additionally take the internal
``_state_lock`` because a checkpoint installs its manifest outside the
owner's append path.  The rare fsyncs under these locks (rotation seals,
manifest swaps) carry ``conlint: allow=CC003`` justifications; the
per-commit fsync runs in :meth:`SegmentedLog.sync`, outside all locks.
Group-commit safety across a rotation holds because the outgoing segment
is fsync'd *before* the handle switches: any record a barrier claims
durable is either in a sealed (already-fsync'd) segment or in the
segment whose handle the barrier leader fsyncs.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.resilience.faults import fire

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.clock import Clock
    from repro.resilience.faults import FaultPlan

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "SYNC_POLICIES",
    "GroupCommitter",
    "SegmentedLog",
]

#: Rotation threshold: a comfortable default for laboratory workloads —
#: small enough that the tail replayed after a checkpoint stays short,
#: large enough that rotation fsyncs are rare.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: The durability disciplines (see the module docstring): ``group``
#: shares fsync barriers between concurrent committers, ``off`` only
#: flushes (benchmarks / throwaway state).
SYNC_POLICIES = ("group", "off")

_SUFFIX_RE = re.compile(r"\.(\d{8})\.(seg|ckpt)$")


class GroupCommitter:
    """Leader-elected fsync batching: one fsync for many committers.

    Each writer, after its buffered write lands in the OS page cache,
    calls :meth:`note_write` and receives a monotonically increasing
    sequence number; to become durable it calls :meth:`wait_durable`
    with it.  If the fsync frontier already covers the sequence it
    returns at once.  Otherwise one waiter elects itself *leader*,
    optionally sleeps a short commit window so more writers pile in,
    runs ``do_sync`` once on behalf of everyone written so far, advances
    the frontier and wakes the followers.  A leader whose ``do_sync``
    raises hands leadership back and wakes the other waiters so one of
    them can retry; the exception propagates to the leader's caller.
    """

    def __init__(
        self, window_s: float = 0.0, clock: "Clock | None" = None
    ) -> None:
        #: How long a leader waits for stragglers before syncing.  Zero
        #: still batches: whatever was written while the previous fsync
        #: ran is covered by the next one.
        self.window_s = window_s
        #: The straggler-window sleep goes through an injectable clock
        #: so the chaos suite can drive a non-zero window without wall
        #: time.  Default is the real wall clock.
        if clock is None:
            from repro.resilience.clock import SystemClock

            clock = SystemClock()
        self.clock = clock
        self._cond = threading.Condition()
        self._written = 0  # highest sequence handed out
        self._synced = 0  # highest sequence known durable
        self._leader_active = False
        #: fsync barriers actually issued.
        self.syncs = 0
        #: Writes made durable across all barriers (>= syncs; the ratio
        #: is the batching factor the benchmarks report).
        self.writes_covered = 0

    def note_write(self) -> int:
        """Register one buffered write; returns its durability sequence."""
        with self._cond:
            self._written += 1
            return self._written

    def pending(self) -> int:
        """Writes not yet covered by a barrier (0 when all durable)."""
        with self._cond:
            return self._written - self._synced

    def latest(self) -> int:
        """The highest sequence handed out so far."""
        with self._cond:
            return self._written

    def wait_durable(  # conlint: blocking -- do_sync is an fsync barrier
        self, seq: int, do_sync: Callable[[], None]
    ) -> None:
        """Block until ``seq`` is durable, fsyncing as elected leader.

        ``do_sync`` runs in exactly one thread per barrier and must make
        every buffered write issued so far durable.  Callers must not
        hold any lock here: the leader blocks in the fsync, followers
        block on the condition (the ``conlint: blocking`` annotation
        above teaches the static analyzer this, since ``do_sync`` itself
        is an uninspectable callable).
        """
        while True:
            with self._cond:
                if self._synced >= seq:
                    return
                if self._leader_active:
                    # A barrier is in flight; it may or may not cover us.
                    self._cond.wait(timeout=1.0)
                    continue
                self._leader_active = True
                target = self._written
            if self.window_s > 0.0:
                self.clock.sleep(self.window_s)
                with self._cond:
                    target = self._written  # stragglers joined the batch
            try:
                do_sync()
            except BaseException:
                with self._cond:
                    self._leader_active = False
                    self._cond.notify_all()
                raise
            with self._cond:
                covered = target - self._synced
                if covered > 0:
                    self._synced = target
                    self.syncs += 1
                    self.writes_covered += covered
                self._leader_active = False
                self._cond.notify_all()


def frame_record(seq: int, record: Any) -> str:
    """One checksummed log line for ``record`` at sequence ``seq``."""
    body = f"{seq} {json.dumps(record, separators=(',', ':'))}"
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n"


def parse_frame(
    stripped: bytes,
) -> tuple[tuple[int, Any] | None, dict[str, Any] | None]:
    """``((seq, record), None)`` for a good frame, ``(None, why)`` otherwise.

    ``why`` carries the structured-diagnostic fields (``reason`` plus
    ``expected_crc``/``actual_crc`` for checksum mismatches).
    """
    parts = stripped.split(b" ", 2)
    if len(parts) != 3 or len(parts[0]) != 8:
        return None, {"reason": "framing"}
    try:
        expected = int(parts[0], 16)
    except ValueError:
        return None, {"reason": "framing"}
    actual = zlib.crc32(parts[1] + b" " + parts[2]) & 0xFFFFFFFF
    if actual != expected:
        return None, {
            "reason": "checksum",
            "expected_crc": parts[0].decode("ascii"),
            "actual_crc": f"{actual:08x}",
        }
    try:
        seq = int(parts[1])
    except ValueError:
        return None, {"reason": "framing"}
    try:
        record = json.loads(parts[2].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, {"reason": "decode"}
    return (seq, record), None


class _Corruption(Exception):
    """Internal carrier for corruption diagnostics (never escapes)."""

    def __init__(
        self,
        note: str,
        *,
        path: Path,
        segment: int | None,
        offset: int | None,
        reason: str,
        expected_crc: str | None = None,
        actual_crc: str | None = None,
    ) -> None:
        super().__init__(note)
        self.note = note
        self.file = path
        self.segment = segment
        self.offset = offset
        self.reason = reason
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc

    def fields(self) -> dict[str, Any]:
        return {
            "path": str(self.file),
            "segment": self.segment,
            "offset": self.offset,
            "reason": self.reason,
            "expected_crc": self.expected_crc,
            "actual_crc": self.actual_crc,
        }


class SegmentedLog:
    """One durable log: segments, manifest, checkpoints and sync policy.

    ``error_cls`` is the owner's corruption error
    (:class:`~repro.errors.RecoveryError` or
    :class:`~repro.errors.JournalError`) — it must accept the structured
    keyword fields of :class:`repro.errors.LogCorruptionDetail`.
    ``prefix`` names the owner's fault-point namespace (``wal`` /
    ``journal``): appends fire ``{prefix}.append``, sync barriers
    ``{prefix}.fsync``, rotation ``{prefix}.rotate`` and every manifest
    swap ``{prefix}.manifest.swap``.  ``sync_policy``,
    ``group_window_s`` and ``clock`` configure durability (see the
    module docstring); an unknown policy raises ``ValueError``.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        error_cls: type,
        prefix: str,
        sync_policy: str = "group",
        group_window_s: float = 0.0,
        clock: "Clock | None" = None,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        segment_max_records: int | None = None,
        salvage: bool = False,
    ) -> None:
        if sync_policy not in SYNC_POLICIES:
            raise ValueError(
                f"unknown sync_policy {sync_policy!r}; "
                f"expected one of {SYNC_POLICIES}"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.error_cls = error_cls
        self.prefix = prefix
        self.sync_policy = sync_policy
        self.segment_max_bytes = segment_max_bytes
        self.segment_max_records = segment_max_records
        self.salvage = salvage
        #: Optional fault-injection plan (``repro.resilience.faults``).
        self.faults: "FaultPlan | None" = None
        self._append_point = f"{prefix}.append"
        self._fsync_point = f"{prefix}.fsync"
        #: Shared fsync barrier for ``sync_policy="group"``.
        self.group = GroupCommitter(window_s=group_window_s, clock=clock)
        #: Serialises rotation / checkpoint installation / manifest
        #: swaps (appends are already serialised by the owner's lock,
        #: but a checkpoint installs outside the owner's append path).
        self._state_lock = threading.Lock()
        self._handle = None
        #: The previous active handle, kept open across one rotation so
        #: an in-flight group-commit barrier holding it never fsyncs a
        #: closed file (its segment is already durable regardless).
        self._retired = None
        self._segments: list[int] = []
        self._segment_counts: dict[int, int] = {}
        self._checkpoint: dict[str, Any] | None = None
        self._next_seq = 1
        self._active_bytes = 0
        #: ``(segment_id, byte_offset)`` of a torn tail seen during
        #: replay; the segment is truncated there before the next append.
        self._truncate_at: tuple[int, int] | None = None
        self._scanned = False
        # -- counters surfaced through info() --------------------------
        #: Records appended (buffered) through this handle's lifetime.
        self.appended_records = 0
        #: fsync barriers issued through this handle's lifetime.
        self.fsyncs = 0
        #: Cumulative wall time spent inside fsync barriers (ms) —
        #: the raw material for commit-stage latency attribution.
        self.fsync_wait_ms = 0.0
        self.rotations = 0
        self.checkpoints_installed = 0
        self.manifest_swaps = 0
        self.dir_fsyncs = 0
        self.torn_tails = 0
        self.strays_removed = 0
        self.records_since_checkpoint = 0
        self.salvage_report: dict[str, Any] | None = None
        self.last_replay: dict[str, Any] = {}
        self._load()

    # -- paths --------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.path.parent / f"{self.path.name}.manifest"

    def segment_path(self, segment_id: int) -> Path:
        return self.path.parent / f"{self.path.name}.{segment_id:08d}.seg"

    def checkpoint_path(self, watermark: int) -> Path:
        return self.path.parent / f"{self.path.name}.{watermark:08d}.ckpt"

    @property
    def segments(self) -> list[int]:
        return list(self._segments)

    @property
    def checkpoint(self) -> dict[str, Any] | None:
        return dict(self._checkpoint) if self._checkpoint else None

    # -- open ---------------------------------------------------------------

    def _load(self) -> None:
        if self.manifest_path.exists():
            self._load_manifest()
            self._clean_strays()
        elif self.path.exists():
            raise self.error_cls(
                f"{self.path} is not a segmented log (no manifest beside it)",
                path=str(self.path),
                reason="manifest",
            )

    def _load_manifest(self) -> None:
        raw = self.manifest_path.read_bytes().strip()
        parsed, why = parse_frame(raw)
        record = parsed[1] if parsed else None
        if not isinstance(record, dict) or record.get("version") != 2:
            detail = why or {"reason": "manifest"}
            raise self.error_cls(
                f"corrupt manifest at {self.manifest_path}",
                path=str(self.manifest_path),
                offset=0,
                reason="manifest",
                expected_crc=detail.get("expected_crc"),
                actual_crc=detail.get("actual_crc"),
            )
        self._segments = sorted(int(s) for s in record.get("segments", []))
        self._checkpoint = record.get("checkpoint") or None
        self._next_seq = int(record.get("next_seq", 1))

    def _clean_strays(self) -> None:
        """Remove files the manifest does not reference (crash leftovers)."""
        referenced = {self.manifest_path.name}
        referenced.update(self.segment_path(s).name for s in self._segments)
        if self._checkpoint:
            referenced.add(self._checkpoint["file"])
        for candidate in self.path.parent.glob(f"{self.path.name}.*"):
            name = candidate.name
            if name in referenced or name.endswith(".quarantined"):
                continue
            if name.endswith(".tmp") or _SUFFIX_RE.search(name):
                candidate.unlink(missing_ok=True)
                self.strays_removed += 1

    # -- durable swaps (satellite: rename durability) ------------------------

    def _fsync_dir(self) -> None:
        """fsync the parent directory so a rename itself is durable.

        ``os.replace`` makes the swap atomic but only the *directory*
        fsync makes it survive a power cut — without it the rename can
        simply vanish, resurrecting the old file.
        """
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            # conlint: allow=CC003 -- directory fsyncs happen only on
            # the rare swap paths (rotation, checkpoint install); the
            # per-record fsync discipline is unaffected.
            os.fsync(fd)
        finally:
            os.close(fd)
        self.dir_fsyncs += 1

    def _swap_manifest_locked(self) -> None:
        """Atomically publish the current segment/checkpoint state."""
        payload = {
            "version": 2,
            "segments": self._segments,
            "checkpoint": self._checkpoint,
            "next_seq": self._next_seq,
        }
        tmp = Path(str(self.manifest_path) + ".tmp")
        with tmp.open("w", encoding="utf-8") as out:
            out.write(frame_record(0, payload))
            out.flush()
            # conlint: allow=CC003 -- the manifest swap is rare (one per
            # rotation/checkpoint) and must be durable before the rename
            # that publishes it.
            os.fsync(out.fileno())
        fire(self.faults, f"{self.prefix}.manifest.swap")
        os.replace(tmp, self.manifest_path)
        self._fsync_dir()
        self.manifest_swaps += 1

    # -- append path ---------------------------------------------------------

    def _ensure_scanned(self) -> None:
        if not self._scanned:
            for _ in self.replay():
                pass

    def _ensure_active_locked(self) -> None:
        """Open the active segment handle (creating segment 1 if fresh)."""
        if self._handle is not None:
            return
        if not self._segments:
            self._segments = [1]
            self._segment_counts[1] = 0
            self.segment_path(1).touch()
            self._swap_manifest_locked()
        active = self._segments[-1]
        path = self.segment_path(active)
        if self._truncate_at is not None and self._truncate_at[0] == active:
            with path.open("r+b") as trunc:
                trunc.truncate(self._truncate_at[1])
            self._truncate_at = None
        self._handle = path.open("a", encoding="utf-8")
        try:
            self._active_bytes = path.stat().st_size
        except OSError:
            self._active_bytes = 0

    def append(self, record: dict[str, Any]) -> int | None:
        """Write one record; returns the ticket :meth:`sync` takes.

        The caller holds its own write lock and hands the ticket to
        :meth:`sync` only *after* releasing it, so no fsync ever runs
        under an owner's lock.  The ticket is a positive durability
        sequence under ``group``, ``0`` under ``off`` (nothing to wait
        for), and ``None`` when an injected ``drop`` swallowed the
        record — nothing was written.

        Fault point ``{prefix}.append`` (context: ``record_type``):
        ``crash`` dies before anything hits the file — the operation
        never committed; ``corrupt`` leaves a torn half-frame and then
        dies, exactly the state a power cut mid-``write`` produces
        (replay discards it when final, refuses the log otherwise);
        ``drop`` is a lying disk — the caller believes the record
        durable.  Rotation (``{prefix}.rotate``) happens inside the
        write when the active segment crosses its threshold.
        """
        record_type = record.get("type")
        action = fire(self.faults, self._append_point, record_type=record_type)
        if action == "drop":
            return None
        if action == "corrupt":
            self._write_torn(record)
            raise self.error_cls(
                f"injected torn write at {self.path} "
                f"(record type {record_type!r})"
            )
        self.write_frame(record)
        self.appended_records += 1
        if self.sync_policy == "group":
            return self.group.note_write()
        return 0

    def sync(self, seq: int | None) -> None:
        """Block until the append that returned ``seq`` is durable.

        Call with no lock held: under ``group`` this waits on — or, as
        the elected leader, runs — the shared fsync barrier, so one
        writer pays one fsync per commit and concurrent writers share
        them.  A no-op for the ``0``/``None`` tickets of ``off`` and of
        dropped appends.
        """
        if seq:
            self.group.wait_durable(seq, self._sync_barrier)

    def flush_pending(self) -> None:
        """Make every buffered append durable (``off`` buffers none)."""
        if self.group.pending() > 0:
            self.group.wait_durable(self.group.latest(), self._sync_barrier)

    def _sync_barrier(self) -> None:
        """One fsync covering every buffered append (barrier leader only).

        Fault point ``{prefix}.fsync`` (context ``record_type="group"``)
        fires first: a crash there dies after the writes but before the
        fsync returned — the records may or may not survive, and replay
        treats whatever is on disk as the truth.  Safe across a
        rotation: the retiring segment was fsync'd before the handle
        switched, so fsyncing whatever handle is active now covers every
        record written so far — and a handle retired *and* closed by two
        intervening rotations is skipped, because each rotation fsync'd
        the segment it sealed.
        """
        fire(self.faults, self._fsync_point, record_type="group")
        handle = self._handle
        t0 = time.perf_counter()
        if handle is not None:
            try:
                os.fsync(handle.fileno())
            except ValueError:  # pragma: no cover - doubly-rotated handle
                pass
        self.fsync_wait_ms += (time.perf_counter() - t0) * 1000.0
        self.fsyncs += 1

    def write_frame(self, record: Any) -> int:
        """Write one checksummed frame; caller holds the owner's lock.

        Returns the record's log sequence number.  Buffers and flushes
        only, fires no fault point and counts nothing — :meth:`append`
        is the durable entry point.  Rotation happens here when the
        active segment crosses its size/record threshold.
        """
        self._ensure_scanned()
        with self._state_lock:
            self._ensure_active_locked()
            line = frame_record(self._next_seq, record)
            self._handle.write(line)
            self._handle.flush()
            seq = self._next_seq
            self._next_seq += 1
            active = self._segments[-1]
            self._segment_counts[active] = (
                self._segment_counts.get(active, 0) + 1
            )
            self.records_since_checkpoint += 1
            self._active_bytes += len(line)
            rotation_due = self._rotation_due()
        if rotation_due:
            self.rotate()
        return seq

    def _write_torn(self, record: Any) -> None:
        """Leave a torn half-frame on disk (the ``corrupt`` fault action)."""
        self._ensure_scanned()
        with self._state_lock:
            self._ensure_active_locked()
            line = frame_record(self._next_seq, record)
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            # conlint: allow=CC003 -- torn-write injection must hit the
            # disk before the simulated death, or replay would never see
            # the half-line this fault exists to produce.
            os.fsync(self._handle.fileno())

    def _rotation_due(self) -> bool:
        if self._active_bytes >= self.segment_max_bytes:
            return True
        if self.segment_max_records is not None:
            active = self._segments[-1]
            if self._segment_counts.get(active, 0) >= self.segment_max_records:
                return True
        return False

    def rotate(self) -> int:
        """Seal the active segment and open a fresh one.

        Returns the sealed segment's id — the *watermark* a checkpoint
        taken now may later compact up to.  The outgoing segment is
        fsync'd before the handle switches (see the module docstring for
        why group commit depends on this).  Fault point
        ``{prefix}.rotate`` fires first: a crash there loses nothing,
        the rotation simply never happened.
        """
        self._ensure_scanned()
        with self._state_lock:
            self._ensure_active_locked()
            sealed = self._segments[-1]
            fire(self.faults, f"{self.prefix}.rotate", segment=sealed)
            self._handle.flush()
            # conlint: allow=CC003 -- sealing fsync: the retiring
            # segment must be durable before the handle switches or a
            # group-commit barrier on the new handle could claim records
            # in the old one durable when they are not.
            os.fsync(self._handle.fileno())
            if self._retired is not None:
                self._retired.close()
            self._retired = self._handle
            self._handle = None
            fresh = sealed + 1
            self._segments.append(fresh)
            self._segment_counts[fresh] = 0
            self.segment_path(fresh).touch()
            self._handle = self.segment_path(fresh).open("a", encoding="utf-8")
            self._active_bytes = 0
            self._swap_manifest_locked()
        self.rotations += 1
        return sealed

    # -- checkpoint install / compaction --------------------------------------

    def install_checkpoint(
        self,
        records: Iterable[Any],
        watermark: int,
        *,
        write_point: str,
        swap_point: str,
        gc_point: str,
        **ctx: Any,
    ) -> int:
        """Write a checkpoint file, publish it, compact older segments.

        ``watermark`` must be the id returned by the :meth:`rotate` that
        cut the snapshot — every record in ``records`` is in segments
        ``<= watermark``.  Crash windows: before the manifest swap the
        old manifest still references every segment, so recovery replays
        the previous checkpoint plus the full tail (the new ``.ckpt``
        file is an unreferenced stray, cleaned on next open); after the
        swap the new checkpoint is live and leftover old segments are
        strays.  Either way recovery sees exactly the old or the new
        organisation of the same committed history.
        """
        fire(self.faults, write_point, watermark=watermark, **ctx)
        final = self.checkpoint_path(watermark)
        tmp = Path(str(final) + ".tmp")
        count = 0
        with tmp.open("w", encoding="utf-8") as out:
            for count, record in enumerate(records, 1):
                out.write(frame_record(count, record))
            out.flush()
            # conlint: allow=CC003 -- checkpoint side-file fsync; runs
            # outside the owner's append locks by protocol (the engine
            # serialises checkpoints with a dedicated lock instead).
            os.fsync(out.fileno())
        os.replace(tmp, final)
        self._fsync_dir()
        fire(self.faults, swap_point, watermark=watermark, **ctx)
        with self._state_lock:
            previous = self._checkpoint
            self._checkpoint = {
                "file": final.name,
                "watermark": watermark,
                "records": count,
            }
            removed = [s for s in self._segments if s <= watermark]
            self._segments = [s for s in self._segments if s > watermark]
            for seg in removed:
                self._segment_counts.pop(seg, None)
            self.records_since_checkpoint = sum(
                self._segment_counts.get(s, 0) for s in self._segments
            )
            self._swap_manifest_locked()
        fire(self.faults, gc_point, watermark=watermark, **ctx)
        for seg in removed:
            self.segment_path(seg).unlink(missing_ok=True)
        if previous and previous["file"] != final.name:
            (self.path.parent / previous["file"]).unlink(missing_ok=True)
        self.checkpoints_installed += 1
        return count

    # -- replay ---------------------------------------------------------------

    def replay(self) -> Iterator[Any]:
        """Yield every committed record: checkpoint frames, then the tail.

        Streams line-by-line — O(1) memory however long the history.
        A torn final line in the active segment is tolerated (and
        truncated before the next append); everything else raises the
        owner's error class with structured diagnostics, or — under
        ``salvage`` — quarantines the corrupt suffix and stops cleanly.
        """
        self.last_replay = {
            "checkpoint_records": 0,
            "tail_records": 0,
            "torn_tail": False,
            "salvaged": False,
        }
        try:
            yield from self._replay_inner()
        except _Corruption as corruption:
            if self.salvage and corruption.segment is not None:
                self._salvage(corruption)
                self.last_replay["salvaged"] = True
            else:
                raise self.error_cls(
                    f"corrupt {self.prefix} record at {corruption.file} "
                    f"offset {corruption.offset}: {corruption.note}",
                    **corruption.fields(),
                ) from None
        with self._state_lock:
            self._scanned = True

    def _replay_inner(self) -> Iterator[Any]:
        max_seq = 0
        counts: dict[int, int] = {}
        if self._checkpoint is not None:
            ckpt = self.path.parent / self._checkpoint["file"]
            if not ckpt.exists():
                raise self.error_cls(
                    f"manifest references missing checkpoint {ckpt}",
                    path=str(ckpt),
                    reason="manifest",
                )
            for __, record, __ in self._iter_frames(ckpt, segment=None):
                self.last_replay["checkpoint_records"] += 1
                yield record
        tail = sorted(self._segments)
        for index, segment in enumerate(tail):
            spath = self.segment_path(segment)
            last = index == len(tail) - 1
            if not spath.exists():
                raise self.error_cls(
                    f"manifest references missing segment {spath}",
                    path=str(spath),
                    segment=segment,
                    reason="manifest",
                )
            counts[segment] = 0
            for seq, record, offset in self._iter_frames(
                spath, segment=segment, torn_ok=last
            ):
                if seq <= max_seq:
                    raise _Corruption(
                        f"sequence regression ({seq} after {max_seq})",
                        path=spath,
                        segment=segment,
                        offset=offset,
                        reason="sequence",
                    )
                max_seq = seq
                counts[segment] += 1
                self.last_replay["tail_records"] += 1
                yield record
        self._segment_counts = counts
        self.records_since_checkpoint = sum(counts.values())
        self._next_seq = max(self._next_seq, max_seq + 1)

    def _iter_frames(
        self,
        file_path: Path,
        *,
        segment: int | None,
        torn_ok: bool = False,
    ) -> Iterator[tuple[int, Any, int]]:
        """Stream ``(seq, record, byte_offset)`` triples from one file."""
        offset = 0
        pending: tuple[int, dict[str, Any]] | None = None
        with file_path.open("rb") as handle:
            for raw in handle:
                if pending is not None:
                    # The bad line was not the last one: real corruption.
                    self._raise_corrupt(file_path, segment, pending)
                start = offset
                offset += len(raw)
                stripped = raw.strip()
                if not stripped:
                    continue
                parsed, why = parse_frame(stripped)
                if parsed is None:
                    pending = (start, why or {"reason": "framing"})
                    continue
                yield parsed[0], parsed[1], start
        if pending is not None:
            if torn_ok:
                # Torn final write from a crash: the record never
                # committed.  Truncate it away before the next append.
                self.torn_tails += 1
                self.last_replay["torn_tail"] = True
                assert segment is not None
                self._truncate_at = (segment, pending[0])
                return
            self._raise_corrupt(file_path, segment, pending)

    def _raise_corrupt(
        self,
        file_path: Path,
        segment: int | None,
        pending: tuple[int, dict[str, Any]],
    ) -> None:
        offset, why = pending
        reason = why.get("reason", "framing")
        note = {
            "checksum": "checksum mismatch (expected {e}, got {a})".format(
                e=why.get("expected_crc"), a=why.get("actual_crc")
            ),
            "framing": "unparseable frame",
            "decode": "checksummed payload failed to decode",
        }.get(reason, reason)
        if segment is None:
            # Checkpoint files are the recovery *base*: never salvage.
            raise self.error_cls(
                f"corrupt checkpoint record at {file_path} "
                f"offset {offset}: {note}",
                path=str(file_path),
                offset=offset,
                reason=reason,
                expected_crc=why.get("expected_crc"),
                actual_crc=why.get("actual_crc"),
            )
        raise _Corruption(
            note,
            path=file_path,
            segment=segment,
            offset=offset,
            reason=reason,
            expected_crc=why.get("expected_crc"),
            actual_crc=why.get("actual_crc"),
        )

    def _salvage(self, corruption: _Corruption) -> None:
        """Quarantine the corrupt suffix and every later segment."""
        assert corruption.segment is not None
        quarantined: list[str] = []
        spath = self.segment_path(corruption.segment)
        qpath = Path(str(spath) + ".quarantined")
        with spath.open("rb") as src:
            src.seek(corruption.offset or 0)
            qpath.write_bytes(src.read())
        quarantined.append(qpath.name)
        with spath.open("r+b") as trunc:
            trunc.truncate(corruption.offset or 0)
        survivors = [s for s in self._segments if s <= corruption.segment]
        for later in (s for s in self._segments if s > corruption.segment):
            lpath = self.segment_path(later)
            if lpath.exists():
                os.replace(lpath, Path(str(lpath) + ".quarantined"))
                quarantined.append(lpath.name + ".quarantined")
            self._segment_counts.pop(later, None)
        self._segments = survivors
        self._truncate_at = None
        # The interrupted replay never reached its end-of-scan
        # bookkeeping: rescan the surviving prefix so sequence
        # allocation and compaction accounting resume where the last
        # intact record left off (not at the stale manifest values).
        counts: dict[int, int] = {}
        max_seq = 0
        for segment in self._segments:
            counts[segment] = 0
            for seq, __, __ in self._iter_frames(
                self.segment_path(segment), segment=segment
            ):
                counts[segment] += 1
                max_seq = max(max_seq, seq)
        self._segment_counts = counts
        self.records_since_checkpoint = sum(counts.values())
        self._next_seq = max(self._next_seq, max_seq + 1)
        with self._state_lock:
            self._swap_manifest_locked()
        self.salvage_report = {
            "path": str(corruption.file),
            "segment": corruption.segment,
            "offset": corruption.offset,
            "reason": corruption.reason,
            "expected_crc": corruption.expected_crc,
            "actual_crc": corruption.actual_crc,
            "quarantined": quarantined,
        }

    # -- bookkeeping ----------------------------------------------------------

    def size_bytes(self) -> int:
        """Total on-disk footprint: manifest + checkpoint + segments."""
        total = 0
        paths = [self.manifest_path]
        paths.extend(self.segment_path(s) for s in self._segments)
        if self._checkpoint:
            paths.append(self.path.parent / self._checkpoint["file"])
        for candidate in paths:
            try:
                total += candidate.stat().st_size
            except OSError:
                continue
        return total

    def info(self) -> dict[str, Any]:
        """Durability counters and segment layout, for the owners' ``*_info()``."""
        return {
            "sync_policy": self.sync_policy,
            "appended_records": self.appended_records,
            "fsyncs": self.fsyncs,
            "fsync_wait_ms": self.fsync_wait_ms,
            "group_syncs": self.group.syncs,
            "group_writes_covered": self.group.writes_covered,
            "size_bytes": self.size_bytes(),
            "segments": len(self._segments),
            "segment_ids": list(self._segments),
            "checkpoint": self.checkpoint,
            "records_since_checkpoint": self.records_since_checkpoint,
            "rotations": self.rotations,
            "checkpoints_installed": self.checkpoints_installed,
            "manifest_swaps": self.manifest_swaps,
            "dir_fsyncs": self.dir_fsyncs,
            "torn_tails": self.torn_tails,
            "strays_removed": self.strays_removed,
            "salvaged": self.salvage_report,
        }

    def close(self) -> None:
        """Drain buffered appends, then release the file handles.

        A clean close never loses acknowledged work: a ``group`` batch
        still owed its fsync is synced first.  Handles reopen lazily on
        the next append.
        """
        try:
            if self._handle is not None:
                self.flush_pending()
        finally:
            with self._state_lock:
                if self._retired is not None:
                    self._retired.close()
                    self._retired = None
                if self._handle is not None:
                    self._handle.close()
                    self._handle = None
