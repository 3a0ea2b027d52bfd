"""Sampling wall-clock profiler emitting collapsed-stack output.

Periodically snapshots every live thread's Python stack via
``sys._current_frames`` and counts identical stacks.  The output format
is the *collapsed stack* convention flamegraph tools consume::

    broker.py:receive;condition.py:wait 42
    engine.py:insert;wal.py:append 17

Each line is a ``;``-joined root→leaf frame chain and the number of
samples it was observed in; sample counts approximate wall-clock share.
Sampling is wall-clock (not CPU): a thread blocked in ``cond.wait`` or
``fsync`` accrues samples exactly like a computing one, which is the
right lens for a system whose latency is dominated by waiting.

Cost model: each sample is one ``sys._current_frames`` call plus a walk
of a handful of frames per thread — at the default 10 ms interval this
is well under 1% of one core.  The sampler is a daemon thread, started
explicitly (`start`) and never by default.
"""

from __future__ import annotations

import gc
import sys
import threading
from typing import Any

from repro.resilience.clock import Clock, SystemClock

#: Hard cap on distinct stacks retained (a runaway workload must not
#: turn the profiler into a leak).
_MAX_STACKS = 10_000


def _frame_label(frame: Any) -> str:
    code = frame.f_code
    return f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"


class StackSampler:
    """Wall-clock sampling profiler over all live threads."""

    def __init__(
        self,
        interval_s: float = 0.01,
        max_frames: int = 40,
        clock: Clock | None = None,
    ) -> None:
        self.interval_s = interval_s
        self.max_frames = max_frames
        self.clock: Clock = clock or SystemClock()
        self.samples = 0
        self.dropped_stacks = 0
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin sampling in a daemon thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="obs-prof-sampler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the sampling thread and wait for it to exit."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)

    @property
    def running(self) -> bool:
        return self._thread is not None

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.is_set():
            self.sample_once(exclude={me})
            self._stop.wait(self.interval_s)

    # -- sampling -----------------------------------------------------------

    def sample_once(self, exclude: set[int] | None = None) -> int:
        """Take one snapshot of every live thread; returns threads seen."""
        exclude = exclude or set()
        # CPython 3.11 holds its thread-list lock across this call; a
        # collection it triggers can run a finalizer that lets a thread
        # being started block on that lock for good (CPython issue
        # 106883).  No collection may start inside it.
        collecting = gc.isenabled()
        gc.disable()
        try:
            frames = sys._current_frames()
        finally:
            if collecting:
                gc.enable()
        seen = 0
        collapsed: list[str] = []
        for ident, frame in frames.items():
            if ident in exclude:
                continue
            chain: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_frames:
                chain.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if not chain:
                continue
            # root-first, flamegraph convention.
            collapsed.append(";".join(reversed(chain)))
            seen += 1
        with self._lock:
            self.samples += 1
            for stack in collapsed:
                if stack in self._counts:
                    self._counts[stack] += 1
                elif len(self._counts) < _MAX_STACKS:
                    self._counts[stack] = 1
                else:
                    self.dropped_stacks += 1
        return seen

    # -- output -------------------------------------------------------------

    def collapsed(self, limit: int | None = None) -> str:
        """Collapsed-stack text, most-sampled first."""
        with self._lock:
            items = sorted(self._counts.items(), key=lambda kv: -kv[1])
        if limit is not None:
            items = items[:limit]
        return "\n".join(f"{stack} {count}" for stack, count in items)

    def report(self, top: int = 10) -> dict[str, Any]:
        """JSON-friendly summary: sample count and the hottest stacks."""
        with self._lock:
            items = sorted(self._counts.items(), key=lambda kv: -kv[1])
            return {
                "samples": self.samples,
                "distinct_stacks": len(self._counts),
                "dropped_stacks": self.dropped_stacks,
                "hottest": [
                    {"stack": stack, "count": count}
                    for stack, count in items[:top]
                ],
            }

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self.samples = 0
            self.dropped_stacks = 0
