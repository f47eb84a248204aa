"""Span recording from outside the program.

The benchmark wraps public functions of the program (class methods and
module attributes) with :meth:`Tracer.wrap`.  Every call made while the
tracer is active becomes a span: a name, a start, an end and the span that
was open when it began.  A span's *self time* is its duration minus the
durations of its direct children, so the self times of all spans inside
an op add up to the op's time.

Memory stays bounded on hot paths: ordinary spans are kept as records (up
to ``MAX_RECORDS``, written out at the end), while ``leaf=True`` spans
(random draws, resource acquires) are only folded into per-name totals.
A leaf's duration still counts as child time of the span around it.

Fleet workers forked while the tracer is installed inherit the wrappers.
After a fork the child's totals restart from zero, and each time a
worker's outermost span closes, the worker appends its totals to its file
in ``spool``; the parent folds new lines in with :meth:`merge_spool`.
Traced calls of one process are assumed to run on one thread.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

__all__ = ["Tracer", "self_times"]

#: Spans kept as records per process; later spans only reach the totals.
MAX_RECORDS = 200_000


def self_times(spans) -> dict[int, float]:
    """Self time per span id.

    ``spans`` are ``(id, name, start, end, parent, leaf_seconds)`` records:
    a parent of ``None`` marks a root, and ``leaf_seconds`` is the time the
    span's unrecorded leaf children took.
    """
    child: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return {
        sid: (end - start) - child[sid] - leaves
        for sid, _, start, end, _, leaves in spans
    }


class Tracer:
    """Per-process span recorder with per-name totals."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        spool: Optional[Path] = None,
    ) -> None:
        self.clock = clock
        self.spool = spool
        self.active = False
        self.in_worker = False
        #: names whose individual durations are kept (op latencies)
        self.sampled: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._spool_file = None
        #: bytes of each worker's spool file already merged
        self._offsets: dict[Path, int] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: counters the span hooks add to
        self.counters: dict[str, float] = defaultdict(float)
        #: name -> individual durations, for names in ``sampled``
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: (id, name, start, end, parent, leaf seconds) of recorded spans
        self.records: list[tuple] = []
        #: seconds this process spent inside outermost wrapped calls
        self.covered = 0.0
        #: scratch space for hooks that span several calls
        self.context: list = []
        self._next_id = 0
        # Frames are [child seconds, span id, parent id, start, leaf child
        # seconds]; the root frame at the bottom is never popped.
        self._stack: list[list] = [[0.0, None, None, 0.0, 0.0]]

    def _after_fork(self) -> None:
        self.in_worker = True
        self._spool_file = None
        self._reset()

    def clear(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        self._reset()

    # -- spans -----------------------------------------------------------
    def enter(self) -> list:
        """Open a span; returns its frame for :meth:`exit`."""
        sid = self._next_id
        self._next_id += 1
        frame = [0.0, sid, self._stack[-1][1], self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, name: str, leaf: bool = False) -> tuple[float, float]:
        """Close ``frame`` as a span called ``name``.

        Returns the span's (duration, self time).
        """
        end = self.clock()
        stack = self._stack
        stack.pop()
        start = frame[3]
        duration = end - start
        own = duration - frame[0]
        parent = stack[-1]
        parent[0] += duration
        if leaf:
            parent[4] += duration
        if len(stack) == 1:
            self.covered += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += own
        if name in self.sampled:
            self.samples[name].append(duration)
        if not leaf and len(self.records) < MAX_RECORDS:
            self.records.append((frame[1], name, start, end, frame[2], frame[4]))
        return duration, own

    # -- wrapping --------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        leaf: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(tracer, args)`` runs just before a traced call;
        ``after(tracer, args, result, own)`` runs after it, with ``own``
        the call's self time.  Neither runs while the tracer is inactive.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            frame = tracer.enter()
            try:
                result = original(*args, **kwargs)
            finally:
                _, own = tracer.exit(frame, name, leaf)
            if after is not None:
                after(tracer, args, result, own)
            if tracer.in_worker and len(tracer._stack) == 1:
                tracer._flush_worker()
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- fleet workers ---------------------------------------------------
    def _flush_worker(self) -> None:
        """Append this worker's totals to its spool file and restart them."""
        if self.spool is None:
            return
        if self._spool_file is None:
            path = self.spool / f"worker-{os.getpid()}.jsonl"
            self._spool_file = open(path, "a", encoding="utf-8")
        payload = {
            "totals": dict(self.totals),
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }
        self._spool_file.write(json.dumps(payload) + "\n")
        self._spool_file.flush()
        self._reset()

    def merge_spool(self) -> int:
        """Fold what the workers spooled since the last merge into this tracer.

        Call it only while no worker is inside a traced call.  Returns the
        number of lines read.
        """
        if self.spool is None:
            return 0
        lines = 0
        for path in sorted(self.spool.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                fh.seek(self._offsets.get(path, 0))
                for line in fh:
                    self._merge(json.loads(line))
                    lines += 1
                self._offsets[path] = fh.tell()
        return lines

    def _merge(self, payload: dict) -> None:
        for name, (calls, total, own) in payload["totals"].items():
            mine = self.totals[name]
            mine[0] += calls
            mine[1] += total
            mine[2] += own
        for name, value in payload["counters"].items():
            if name.startswith("max."):
                self.counters[name] = max(self.counters[name], value)
            else:
                self.counters[name] += value
        for name, values in payload["samples"].items():
            self.samples[name].extend(values)

    def write_records(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, leaves in self.records:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "leaf_seconds": leaves}
                    )
                    + "\n"
                )
