"""In-memory span recorder for the traced benchmark pass.

Spans are recorded around calls into the layers' public functions by
replacing the module (or class) attributes that callers look up at call
time, e.g. ``uastrack.matcher.scan`` (called by the tracker as
``matcher.scan``) and ``uastrack.tracker.build_bank`` (called by
``TrackerSession.apply_template``). Nothing inside ``uastrack`` changes;
the originals are restored when the ``installed`` block exits.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Optional

# One span: [name, start, end, parent index or None, frame id or None, attrs].
NAME, START, END, PARENT, FRAME, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.frame: Optional[int] = None   # global id of the frame in progress
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, annotate: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``annotate(args, result)`` adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.frame, None]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                rec[ATTRS] = annotate(args, result)
            return result

        return traced

    def by_name(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def covered(self, frames: dict[int, float]) -> float:
        """Share of the given frames' wall time (id -> seconds) under top-level spans."""
        inside = sum(
            s[END] - s[START]
            for s in self.spans
            if s[PARENT] is None and s[FRAME] in frames
        )
        total = sum(frames.values())
        return inside / total if total > 0 else 0.0

    def dump(self, path) -> None:
        """Write the spans as JSON lines; times are seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s[NAME],
                    "start": s[START] - t0,
                    "end": s[END] - t0,
                    "parent": s[PARENT],
                    "frame": s[FRAME],
                    **(s[ATTRS] or {}),
                }) + "\n")


@contextmanager
def installed(tracer: Tracer, targets):
    """Swap each ``(owner, attr, span name, annotate)`` for a traced wrapper."""
    saved = []
    try:
        for owner, attr, name, annotate in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, annotate))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
