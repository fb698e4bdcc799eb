"""In-memory span tracer for the benchmark's traced runs.

A span is one call into a layer's public function: its name, start and
end on the tracer's clock, its parent (the enclosing span on the same
thread) and its thread. Spans live in a list while the run lasts and are
written out once, by ``dump``, when it ends. Wrapping happens from the
benchmark's side only: an instance attribute, or a class attribute
swapped for the length of a ``patched`` block and then restored.
"""
from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict

import numpy as np

_NAME, _START, _END, _PARENT, _THREAD, _COUNT = range(6)


class Tracer:
    """Collects spans; ``clock`` is ``time.perf_counter`` (wall) or
    ``time.thread_time`` (the calling thread's CPU, for threaded runs
    where a wall span would include other threads' work under the GIL)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call. ``count(result)`` gives a
        number stored with the span (matches returned, elements merged)."""
        clock, spans, local = self.clock, self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   threading.get_ident(), 0]
            spans.append(rec)
            stack.append(rec)
            rec[_START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if count is not None:
                rec[_COUNT] = count(out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace class attributes ``(owner, attr, name, count)`` inside
        the block; the originals are restored on exit."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                if isinstance(orig, classmethod):
                    repl = classmethod(self.wrap(name, orig.__func__, count))
                else:
                    repl = self.wrap(name, orig, count)
                setattr(owner, attr, repl)
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` (duration
        minus the direct children's), ``durations`` (array, s), ``count``
        (sum of the stored numbers), and ``top_s`` (the part of
        ``total_s`` spent in spans with no traced parent)."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[_PARENT] is not None:
                child[id(rec[_PARENT])] += rec[_END] - rec[_START]
        out: dict[str, dict] = {}
        for rec in self.spans:
            s = out.setdefault(
                rec[_NAME],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0,
                 "durations": [], "count": 0},
            )
            d = rec[_END] - rec[_START]
            s["calls"] += 1
            s["total_s"] += d
            s["self_s"] += d - child.get(id(rec), 0.0)
            if rec[_PARENT] is None:
                s["top_s"] += d
            s["durations"].append(d)
            s["count"] += rec[_COUNT]
        for s in out.values():
            s["durations"] = np.asarray(s["durations"])
        return out

    def dump(self, path: str) -> None:
        """Write every span as columns of one ``.npz`` file."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        names = sorted({rec[_NAME] for rec in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(names),
            clock=np.array(self.clock.__name__),
            name=np.array([name_id[r[_NAME]] for r in self.spans], np.int32),
            start=np.array([r[_START] for r in self.spans]),
            end=np.array([r[_END] for r in self.spans]),
            parent=np.array(
                [-1 if r[_PARENT] is None else index[id(r[_PARENT])]
                 for r in self.spans], np.int64),
            thread=np.array([r[_THREAD] for r in self.spans], np.uint64),
            count=np.array([r[_COUNT] for r in self.spans], np.int64),
        )


def percentile_us(durations: np.ndarray, q: float) -> float:
    """``q``-th percentile of span durations, in microseconds (0 when no
    span was recorded)."""
    return float(np.percentile(durations, q) * 1e6) if len(durations) else 0.0
