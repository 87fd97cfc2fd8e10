"""Temporary wrappers around mhpf calls: step timing and in-memory spans.

Nothing here edits mhpf's source. `patched` swaps module attributes and class
methods for wrappers for the length of a `with` block and puts the originals
back afterwards, so a wrapper sees every call made through that name, from the
benchmark or from inside mhpf.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_now = time.perf_counter


@contextmanager
def patched(patches):
    """Set `owner.name = value` for each (owner, name, value) within the block."""
    saved = []
    try:
        for owner, name, value in patches:
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


class Tracer:
    """In-memory spans (id, name, start, end, parent, trial) with self times.

    A span's self time is its duration minus the durations of its child
    spans. Time spent in `excluded()` blocks (output checks) is removed from
    every span open around it, and no spans are recorded inside them.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.trial = None  # id stamped on each span as it closes
        self._open: list[list] = []
        self._suspended = False

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _begin(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else None
        # frame: id (spans opened so far), name, start, child s, excluded s, parent
        frame = [len(self.spans) + len(self._open), name, _now(), 0.0, 0.0, parent]
        self._open.append(frame)
        return frame

    def _end(self, frame: list) -> None:
        end = _now()
        self._open.pop()
        span_id, name, start, child_s, excl_s, parent = frame
        duration = end - start - excl_s
        if self._open:
            self._open[-1][3] += duration
        self.spans.append((span_id, name, start, end, parent, self.trial))
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s

    @contextmanager
    def excluded(self):
        """Run untraced work (checks) and hide its time from open spans."""
        start = _now()
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False
            dt = _now() - start
            for frame in self._open:
                frame[4] += dt

    def wrap(self, fn, name: str, after=None):
        """`fn` inside a span; `after(args, result)` runs outside it."""
        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            frame = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(frame)
            self.count(name + ".calls")
            if after is not None:
                after(args, out)
            return out
        return traced

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix before the dot)."""
        out: dict[str, float] = {}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s
        return out

    def write(self, path, summary: dict) -> None:
        """A summary line, then one JSON array per span, as in `span_fields`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": summary,
                                 "span_fields": ["id", "name", "start_s", "end_s",
                                                 "parent_id", "trial"],
                                 "layer_self_s": self.layer_self_s(),
                                 "span_total_s": self.total_s,
                                 "span_self_s": self.self_s,
                                 "counts": self.counts}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
