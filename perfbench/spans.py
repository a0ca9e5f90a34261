"""Spans recorded from the benchmark's own files around calls into each layer.

A :class:`Tracer` keeps spans in memory (name, layer, start, end, parent)
and writes them out once, at the end of a run, as Chrome trace-event JSON
(load it in ``chrome://tracing`` or Perfetto).  :data:`OFF` is the
untraced stand-in: the same ``span`` calls cost one no-op context manager,
so the untraced run, which gives the end-to-end metrics, times the same
code.

:meth:`Tracer.wrap` patches a public function or method for the length of
the traced run and restores it afterwards; nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from typing import Dict, List, Optional


class Tracer:
    """In-memory span recorder (one per traced run)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **args):
        stack = self._stack()
        span = {
            "id": len(self.spans),
            "pid": os.getpid(),
            "name": name,
            "layer": layer,
            "parent": stack[-1]["id"] if stack else None,
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
            "args": args,
        }
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, layer: str) -> None:
        """Record a span around every call of ``owner.attr`` until :meth:`close`."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original

        @functools.wraps(func)
        def traced(*a, **kw):
            with self.span(name, layer):
                return func(*a, **kw)

        self.patch(owner, attr, classmethod(traced) if is_classmethod else traced)

    def wrap_returned(self, owner, attr: str, name: str, layer: str) -> None:
        """Record a span around every call of the callable ``owner.attr`` returns."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def patched(*a, **kw):
            fn = original(*a, **kw)
            if fn is None:
                return None

            def traced():
                with self.span(name, layer):
                    return fn()

            return traced

        self.patch(owner, attr, patched)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`close` puts the original back."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def merge(self, spans: List[dict]) -> None:
        """Append spans another process recorded (``perf_counter`` is system-wide)."""
        base = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append(dict(s, id=s["id"] + base, parent=parent))

    def close(self) -> None:
        """Undo every :meth:`wrap`."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Seconds of every finished span called ``name``, in call order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and "end" in s]

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span time not covered by child spans."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None and "end" in s:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        table: Dict[str, float] = {}
        for s in self.spans:
            if "end" in s:
                own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                table[s["layer"]] = table.get(s["layer"], 0.0) + own
        return table

    def write_chrome(self, path: str) -> None:
        events = [
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": (s["start"] - self._t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {"id": s["id"], "parent": s["parent"], **s["args"]},
            }
            for s in self.spans
            if "end" in s
        ]
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


class _Off:
    """Tracing off: spans are no-ops and nothing is patched."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **args):
        yield None


OFF = _Off()


def median(values) -> Optional[float]:
    ordered = sorted(values)
    if not ordered:
        return None
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
