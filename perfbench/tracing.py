"""Spans recorded from the benchmark's side of each layer boundary.

The program is not instrumented: :class:`Traced` wraps a backend
instance and times the calls the layer above makes into it
(``execute``, and ``submit_chunk`` up to the moment its future
settles).  Spans are ``{id, name, start, end, parent}`` in seconds
from the recorder's start, kept in memory and written out as JSON lines
when the run ends.  A span's parent is the innermost span open on the
same thread when it began, so a chunk's span hangs under the supervised
or session call that submitted it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any


class Spans:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs: Any) -> dict[str, Any]:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": stack[-1] if stack else None,
            **attrs,
        }
        with self._lock:
            self.spans.append(span)
        return span

    def end(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str, **attrs: Any):
        span = self.begin(name, **attrs)
        stack = self._stack()
        stack.append(span["id"])
        try:
            yield span
        finally:
            stack.pop()
            self.end(span)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        children: dict[int, list[dict[str, Any]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                children[span["parent"]].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["end"] is None:
                continue
            covered = _union(
                [(c["start"], c["end"]) for c in children.get(span["id"], ())],
                span["start"],
                span["end"],
            )
            totals[span["name"]] += (span["end"] - span["start"]) - covered
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class Traced:
    """A backend seen through spans named ``<layer>.<call>``.

    Every other attribute (counters, ``workload``, ``workers``,
    ``close``) passes through, so the wrapped backend composes under
    the supervisor, the journal or a Session exactly as the bare one.
    """

    def __init__(self, target: Any, layer: str, spans: Spans) -> None:
        self._target = target
        self._layer = layer
        self._spans = spans

    def execute(self, jobs, **kwargs):
        with self._spans.span(f"{self._layer}.execute", jobs=len(jobs)):
            return self._target.execute(jobs, **kwargs)

    def submit_chunk(self, chunk, **kwargs):
        span = self._spans.begin(f"{self._layer}.chunk", jobs=len(chunk))
        future = self._target.submit_chunk(chunk, **kwargs)
        future.add_done_callback(lambda _f: self._spans.end(span))
        return future

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)
