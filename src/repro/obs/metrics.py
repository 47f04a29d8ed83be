"""A thread-safe registry of named counters, gauges and histograms.

Wing's definition of computational thinking includes "efficiency,
correctness *and measurement* of our abstractions"; this module is the
measurement half of that sentence.  It is deliberately dependency-free
and shaped like the Prometheus client-library data model, the lingua
franca of production metrics: every metric has a name, a kind, and a
set of *labelled series* (``runtime_cost_total{backend="process"}``), so
the same counter can be sliced per backend, per scheme, per core.

Three metric kinds:

* :class:`Counter` — monotonically non-decreasing; ``inc`` rejects
  negative deltas.
* :class:`Gauge` — a value that goes both ways (queue depth, core
  utilisation).
* :class:`Histogram` — fixed cumulative buckets plus an implicit
  ``+Inf`` bucket, with ``sum`` and ``count``; bucket semantics follow
  Prometheus ``le`` (a value exactly on a boundary lands in that
  boundary's bucket).  Negative observations are rejected — durations
  and step counts cannot be negative, and a silent negative would
  corrupt ``sum``.

The registry is the synchronisation point: one lock covers series
creation *and* updates, which is plenty for the per-run/per-chunk call
rates the instrumentation layer produces (the hot loops themselves are
never metered per step — see :mod:`repro.obs.instrument`).

Exporters: :meth:`MetricsRegistry.snapshot` (a plain JSON-able dict)
and :meth:`MetricsRegistry.render_prometheus` (the text exposition
format).  A *cardinality guard* caps the number of label series per
metric, because unbounded label values (the classic "user id as a
label" mistake) are how metrics registries eat production heaps.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

# Default histogram buckets: spans microbenchmark durations (ms) up to
# simulated-time backoffs (tens of units).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


class Counter:
    """A monotonically non-decreasing labelled series."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.RLock) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float = 0
        self._lock = lock

    def inc(self, value: int | float = 1) -> None:
        if value < 0:
            raise ValueError("counters only go up; use a Gauge for signed values")
        with self._lock:
            self.value += value


class Gauge:
    """A labelled series that can go up and down."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.RLock) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float = 0
        self._lock = lock

    def set(self, value: int | float) -> None:
        with self._lock:
            self.value = value

    def inc(self, value: int | float = 1) -> None:
        with self._lock:
            self.value += value

    def dec(self, value: int | float = 1) -> None:
        self.inc(-value)


class Histogram:
    """Fixed cumulative buckets plus the implicit ``+Inf`` bucket.

    ``bounds`` are the finite upper bounds (strictly increasing); an
    observation ``v`` lands in the first bucket with ``v <= bound``
    (Prometheus ``le`` semantics — boundary values belong to the
    boundary's bucket) or in ``+Inf`` when above every bound.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count", "_lock")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        lock: threading.RLock,
        bounds: tuple[float, ...],
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: int | float) -> None:
        if value < 0:
            raise ValueError("histogram observations must be >= 0")
        with self._lock:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip((*self.bounds, float("inf")), self.bucket_counts):
            running += n
            out.append((bound, running))
        return out


def _label_key(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_value(value: int | float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    escaped = (
        (k, v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"))
        for k, v in sorted(labels.items())
    )
    return "{" + ",".join(f'{k}="{v}"' for k, v in escaped) + "}"


def _escape_help(text: str) -> str:
    # HELP lines escape only backslash and newline (no quotes to
    # close), per the text exposition format.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class _Metric:
    """One named metric: a kind, optional bucket bounds, and its series."""

    __slots__ = ("kind", "bounds", "series")

    def __init__(self, kind: str, bounds: tuple[float, ...] | None) -> None:
        self.kind = kind
        self.bounds = bounds
        self.series: dict[tuple[tuple[str, str], ...], Counter | Gauge | Histogram] = {}


class MetricsRegistry:
    """Named metrics with labelled series, behind one lock.

    ``max_series_per_metric`` is the cardinality guard: asking for yet
    another label combination past the cap raises ``ValueError`` rather
    than growing without bound.
    """

    def __init__(self, *, max_series_per_metric: int = 1024) -> None:
        if max_series_per_metric < 1:
            raise ValueError("max_series_per_metric must be >= 1")
        self.max_series_per_metric = max_series_per_metric
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}
        # Emission fast path: a name is validated against the regex
        # once, not on each of the millions of increments behind it.
        self._valid_names: set[str] = set()

    # -- series accessors ---------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self._series(name, labels, "counter")

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._series(name, labels, "gauge")

    def histogram(
        self, name: str, *, buckets: Iterable[float] | None = None, **labels: object
    ) -> Histogram:
        bounds = None
        if buckets is not None:
            bounds = tuple(float(b) for b in buckets)
            if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
                raise ValueError("buckets must be non-empty and strictly increasing")
        return self._series(name, labels, "histogram", bounds)

    def _series(
        self,
        name: str,
        labels: dict[str, object],
        kind: str,
        bounds: tuple[float, ...] | None = None,
    ):
        if name not in self._valid_names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            self._valid_names.add(name)
        if labels:
            for label in labels:
                if not _LABEL_RE.match(label):
                    raise ValueError(f"invalid label name {label!r}")
            key = _label_key(labels)
        else:
            key = ()
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = _Metric(kind, bounds if kind == "histogram" else None)
                if kind == "histogram" and metric.bounds is None:
                    metric.bounds = DEFAULT_BUCKETS
                self._metrics[name] = metric
            if metric.kind != kind:
                raise ValueError(f"metric {name!r} is a {metric.kind}, not a {kind}")
            if kind == "histogram" and bounds is not None and bounds != metric.bounds:
                raise ValueError(f"metric {name!r} already registered with other buckets")
            series = metric.series.get(key)
            if series is None:
                if len(metric.series) >= self.max_series_per_metric:
                    raise ValueError(
                        f"metric {name!r} exceeds {self.max_series_per_metric} label"
                        " series (cardinality guard)"
                    )
                label_strs = dict(key)
                if kind == "counter":
                    series = Counter(name, label_strs, self._lock)
                elif kind == "gauge":
                    series = Gauge(name, label_strs, self._lock)
                else:
                    series = Histogram(name, label_strs, self._lock, metric.bounds)
                metric.series[key] = series
            return series

    # -- multi-series atomicity ---------------------------------------------

    @contextmanager
    def atomic(self):
        """Hold the registry lock across a multi-series update.

        Logically-paired series (cache hits *and* misses, a burst of
        ``runtime_*`` counters) are updated at separate call sites,
        each taking the lock on its own — so a concurrent
        :meth:`snapshot` could observe the first update without the
        second.  Wrapping the burst in ``with registry.atomic():``
        makes the whole batch one critical section (the lock is
        reentrant, so the inner ``inc``/``set``/``observe`` calls are
        free).  Snapshots, exports and merges all take the same lock
        and therefore see every batch entirely or not at all.
        """
        with self._lock:
            yield self

    def merge(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The cross-process merge primitive: a worker snapshots its
        process-local registry, the snapshot rides home in the chunk
        payload, and the parent merges it here — counters add,
        histograms add bucket-by-bucket (decumulated back to per-bucket
        increments), and gauges take the incoming value (last writer
        wins; gauges are instantaneous readings, not totals).  The
        whole merge happens under the registry lock, so a concurrent
        snapshot sees either none or all of a worker's delta.

        Raises ``ValueError`` on a kind or bucket-bound conflict with
        an existing metric — a malformed delta must be loud, not
        silently absorbed into the wrong series.
        """
        with self._lock:
            for name in sorted(snapshot):
                payload = snapshot[name]
                kind = payload["kind"]
                for entry in payload["series"]:
                    labels = entry.get("labels") or {}
                    if kind == "counter":
                        self.counter(name, **labels).inc(entry["value"])
                    elif kind == "gauge":
                        self.gauge(name, **labels).set(entry["value"])
                    else:
                        buckets = entry["buckets"]
                        bounds = tuple(float(b) for b, _ in buckets[:-1])
                        series = self.histogram(name, buckets=bounds or None, **labels)
                        previous = 0
                        for slot, (_, cum) in enumerate(buckets):
                            series.bucket_counts[slot] += cum - previous
                            previous = cum
                        series.sum += entry["sum"]
                        series.count += entry["count"]

    # -- reading ------------------------------------------------------------

    def value(self, name: str, **labels: object) -> int | float | None:
        """The current value of one counter/gauge series, or None."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None or metric.kind == "histogram":
                return None
            series = metric.series.get(_label_key(labels))
            return None if series is None else series.value

    def total(self, name: str) -> int | float:
        """Sum of a counter/gauge metric's value across all its series."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return 0
            if metric.kind == "histogram":
                raise ValueError(f"metric {name!r} is a histogram; total() needs a value")
            return sum(s.value for s in metric.series.values())

    def snapshot(self) -> dict:
        """A point-in-time, JSON-able view of every series."""
        with self._lock:
            out: dict = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                entries = []
                for key in sorted(metric.series):
                    series = metric.series[key]
                    entry: dict = {"labels": dict(key)}
                    if metric.kind == "histogram":
                        entry["buckets"] = [
                            [bound, count] for bound, count in series.cumulative()
                        ]
                        entry["sum"] = series.sum
                        entry["count"] = series.count
                    else:
                        entry["value"] = series.value
                    entries.append(entry)
                out[name] = {"kind": metric.kind, "series": entries}
            return out

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.snapshot(), **dumps_kwargs)

    def render_prometheus(self, help: Mapping[str, str] | None = None) -> str:
        """The Prometheus text exposition format.

        ``help`` maps metric names to description strings; a metric
        with an entry gets a ``# HELP`` line (backslashes and newlines
        escaped per the format) ahead of its ``# TYPE`` line.  The
        instrumentation layer passes its ``KNOWN_METRICS`` docs here.
        """
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                doc = help.get(name) if help else None
                if doc:
                    lines.append(f"# HELP {name} {_escape_help(doc)}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for key in sorted(metric.series):
                    series = metric.series[key]
                    labels = dict(key)
                    if metric.kind == "histogram":
                        for bound, count in series.cumulative():
                            le = "+Inf" if bound == float("inf") else _format_value(bound)
                            bucket_labels = _format_labels({**labels, "le": le})
                            lines.append(f"{name}_bucket{bucket_labels} {count}")
                        suffix = _format_labels(labels)
                        lines.append(f"{name}_sum{suffix} {_format_value(series.sum)}")
                        lines.append(f"{name}_count{suffix} {series.count}")
                    else:
                        lines.append(
                            f"{name}{_format_labels(labels)} {_format_value(series.value)}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every metric and series (snapshot-then-reset windows)."""
        with self._lock:
            self._metrics.clear()
