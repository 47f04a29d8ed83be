"""Measurement helpers: quantile hygiene, guards, correctness, environment.

Nothing here imports the runtime, so the self-tests can exercise the
rules on plain numbers.
"""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import sys
from collections.abc import Callable, Iterable, Sequence
from typing import Any

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; p99 therefore needs 1 000 samples.
TAIL_SAMPLES = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.match(name)) and len(name) <= 64 and name[0].isalnum()


def supported(n: int, pct: float) -> bool:
    """True when ``n`` samples leave at least ``TAIL_SAMPLES`` beyond ``pct``."""
    return n * (100.0 - pct) / 100.0 >= TAIL_SAMPLES - 1e-9


def highest_supported(n: int, candidates: Sequence[float] = (50, 90, 95, 99, 99.9)) -> float | None:
    """The highest candidate percentile ``n`` samples support, or None."""
    best = None
    for pct in candidates:
        if supported(n, pct):
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float | None:
    """Nearest-rank percentile, or None when the sample cannot support it."""
    n = len(values)
    if n == 0 or not supported(n, pct):
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(n * pct / 100)) - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB.

    Linux reports ``ru_maxrss`` in KiB; for children it is the peak of
    the largest one that has been waited for, so call this after every
    pool and node has been closed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment(seed: int, workload: str, obs_enabled: bool) -> dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "loadavg_start": list(os.getloadavg()),
        "obs_enabled": obs_enabled,
    }


class FreshnessError(RuntimeError):
    """A timed phase was served from a memo it must not have warmed."""


def check_served(dispatch: dict[str, Any] | None, where: str) -> None:
    """Trip on any memo, warm or journal hit a layer reports for a
    distinct-job call: a warm-memo lookup must never time as execution."""
    for name in ("memo_hits", "warm_hits", "journal_hits", "journal_dead_hits"):
        hits = (dispatch or {}).get(name, 0)
        if hits:
            raise FreshnessError(f"{where}: {name}={hits} on a distinct-job phase")


class Fresh:
    """Freshness guard over the content keys of a run's jobs.

    Every job handed to a timed phase passes through :meth:`admit`;
    a content key seen before in the run trips the guard unless the
    phase declared it a repeat.
    """

    def __init__(self, key: Callable[[Any], Any]) -> None:
        self._key = key
        self._seen: set = set()
        self.repeats = 0

    def admit(self, jobs: Iterable[Any], *, repeat: bool = False) -> None:
        for job in jobs:
            key = self._key(job)
            if key in self._seen:
                if not repeat:
                    raise FreshnessError(f"job repeats within a distinct-job phase: {key!r}")
                self.repeats += 1
            elif repeat:
                raise FreshnessError("a declared repeat names a job never run before")
            self._seen.add(key)


class Attempts:
    """Attempted jobs with their results or errors, checked outside timing.

    :meth:`settle` checks the rows held so far against a reference,
    adds to :attr:`counts` and drops them, so a long run holds one
    round of results at a time.
    """

    def __init__(self, reference: Callable[[str, list[Any], int], list[Any]]) -> None:
        self.rows: list[tuple[str, Any, int, Any, BaseException | None]] = []
        self.reference = reference
        self.attempted = 0
        self.counts = {"missing": 0, "raised": 0, "mismatched": 0}

    def add(self, kind: str, jobs: Sequence[Any], fuel: int, results: Sequence[Any] | None,
            error: BaseException | None = None) -> None:
        if results is None or len(results) != len(jobs):
            error = error or RuntimeError("result count differs from job count")
            results = [None] * len(jobs)
        for job, result in zip(jobs, results):
            self.rows.append((kind, job, fuel, result, error))

    def settle(self) -> None:
        """Compare every held row with ``reference(kind, jobs, fuel)``;
        count ``missing`` (None), ``raised`` and ``mismatched`` rows."""
        rows, self.rows = self.rows, []
        self.attempted += len(rows)
        groups: dict[tuple[str, int], list[tuple]] = {}
        for row in rows:
            groups.setdefault((row[0], row[2]), []).append(row)
        for (kind, fuel), group in groups.items():
            self.counts["raised"] += sum(1 for row in group if row[4] is not None)
            self.counts["missing"] += sum(1 for row in group if row[4] is None and row[3] is None)
            todo = [row for row in group if row[4] is None and row[3] is not None]
            expected = self.reference(kind, [row[1] for row in todo], fuel)
            self.counts["mismatched"] += sum(
                1 for row, want in zip(todo, expected) if row[3] != want
            )
