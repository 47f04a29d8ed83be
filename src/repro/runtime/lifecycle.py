"""The shared chunk lifecycle: plan → dispatch → settle, once.

Every backend in the stack used to re-implement the same three-beat
chunk state machine with small local variations:

* **planning** — :class:`~repro.runtime.core.ProcessBackend` and
  :class:`~repro.faults.supervisor.SupervisedBackend` each carried a
  private copy of the static split (size-targeted slices, trailing
  1-job chunk merged into its predecessor);
* **settling** — :class:`~repro.runtime.core.ProcessBackend`,
  :class:`~repro.comm.dist.DistBackend`,
  :class:`~repro.runtime.ensemble.EnsembleProcessBackend` and the
  supervisor's event loop each repeated the absorb-telemetry /
  aggregate-cache-stats / record-chunk-latency dance over the standard
  ``(results, stats, elapsed)`` payload;
* **closing** — six backends each guarded double-``close()`` with
  their own private state (or not at all).

This module is that state machine extracted once.  The session
scheduler (:mod:`repro.runtime.session`) drives the same pieces for
its micro-batched flush units, so "one chunk's life" means the same
thing whether it was born from a one-shot ``execute()`` or a stream of
``Session.submit()`` calls.  It also holds the master-side
:class:`ProgramTable` the pool and dist backends share and
:func:`dispatch_summary`, the one builder of every backend's
``last_dispatch``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.obs.instrument import OBS
from repro.obs.telemetry import absorb_chunk_telemetry

__all__ = [
    "ChunkPlan",
    "ChunkSettler",
    "ProgramTable",
    "chunk_offsets",
    "dispatch_summary",
    "plan_chunks",
    "enter_close",
    "mark_open",
]


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkPlan:
    """One planned chunk: a contiguous, disjoint slice of a batch."""

    offset: int
    jobs: tuple


def chunk_offsets(total: int, size: int) -> list[int]:
    """Start offsets of ``size``-sized slices over ``total`` jobs.

    A trailing 1-job chunk (``total % size == 1``) is merged into its
    predecessor: a chunk's fixed dispatch cost is never paid to ship a
    single leftover job.  This is the one split rule every layer
    agrees on — the process pool, the supervisor and the scheduler all
    plan through here.
    """
    if size < 1:
        raise ValueError("chunksize must be >= 1")
    offsets = list(range(0, total, size))
    if len(offsets) >= 2 and total - offsets[-1] == 1:
        offsets.pop()
    return offsets


def plan_chunks(
    jobs: Sequence,
    *,
    chunksize: int | None,
    workers: int,
    per_worker: int = 4,
) -> list[ChunkPlan]:
    """Split ``jobs`` into :class:`ChunkPlan` slices, order-preserving.

    ``chunksize=None`` targets roughly ``per_worker`` chunks per
    worker and never more; an explicit size keeps fixed slices.
    Either way the trailing 1-job merge of :func:`chunk_offsets`
    applies.
    """
    if not jobs:
        return []
    size = chunksize
    if size is None:
        target = min(len(jobs), max(1, workers) * per_worker)
        size = -(-len(jobs) // target) if target else 1
    offsets = chunk_offsets(len(jobs), size)
    plans: list[ChunkPlan] = []
    for n, start in enumerate(offsets):
        end = offsets[n + 1] if n + 1 < len(offsets) else len(jobs)
        plans.append(ChunkPlan(start, tuple(jobs[start:end])))
    return plans


# ---------------------------------------------------------------------------
# Settling
# ---------------------------------------------------------------------------


class ChunkSettler:
    """The shared settle step over ``(results, stats, elapsed)`` payloads.

    One of these lives for the duration of one ``execute`` (or one
    scheduler flush): every landing chunk passes through
    :meth:`settle`, which absorbs the piggybacked worker telemetry
    delta, folds the chunk's resident-cache stats into ``aggregate``,
    and records the chunk's wall time under the owning backend's
    label.  Scatter (where the results go) stays at the call site —
    the four dispatch loops address slots differently — but the
    bookkeeping they used to copy from each other lives here.

    ``size_mode`` decides how per-chunk cache sizes combine:
    ``"max"`` (the pool backends: workers hold disjoint resident
    tables, the high-water mark is the honest summary) or ``"sum"``
    (the supervisor's historical aggregation, preserved exactly).
    ``extra_keys`` widens the aggregate for backends whose stats carry
    more than hits/misses/size (the ensemble's lock-step counters).
    """

    __slots__ = ("backend", "size_mode", "aggregate", "settled")

    def __init__(
        self,
        backend: str,
        *,
        size_mode: str = "max",
        extra_keys: Sequence[str] = (),
    ) -> None:
        if size_mode not in ("max", "sum"):
            raise ValueError("size_mode must be 'max' or 'sum'")
        self.backend = backend
        self.size_mode = size_mode
        self.aggregate: dict[str, int] = {"hits": 0, "misses": 0, "size": 0}
        for key in extra_keys:
            self.aggregate.setdefault(key, 0)
        self.settled = 0

    def settle(self, payload: tuple) -> list[Any]:
        """Absorb one chunk payload; returns its results for scattering."""
        results, stats, elapsed = payload
        absorb_chunk_telemetry(stats)
        self.absorb_stats(stats)
        self.settled += 1
        if OBS.enabled:
            OBS.observe("batch_chunk_seconds", elapsed, backend=self.backend)
        return results

    def absorb_stats(self, stats: dict) -> None:
        """Fold one chunk's cache stats in (no telemetry, no latency).

        The seam for locally-executed remainders — the dist backend's
        degrade-to-serial path aggregates its local cache through here
        without fabricating a chunk latency observation.
        """
        for key in self.aggregate:
            if key == "size" and self.size_mode == "max":
                self.aggregate["size"] = max(self.aggregate["size"], stats.get("size", 0))
            else:
                self.aggregate[key] += stats.get(key, 0)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def dispatch_summary(jobs: int, unique_jobs: int, **extras: Any) -> dict[str, Any]:
    """One backend's ``last_dispatch`` mapping.

    Every backend reports the same eight fields: ``jobs``,
    ``unique_jobs``, ``deduped`` (their difference unless given) and
    ``chunks``/``steals``/``payload_bytes``/``warm_hits``/``memo_hits``
    (zero unless given).  ``extras`` override those defaults and append
    the backend's own fields after them, in the order given.
    """
    summary: dict[str, Any] = {
        "jobs": jobs,
        "unique_jobs": unique_jobs,
        "deduped": jobs - unique_jobs,
        "chunks": 0,
        "steals": 0,
        "payload_bytes": 0,
        "warm_hits": 0,
        "memo_hits": 0,
    }
    summary.update(extras)
    return summary


# ---------------------------------------------------------------------------
# Master-side intern state
# ---------------------------------------------------------------------------


class ProgramTable:
    """The master's program registry, cost model and warm result memo.

    * **Registry.**  :meth:`register` interns a program by the
      workload's ``program_key`` to a compact id; ``known`` keeps
      ``id -> (key, program)`` in LRU order, bounded by ``table_size``,
      for re-seeding workers or nodes.
    * **Cost model.**  A per-program EWMA of ``workload.cost(result)``
      that sizes adaptive dispatch spans.
    * **Result memo.**  Settled results keyed by
      ``(id, input, fuel, compiled)``, bounded by ``memo_size``
      (``0`` disables it), so a warm backend answers repeated jobs
      without dispatching them.

    What was seeded where stays with the backend: :meth:`register`
    returns the id it evicted, if any, for the caller to forget.
    """

    def __init__(self, workload: Any, *, table_size: int, memo_size: int) -> None:
        if memo_size < 0:
            raise ValueError("memo_size must be >= 0")
        if table_size < 1:
            raise ValueError("table_size must be >= 1")
        self.workload = workload
        self.table_size = table_size
        self.memo_size = memo_size
        self.ids: dict[Any, int] = {}
        self.known: OrderedDict[int, tuple[Any, Any]] = OrderedDict()
        self.memo: OrderedDict[tuple, Any] = OrderedDict()
        self.cost: dict[int, float] = {}
        self._next_id = 0

    def register(self, program: Any) -> tuple[int, int | None]:
        """Intern a program: ``(program id, evicted id or None)``."""
        key = self.workload.program_key(program)
        pid = self.ids.get(key)
        if pid is None:
            pid = self._next_id
            self._next_id += 1
            self.ids[key] = pid
        self.known[pid] = (key, program)
        self.known.move_to_end(pid)
        if len(self.known) <= self.table_size:
            return pid, None
        old_pid, (old_key, _) = self.known.popitem(last=False)
        self.ids.pop(old_key, None)
        self.cost.pop(old_pid, None)
        return pid, old_pid

    def estimate(self, pid: int) -> float:
        """Estimated relative cost of one job of program ``pid``."""
        est = self.cost.get(pid)
        if est is not None:
            return max(est, 1.0)
        if self.cost:
            return max(sum(self.cost.values()) / len(self.cost), 1.0)
        return 1.0

    def observe_cost(self, pid: int, cost: float) -> None:
        self.cost[pid] = 0.5 * self.cost.get(pid, float(cost)) + 0.5 * cost

    def recall(
        self, pids: Sequence[int], unique: Sequence, fuel: int, compiled: bool
    ) -> tuple[list[Any], list[int]]:
        """Memo lookup: ``(unique_results, pending)``.

        ``unique_results[u]`` holds the memoed result of unique job
        ``u`` or ``None``; ``pending`` lists the ``u`` still to run.
        """
        unique_results: list[Any] = [None] * len(unique)
        pending: list[int] = []
        for u, (pid, (_, input)) in enumerate(zip(pids, unique)):
            key = (pid, input, fuel, compiled)
            memoed = self.memo.get(key)
            if memoed is not None:
                self.memo.move_to_end(key)
                unique_results[u] = memoed
            else:
                pending.append(u)
        return unique_results, pending

    def remember(
        self,
        pids: Sequence[int],
        unique: Sequence,
        unique_results: Sequence[Any],
        fuel: int,
        compiled: bool,
    ) -> None:
        """Store a settled batch's results, evicting past ``memo_size``."""
        if self.memo_size:
            for pid, (_, input), result in zip(pids, unique, unique_results):
                if result is not None:
                    self.memo[(pid, input, fuel, compiled)] = result
        while len(self.memo) > self.memo_size:
            self.memo.popitem(last=False)

    def clear(self) -> None:
        """Forget every program, cost and memoed result."""
        self.ids.clear()
        self.known.clear()
        self.memo.clear()
        self.cost.clear()


# ---------------------------------------------------------------------------
# Closing
# ---------------------------------------------------------------------------

_CLOSED_FLAG = "_lifecycle_closed"


def enter_close(backend: Any) -> bool:
    """Shared idempotent-``close()`` guard; ``True`` on the first call.

    Backends open their ``close()`` with ``if not enter_close(self):
    return`` so a double close is a no-op by construction rather than
    by each backend's private state happening to tolerate it.  Reopen
    points (``_ensure_pool``, ``_ensure_comm``, …) call
    :func:`mark_open` so the close-execute-close lifecycle still works
    for backends that rebuild lazily.
    """
    if getattr(backend, _CLOSED_FLAG, False):
        return False
    try:
        setattr(backend, _CLOSED_FLAG, True)
    except AttributeError:  # pragma: no cover - __slots__ backends opt out
        return True
    return True


def mark_open(backend: Any) -> None:
    """Clear the close guard: the backend (re)acquired live resources."""
    try:
        setattr(backend, _CLOSED_FLAG, False)
    except AttributeError:  # pragma: no cover - __slots__ backends opt out
        pass
