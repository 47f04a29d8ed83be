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
``Session.submit()`` calls.  It also holds what the pooled leaves
share: :func:`intern_jobs`, the master-side :class:`ProgramTable`,
:func:`dispatch_summary` (every backend's ``last_dispatch``),
:class:`WorkerPool` (the one process-pool lifecycle, held by the
process and ensemble-process backends and by comm nodes) and
:class:`InternedBackend` (the one interned ``execute`` with ``warm``,
``invalidate`` and the :func:`take_span` rule, shared by the process
and dist backends, which keep only their transports).
"""

from __future__ import annotations

import os
from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.obs.instrument import OBS
from repro.obs.telemetry import absorb_chunk_telemetry
from repro.runtime.workload import Job, Workload

__all__ = [
    "ChunkPlan",
    "ChunkSettler",
    "InternedBackend",
    "ProgramTable",
    "WorkerPool",
    "chunk_offsets",
    "dispatch_summary",
    "intern_jobs",
    "plan_chunks",
    "take_span",
    "enter_close",
    "mark_open",
]

_ZERO_STATS = {"hits": 0, "misses": 0, "size": 0}


def _record_cache_metrics(backend: str, hits: int, misses: int) -> None:
    # One atomic burst: a snapshot can never see hits updated while
    # the paired misses still hold the previous batch's value.
    with OBS.atomic():
        OBS.count("compile_cache_hits_total", hits, backend=backend)
        OBS.count("compile_cache_misses_total", misses, backend=backend)


def intern_jobs(
    workload: Workload, jobs: Sequence[Job]
) -> tuple[list[Job], list[int], list[Any]]:
    """Dedup jobs by content: ``(unique_jobs, slots, unique_keys)``.

    ``slots[i]`` is the index into ``unique_jobs`` whose result job
    ``i`` shares; ``unique_keys[u]`` is the program key of unique job
    ``u``.  Equal jobs (same program content, same input) execute once
    — determinism of the workload makes sharing exact.
    """
    index: dict[Any, int] = {}
    unique: list[Job] = []
    unique_keys: list[Any] = []
    slots: list[int] = []
    for job in jobs:
        program, _input = job
        key = workload.program_key(program)
        ckey = (key, _input)
        u = index.get(ckey)
        if u is None:
            u = index[ckey] = len(unique)
            unique.append(job)
            unique_keys.append(key)
        slots.append(u)
    return unique, slots, unique_keys


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


def take_span(
    queue: deque[int],
    estimates: Mapping[int, float],
    remaining: float,
    workers: int,
    chunksize: int | None,
) -> tuple[list[int], float]:
    """Pull ``(span, its estimated cost)`` off the front of ``queue``.

    A ``chunksize`` takes the first slice of
    ``chunk_offsets(len(queue), chunksize)``, so repeated pulls cut the
    static split one span at a time (only the first
    ``2·chunksize + 1`` jobs can decide that slice).  Adaptive dispatch
    takes a ``1/(2·workers)`` share of the ``remaining`` cost, at least
    one job, so spans decay toward single jobs at the tail.
    """
    if chunksize is not None:
        offsets = chunk_offsets(min(len(queue), 2 * chunksize + 1), chunksize)
        size = offsets[1] if len(offsets) > 1 else len(queue)
        span = [queue.popleft() for _ in range(size)]
        return span, sum(estimates[u] for u in span)
    share = max(1.0, remaining / (2 * max(1, workers)))
    span: list[int] = []
    acc = 0.0
    while queue and (not span or acc < share):
        u = queue.popleft()
        span.append(u)
        acc += estimates[u]
    return span, acc


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

    def register(self, program: Any, key: Any = None) -> tuple[int, int | None]:
        """Intern a program: ``(program id, evicted id or None)``.

        ``key`` is the program's ``program_key`` when the caller already
        has it (:func:`intern_jobs` computes it); ``None`` computes it.
        """
        if key is None:
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

    def estimates(self, pids: Sequence[int]) -> list[float]:
        """Estimated relative cost of one job of each program in ``pids``.

        A known program's estimate is its EWMA; an unseen program's is
        the mean over every known program, computed once per call
        rather than once per unseen id.  Both are floored at 1.0.
        """
        cost = self.cost
        unseen = max(sum(cost.values()) / len(cost), 1.0) if cost else 1.0
        out: list[float] = []
        for pid in pids:
            est = cost.get(pid)
            out.append(unseen if est is None else max(est, 1.0))
        return out

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
    points (``_ensure_comm``, …) call
    :func:`mark_open` so the close-execute-close lifecycle still works
    for backends that rebuild lazily.  A :class:`WorkerPool` owner needs
    neither: the pool's own ``close()`` is idempotent and its ``get()``
    reopens.
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


# ---------------------------------------------------------------------------
# The pooled leaves: one pool lifecycle, one interned execute
# ---------------------------------------------------------------------------


class WorkerPool:
    """One ``ProcessPoolExecutor`` and its whole lifecycle.

    :meth:`get` builds it lazily with
    :func:`~repro.runtime.core._worker_warm` as the initializer, so
    every worker starts with ``seeds()`` resident (inherited under
    fork, zero pickles; pickled once per worker under spawn) under the
    build's generation: the one the owner passes (a comm node takes the
    coordinator's), else the previous build's plus one.  ``seeded``
    holds the seeded ids.  :meth:`alive` is the fork guard: it drops an
    executor inherited from a parent process without shutting the
    parent's workers down.  :meth:`recover` abandons the executor
    (cancel, no wait); :meth:`close` waits for it, idempotently.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.executor: ProcessPoolExecutor | None = None
        self.generation = 0
        self.seeded: set[int] = set()
        self.owner_pid = os.getpid()

    def alive(self) -> bool:
        if self.executor is not None and os.getpid() != self.owner_pid:
            self.discard()
        return self.executor is not None

    def get(
        self, seeds: Callable[[], Iterable[tuple[int, Any]]] = tuple, generation: int | None = None
    ) -> ProcessPoolExecutor:
        """The live executor, or a fresh one if there is none."""
        if self.alive():
            return self.executor
        from repro.runtime.core import _worker_warm  # core imports this module

        self.generation = self.generation + 1 if generation is None else generation
        seeded = list(seeds())
        self.executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_warm,
            initargs=(self.generation, seeded),
        )
        self.seeded = {pid for pid, _ in seeded}
        self.owner_pid = os.getpid()
        return self.executor

    def discard(self) -> None:
        """Forget the executor without shutting it down."""
        self.executor = None
        self.seeded = set()

    def recover(self) -> None:
        self.close(wait=False)

    def close(self, *, wait: bool = True) -> None:
        executor = self.executor
        self.discard()
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            if os.getpid() == self.owner_pid:
                self.close()
        except Exception:
            pass


class InternedBackend:
    """The master side :class:`~repro.runtime.core.ProcessBackend` and
    :class:`~repro.comm.dist.DistBackend` share: one
    :class:`ProgramTable`, ``warm``/``invalidate``, and :meth:`execute`.

    A subclass supplies its transport, ``_dispatch``, which runs the
    pending unique jobs under its own ``batch.pool`` span and counts
    into the dict ``_tally()`` started; ``_observe`` emits its metrics
    after a successful batch.  ``_reseed(pids)`` seeds the registered
    ``pids`` wherever they are missing, and ``_forget(pid)`` drops an
    id the table evicted from every seeded set.
    """

    name: str

    def __init__(
        self, workload: Workload, chunksize: int | None, *, memo_size: int, table_size: int
    ) -> None:
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1 (or None for adaptive dispatch)")
        self.workload = workload
        self.chunksize = chunksize
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_dispatch: dict[str, Any] = {}
        self._table = ProgramTable(workload, table_size=table_size, memo_size=memo_size)

    def _register(self, program: Any, key: Any = None) -> int:
        """Intern a program; returns its compact program id."""
        pid, evicted = self._table.register(program, key)
        if evicted is not None:
            self._forget(evicted)
        return pid

    def _tally(self) -> dict[str, Any]:
        """The ``last_dispatch`` fields ``_dispatch`` fills in, zeroed."""
        return {"chunks": 0, "steals": 0, "payload_bytes": 0}

    def _shipped(self, entries: Sequence[tuple[int, Any]], seeded: set[int]) -> dict[int, Any]:
        """Sources of the unseeded ids in ``entries``, once per chunk."""
        shipped: dict[int, Any] = {}
        for pid, _ in entries:
            if pid not in seeded and pid not in shipped:
                shipped[pid] = self._table.known[pid][1]
        return shipped

    def _scatter(
        self, span: Sequence[int], results: Sequence[Any], pids: Sequence[int], out: list[Any]
    ) -> None:
        """Place a settled span's results and feed the cost model."""
        for u, result in zip(span, results):
            out[u] = result
            self._table.observe_cost(pids[u], self.workload.cost(result))

    def warm(self, *, jobs: Sequence[Job] = (), programs: Sequence[Any] = ()) -> InternedBackend:
        """Register programs and seed each where it will run, so no
        chunk payload carries them."""
        self._reseed([self._register(p) for p in [*programs, *(p for p, _ in jobs)]])
        return self

    def invalidate(self) -> None:
        """Drop every warm table: workers, program registry, memo, costs."""
        self.close()
        self._table.clear()

    def execute(
        self, jobs: Sequence[Job], *, fuel: int, compiled: bool, cache: Any = None
    ) -> list[Any]:
        # Reset at entry: a chunk that raises mid-batch must not leave
        # the previous run's tallies behind.
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_dispatch = {}
        if not jobs:
            return []
        unique, slots, keys = intern_jobs(self.workload, jobs)
        pids = [self._register(job[0], key) for job, key in zip(unique, keys)]
        # Warm memo: a (program, input, fuel) triple this backend has
        # already answered is never dispatched again.
        unique_results, pending = self._table.recall(pids, unique, fuel, compiled)
        settler = ChunkSettler(self.name)
        tally = self._tally()
        try:
            if pending:
                self._dispatch(
                    len(jobs), pending, unique, pids, unique_results, settler, fuel, compiled, tally
                )
        finally:
            # Failure-safe: on an exception this reflects exactly the
            # chunks that completed, never the previous run.
            executed = set(pending)
            dup_of_executed = sum(1 for s in slots if s in executed) - len(executed)
            warm_hits = sum(1 for s in slots if s not in executed)
            aggregate = settler.aggregate
            self.last_cache_stats = {
                "hits": aggregate["hits"] + (dup_of_executed if compiled else 0),
                "misses": aggregate["misses"],
                "size": aggregate["size"],
            }
            # warm_hits is kept as the historical alias; memo_hits is
            # the explicit field that disambiguates "answered from the
            # warm result memo" from "nothing ran" — a memo-served
            # batch reports chunks=0, payload_bytes=0 *and* memo_hits=N
            # rather than looking like an empty dispatch.
            self.last_dispatch = dispatch_summary(
                len(jobs),
                len(unique),
                warm_hits=warm_hits,
                memo_hits=warm_hits,
                ensemble_jobs=0,
                **tally,
            )
        out = [unique_results[s] for s in slots]
        if any(r is None for r in out):  # pragma: no cover - defensive
            raise RuntimeError("dispatch completed with unfilled result slots")
        self._table.remember(pids, unique, unique_results, fuel, compiled)
        if cache is not None:
            cache.absorb(self.last_cache_stats)
        if OBS.enabled:
            self._observe(tally)
            _record_cache_metrics(
                self.name, self.last_cache_stats["hits"], self.last_cache_stats["misses"]
            )
            if tally["payload_bytes"]:
                OBS.count("batch_payload_bytes", tally["payload_bytes"], backend=self.name)
            if warm_hits:
                OBS.count("batch_warm_hits", warm_hits, backend=self.name)
        return out
