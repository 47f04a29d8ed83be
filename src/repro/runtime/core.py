"""The narrow-waist execution core: one batch stack, any workload.

Payload interning, resident program tables, persistent warm process
pools and adaptive work-stealing dispatch, every mechanism
parameterized by a :class:`~repro.runtime.workload.Workload` adapter
instead of hard-coded Turing-machine compile/run calls.  Turing
machines (``run_jobs("machines", jobs)``), complang VM runs, DPLL
solves and busy-beaver sweeps all plug in through their own adapters
and get the same amortisation and the same supervision hooks.

The mechanisms, workload-generically:

* **Payload interning.**  :func:`intern_jobs` dedups jobs by the
  adapter's ``content_key`` — equal jobs execute once and share the
  result — and backends assign every unique program a compact integer
  id.  Workers hold a resident table keyed by those ids, so
  steady-state chunk payloads are ``(program_id, input)`` tuples: the
  dominant payload (the program) crosses the process boundary at most
  once per worker, at pool warm-up.
* **Persistent warm workers.**  A :class:`ProcessBackend`'s pool and
  its per-worker resident tables survive across ``execute()`` calls,
  generation-tagged so a restart can never serve stale state.  The
  pool's lifecycle is :class:`~repro.runtime.lifecycle.WorkerPool` and
  the interned ``execute`` is
  :class:`~repro.runtime.lifecycle.InternedBackend`, both shared with
  the other pooled leaves; this module keeps the pool transport.
* **Adaptive dispatch with a work-stealing tail.**  Chunk sizes follow
  a per-program EWMA cost model fed by ``workload.cost(result)`` and
  decay geometrically toward single jobs at the tail.

Backend-level metric and span names (``batch_chunk_seconds``,
``compile_cache_hits_total``, ``batch.pool`` …) are one namespace
whichever workload is running; the workload-labelled ``runtime_*``
series are emitted by :func:`run_jobs` on top.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict, deque
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Protocol

from repro.obs.instrument import OBS
from repro.obs.telemetry import current_context, run_captured
from repro.runtime.lifecycle import (
    _ZERO_STATS,
    ChunkSettler,
    InternedBackend,
    ProgramTable,
    WorkerPool,
    _record_cache_metrics,
    dispatch_summary,
    enter_close,
    intern_jobs,
    plan_chunks,
    take_span,
)
from repro.runtime.workload import Job, Workload, get_workload

__all__ = [
    "Backend",
    "BACKENDS",
    "WRAPPER_BACKENDS",
    "ProcessBackend",
    "ProgramNotResident",
    "ResidentCache",
    "SerialBackend",
    "create_backend",
    "intern_jobs",
    "resolve_backend",
    "run_job_loop",
    "run_jobs",
]


class ProgramNotResident(RuntimeError):
    """A worker was handed a program id it has no resident or source for.

    Only reachable through torn dispatch state (e.g. a hand-built
    payload); ``execute`` and ``submit_chunk`` always ship the program
    alongside any id the pool was not warmed with.  A supervisor
    treats it like any other chunk failure and retries.
    """


class ResidentCache:
    """A keyed LRU cache of prepared (resident) programs.

    Keys are the workload's ``program_key`` — program *content*, not
    identity — so a program decoded twice from the same description
    still hits.  ``get`` lets the adapter's ``prepare`` raise (the TM
    adapter raises ``ValueError`` for uncompilable alphabets); callers
    fall back to ``run_direct``.  The failure is remembered like a
    worker table's ``_UNPREPARABLE`` entry: a later ``get`` of the same
    program re-raises without preparing again, and counts as a hit.
    """

    def __init__(self, workload: Workload, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.workload = workload
        self.maxsize = maxsize
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, program: Any) -> Any:
        key = self.workload.program_key(program)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            if isinstance(entry, ValueError):
                raise ValueError(*entry.args)
            return entry
        self.misses += 1
        try:
            entry = self.workload.prepare(program)
        except ValueError as exc:
            self._put(key, ValueError(*exc.args))  # the failure, without its frames
            raise
        self._put(key, entry)
        return entry

    def _put(self, key: Any, entry: Any) -> None:
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}

    def absorb(self, stats: Mapping[str, int]) -> None:
        """Fold another cache's hit/miss counts into this one's.

        ``size`` is deliberately not additive — the other cache's
        entries live (or lived) elsewhere; only the effectiveness
        counters travel.
        """
        self.hits += int(stats.get("hits", 0))
        self.misses += int(stats.get("misses", 0))


def run_job_loop(
    workload: Workload,
    jobs: Sequence[Job],
    fuel: int,
    compiled: bool,
    cache: ResidentCache | None = None,
) -> list[Any]:
    """The shared inner loop: run jobs in order, reusing residents."""
    if not compiled:
        return [workload.run_direct(program, input, fuel) for program, input in jobs]
    cache = cache if cache is not None else ResidentCache(workload)
    out = []
    for program, input in jobs:
        try:
            resident = cache.get(program)
        except ValueError:  # unpreparable program: direct fallback
            out.append(workload.run_direct(program, input, fuel))
            continue
        out.append(workload.execute(resident, input, fuel))
    return out


# ---------------------------------------------------------------------------
# Worker-side resident state (process-pool side of payload interning)
# ---------------------------------------------------------------------------

# One resident table per worker process: program id -> prepared program
# (or _UNPREPARABLE), plus the program sources to prepare from.
# Sources arrive either through the pool initializer (warm seeding —
# under fork they transfer by inheritance, zero pickles) or shipped
# inside a chunk payload (at most once per chunk for an unseeded
# program).  Preparation is lazy and counted as a miss in the chunk
# that triggers it; later jobs on the same worker are hits.
#
# Seeded sources stay for the generation.  Shipped ones are kept in
# LRU order ("shipped") and evicted past _SHIPPED_MAX, the master's
# default program-table size: every chunk that uses an unseeded
# program ships it again, so eviction can never strand an entry.
_UNPREPARABLE = object()
_SHIPPED_MAX = 4096


def _resident_table(generation: int = -1, seeds: Iterable[tuple[int, Any]] = ()) -> dict:
    """A fresh resident table for ``generation``, seeded with ``seeds``."""
    return {
        "generation": generation,
        "programs": {},
        "machines": dict(seeds),
        "shipped": OrderedDict(),
    }


_WORKER: dict = _resident_table()


def _worker_warm(generation: int, seeds: Sequence[tuple[int, Any]]) -> None:
    """Pool initializer: install this generation's seeded sources."""
    _WORKER.update(_resident_table(generation, seeds))


def _execute_entries(
    workload: Workload,
    generation: int,
    entries: Sequence[tuple[int, Any]],
    shipped: Mapping[int, Any],
    fuel: int,
    compiled: bool,
    table: dict | None = None,
) -> tuple[list[Any], dict[str, int], float]:
    """Serve interned entries from the worker's resident table.

    ``entries`` is a sequence of ``(program_id, input)`` and
    ``shipped`` the program sources for ids the master could not
    assume resident.  A generation older than the payload's means the
    table belongs to a pre-restart pool: it is dropped wholesale
    before any entry is served.  Shipped (unseeded) sources are
    evicted LRU past ``_SHIPPED_MAX`` once the chunk is served.

    ``table`` defaults to the per-process :data:`_WORKER` state; the
    comm layer's in-process loopback nodes pass their own dicts so two
    node threads sharing one process never share (and never thrash)
    one generation-tagged table.
    """
    start = time.perf_counter()
    worker = table if table is not None else _WORKER
    if worker["generation"] != generation:
        worker.update(_resident_table(generation))
    machines = worker["machines"]
    programs = worker["programs"]
    lru = worker["shipped"]
    for pid, source in shipped.items():
        if pid in lru:
            lru.move_to_end(pid)
        elif pid not in machines:  # resident and untracked: seeded
            lru[pid] = None
        machines[pid] = source
    hits = misses = 0
    results: list[Any] = []
    for pid, input in entries:
        if not compiled:
            source = machines.get(pid)
            if source is None:
                raise ProgramNotResident(f"program {pid} not resident (gen {generation})")
            results.append(workload.run_direct(source, input, fuel))
            continue
        resident = programs.get(pid)
        if resident is None:
            source = machines.get(pid)
            if source is None:
                raise ProgramNotResident(f"program {pid} not resident (gen {generation})")
            misses += 1
            try:
                resident = workload.prepare(source)
            except ValueError:  # unpreparable program: direct fallback
                resident = _UNPREPARABLE
            programs[pid] = resident
        else:
            hits += 1
        if resident is _UNPREPARABLE:
            results.append(workload.run_direct(machines[pid], input, fuel))
        else:
            results.append(workload.execute(resident, input, fuel))
    # Evict only once the chunk is served: its own shipped entries
    # must stay resident while it runs, however many there are.
    while len(lru) > _SHIPPED_MAX:
        pid, _ = lru.popitem(last=False)
        del machines[pid]
        programs.pop(pid, None)
    stats = {"hits": hits, "misses": misses, "size": len(programs)}
    return results, stats, time.perf_counter() - start


def _run_workload_chunk(
    payload, table: dict | None = None
) -> tuple[list[Any], dict[str, int], float]:
    """The chunk entry point: ``(results, cache stats, seconds)``.

    ``payload`` is ``(workload, generation, entries, shipped, fuel,
    compiled)`` plus an optional trailing
    :class:`~repro.obs.telemetry.TraceContext`, possibly pre-pickled:
    the master pickles it up front to measure the bytes it ships (and
    to pickle shipped programs exactly once), so unwrap before
    dispatching.  A riding context wraps execution in a worker-side
    telemetry capture whose delta piggybacks home in the stats dict.
    Pool workers, comm nodes and the serial backend all run chunks
    through here; ``table`` is :func:`_execute_entries`'s.
    """
    if isinstance(payload, bytes):
        payload = pickle.loads(payload)
    workload, generation, entries, shipped, fuel, compiled = payload[:6]
    ctx = payload[6] if len(payload) > 6 else None

    def body() -> tuple[list[Any], dict[str, int], float]:
        return _execute_entries(
            workload, generation, entries, shipped, fuel, compiled, table=table
        )

    # No per-job key digests here: hashing every job's content key
    # would dwarf a small chunk's real work.  The supervisor stamps
    # digests on its dispatch spans, where retries make them earn
    # their cost; the plain runtime links chunks by span ancestry.
    return run_captured(ctx, body, kind=workload.kind, jobs=len(entries))


class Backend(Protocol):
    """The pluggable execution interface (cf. ChainerMN communicators).

    ``workload`` is the adapter the backend is bound to;
    ``last_cache_stats`` holds the resident-cache hit/miss/size tallies
    of the most recent ``execute``; ``last_dispatch`` summarises how
    that call was dispatched (jobs, unique jobs, chunks, steals,
    payload bytes, warm hits).

    Beyond ``execute``, the built-in backends expose a chunk-level API
    (``submit_chunk``/``recover``/``close``) returning
    :class:`concurrent.futures.Future` objects; that is the surface
    :class:`repro.faults.supervisor.SupervisedBackend` drives to add
    deadlines, retries, hedging, and quarantine on top.
    """

    name: str
    workload: Workload
    last_cache_stats: dict[str, int]

    def execute(
        self, jobs: Sequence[Job], *, fuel: int, compiled: bool, cache: ResidentCache | None
    ) -> list[Any]: ...


class SerialBackend:
    """In-process execution; the default and the baseline.

    Jobs are interned (equal jobs run once, results shared) but there
    is no pool to keep warm: cross-call reuse comes from passing a
    caller-owned :class:`ResidentCache`.
    """

    name = "serial"

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_dispatch: dict[str, int] = {}

    def submit_chunk(
        self, chunk: Sequence[Job], *, fuel: int, compiled: bool
    ) -> Future:
        """Run one chunk inline; return it as an already-settled future.

        The chunk runs through the pool workers' own entry point, on a
        chunk-local resident table: programs get ids by content key
        within the chunk and all ship with it, so cache tallies and
        the unpreparable-program fallback match a fresh worker's, and a
        supervisor can drive either backend through one interface.
        """
        future: Future = Future()
        try:
            programs = ProgramTable(self.workload, table_size=max(1, len(chunk)), memo_size=0)
            entries = [(programs.register(program)[0], input) for program, input in chunk]
            shipped = {pid: program for pid, (_, program) in programs.known.items()}
            payload = (self.workload, 0, entries, shipped, fuel, compiled, current_context())
            table = _resident_table(0)
            future.set_result(_run_workload_chunk(payload, table))
        except BaseException as exc:  # settled, never raised here
            future.set_exception(exc)
        return future

    def recover(self) -> None:
        """Nothing to restart: in-process execution has no pool."""

    def close(self) -> None:
        """Nothing to release; idempotent like every backend's close."""
        enter_close(self)

    def execute(
        self,
        jobs: Sequence[Job],
        *,
        fuel: int,
        compiled: bool,
        cache: ResidentCache | None = None,
    ) -> list[Any]:
        # Reset at entry so a failing run can't leave the previous
        # run's tallies visible.
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_dispatch = {}
        unique, slots, _ = intern_jobs(self.workload, jobs)
        local = cache
        if local is None and compiled:
            local = ResidentCache(self.workload)
        before = local.stats() if local is not None else dict(_ZERO_STATS)
        start = time.perf_counter()
        with OBS.span("batch.chunk", backend=self.name, jobs=len(jobs)):
            unique_results = run_job_loop(self.workload, unique, fuel, compiled, local)
        results = [unique_results[s] for s in slots]
        elapsed = time.perf_counter() - start
        after = local.stats() if local is not None else dict(_ZERO_STATS)
        # Delta, not totals: a caller-shared cache carries history from
        # previous batches that must not be re-counted.  A deduped
        # duplicate reused a prepared program without even a cache
        # probe — the purest hit there is — so it counts as one (in
        # compiled mode; direct mode has no residents to reuse).
        deduped = len(jobs) - len(unique)
        self.last_cache_stats = {
            "hits": after["hits"] - before["hits"] + (deduped if compiled else 0),
            "misses": after["misses"] - before["misses"],
            "size": after["size"],
        }
        # No cross-call result memo in-process: memo_hits stays 0.
        self.last_dispatch = dispatch_summary(
            len(jobs), len(unique), chunks=1 if jobs else 0, ensemble_jobs=0
        )
        if OBS.enabled:
            OBS.gauge("batch_queue_depth", 1, backend=self.name)
            OBS.observe("batch_chunk_seconds", elapsed, backend=self.name)
            _record_cache_metrics(
                self.name, self.last_cache_stats["hits"], self.last_cache_stats["misses"]
            )
        return results


class ProcessBackend(InternedBackend):
    """Chunked execution on a persistent ``concurrent.futures`` pool.

    The pool — and every worker's resident program table — survives
    across ``execute()`` calls.  Lifecycle:

    * ``warm(jobs=..., programs=...)`` registers programs and (re)builds
      the pool with them seeded, so workers never see those programs
      in a chunk payload at all;
    * ``execute`` registers any new programs as it meets them (seeding
      them if the pool is not built yet, shipping them at most once per
      chunk otherwise) and keeps a bounded memo of results, so a warm
      backend answers repeated jobs without touching the pool;
    * ``recover()`` discards a (possibly broken) pool; the next submit
      builds a fresh one, re-seeded, under a new generation;
    * ``invalidate()`` additionally drops the program registry, the
      result memo and the cost model;
    * ``close()`` releases the pool but keeps the warm master state, so
      reopening re-seeds automatically.

    ``chunksize=None`` enables adaptive dispatch: chunk sizes follow a
    per-program cost model and decay toward single jobs at the tail
    (see the module docstring).  An explicit ``chunksize`` cuts fixed
    spans, the static split of
    :func:`~repro.runtime.lifecycle.chunk_offsets` taken one span at a
    time by :func:`~repro.runtime.lifecycle.take_span`.  Only the pool
    transport lives here; the rest is
    :class:`~repro.runtime.lifecycle.InternedBackend`.
    """

    name = "process"

    def __init__(
        self,
        workload: Workload,
        workers: int | None = None,
        chunksize: int | None = None,
        *,
        memo_size: int = 4096,
        table_size: int = 4096,
    ) -> None:
        self.workers = workers or os.cpu_count() or 1
        if self.workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(workload, chunksize, memo_size=memo_size, table_size=table_size)
        self._pool = WorkerPool(self.workers)

    @property
    def generation(self) -> int:
        """The pool build that worker resident tables are tagged with."""
        return self._pool.generation

    # -- pool lifecycle ------------------------------------------------------

    def _forget(self, pid: int) -> None:
        self._pool.seeded.discard(pid)

    def _reseed(self, pids: Sequence[int]) -> None:
        if self._pool.alive() and not self._pool.seeded.issuperset(pids):
            self.close()  # rebuild below so the new programs are seeded
        self._ensure_pool()

    def recover(self) -> None:
        """Discard the pool — broken or not — so the next submit starts
        a fresh one under a new generation, re-seeded from the program
        registry.  This is the restart step after a worker crash
        surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`."""
        self._pool.recover()

    def close(self) -> None:
        self._pool.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        return self._pool.get(lambda: [(pid, p) for pid, (_, p) in self._table.known.items()])

    # -- chunk-level API (the supervision surface) ---------------------------

    def _submit_entries(
        self, entries: Sequence[tuple[int, Any]], *, fuel: int, compiled: bool
    ) -> tuple[Future, int]:
        """Submit interned entries; returns ``(future, payload_bytes)``."""
        pool = self._ensure_pool()
        shipped = self._shipped(entries, self._pool.seeded)
        ctx = current_context()
        payload = (self.workload, self.generation, tuple(entries), shipped, fuel, compiled)
        if ctx is not None:
            payload = (*payload, ctx)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return pool.submit(_run_workload_chunk, blob), len(blob)

    def submit_chunk(
        self, chunk: Sequence[Job], *, fuel: int, compiled: bool
    ) -> Future:
        """Submit one chunk to the pool; the supervision hook.

        The chunk is interned on the way in (compact ids, resident
        tables), so a supervisor composes with warm pools for free:
        hedged duplicates re-ship nothing, and after ``recover()`` the
        next submit re-seeds under a fresh generation.  Callers driving
        this directly own the pool lifetime: call :meth:`close` (or
        let ``run_jobs`` close backends it created by name).
        """
        entries = [(self._register(program), input) for program, input in chunk]
        return self._submit_entries(entries, fuel=fuel, compiled=compiled)[0]

    # -- dispatch ------------------------------------------------------------

    def _chunks(self, jobs: Sequence) -> list[Sequence]:
        """Static split via the shared planner, order-preserving.

        ``chunksize=None`` targets roughly 4 chunks per worker and
        never more; the trailing 1-job merge lives in
        :func:`repro.runtime.lifecycle.plan_chunks` now, shared with
        the supervisor and the session scheduler.
        """
        return [
            list(plan.jobs)
            for plan in plan_chunks(jobs, chunksize=self.chunksize, workers=self.workers)
        ]

    def _dispatch(
        self,
        jobs: int,
        pending: list[int],
        unique: Sequence[Job],
        pids: Sequence[int],
        unique_results: list[Any],
        settler: ChunkSettler,
        fuel: int,
        compiled: bool,
        tally: dict[str, int],
    ) -> None:
        """Drive the pool over ``pending`` unique-job indices.

        Chunk *contents* are deterministic — each pull is a
        :func:`~repro.runtime.lifecycle.take_span` off the front of one
        straggler queue — only the chunk→worker assignment races.
        """
        with OBS.span("batch.pool", backend=self.name, jobs=jobs, pending=len(pending)):
            queue = deque(pending)
            estimates = dict(zip(pending, self._table.estimates([pids[u] for u in pending])))
            remaining = sum(estimates.values())
            chunks = steals = payload_bytes = 0
            in_flight: dict[Future, list[int]] = {}
            try:
                while True:
                    while queue and len(in_flight) < self.workers:
                        span, cost = take_span(
                            queue, estimates, remaining, self.workers, self.chunksize
                        )
                        remaining -= cost
                        entries = [(pids[u], unique[u][1]) for u in span]
                        future, size = self._submit_entries(entries, fuel=fuel, compiled=compiled)
                        payload_bytes += size
                        if chunks >= self.workers:
                            steals += 1  # a pull beyond the initial wave
                        chunks += 1
                        in_flight[future] = span
                    if not in_flight:
                        break
                    done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                    for future in done:
                        span = in_flight.pop(future)
                        self._scatter(span, settler.settle(future.result()), pids, unique_results)
            except BaseException:
                for future in in_flight:
                    future.cancel()
                raise
        tally.update(chunks=chunks, steals=steals, payload_bytes=payload_bytes)

    def _observe(self, tally: dict[str, int]) -> None:
        OBS.gauge("batch_queue_depth", tally["chunks"], backend=self.name)
        if tally["steals"]:
            OBS.count("batch_steal_total", tally["steals"], backend=self.name)


def _supervised_backend(workload: Workload, **kwargs):
    # Imported late: the supervisor lives in the faults layer and
    # itself imports this module.
    from repro.faults.supervisor import SupervisedBackend

    return SupervisedBackend(workload=workload, **kwargs)


def _ensemble_backend(workload: Workload, **kwargs):
    # Late import: the ensemble layer pulls in numpy and the lock-step
    # engine, which plain serial/process users never need.
    from repro.runtime.ensemble import EnsembleBackend

    return EnsembleBackend(workload, **kwargs)


def _ensemble_process_backend(workload: Workload, **kwargs):
    from repro.runtime.ensemble import EnsembleProcessBackend

    return EnsembleProcessBackend(workload, **kwargs)


def _journaled_backend(workload: Workload, **kwargs):
    # Late import: the journal layer is only paid for when asked for.
    from repro.runtime.journal import JournaledBackend

    return JournaledBackend(workload=workload, **kwargs)


def _dist_backend(workload: Workload, **kwargs):
    # Late import: the comm layer (sockets, node subprocesses) is only
    # paid for when a distributed backend is asked for.
    from repro.comm.dist import DistBackend

    return DistBackend(workload, **kwargs)


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
    "supervised": _supervised_backend,
    "ensemble": _ensemble_backend,
    "ensemble_process": _ensemble_process_backend,
    "journaled": _journaled_backend,
    "dist": _dist_backend,
}

#: Backend names whose factories wrap another backend (they accept
#: ``inner=``).  Only these may appear as prefixes in a composite name
#: like ``"journaled:supervised:dist"``; any registry entry may be the
#: leaf.
WRAPPER_BACKENDS = frozenset({"journaled", "supervised"})


def _check_composite(name: str) -> None:
    """Validate a composite backend name's whole prefix chain up front.

    ``create_backend`` resolves composites recursively, one wrapper at
    a time — so without this check a typo deep in the chain (or a
    non-wrapper used as a prefix, like ``"process:serial"``) would only
    surface after the outer wrappers were already constructed, as a
    confusing unknown-backend or unexpected-kwarg error.  Every error
    names the full requested chain, not just the offending segment, so
    a failure deep inside ``"journaled:supervised:dist"`` still points
    at the string the caller actually wrote.

    Ordering is validated too: ``supervised`` drives its inner
    backend's chunk-level ``submit_chunk`` surface, which the wrapper
    backends themselves do not expose — so ``"supervised:journaled"``
    (or ``"supervised:supervised"``) is rejected here with the valid
    ordering spelled out, instead of surfacing later as a bare
    ``TypeError`` from the supervisor's constructor.
    """
    parts = name.split(":")
    wrappers = sorted(WRAPPER_BACKENDS)
    for part in parts[:-1]:
        if part in WRAPPER_BACKENDS:
            continue
        if part in BACKENDS:
            raise ValueError(
                f"backend {part!r} cannot wrap another backend in {name!r};"
                f" composable wrapper prefixes are {wrappers}"
            )
        raise ValueError(
            f"unknown wrapper prefix {part!r} in composite backend {name!r};"
            f" composable wrapper prefixes are {wrappers}"
        )
    leaf = parts[-1]
    if leaf not in BACKENDS:
        raise ValueError(
            f"unknown leaf backend {leaf!r} in composite backend {name!r};"
            f" choose from {sorted(BACKENDS)}"
        )
    for outer, inner in zip(parts, parts[1:]):
        if outer == "supervised" and inner in WRAPPER_BACKENDS:
            raise ValueError(
                f"wrapper {inner!r} cannot sit under 'supervised' in composite"
                f" backend {name!r}: 'supervised' drives its inner backend's"
                f" submit_chunk surface, which wrapper backends do not expose;"
                f" order the chain as 'journaled:supervised:{parts[-1]}' instead"
            )


def create_backend(
    name: str = "serial",
    *,
    workload: Workload | str | None = None,
    **kwargs,
) -> Backend:
    """Factory over :data:`BACKENDS`, by name.

    The factory is called with the resolved workload (the
    Turing-machine adapter when omitted) as its first argument.

    Composite names stack wrapping backends left to right as a generic
    prefix chain: every segment before the last must be a registered
    wrapper (one of :data:`WRAPPER_BACKENDS` — they accept ``inner=``)
    and the last segment any registered leaf, so
    ``"journaled:supervised:process"``, ``"journaled:dist"`` and
    ``"journaled:ensemble_process"`` all compose the same way.  The
    chain is validated up front — an unknown prefix, a non-wrapper
    prefix, or an unknown leaf each fail with an error naming the
    offending segment — then the head factory is called with ``inner=``
    set to the rest of the name, which the wrapper resolves recursively
    through this same function (wrapper-specific kwargs like
    ``journal_dir`` still pass through ``kwargs``).
    """
    factory = BACKENDS.get(name)
    if factory is None and ":" in name:
        _check_composite(name)
        head, _, rest = name.partition(":")
        factory = BACKENDS.get(head)
        if factory is not None:
            if "inner" in kwargs:
                raise ValueError(
                    f"composite backend name {name!r} conflicts with inner= kwarg"
                )
            kwargs["inner"] = rest
    if factory is None:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
            " (wrappers compose as 'journaled:<inner>' / 'supervised:<inner>')"
        )
    if isinstance(workload, str):
        workload = get_workload(workload)
    elif workload is None:
        workload = get_workload("machines")
    return factory(workload, **kwargs)


def resolve_backend(
    backend: str | Backend,
    *,
    workload: Workload | str | None = None,
    **kwargs,
) -> tuple[Backend, bool]:
    """Resolve ``str | Backend`` to ``(backend, owned)``.

    The single home of the string-resolution logic: a name is created through
    :func:`create_backend` (and ``owned=True`` tells the caller to
    close it); an instance passes through untouched — in which case
    backend kwargs are rejected rather than silently dropped.
    """
    if isinstance(backend, str):
        return create_backend(backend, workload=workload, **kwargs), True
    if kwargs:
        raise ValueError("backend kwargs only apply when backend is a name")
    return backend, False


def run_jobs(
    workload: Workload | str,
    jobs: Sequence[Job],
    *,
    fuel: int = 10_000,
    compiled: bool = True,
    backend: str | Backend = "serial",
    cache: ResidentCache | None = None,
) -> list[Any]:
    """Run every ``(program, input)`` job; results keep job order.

    Each result equals what ``workload.run_direct(program, input,
    fuel)`` would return — the runtime changes the cost, never the
    answer.  Equal jobs (by ``content_key``) share one result object;
    workload purity makes sharing exact.  The one exception is the
    ``supervised`` backend, which may quarantine a poison job rather
    than fail the batch: its slot holds ``None`` and the dead letter is
    recorded on ``backend.last_report``.

    A backend named by string is created — and closed — by this call;
    pass an instance (bound to the same workload) to keep its pool and
    warm caches alive across calls.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    backend, owned = resolve_backend(backend, workload=workload)
    try:
        with OBS.span(
            "runtime.run_jobs",
            workload=workload.kind,
            backend=backend.name,
            jobs=len(jobs),
            compiled=compiled,
        ):
            results = backend.execute(jobs, fuel=fuel, compiled=compiled, cache=cache)
            if OBS.enabled:
                labels = {"workload": workload.kind, "backend": backend.name}
                summary = getattr(backend, "last_dispatch", None) or {"jobs": len(jobs)}
                total_cost = sum(workload.cost(r) for r in results if r is not None)
                # One atomic burst per run: a concurrent snapshot sees
                # all three runtime_* series updated or none of them.
                with OBS.atomic():
                    OBS.count("runtime_jobs_total", len(jobs), **labels)
                    OBS.count("runtime_cost_total", total_cost, **labels)
                    OBS.count(
                        "runtime_unique_jobs_total",
                        summary.get("unique_jobs", len(jobs)),
                        **labels,
                    )
                OBS.event("runtime.dispatch_summary", **labels, **summary)
    finally:
        if owned:
            close = getattr(backend, "close", None)
            if close is not None:
                close()
    return results
