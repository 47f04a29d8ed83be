"""Ensemble backends: whole-population lock-step execution behind the
runtime's narrow waist.

:mod:`repro.perf.ensemble_engine` knows how to step a dense family of
Turing machines in numpy lock-step; this module plugs that engine into
the workload-generic runtime as two :class:`~repro.runtime.core.Backend`
implementations:

* :class:`EnsembleBackend` (``backend="ensemble"``) — in-process.  Jobs
  whose adapter can surface a :class:`~repro.machines.turing.TuringMachine`
  (the :class:`EnsembleCapable` hooks) are lowered, stacked into one
  family and stepped together; everything else — oversized machines,
  exotic inputs, straggler rows abandoned at the cutoff — falls back to
  the warm compiled per-machine path (:class:`~repro.runtime.core.SerialBackend`)
  with *identical* results.  The honest halted / still-running
  trichotomy, step counts and tapes are preserved exactly: the
  property tests drive both paths over randomized enumerated families.
* :class:`EnsembleProcessBackend` (``backend="ensemble_process"``) —
  the same execution sharded over a persistent process pool, with
  **shared-memory result transport** (the chainermn ``_memory_utility``
  idiom): when the adapter declares fixed-width result fields
  (:meth:`EnsembleCapable.ensemble_fields`), the parent pre-creates one
  ``multiprocessing.shared_memory`` block per shard, the worker writes
  verdict/score arrays straight into it, and the only pickled result
  payload is a spill dict for the (normally empty) fallback rows —
  ``last_dispatch["result_payload_bytes"]`` asserts the zero.

Both backends expose the chunk-level ``submit_chunk``/``recover``/
``close`` surface, so :class:`repro.faults.supervisor.SupervisedBackend`
drives them unchanged: a killed shard surfaces as a crash, the pool
restarts under a new generation, and the census is re-run without a
result lost.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import Future, ProcessPoolExecutor, wait
from typing import Any, Protocol, runtime_checkable

from repro.obs.instrument import OBS
from repro.obs.telemetry import current_context, run_captured
from repro.perf.ensemble_engine import (
    EnsembleIneligible,
    EnsembleOutcome,
    compile_family,
    intern_input,
    lower_machine,
    run_family,
)
from repro.runtime.core import (
    ResidentCache,
    _ZERO_STATS,
    _record_cache_metrics,
    intern_jobs,
    run_job_loop,
)
from repro.runtime.lifecycle import ChunkSettler, dispatch_summary, enter_close, mark_open
from repro.runtime.workload import Job, Workload

__all__ = [
    "EnsembleCapable",
    "EnsembleBackend",
    "EnsembleProcessBackend",
]


@runtime_checkable
class EnsembleCapable(Protocol):
    """The adapter hooks that admit a workload to lock-step batching.

    A workload that implements these joins the ensemble backends; one
    that does not simply cannot be bound to them (``run_jobs`` raises
    at backend construction).  The contract mirrors the rest of the
    :class:`~repro.runtime.workload.Workload` protocol: pure hooks,
    results *identical* to ``run_direct``.
    """

    def ensemble_program(self, program: Any) -> Any:
        """The :class:`TuringMachine` behind ``program`` (raise
        :exc:`EnsembleIneligible` when there is none)."""
        ...

    def ensemble_results(self, outcome: EnsembleOutcome) -> list[Any]:
        """One result object per family row, equal to ``run_direct``'s."""
        ...

    def ensemble_fields(self) -> tuple[tuple[str, str], ...] | None:
        """Fixed-width dtype schema for shared-memory transport, or
        ``None`` when results need pickling (variable-width payloads)."""
        ...

    def ensemble_pack(self, outcome: EnsembleOutcome) -> dict[str, Any]:
        """Field name -> (population,) array, one value per row."""
        ...

    def ensemble_unpack(self, arrays: dict[str, Any]) -> list[Any]:
        """Rebuild one result per row from unpacked field arrays."""
        ...


# The shm row-occupancy mask: 1 where the worker wrote array fields,
# 0 where the row spilled to the pickled fallback dict.
_MASK_FIELD = "__rows__"


def _require_capable(workload: Workload) -> None:
    if not hasattr(workload, "ensemble_program"):
        raise TypeError(
            f"workload {getattr(workload, 'kind', workload)!r} is not "
            "EnsembleCapable; use the serial/process backends instead"
        )


# ---------------------------------------------------------------------------
# The shared serial core: lower, partition, run, fall back
# ---------------------------------------------------------------------------


def _run_ensemble(
    workload: Workload,
    jobs: Sequence[Job],
    *,
    fuel: int,
    compiled: bool,
    spec_cache: OrderedDict | None = None,
    spec_cache_size: int = 16384,
    max_states: int = 64,
    max_symbols: int = 32,
    min_population: int = 16,
    straggler_cutoff: int | None = None,
) -> tuple[list[Any], dict[str, int], tuple[EnsembleOutcome, list[int]] | None]:
    """The ensemble execution core both backends share.

    Returns ``(results, stats, pack_info)``: one exact result per job
    in order; the resident-cache tallies (spec-cache hits/misses for
    batched jobs, compile cache for fallback ones) plus the
    ``unique_jobs``/``deduped``/``ensemble_jobs``/``fallback_jobs``/
    ``lock_steps`` accounting; and, when a family actually ran,
    ``(outcome, job_rows)`` giving each job its family row (``-1`` for
    fallback jobs) — what shared-memory packing needs.

    Jobs are content-interned first, exactly like the serial and
    process backends: equal ``(program, input)`` jobs map to one
    family row and *share one result object*.

    ``compiled=False`` keeps the ``run_direct`` contract literally —
    everything takes the fallback loop — because the caller asked for
    the reference path, not an equivalent one.
    """
    jobs = list(jobs)
    stats = {
        "hits": 0,
        "misses": 0,
        "size": 0,
        "unique_jobs": 0,
        "deduped": 0,
        "ensemble_jobs": 0,
        "fallback_jobs": 0,
        "lock_steps": 0,
    }
    if not jobs:
        return [], stats, None
    unique, slots, _ = intern_jobs(workload, jobs)
    stats["unique_jobs"] = len(unique)
    stats["deduped"] = len(jobs) - len(unique)
    if compiled:
        # A deduped duplicate reuses a settled row without even a
        # cache probe — the purest hit there is (mirrors SerialBackend).
        stats["hits"] += stats["deduped"]
    unique_results: list[Any] = [None] * len(unique)
    row_of_unique = [-1] * len(unique)

    # -- partition: lower what fits, remember what does not ------------------
    entries: list[tuple] = []
    rows: list[int] = []  # family row -> unique-job index
    fallback: list[int] = []
    if compiled:
        cache = spec_cache if spec_cache is not None else OrderedDict()
        get_machine = workload.ensemble_program
        for u, (program, input) in enumerate(unique):
            key = id(program)
            hit = cache.get(key)
            if hit is not None and hit[0] is program:
                spec = hit[1]
                stats["hits"] += 1
            else:
                try:
                    spec = lower_machine(
                        get_machine(program),
                        max_states=max_states,
                        max_symbols=max_symbols,
                    )
                except EnsembleIneligible:
                    spec = None
                stats["misses"] += 1
                cache[key] = (program, spec)
                if len(cache) > spec_cache_size:
                    cache.popitem(last=False)
            if spec is None:
                fallback.append(u)
                continue
            try:
                extras = (
                    []
                    if input == ""
                    else intern_input(spec, input, max_symbols=max_symbols)
                )
            except EnsembleIneligible:
                fallback.append(u)
                continue
            entries.append((spec, extras, input))
            rows.append(u)
        stats["size"] = len(cache)
    else:
        fallback = list(range(len(unique)))

    # -- lock-step the family, or bail to the warm path wholesale ------------
    outcome: EnsembleOutcome | None = None
    if entries and len(entries) >= min_population:
        cutoff = (
            straggler_cutoff
            if straggler_cutoff is not None
            else max(0, len(entries) // 64)
        )
        outcome = run_family(compile_family(entries), fuel=fuel, straggler_cutoff=cutoff)
        family_results = workload.ensemble_results(outcome)
        abandoned = outcome.abandoned
        for row, u in enumerate(rows):
            if abandoned[row]:
                fallback.append(u)  # rerun from scratch: no partial state
            else:
                unique_results[u] = family_results[row]
                row_of_unique[u] = row
        stats["lock_steps"] = outcome.lock_steps
    elif entries:  # too small to amortise array setup
        fallback.extend(rows)

    # -- the fallback loop: the exact warm per-machine path ------------------
    if fallback:
        fallback.sort()
        fb_jobs = [unique[u] for u in fallback]
        fb_cache = ResidentCache(workload) if compiled else None
        fb_results = run_job_loop(workload, fb_jobs, fuel, compiled, fb_cache)
        for u, result in zip(fallback, fb_results):
            unique_results[u] = result
        if fb_cache is not None:
            fb = fb_cache.stats()
            stats["hits"] += fb["hits"]
            stats["misses"] += fb["misses"]
            stats["size"] += fb["size"]

    # -- expand back to job order (duplicates share one object) --------------
    results = [unique_results[s] for s in slots]
    pack_info: tuple[EnsembleOutcome, list[int]] | None = None
    if outcome is not None:
        job_rows = [row_of_unique[s] for s in slots]
        pack_info = (outcome, job_rows)
        stats["ensemble_jobs"] = sum(1 for r in job_rows if r >= 0)
        stats["fallback_jobs"] = len(jobs) - stats["ensemble_jobs"]
    elif fallback:
        stats["fallback_jobs"] = len(jobs)
    return results, stats, pack_info


def _count_ensemble_obs(backend: str, stats: dict[str, int], batches: int = 1) -> None:
    if not OBS.enabled:
        return
    OBS.count("ensemble_batches_total", batches, backend=backend)
    OBS.count("ensemble_machines_total", stats.get("ensemble_jobs", 0), backend=backend)
    OBS.count("ensemble_lock_steps_total", stats.get("lock_steps", 0), backend=backend)
    OBS.count("ensemble_fallback_jobs_total", stats.get("fallback_jobs", 0), backend=backend)


class EnsembleBackend:
    """In-process lock-step execution with an exact per-machine fallback.

    The spec cache is id-keyed (like the engine's ``program_key``
    memo): re-running the same machine objects — a census re-swept
    under a higher fuel, a warm benchmark loop — skips re-lowering
    entirely.  ``min_population`` keeps tiny batches on the fallback
    path where per-job dispatch is already optimal; the straggler
    cutoff (default ``population // 64``) hands the long tail back to
    the compiled engine, whose macro-stepping handles lone spinners
    better than lock-step arrays do.
    """

    name = "ensemble"

    def __init__(
        self,
        workload: Workload,
        *,
        min_population: int = 16,
        max_states: int = 64,
        max_symbols: int = 32,
        straggler_cutoff: int | None = None,
        spec_cache_size: int = 16384,
    ) -> None:
        _require_capable(workload)
        if min_population < 1:
            raise ValueError("min_population must be >= 1")
        if spec_cache_size < 1:
            raise ValueError("spec_cache_size must be >= 1")
        self.workload = workload
        self.min_population = min_population
        self.max_states = max_states
        self.max_symbols = max_symbols
        self.straggler_cutoff = straggler_cutoff
        self.spec_cache_size = spec_cache_size
        self._specs: OrderedDict = OrderedDict()
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_dispatch: dict[str, int] = {}

    # -- chunk-level API (the supervision surface) ---------------------------

    def submit_chunk(self, chunk: Sequence[Job], *, fuel: int, compiled: bool) -> Future:
        """Run one chunk inline; settled-future semantics like
        :meth:`SerialBackend.submit_chunk`, so a supervisor can drive
        the ensemble path through the same event loop."""
        future: Future = Future()

        def body() -> tuple[list[Any], dict[str, int], float]:
            start = time.perf_counter()
            results, stats, _ = self._run(chunk, fuel=fuel, compiled=compiled)
            return results, stats, time.perf_counter() - start

        try:
            future.set_result(
                run_captured(
                    current_context(),
                    body,
                    kind=self.workload.kind,
                    jobs=len(chunk),
                )
            )
        except BaseException as exc:  # settled, never raised here
            future.set_exception(exc)
        return future

    def recover(self) -> None:
        """Nothing to restart: in-process execution has no pool."""

    def close(self) -> None:
        """Nothing to release; the spec cache stays warm on purpose."""
        enter_close(self)

    # -- execution -----------------------------------------------------------

    def _run(
        self, jobs: Sequence[Job], *, fuel: int, compiled: bool
    ) -> tuple[list[Any], dict[str, int], list[int]]:
        return _run_ensemble(
            self.workload,
            jobs,
            fuel=fuel,
            compiled=compiled,
            spec_cache=self._specs,
            spec_cache_size=self.spec_cache_size,
            max_states=self.max_states,
            max_symbols=self.max_symbols,
            min_population=self.min_population,
            straggler_cutoff=self.straggler_cutoff,
        )

    def execute(
        self,
        jobs: Sequence[Job],
        *,
        fuel: int,
        compiled: bool = True,
        cache: ResidentCache | None = None,
    ) -> list[Any]:
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_dispatch = {}
        start = time.perf_counter()
        with OBS.span("batch.ensemble", backend=self.name, jobs=len(jobs)):
            results, stats, _ = self._run(jobs, fuel=fuel, compiled=compiled)
        elapsed = time.perf_counter() - start
        self.last_cache_stats = {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "size": stats["size"],
        }
        self.last_dispatch = dispatch_summary(
            len(jobs),
            stats["unique_jobs"],
            chunks=1 if jobs else 0,
            ensemble_jobs=stats["ensemble_jobs"],
            fallback_jobs=stats["fallback_jobs"],
        )
        if cache is not None:
            cache.absorb(self.last_cache_stats)
        if OBS.enabled:
            OBS.gauge("batch_queue_depth", 1 if jobs else 0, backend=self.name)
            OBS.observe("batch_chunk_seconds", elapsed, backend=self.name)
            _record_cache_metrics(self.name, stats["hits"], stats["misses"])
            _count_ensemble_obs(self.name, stats, batches=1 if jobs else 0)
        return results


# ---------------------------------------------------------------------------
# Process sharding with shared-memory result transport
# ---------------------------------------------------------------------------


def _shm_layout(
    fields: tuple[tuple[str, str], ...], count: int
) -> tuple[list[tuple[str, str, int]], int]:
    """``(name, dtype, byte offset)`` per field plus the mask, and the
    total block size.  Field arrays are laid out back to back; the
    one-byte-per-row occupancy mask sits first."""
    import numpy as np

    layout: list[tuple[str, str, int]] = [(_MASK_FIELD, "|u1", 0)]
    offset = count
    for name, dtype in fields:
        layout.append((name, dtype, offset))
        offset += np.dtype(dtype).itemsize * count
    return layout, max(offset, 1)


def _shm_arrays(buf, layout: list[tuple[str, str, int]], count: int) -> dict[str, Any]:
    import numpy as np

    return {
        name: np.ndarray((count,), dtype=dtype, buffer=buf, offset=offset)
        for name, dtype, offset in layout
    }


def _run_ensemble_shard(blob: bytes) -> tuple[Any, dict[str, int], float]:
    """Pool-worker entry point (module-level so it pickles).

    Returns ``(spill, stats, elapsed)``.  With shared-memory transport
    the verdict/score arrays are written into the parent's block and
    ``spill`` holds only the fallback rows (``{job_index: result}``) —
    empty for a homogeneous family, so zero result objects cross the
    process boundary pickled (``stats["result_bytes"]``).  Without a
    block, ``spill`` is the full result list, counted the same way.
    """
    payload = pickle.loads(blob)
    workload, jobs, fuel, compiled, shm_name, fields, caps = payload[:7]
    ctx = payload[7] if len(payload) > 7 else None

    def body() -> tuple[Any, dict[str, int], float]:
        start = time.perf_counter()
        results, stats, pack_info = _run_ensemble(
            workload, jobs, fuel=fuel, compiled=compiled, **caps
        )
        spill: Any = results
        if shm_name is not None:
            from multiprocessing import resource_tracker, shared_memory

            shm = shared_memory.SharedMemory(name=shm_name)
            try:
                # CPython registers the segment with a resource tracker on
                # every open, not just on create.  Under spawn the worker
                # has its *own* tracker, which would unlink the parent's
                # block at worker exit — undo the registration.  Under fork
                # the tracker process is shared with the parent, so the
                # extra register was a set-add no-op and unregistering here
                # would strip the parent's own registration instead.
                import multiprocessing

                if multiprocessing.get_start_method() != "fork":
                    try:
                        resource_tracker.unregister(shm._name, "shared_memory")
                    except Exception:
                        pass
                spill = _pack_shm(workload, shm, fields, len(jobs), results, pack_info)
            finally:
                shm.close()
        stats["result_bytes"] = (
            len(pickle.dumps(spill, protocol=pickle.HIGHEST_PROTOCOL)) if spill else 0
        )
        return spill, stats, time.perf_counter() - start

    # The telemetry delta rides in the stats dict, not the spill: it
    # never counts against the zero-pickled-result-bytes accounting.
    if ctx is None:
        return body()
    return run_captured(ctx, body, kind=workload.kind, jobs=len(jobs))


def _pack_shm(
    workload: Workload,
    shm,
    fields: tuple[tuple[str, str], ...],
    count: int,
    results: list[Any],
    pack_info: tuple[EnsembleOutcome, list[int]] | None,
) -> dict[int, Any]:
    """Scatter ensemble rows into the block; return the spill dict.

    ``job_rows[i]`` is job *i*'s family row, ``-1`` for fallback jobs;
    interned duplicates gather the same row into several positions.
    Lives in its own frame so every view into ``shm.buf`` dies on
    return — ``shm.close()`` refuses while exported buffers exist.
    """
    import numpy as np

    layout, _ = _shm_layout(fields, count)
    arrays = _shm_arrays(shm.buf, layout, count)
    in_shm = np.zeros(count, dtype=bool)
    if pack_info is not None:
        outcome, job_rows = pack_info
        src = np.array(job_rows, dtype=np.int64)
        pos = np.flatnonzero(src >= 0)
        if pos.size:
            packed = workload.ensemble_pack(outcome)
            gather = src[pos]
            for name, vals in packed.items():
                arrays[name][pos] = np.asarray(vals)[gather]
            arrays[_MASK_FIELD][pos] = 1
            in_shm[pos] = True
    return {i: result for i, result in enumerate(results) if not in_shm[i]}


class EnsembleProcessBackend:
    """Ensemble shards on a persistent pool + shared-memory results.

    ``execute`` splits the batch into one shard per worker, runs each
    shard's lock-step family in a pool process, and — when the adapter
    declares :meth:`~EnsembleCapable.ensemble_fields` — transports the
    verdict/score arrays home through a pre-created
    ``multiprocessing.shared_memory`` block instead of the pickle
    channel.  The accounting makes the claim checkable:
    ``last_dispatch["result_payload_bytes"]`` is exactly the pickled
    result bytes (0 for a fully-eligible family) and ``shm_bytes`` the
    bytes that travelled by shared memory.

    ``submit_chunk`` wraps the pool future so the settled value is the
    standard ``(results, stats, elapsed)`` chunk payload — a
    :class:`~repro.faults.supervisor.SupervisedBackend` (or the chaos
    harness) drives this backend exactly like the others, and a killed
    shard recovers through ``recover()`` + resubmission with the block
    unlinked either way.
    """

    name = "ensemble_process"

    def __init__(
        self,
        workload: Workload,
        workers: int | None = None,
        *,
        min_population: int = 16,
        max_states: int = 64,
        max_symbols: int = 32,
        straggler_cutoff: int | None = None,
    ) -> None:
        _require_capable(workload)
        self.workload = workload
        self.workers = workers or os.cpu_count() or 1
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._caps = {
            "min_population": min_population,
            "max_states": max_states,
            "max_symbols": max_symbols,
            "straggler_cutoff": straggler_cutoff,
        }
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_dispatch: dict[str, int] = {}
        self.generation = 0
        self._pool: ProcessPoolExecutor | None = None
        self._owner_pid = os.getpid()
        self._live_shm: set = set()

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is not None and os.getpid() != self._owner_pid:
            # Forked copy: the pool belongs to the parent process.
            self._pool = None
        if self._pool is None:
            self.generation += 1
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._owner_pid = os.getpid()
            mark_open(self)
        return self._pool

    def recover(self) -> None:
        """Drop the pool (broken or not); the next submit rebuilds it
        under a new generation.  In-flight shared-memory blocks are
        unlinked by their wrapper callbacks as the futures die."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if not enter_close(self):
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()
        for shm in list(self._live_shm):
            self._release_shm(shm)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            if os.getpid() == self._owner_pid:
                self.close()
        except Exception:
            pass

    def _release_shm(self, shm) -> None:
        self._live_shm.discard(shm)
        try:
            shm.close()
            shm.unlink()
        except Exception:  # already unlinked (e.g. double callback)
            pass

    # -- chunk-level API (the supervision surface) ---------------------------

    def submit_chunk(self, chunk: Sequence[Job], *, fuel: int, compiled: bool) -> Future:
        """Submit one shard; the future resolves to the standard
        ``(results, stats, elapsed)`` payload with results rebuilt from
        the shared-memory block on this side of the boundary."""
        chunk = list(chunk)
        fields = self.workload.ensemble_fields()
        shm = None
        shm_name = None
        if fields is not None and chunk:
            from multiprocessing import shared_memory

            _, nbytes = _shm_layout(fields, len(chunk))
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            shm_name = shm.name
            self._live_shm.add(shm)
        payload = (self.workload, tuple(chunk), fuel, compiled, shm_name, fields, self._caps)
        ctx = current_context()
        if ctx is not None:
            payload = (*payload, ctx)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        outer: Future = Future()
        outer.payload_bytes = len(blob)
        outer.shm_bytes = shm.size if shm is not None else 0
        try:
            inner = self._ensure_pool().submit(_run_ensemble_shard, blob)
        except BaseException:
            if shm is not None:
                self._release_shm(shm)
            raise

        def _finish(f: Future, *, shm=shm, count=len(chunk), fields=fields) -> None:
            try:
                error = f.exception()
                if error is not None:
                    if outer.set_running_or_notify_cancel():
                        outer.set_exception(error)
                    return
                spill, stats, elapsed = f.result()
                if shm is not None:
                    results = self._unpack_shm(shm, fields, count, spill)
                else:
                    results = list(spill)
                if outer.set_running_or_notify_cancel():
                    outer.set_result((results, stats, elapsed))
            except BaseException as exc:  # pragma: no cover - defensive
                if outer.set_running_or_notify_cancel():
                    outer.set_exception(exc)
            finally:
                if shm is not None:
                    self._release_shm(shm)

        inner.add_done_callback(_finish)
        return outer

    def _unpack_shm(self, shm, fields, count: int, spill: dict[int, Any]) -> list[Any]:
        """Rebuild job-ordered results from the block + the spill dict.

        Own frame, same reason as ``_pack_shm``: the views must die
        before the block can be closed and unlinked.
        """
        layout, _ = _shm_layout(fields, count)
        arrays = _shm_arrays(shm.buf, layout, count)
        unpacked = self.workload.ensemble_unpack(arrays)
        mask = arrays[_MASK_FIELD].tolist()
        return [unpacked[i] if mask[i] else spill[i] for i in range(count)]

    # -- execution -----------------------------------------------------------

    def _shards(self, jobs: Sequence[Job]) -> list[Sequence[Job]]:
        count = min(self.workers, max(1, len(jobs)))
        size = -(-len(jobs) // count)
        return [jobs[i : i + size] for i in range(0, len(jobs), size)]

    def execute(
        self,
        jobs: Sequence[Job],
        *,
        fuel: int,
        compiled: bool = True,
        cache: ResidentCache | None = None,
    ) -> list[Any]:
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_dispatch = {}
        if not jobs:
            return []
        jobs = list(jobs)
        # Intern before sharding, exactly like ProcessBackend: only
        # unique jobs cross the process boundary, and duplicates share
        # one result object on this side of it.
        unique, slots, _ = intern_jobs(self.workload, jobs)
        deduped = len(jobs) - len(unique)
        shards = self._shards(unique)
        # Per-shard cache sizes (and the lock-step counters) sum:
        # every shard ran on its own fresh state.
        settler = ChunkSettler(
            self.name,
            size_mode="sum",
            extra_keys=("ensemble_jobs", "fallback_jobs", "lock_steps", "result_bytes"),
        )
        aggregate = settler.aggregate
        payload_bytes = shm_bytes = 0
        out: list[Any] = []
        with OBS.span("batch.ensemble", backend=self.name, jobs=len(jobs)):
            futures = []
            try:
                for shard in shards:
                    future = self.submit_chunk(shard, fuel=fuel, compiled=compiled)
                    payload_bytes += future.payload_bytes
                    shm_bytes += future.shm_bytes
                    futures.append(future)
                wait(futures)
                for future in futures:
                    # Settle on this (consuming) thread, never in the
                    # done-callback: Tracer.adopt grafts under the span
                    # stack of whoever calls it.
                    out.extend(settler.settle(future.result()))
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        self.last_cache_stats = {
            "hits": aggregate["hits"] + (deduped if compiled else 0),
            "misses": aggregate["misses"],
            "size": aggregate["size"],
        }
        self.last_dispatch = dispatch_summary(
            len(jobs),
            len(unique),
            chunks=len(shards),
            payload_bytes=payload_bytes,
            ensemble_jobs=aggregate["ensemble_jobs"],
            fallback_jobs=aggregate["fallback_jobs"],
            result_payload_bytes=aggregate["result_bytes"],
            shm_bytes=shm_bytes,
        )
        if cache is not None:
            cache.absorb(self.last_cache_stats)
        if OBS.enabled:
            OBS.gauge("batch_queue_depth", len(shards), backend=self.name)
            _record_cache_metrics(self.name, aggregate["hits"], aggregate["misses"])
            _count_ensemble_obs(self.name, aggregate, batches=len(shards))
            OBS.count("ensemble_shm_bytes_total", shm_bytes, backend=self.name)
            if payload_bytes:
                OBS.count("batch_payload_bytes", payload_bytes, backend=self.name)
        return [out[s] for s in slots]
