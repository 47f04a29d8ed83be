"""The four workloads: how each drives the runtime's public API.

Every workload times fresh jobs only (see :mod:`perfbench.jobs`) and
records every attempt; the attempts are checked against the reference
between timed rounds, never inside one.  The amount of work is fixed
by ``--seconds`` and the sizes below (it is what one run takes on a
2-CPU host), so every run of a seed executes the same jobs and the
time is what varies.

Before each timed call the harness freezes its own heap
(``gc.freeze``): collector pauses then measure the garbage the runtime
makes, not the size of the benchmark's job lists and imports.

``Workload.drive`` returns a :class:`Phase`; ``spans`` is None for the
end-to-end runs and a :class:`~perfbench.tracing.Spans` recorder for
the traced run, which composes each backend chain by hand with a
:class:`~perfbench.tracing.Traced` proxy between the layers.
"""

from __future__ import annotations

import copy
import gc
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.runtime import Session, create_backend, get_workload, run_jobs

from perfbench import jobs as J
from perfbench.measure import Attempts, Fresh, FreshnessError, check_served
from perfbench.tracing import Spans, Traced

#: Pool workers or dist nodes every multi-process workload uses.
WORKERS = 2

SESSION_CHAIN = "journaled:supervised:process"

#: session_durable's traffic: the share of latency-class jobs, the share
#: repeating an earlier job, and the share of ``--seconds`` given to the
#: open loop (the bursts get the rest).
LATENCY_SHARE = 0.1
REPEAT_SHARE = 0.25
OPEN_SHARE = 0.75


@dataclass
class Sizes:
    """Per-run sizes; :data:`FULL` is the benchmark, tests shrink it."""

    setup_reps: int = 9
    cheap_setup_reps: int = 41  # batch_serial's and census_ensemble's set-up take milliseconds
    singles: int = 1_050  # single-job calls per batch-workload run; p99 needs 1 000
    batch_serial_jobs: int = 48  # per adapter per round
    census_dist_jobs: int = 256
    census_ensemble_jobs: int = 2_048
    rate: float = 500.0  # session_durable offered jobs/s
    window_s: float = 1.5  # each open-loop window is followed by one burst
    burst_jobs: int = 2_000  # large enough to reach the saturated rate
    ledger_trivial: int = 1_500
    ledger_heavy: int = 600
    ledger_adapter_jobs: int = 240


FULL = Sizes()


@dataclass
class Phase:
    """What one timed drive of a workload measured."""

    bulk_ms: list[float] = field(default_factory=list)
    single_ms: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    #: Open-loop windows: (bulk latencies, latency-class latencies) each.
    windows: list[tuple[list[float], list[float]]] = field(default_factory=list)


def reference(kind: str, jobs: list[Any], fuel: int, sample: int | None,
              seed: int) -> list[Any]:
    """Expected results: ``run_direct`` per job, or, with ``sample`` set,
    a sampled check.

    A sampled check runs every job through the per-job compiled engine
    in this process (no worker processes, so ``peak_rss_mb`` never sees
    the checker) and replaces a seeded ``sample`` of those answers by
    ``run_direct``'s, so a compiled result that disagrees with the
    reference interpreter shows up as a mismatch only when sampled.
    """
    workload = get_workload(kind)
    if sample is None:
        return [workload.run_direct(program, inp, fuel) for program, inp in jobs]
    expected = run_jobs(kind, jobs, fuel=fuel, backend="serial")
    rng = J.rng(seed, f"reference-{len(jobs)}")
    for i in rng.sample(range(len(jobs)), min(sample, len(jobs))):
        program, inp = jobs[i]
        expected[i] = workload.run_direct(program, inp, fuel)
    return expected


def _content(item: tuple[str, Any]) -> Any:
    """Content key for the freshness guard, computed without the runtime
    (the engine memoises program keys by object id; the guard must not
    warm that memo for the backends it is guarding)."""
    kind, (program, inp) = item
    if kind == "busybeaver":
        return (kind, J.CensusStream.key(program), inp)
    if kind == "machines":
        return (kind, inp)  # one machine per stream
    return (kind, program, inp)


class Workload:
    """Base: streams, the attempt record and the freshness guard."""

    name = ""
    cpus = 1
    fuel: dict[str, int] = {}
    #: None checks every result against run_direct; a number samples
    #: that many of each reference batch (see :func:`reference`).
    direct_sample: int | None = None

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.setup_reps = sizes.setup_reps
        self.attempts = Attempts(
            lambda kind, jobs, fuel: reference(kind, jobs, fuel, self.direct_sample, seed)
        )
        self.fresh = Fresh(_content)
        self._dirs = itertools.count()

    def journal_dir(self) -> Path:
        path = self.workdir / f"journal-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def take(self, stream, n: int, **options) -> list[Any]:
        jobs = stream.take(n, **options)
        self.fresh.admit((stream.kind, job) for job in jobs)
        return jobs

    def record(self, kind: str, jobs, call) -> tuple[list[Any] | None, float]:
        """Run ``call(jobs)``; record the attempt; return results and seconds."""
        gc.freeze()
        start = time.perf_counter()
        try:
            results = call(jobs)
        except FreshnessError:
            raise
        except Exception as exc:  # counted as failed, the run goes on
            self.attempts.add(kind, jobs, self.fuel[kind], None, exc)
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.attempts.add(kind, jobs, self.fuel[kind], results)
        return results, elapsed

    def settle(self) -> None:
        """Between timed rounds: release the heap, check what was held."""
        gc.unfreeze()
        self.attempts.settle()

    def setup_s(self) -> list[float]:
        """Seconds from construction to the first result, once per rep."""
        try:
            return [self.setup_once() for _ in range(self.setup_reps)]
        finally:
            self.settle()

    def drive(self, seconds: float, spans: Spans | None, *, singles: bool = True) -> Phase:
        """Run the workload's fixed work for ``seconds``; ``singles=False``
        skips the latency-class quota (the traced run reports no latency)."""
        try:
            return self._drive(seconds, spans, singles)
        finally:
            self.settle()

    # -- overridden by each workload -------------------------------------------

    def setup_once(self) -> float:
        raise NotImplementedError

    def _drive(self, seconds: float, spans: Spans | None, singles: bool) -> Phase:
        raise NotImplementedError


# -- batch workloads: rounds of bulk calls with single-job calls between ------


class BatchWorkload(Workload):
    """Rounds of bulk calls, each followed by its share of single-job calls.

    Every job of a bulk call is due when the call starts and settles
    when it returns, so each contributes the call's wall time as its
    latency.  A single-job call is a caller asking for one job alone;
    its jobs come from one trivial family (:meth:`take_single`), so its
    latency is the path a request takes, not a mix of compute costs.
    ``jobs_per_s`` is the median over rounds of bulk jobs per second.
    """

    #: Timed rounds per second of ``--seconds``; each workload sets its own.
    rounds_per_s: float

    def streams(self) -> list[Any]:
        raise NotImplementedError

    def batch_size(self) -> int:
        raise NotImplementedError

    def take_single(self) -> tuple[str, list[Any]]:
        """``(kind, [job])`` for one single-job call."""
        raise NotImplementedError

    def call(self, kind: str, jobs, spans: Spans | None) -> list[Any]:
        raise NotImplementedError

    def open(self, spans: Spans | None) -> None:
        """Acquire what :meth:`call` uses across rounds."""

    def close(self) -> None:
        """Release what :meth:`open` acquired."""

    def _drive(self, seconds, spans, singles):
        phase = Phase()
        streams = self.streams()
        rounds = max(1, round(seconds * self.rounds_per_s))
        per_round = math.ceil(self.sizes.singles / rounds) if singles else 0
        self.open(spans)
        try:
            for _ in range(rounds):
                bulk_jobs, bulk_s = 0, 0.0
                for stream in streams:
                    jobs = self.take(stream, self.batch_size())
                    _, elapsed = self.record(
                        stream.kind, jobs, lambda j, k=stream.kind: self.call(k, j, spans)
                    )
                    phase.bulk_ms.extend([elapsed * 1e3] * len(jobs))
                    phase.counters["bulk.calls"] += 1
                    bulk_jobs += len(jobs)
                    bulk_s += elapsed
                phase.rates.append(bulk_jobs / bulk_s)
                for _ in range(per_round):
                    kind, job = self.take_single()
                    _, elapsed = self.record(kind, job, lambda j: self.call(kind, j, spans))
                    phase.single_ms.append(elapsed * 1e3)
                self.settle()
        finally:
            self.close()
        return phase


class BatchSerial(BatchWorkload):
    """One-shot ``run_jobs(kind, jobs, backend="serial")`` over four adapters."""

    name = "batch_serial"
    rounds_per_s = 20.0
    fuel = {"machines": J.TRIVIAL_FUEL, "encoded_machines": J.TRIVIAL_FUEL,
            "complang": 10_000, "sat": 10_000}

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.setup_reps = sizes.cheap_setup_reps
        self._streams = [
            J.TapeStream(seed, "batch-tapes"),
            J.EncodedStream(seed),
            J.ComplangStream(seed),
            J.SatStream(seed),
        ]

    def streams(self):
        return self._streams

    def take_single(self):
        return "machines", self.take(self._streams[0], 1)

    def batch_size(self):
        return self.sizes.batch_serial_jobs

    def call(self, kind, jobs, spans):
        if spans is None:
            return run_jobs(kind, jobs, fuel=self.fuel[kind], backend="serial")
        backend = Traced(create_backend("serial", workload=kind), "core.serial", spans)
        try:
            with spans.span("runtime.run_jobs", kind=kind, jobs=len(jobs)):
                return run_jobs(kind, jobs, fuel=self.fuel[kind], backend=backend)
        finally:
            check_served(backend.last_dispatch, "serial")
            backend.close()

    def setup_once(self):
        """One fresh job per adapter, each through a fresh serial backend."""
        total = 0.0
        for stream in self._streams:
            _, elapsed = self.record(
                stream.kind, self.take(stream, 1),
                lambda j, k=stream.kind: run_jobs(k, j, fuel=self.fuel[k], backend="serial"),
            )
            total += elapsed
        return total


class _PooledCensus(BatchWorkload):
    """A census through one long-lived pooled backend instance."""

    backend_name = ""
    layer = ""
    states = 3

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self._stream = J.CensusStream(seed, self.states)
        self._backend = None
        self.counters: Counter = Counter()

    def create(self):
        raise NotImplementedError

    def streams(self):
        return [self._stream]

    def take_single(self):
        return self._stream.kind, self.take(self._stream, 1, instant=True)

    def open(self, spans):
        backend = self.create()
        self._backend = Traced(backend, self.layer, spans) if spans is not None else backend
        # Construction and the first result are set-up, timed by setup_s.
        self.record(self._stream.kind, self.take(self._stream, 1),
                    lambda j: self.call(self._stream.kind, j, spans))

    def call(self, kind, jobs, spans):
        out = self._backend.execute(jobs, fuel=self.fuel[kind], compiled=True)
        dispatch = self._backend.last_dispatch
        check_served(dispatch, self.backend_name)
        self.counters.update(
            {k: v for k, v in dispatch.items() if isinstance(v, int) and not isinstance(v, bool)}
        )
        return out

    def close(self):
        backend, self._backend = self._backend, None
        if backend is not None:
            self.closed(backend)
            backend.close()

    def closed(self, backend) -> None:
        """Read counters that live on the backend, not its dispatch."""

    def _drive(self, seconds, spans, singles):
        self.counters = Counter()
        phase = super()._drive(seconds, spans, singles)
        phase.counters.update(self.counters)
        return phase

    def setup_once(self):
        backend = None

        def first(jobs):
            nonlocal backend
            backend = self.create()
            return backend.execute(jobs, fuel=self.fuel[self._stream.kind], compiled=True)

        try:
            _, elapsed = self.record(self._stream.kind, self.take(self._stream, 1), first)
        finally:
            if backend is not None:
                backend.close()
        return elapsed


class CensusDist(_PooledCensus):
    """Distinct 3-state candidates through ``dist`` on two naive nodes."""

    name = "census_dist"
    cpus = WORKERS
    backend_name = "dist"
    layer = "comm.dist"
    fuel = {"busybeaver": 2_000}
    rounds_per_s = 4.0

    def create(self):
        return create_backend(
            "dist", workload="busybeaver", nodes=WORKERS, topology="naive", workers_per_node=1
        )

    def batch_size(self):
        return self.sizes.census_dist_jobs

    def closed(self, backend):
        for name in ("node_restarts", "stale_results", "duplicate_results", "degraded_jobs"):
            self.counters[f"dist.{name}"] += getattr(backend, name)
        comm = backend.comm
        if comm is not None:
            self.counters["dist.bytes"] += comm.bytes_sent + comm.bytes_recv


class CensusEnsemble(_PooledCensus):
    """Distinct 4-state candidates through ``ensemble_process`` (2 workers)."""

    name = "census_ensemble"
    cpus = WORKERS
    backend_name = "ensemble_process"
    layer = "ensemble.process"
    states = 4
    fuel = {"busybeaver": 20_000}
    rounds_per_s = 0.45
    # A run_direct check of a 20 000-step candidate costs about 6 ms,
    # too much for every job of a run.
    direct_sample = 64

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.setup_reps = sizes.cheap_setup_reps

    def create(self):
        return create_backend("ensemble_process", workload="busybeaver", workers=WORKERS)

    def batch_size(self):
        return self.sizes.census_ensemble_jobs


# -- session_durable: an open loop, then bursts -------------------------------


class SessionDurable(Workload):
    """An open loop into ``Session("journaled:supervised:process")``.

    Jobs are due at a fixed offered rate; a seeded one in ten is
    latency-class and a seeded quarter repeats an earlier job of the
    run.  Latency is timed from each job's due time to its settlement.
    The loop runs in windows; after each, a burst of fresh bulk jobs is
    offered back to back.  ``jobs_per_s`` is the median burst rate and
    each p50 the median over windows, so a host stall of a few seconds
    moves neither.
    """

    name = "session_durable"
    cpus = WORKERS
    fuel = {"machines": J.TRIVIAL_FUEL}

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self._stream = J.TapeStream(seed, "session")
        self._mix = J.rng(seed, "session-mix")

    def build(self, spans: Spans | None):
        """A fresh chain with a fresh journal: ``(session, journaled backend)``."""
        journal_dir = self.journal_dir()
        if spans is None:
            backend = create_backend(
                SESSION_CHAIN, workload="machines", workers=WORKERS, journal_dir=journal_dir
            )
            return Session(backend), backend
        from repro.faults.supervisor import SupervisedBackend
        from repro.runtime.journal import JournaledBackend

        process = create_backend("process", workload="machines", workers=WORKERS)
        supervised = SupervisedBackend(
            Traced(process, "core.process", spans), workload="machines"
        )
        journaled = JournaledBackend(
            Traced(supervised, "supervisor", spans), journal_dir=journal_dir, workload="machines"
        )
        return Session(Traced(journaled, "journal", spans)), journaled

    def setup_once(self):
        held = []

        def first(jobs):
            held.append(self.build(None))
            return [held[0][0].submit("machines", jobs[0], fuel=self.fuel["machines"]).result()]

        try:
            _, elapsed = self.record("machines", self.take(self._stream, 1), first)
        finally:
            for session, backend in held:
                session.close()
                backend.close()
        return elapsed

    def _submit(self, session, spans, job, priority):
        if spans is None:
            return session.submit("machines", job, fuel=self.fuel["machines"], priority=priority)
        with spans.span("session.submit", priority=priority):
            return session.submit("machines", job, fuel=self.fuel["machines"], priority=priority)

    def _drive(self, seconds, spans, singles):
        sizes = self.sizes
        phase = Phase()
        session, journaled = self.build(spans)
        fresh_jobs: list[Any] = []
        try:
            self.record("machines", self.take(self._stream, 1), lambda j: [
                session.submit("machines", j[0], fuel=self.fuel["machines"]).result()])
            windows = max(1, round(seconds * OPEN_SHARE / sizes.window_s))
            for _ in range(windows):
                self._open_loop(session, spans, phase, fresh_jobs)
                self._burst(session, journaled, spans, phase)
            phase.counters.update({f"journal.{k}": v for k, v in journaled.journal.stats().items()})
        finally:
            session.close()
            journaled.close()
        return phase

    def _open_loop(self, session, spans, phase, fresh_jobs) -> None:
        """One window of the open loop; repeats draw on every earlier window."""
        sizes = self.sizes
        due_jobs = []
        for _ in range(round(sizes.rate * sizes.window_s)):
            priority = "latency" if self._mix.random() < LATENCY_SHARE else "bulk"
            if fresh_jobs and self._mix.random() < REPEAT_SHARE:
                job = fresh_jobs[self._mix.randrange(len(fresh_jobs))]
                self.fresh.admit([("machines", job)], repeat=True)
                phase.counters["open.repeats"] += 1
            else:
                job = self.take(self._stream, 1)[0]
                fresh_jobs.append(job)
            due_jobs.append((priority, job))
        done = [0.0] * len(due_jobs)
        futures = []
        period = 1.0 / sizes.rate
        before = session.stats()
        gc.freeze()
        start = time.perf_counter() + 0.005
        for k, (priority, job) in enumerate(due_jobs):
            due = start + k * period
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            phase.late_ms.append(max(0.0, now - due) * 1e3)
            future = self._submit(session, spans, job, priority)
            future.add_done_callback(lambda _f, k=k: done.__setitem__(k, time.perf_counter()))
            futures.append(future)
        backlog = session.stats()["inflight_jobs"]
        phase.counters["open.backlog_jobs"] = max(phase.counters["open.backlog_jobs"], backlog)
        phase.counters["open.jobs"] += len(due_jobs)
        session.drain()
        # The session's counters over the windows describe the mixed traffic.
        after = session.stats()
        for key in ("submitted", "executed_jobs", "memo_hits", "dedup_joins"):
            phase.counters[f"session.{key}"] += after[key] - before[key]
        for reason, count in after["flushes"].items():
            phase.counters[f"session.flush.{reason}"] += count - before["flushes"].get(reason, 0)
        latencies: dict[str, list[float]] = {"bulk": [], "latency": []}
        for k, ((priority, job), future) in enumerate(zip(due_jobs, futures)):
            try:
                result = future.result()
            except Exception as exc:
                self.attempts.add("machines", [job], self.fuel["machines"], None, exc)
                continue
            self.attempts.add("machines", [job], self.fuel["machines"], [result])
            latencies[priority].append((done[k] - (start + k * period)) * 1e3)
        phase.bulk_ms += latencies["bulk"]
        phase.single_ms += latencies["latency"]
        phase.windows.append((latencies["bulk"], latencies["latency"]))
        self.settle()

    def _burst(self, session, journaled, spans, phase) -> None:
        jobs = self.take(self._stream, self.sizes.burst_jobs)
        before = session.stats()
        appends = journaled.journal.appends

        def burst(jobs):
            futures = [self._submit(session, spans, job, "bulk") for job in jobs]
            session.flush()
            return [f.result() for f in futures]

        _, elapsed = self.record("machines", jobs, burst)
        after = session.stats()
        served = sum(after[k] - before[k] for k in ("memo_hits", "dedup_joins"))
        if served or journaled.journal.appends - appends != 2 * len(jobs):
            raise FreshnessError("a burst of fresh jobs was served from a memo or the journal")
        phase.rates.append(len(jobs) / elapsed)
        self.settle()


WORKLOADS = {cls.name: cls for cls in (BatchSerial, SessionDurable, CensusDist, CensusEnsemble)}


def fresh_copies(jobs: list[Any]) -> list[Any]:
    """The same jobs with new program objects, so no id-keyed memo of an
    earlier ledger step can serve a later one."""
    programs: dict[int, Any] = {}
    out = []
    for program, inp in jobs:
        twin = programs.get(id(program))
        if twin is None:
            twin = programs[id(program)] = copy.copy(program)
        out.append((twin, inp))
    return out
