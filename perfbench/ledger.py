"""The layer ledger: one job set through chains of increasing depth.

Chains (each step a fresh backend instance, a fresh journal directory
and fresh program objects, so no memo of an earlier step can serve a
later one)::

    direct -> resident -> serial -> process -> supervised -> journaled -> session
    serial -> dist
    ensemble -> ensemble_process

Every step runs the set in :data:`SLICES` equal parts after one
warm-up job of its own; its cost is the median µs per job over the
parts, and a layer's ``added_us`` is its step minus the step below it.
Every result is compared with the ``direct`` step, which is the
reference interpreter.  The ``adapter.*`` figures are the ``resident``
step alone, on batch_serial's jobs and fuel for each adapter.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any

from repro.runtime import Session, create_backend, get_workload, intern_jobs
from repro.runtime.session import FLUSH_REASONS

from perfbench import jobs as J
from perfbench.measure import check_served
from perfbench.workloads import SESSION_CHAIN, WORKERS, BatchSerial, Sizes, fresh_copies

#: step -> (backend name or None, kwargs); None marks the steps the
#: ledger drives itself.
STEPS = {
    "direct": None,
    "resident": None,
    "serial": ("serial", {}),
    "process": ("process", {"workers": WORKERS}),
    "supervised": ("supervised:process", {"workers": WORKERS}),
    "journaled": (SESSION_CHAIN, {"workers": WORKERS}),
    "session": None,
    "dist": ("dist", {"nodes": WORKERS, "topology": "naive", "workers_per_node": 1}),
    "ensemble": ("ensemble", {}),
    "ensemble_process": ("ensemble_process", {"workers": WORKERS}),
}

#: added-cost metric -> (step, step below it)
ADDED = {
    "core.serial.added_us": ("serial", "resident"),
    "core.process.added_us": ("process", "serial"),
    "supervisor.added_us": ("supervised", "process"),
    "journal.added_us": ("journaled", "supervised"),
    "session.added_us": ("session", "journaled"),
    "comm.added_us": ("dist", "serial"),
    "ensemble.process.added_us": ("ensemble_process", "ensemble"),
}

FUEL = J.TRIVIAL_FUEL

#: Equal parts each step's jobs are timed in; a step's cost is their median.
SLICES = 3


class LayerLedger:
    def __init__(self, sizes: Sizes, workdir: Path) -> None:
        self.sizes = sizes
        self.workdir = workdir
        self.mismatches = 0
        self.attempted = 0
        self.table: dict[str, dict[str, float]] = {}
        self._dirs = 0

    # -- one job set -----------------------------------------------------------

    def run_set(self, label: str, kind: str, jobs: list[Any], warm: list[Any]) -> dict[str, Any]:
        """Run every step over ``jobs``; ``warm[i]`` is step i's warm-up job."""
        workload = get_workload(kind)
        per_job: dict[str, float] = {}
        counters: dict[str, Counter] = {}
        expected: list[Any] | None = None
        for (step, spec), warm_job in zip(STEPS.items(), warm):
            step_jobs = fresh_copies(jobs)
            if step == "direct":
                start = time.perf_counter()
                expected = [workload.run_direct(p, i, FUEL) for p, i in step_jobs]
                per_job[step] = (time.perf_counter() - start) / len(jobs) * 1e6
                continue
            if step == "resident":
                per_job[step], counters[step], results = self.resident(workload, step_jobs, FUEL)
            else:
                per_job[step], counters[step], results = self._chain(
                    step, spec, kind, step_jobs, fresh_copies([warm_job])
                )
            self.check(results, expected)
        intern_start = time.perf_counter()
        intern_jobs(workload, fresh_copies(jobs))
        intern_us = (time.perf_counter() - intern_start) / len(jobs) * 1e6
        self.table[label] = per_job
        return {
            "per_job": per_job,
            "counters": counters,
            "intern_us": intern_us,
            "steps_per_job": sum(workload.cost(r) for r in expected) / len(expected),
            "jobs": len(jobs),
        }

    def check(self, results: list[Any], expected: list[Any]) -> None:
        """Count every result that differs from the reference interpreter's."""
        self.attempted += len(expected)
        if len(results) != len(expected):
            self.mismatches += len(expected)
        else:
            self.mismatches += sum(1 for got, want in zip(results, expected) if got != want)

    @staticmethod
    def _slices(jobs: list[Any]) -> list[list[Any]]:
        size = len(jobs) // SLICES
        return [jobs[i * size:(i + 1) * size if i < SLICES - 1 else None] for i in range(SLICES)]

    def resident(self, workload, jobs, fuel):
        """Prepare each distinct program, then execute every job on it."""
        counters: Counter = Counter()
        residents: dict[int, Any] = {}
        start = time.perf_counter()
        for program, _ in jobs:
            if id(program) not in residents:
                residents[id(program)] = workload.prepare(program)
        counters["prepare_s"] = time.perf_counter() - start
        counters["programs"] = len(residents)
        results, costs = [], []
        for part in self._slices(jobs):
            gc.freeze()
            start = time.perf_counter()
            results += [workload.execute(residents[id(p)], i, fuel) for p, i in part]
            costs.append((time.perf_counter() - start) / len(part))
        gc.unfreeze()
        counters["run_us"] = statistics.median(costs) * 1e6
        per_job = counters["run_us"] + counters["prepare_s"] / len(jobs) * 1e6
        return per_job, counters, results

    def _journal_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"ledger-journal-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def _chain(self, step, spec, kind, jobs, warm):
        counters: Counter = Counter()
        name, kwargs = spec if spec is not None else (SESSION_CHAIN, {"workers": WORKERS})
        kwargs = dict(kwargs)
        if "journaled" in name:
            kwargs["journal_dir"] = self._journal_dir()
        backend = create_backend(name, workload=kind, **kwargs)
        session = Session(backend) if step == "session" else None
        try:
            self._execute(backend, session, kind, warm, counters)  # set-up, not timed
            counters.clear()
            journal = getattr(backend, "journal", None)
            journal_before = journal.stats() if journal is not None else {}
            comm_before = _comm_bytes(backend)
            results, costs = [], []
            for part in self._slices(jobs):
                gc.freeze()
                start = time.perf_counter()
                results += self._execute(backend, session, kind, part, counters)
                costs.append((time.perf_counter() - start) / len(part))
            if journal is not None:
                after = journal.stats()
                for key in ("appends", "fsyncs", "bytes"):
                    counters[f"journal.{key}"] = after[key] - journal_before[key]
            if step == "dist":
                counters["comm.bytes"] = _comm_bytes(backend) - comm_before
                for key in ("node_restarts", "stale_results", "degraded_jobs"):
                    counters[f"comm.{key}"] = getattr(backend, key)
            if session is not None:
                stats = session.stats()
                for key in ("submitted", "executed_jobs", "memo_hits", "dedup_joins"):
                    counters[f"session.{key}"] = stats[key]
                for reason, count in stats["flushes"].items():
                    counters[f"session.flush.{reason}"] = count
        finally:
            gc.unfreeze()
            if session is not None:
                session.close()
            backend.close()
        return statistics.median(costs) * 1e6, counters, results

    def _execute(self, backend, session, kind, jobs, counters) -> list[Any]:
        if session is not None:
            start = time.perf_counter()
            futures = [session.submit(kind, job, fuel=FUEL) for job in jobs]
            counters["session.submit_s"] += time.perf_counter() - start
            session.flush()
            return [future.result() for future in futures]
        results = backend.execute(jobs, fuel=FUEL, compiled=True)
        dispatch = backend.last_dispatch
        check_served(dispatch, f"ledger {backend.name}")
        for key, value in dispatch.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counters[key] += value
        # Only the bare supervised step is read: under the journal the
        # supervisor's report covers just the last commit slice.
        report = getattr(backend, "last_report", None)
        if report is not None:
            counters["supervisor.retries"] += report.retries
            counters["supervisor.hedges"] += report.hedges
            counters["supervisor.pool_restarts"] += report.pool_restarts
        return results


def _comm_bytes(backend) -> int:
    comm = getattr(backend, "comm", None)
    return 0 if comm is None else comm.bytes_sent + comm.bytes_recv


def session_metrics(counters: Counter) -> dict[str, float]:
    """Scheduler outcomes per submitted job, from ``session.*`` counters."""
    submitted = counters["session.submitted"]
    out = {"session.executed_frac": counters["session.executed_jobs"] / submitted}
    for reason in FLUSH_REASONS:
        out[f"session.flush.{reason}"] = counters[f"session.flush.{reason}"] / submitted
    return out


def layer_metrics(ledger: LayerLedger, seed: int) -> dict[str, float]:
    """Run both job sets and every adapter; return the ledger's metrics."""
    sizes = ledger.sizes
    steps = len(STEPS)
    trivial_stream = J.TapeStream(seed, "ledger-trivial")
    heavy_stream = J.CensusStream(seed, 3, "ledger-heavy")
    trivial = ledger.run_set(
        "trivial", "machines", trivial_stream.take(sizes.ledger_trivial),
        trivial_stream.take(steps),
    )
    heavy = ledger.run_set(
        "heavy", "busybeaver", heavy_stream.take(sizes.ledger_heavy), heavy_stream.take(steps)
    )
    out: dict[str, float] = {}
    for suffix, result in (("", trivial), (".heavy", heavy)):
        per_job, counters, n = result["per_job"], result["counters"], result["jobs"]
        for metric, (step, below) in ADDED.items():
            out[metric + suffix] = per_job[step] - per_job[below]
        out["engine.run_us" + suffix] = counters["resident"]["run_us"]
        out["engine.steps_per_job" + suffix] = result["steps_per_job"]
        out["core.intern_us" + suffix] = result["intern_us"]
        out["core.payload_bytes_per_job" + suffix] = counters["process"]["payload_bytes"] / n
        out["comm.payload_bytes_per_job" + suffix] = counters["dist"]["comm.bytes"] / n
        out["ensemble.run_us" + suffix] = per_job["ensemble"]
        out["ensemble.fallback_frac" + suffix] = counters["ensemble_process"]["fallback_jobs"] / n
    counters = trivial["counters"]
    n = trivial["jobs"]
    out["engine.prepare_us"] = (
        heavy["counters"]["resident"]["prepare_s"] / heavy["counters"]["resident"]["programs"] * 1e6
    )
    out["core.chunks"] = counters["process"]["chunks"]
    out["core.steals"] = counters["process"]["steals"]
    out["journal.records_per_job"] = counters["journaled"]["journal.appends"] / n
    out["journal.fsyncs_per_job"] = counters["journaled"]["journal.fsyncs"] / n
    out["journal.bytes_per_job"] = counters["journaled"]["journal.bytes"] / n
    out["ensemble.shm_bytes_per_job"] = (
        heavy["counters"]["ensemble_process"]["shm_bytes"] / heavy["jobs"]
    )
    out["ensemble.result_payload_bytes"] = heavy["counters"]["ensemble_process"][
        "result_payload_bytes"
    ]
    for key in ("node_restarts", "stale_results", "degraded_jobs"):
        out[f"comm.{key}"] = sum(r["counters"]["dist"][f"comm.{key}"] for r in (trivial, heavy))
    for key in ("retries", "hedges", "pool_restarts"):
        out[f"supervisor.{key}"] = sum(
            r["counters"]["supervised"][f"supervisor.{key}"] for r in (trivial, heavy)
        )
    out["core.memo_hits"] = 0  # a ledger hit trips check_served before this point
    out["session.submit_us"] = counters["session"]["session.submit_s"] / n * 1e6
    out.update(session_metrics(counters["session"]))
    batch = {
        "complang": J.ComplangStream(seed + 1),
        "sat": J.SatStream(seed + 1),
        "encoded_machines": J.EncodedStream(seed + 1),
    }
    for kind, stream in batch.items():
        # The resident step alone, at the fuel batch_serial runs the adapter with.
        workload, fuel = get_workload(kind), BatchSerial.fuel[kind]
        jobs = stream.take(sizes.ledger_adapter_jobs)
        expected = [workload.run_direct(p, i, fuel) for p, i in jobs]
        _, counters, results = ledger.resident(workload, jobs, fuel)
        ledger.check(results, expected)
        out[f"adapter.{kind}.run_us"] = counters["run_us"]
    return out
