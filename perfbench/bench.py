"""One benchmark run: set-up, timed drive, correctness check, metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.instrument import OBS

from perfbench.ledger import LayerLedger, layer_metrics, session_metrics
from perfbench.measure import (
    FreshnessError,
    environment,
    highest_supported,
    peak_rss_mb,
    percentile,
    usable_cpus,
)
from perfbench.tracing import Spans
from perfbench.workloads import FULL, WORKLOADS, Sizes

#: The latency limit the open loop is held to (SNIPPETS.md snippet 1:
#: under 20 ms reads as an extension of the user, over 100 ms as a tool).
SINGLE_P99_LIMIT_MS = 20.0
BULK_P99_LIMIT_MS = 100.0

#: End-to-end latencies printed with their sample counts but not gated
#: in BENCHMARK.json.  Over ten seeds on a shared 2-CPU host the
#: single-job p50 on census_dist spread by up to 0.27 of its median and
#: the p99s by up to 0.74, past the largest bound a metric may have;
#: the bulk p50 of a batch workload restates ``jobs_per_s``.
REPORTED = {"bulk_p50_ms": "ms", "single_p50_ms": "ms", "bulk_p99_ms": "ms", "single_p99_ms": "ms"}

#: Per-layer metrics only session_durable's traced drive measures (an
#: open-loop generator and declared repeats), so they are printed but
#: not listed in BENCHMARK.json, where that workload is not listed either.
SESSION_ONLY = {"gen.late_ms": "ms", "session.repeat_frac": "frac"}


@dataclass
class Report:
    env: dict[str, Any]
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    guard: str | None = None
    skipped: str | None = None
    spans: Spans | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.guard is None and self.attempted > 0

    def lines(self, units: dict[str, str]) -> list[str]:
        out = []
        for name, unit in units.items():
            if name in self.metrics:
                n = self.samples.get(name)
                count = f"  (n={n})" if n is not None else ""
                out.append(f"{name} = {self.metrics[name]:.6g} {unit}{count}")
            else:
                why = self.notes.get("absent", {}).get(name, "not measured")
                out.append(f"{name} absent: {why}")
        out.append(
            f"failed_frac = {self.failed / max(1, self.attempted):.6g}"
            f"  (failed={self.failed} attempted={self.attempted} {self.failures})"
        )
        if self.guard:
            out.append(f"freshness guard: {self.guard}")
        for key, value in self.notes.items():
            if key != "absent":
                out.append(f"note {key} = {value}")
        return out

    def record(self, units: dict[str, str]) -> dict[str, Any]:
        return {
            "env": self.env,
            "metrics": {n: {"value": v, "unit": units.get(n), "n": self.samples.get(n)}
                        for n, v in self.metrics.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "failed_frac": self.failed / max(1, self.attempted),
            "guard": self.guard,
            "skipped": self.skipped,
            "notes": self.notes,
        }


def _tail(values: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile ``values`` support, and its value."""
    pct = highest_supported(len(values))
    return pct, (percentile(values, pct) if pct is not None else None)


def _latency(report: Report, name: str, values: list[float], pct: float) -> None:
    value = percentile(values, pct)
    if value is None:
        best, at = _tail(values)
        shown = f" (p{best} = {at:.4g} ms)" if best is not None else ""
        report.notes.setdefault("absent", {})[name] = (
            f"{len(values)} samples support at most p{best}{shown}"
        )
        return
    report.metrics[name] = value
    report.samples[name] = len(values)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: Sizes = FULL) -> Report:
    cls = WORKLOADS[name]
    report = Report(env=environment(seed, name, OBS.enabled))
    if usable_cpus() < cls.cpus:
        report.skipped = f"{usable_cpus()} usable CPUs < {cls.cpus} workers or nodes"
        return report
    if OBS.enabled:
        OBS.disable()
    workload = cls(seed, sizes, workdir)
    report.notes["reference"] = (
        "run_direct on every job" if workload.direct_sample is None
        else f"compiled engine, run_direct on {workload.direct_sample} jobs of each checked batch"
    )
    ledger = LayerLedger(sizes, workdir) if trace else None
    try:
        if trace:
            _traced(report, workload, ledger, seconds, seed)
        else:
            _end_to_end(report, workload, seconds)
    except FreshnessError as exc:
        report.guard = str(exc)
    workload.attempts.settle()
    report.failures = dict(workload.attempts.counts)
    report.attempted = workload.attempts.attempted
    if ledger is not None:
        report.failures["ledger_mismatched"] = ledger.mismatches
        report.attempted += ledger.attempted
    report.failed = sum(report.failures.values())
    report.env["obs_enabled_end"] = OBS.enabled
    return report


def _end_to_end(report: Report, workload, seconds: float) -> None:
    setups = workload.setup_s()
    report.metrics["setup_s"] = statistics.median(setups)
    report.samples["setup_s"] = len(setups)
    phase = workload.drive(seconds, None)
    report.metrics["jobs_per_s"] = statistics.median(phase.rates)
    report.samples["jobs_per_s"] = len(phase.rates)
    _latency(report, "bulk_p50_ms", phase.bulk_ms, 50)
    _latency(report, "bulk_p99_ms", phase.bulk_ms, 99)
    _latency(report, "single_p50_ms", phase.single_ms, 50)
    _latency(report, "single_p99_ms", phase.single_ms, 99)
    if phase.windows:
        # Open loop: each p50 is the median of the windows' p50s.
        for i, name in enumerate(("bulk_p50_ms", "single_p50_ms")):
            p50s = [p for p in (percentile(w[i], 50) for w in phase.windows) if p is not None]
            if p50s:
                report.metrics[name] = statistics.median(p50s)
        report.notes["open_loop_windows"] = len(phase.windows)
    if phase.counters["bulk.calls"]:
        # Every job of a bulk call shares the call's latency.
        report.notes["bulk_latency_calls"] = phase.counters["bulk.calls"]
    report.metrics["peak_rss_mb"] = peak_rss_mb()
    if phase.late_ms:
        pct, late = _tail(phase.late_ms)
        report.notes["gen_late_ms"] = f"p{pct} = {late:.3f} (n={len(phase.late_ms)})"
        # Each class is held to its limit at the highest percentile its
        # samples support (p99 once there are 1 000).
        (s_pct, single), (b_pct, bulk) = _tail(phase.single_ms), _tail(phase.bulk_ms)
        backlog = phase.counters["open.backlog_jobs"]
        met = (single is not None and single <= SINGLE_P99_LIMIT_MS
               and bulk is not None and bulk <= BULK_P99_LIMIT_MS
               and backlog <= workload.sizes.rate * 0.1)
        report.notes["latency_limit"] = (
            f"{'met' if met else 'missed'} at {workload.sizes.rate:g} jobs/s:"
            f" single p{s_pct} = {single} ms (limit {SINGLE_P99_LIMIT_MS:g}),"
            f" bulk p{b_pct} = {bulk} ms (limit {BULK_P99_LIMIT_MS:g}),"
            f" largest backlog {backlog} jobs"
        )
        report.notes["open_loop"] = {
            k: v for k, v in phase.counters.items() if k.startswith("open.")
        }


def _traced(report: Report, workload, ledger: LayerLedger, seconds: float, seed: int) -> None:
    quarter = seconds / 4
    plain = workload.drive(quarter, None, singles=False)
    spans = Spans()
    traced = workload.drive(quarter, spans, singles=False)
    report.spans = spans
    report.metrics["trace.overhead_frac"] = (
        statistics.median(plain.rates) / statistics.median(traced.rates) - 1
    )
    report.samples["trace.overhead_frac"] = len(traced.rates)
    report.notes["span_self_us_per_job"] = _self_time(spans, traced)
    report.metrics.update(layer_metrics(ledger, seed))
    report.notes["ledger_us_per_job"] = ledger.table
    report.metrics["core.memo_hits"] += traced.counters["memo_hits"]
    if traced.late_ms:
        pct = highest_supported(len(traced.late_ms))
        report.metrics["gen.late_ms"] = (
            percentile(traced.late_ms, pct) if pct is not None else max(traced.late_ms)
        )
        report.samples["gen.late_ms"] = len(traced.late_ms)
        report.notes["gen_late_pct"] = pct
        report.metrics.update(session_metrics(traced.counters))
        counters = traced.counters
        report.metrics["session.repeat_frac"] = (
            counters["session.memo_hits"] + counters["session.dedup_joins"]
        ) / counters["session.submitted"]
    else:
        for name in SESSION_ONLY:
            report.notes.setdefault("absent", {})[name] = (
                "measured on session_durable only: no open-loop generator, no repeats"
            )
    report.notes["traced_counters"] = dict(traced.counters)


def _self_time(spans: Spans, phase) -> dict[str, float]:
    jobs = max(1, len(phase.bulk_ms) + len(phase.single_ms))
    return {name: round(s / jobs * 1e6, 3) for name, s in sorted(spans.self_seconds().items())}
