"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import bench
from perfbench.jobs import TapeStream
from perfbench.measure import (
    Attempts,
    Fresh,
    FreshnessError,
    check_served,
    highest_supported,
    percentile,
    valid_metric_name,
)
from perfbench.run import ROOT, _children, spec, stop_children
from perfbench.workloads import FULL, WORKLOADS

TINY = replace(
    FULL,
    setup_reps=1,
    cheap_setup_reps=1,
    singles=5,
    batch_serial_jobs=4,
    census_dist_jobs=8,
    census_ensemble_jobs=16,
    rate=200.0,
    window_s=0.5,
    burst_jobs=20,
    ledger_trivial=30,
    ledger_heavy=12,
    ledger_adapter_jobs=6,
)


def test_metric_names_are_valid_and_unique():
    doc = spec()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    names += list(bench.REPORTED) + list(bench.SESSION_ONLY)
    assert all(valid_metric_name(n) for n in names), names
    assert len(names) == len(set(names))
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)


def test_quantile_rule_needs_ten_samples_beyond():
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000)), 99) == 989
    assert percentile(list(range(1, 101)), 50) == 50
    assert highest_supported(9) is None
    assert highest_supported(100) == 90
    assert highest_supported(1_000) == 99
    assert highest_supported(10_000) == 99.9


def test_freshness_guard_trips_on_repeats_and_memo_hits():
    fresh = Fresh(lambda item: item)
    fresh.admit(["a", "b"])
    with pytest.raises(FreshnessError):
        fresh.admit(["a"])
    fresh.admit(["b"], repeat=True)
    with pytest.raises(FreshnessError):
        fresh.admit(["never-seen"], repeat=True)
    check_served({"memo_hits": 0, "chunks": 3}, "process")
    with pytest.raises(FreshnessError):
        check_served({"memo_hits": 2}, "process")


def test_wrong_missing_and_raised_results_count_as_failed():
    attempts = Attempts(lambda kind, jobs, fuel: [job * 2 for job in jobs])
    attempts.add("k", [1, 2, 3], 10, [2, 5, 6])
    attempts.add("k", [4], 10, [None])
    attempts.add("k", [5, 6], 10, None, RuntimeError("boom"))
    attempts.settle()
    assert attempts.attempted == 6
    assert attempts.counts == {"missing": 1, "raised": 2, "mismatched": 1}


def test_a_repeating_job_set_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(TapeStream, "tape", lambda self: "1011")
    report = bench.run("batch_serial", 1, 0.2, False, tmp_path, TINY)
    assert report.guard is not None
    assert not report.correct


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_end_to_end_pass_is_correct(name, tmp_path):
    report = bench.run(name, 3, 0.3, False, tmp_path, TINY)
    assert report.guard is None
    assert report.failed == 0 and report.attempted > 0
    e2e = {m["name"] for m in spec()["end_to_end"]}
    assert e2e <= set(report.metrics) <= e2e | set(bench.REPORTED)
    # Too few samples for p99: recorded as absent, never reported.
    assert "single_p99_ms" not in report.metrics
    assert "single_p99_ms" in report.notes["absent"]


def test_tiny_traced_pass_measures_every_layer(tmp_path):
    report = bench.run("session_durable", 3, 0.6, True, tmp_path, TINY)
    assert report.correct, (report.failures, report.guard)
    assert set(report.metrics) == {m["name"] for m in spec()["per_layer"]} | set(
        bench.SESSION_ONLY
    )
    assert report.metrics["core.memo_hits"] == 0
    assert report.metrics["session.repeat_frac"] > 0
    names = {s["name"] for s in report.spans.spans}
    layers = {"session.submit", "journal.execute", "supervisor.execute", "core.process.chunk"}
    assert layers <= names
    assert all(s["end"] is not None and s["end"] >= s["start"] for s in report.spans.spans)


def test_without_the_repo_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_stop_children_ends_the_resource_tracker_and_pool_leftovers():
    from multiprocessing import resource_tracker, shared_memory

    shm = shared_memory.SharedMemory(create=True, size=64)
    shm.close()
    shm.unlink()
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert resource_tracker._resource_tracker._pid in _children()
    stop_children()
    assert _children() == []
    assert sleeper.poll() is not None
    assert resource_tracker._resource_tracker._pid is None
