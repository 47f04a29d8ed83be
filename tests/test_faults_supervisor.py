"""Tests for supervised batch execution: deadlines, retries, hedging,
pool recovery/degradation, and poison quarantine by bisection."""

import os

import pytest

from repro.faults.chaos import ChaosBackend, ChaosSchedule
from repro.faults.supervisor import (
    SupervisedBackend,
    SupervisionReport,
    SupervisorPolicy,
)
from repro.machines.busybeaver import busy_beaver_machine
from repro.machines.turing import TuringMachine, binary_increment, copier, palindrome_checker
from repro.obs.instrument import observed
from repro.runtime import (
    BACKENDS,
    ProcessBackend,
    ResidentCache,
    SerialBackend,
    create_backend,
    run_jobs,
)
from repro.runtime.workloads.machines import MACHINES

# Twelve distinct jobs (no duplicate content: poison matching is by content).
JOBS = (
    [(binary_increment(), "1" * (i + 1)) for i in range(6)]
    + [
        (palindrome_checker(), "abba"),
        (palindrome_checker(), "abc"),
        (copier(), "11"),
        (copier(), "111"),
        (busy_beaver_machine(3), ""),
        (binary_increment(), "1011"),
    ]
)
CLEAN = [machine.run(tape) for machine, tape in JOBS]


def chaotic(schedule=None, poison=(), **policy_kwargs):
    """A supervisor over a chaos-wrapped serial backend."""
    inner = ChaosBackend(SerialBackend(MACHINES), schedule=schedule, poison_jobs=poison)
    return SupervisedBackend(inner=inner, policy=SupervisorPolicy(**policy_kwargs))


# -- fault-free path ---------------------------------------------------------


def test_fault_free_supervised_serial_matches_clean():
    backend = SupervisedBackend(inner=SerialBackend(MACHINES), policy=SupervisorPolicy(chunksize=3))
    assert run_jobs("machines", JOBS, backend=backend) == CLEAN
    report = backend.last_report
    assert report.chunks == 4
    assert report.retries == report.hedges == report.pool_restarts == 0
    assert report.quarantined == [] and not report.degraded


def test_fault_free_supervised_process_matches_clean():
    backend = SupervisedBackend(
        inner=ProcessBackend(MACHINES, workers=2), policy=SupervisorPolicy(chunksize=4)
    )
    assert run_jobs("machines", JOBS, backend=backend) == CLEAN
    assert backend.last_report.quarantined == []


def test_supervised_aggregates_cache_stats():
    backend = SupervisedBackend(inner=SerialBackend(MACHINES), policy=SupervisorPolicy(chunksize=6))
    cache = ResidentCache(MACHINES)
    jobs = [(binary_increment(), "1" * (i + 1)) for i in range(12)]
    run_jobs("machines", jobs, backend=backend, cache=cache)
    # Two chunks, each compiling the one distinct machine once.
    assert backend.last_cache_stats["misses"] == 2
    assert backend.last_cache_stats["hits"] == 10
    assert cache.stats()["hits"] == 10 and cache.stats()["misses"] == 2


def test_supervised_empty_batch():
    backend = SupervisedBackend(inner=SerialBackend(MACHINES))
    assert backend.execute([], fuel=100, compiled=True) == []


def test_supervised_factory_and_registry():
    assert "supervised" in BACKENDS
    backend = create_backend("supervised", inner="serial")
    assert isinstance(backend, SupervisedBackend)
    assert isinstance(backend.inner, SerialBackend)
    with pytest.raises(ValueError):
        SupervisedBackend(inner=SerialBackend(MACHINES), workers=2)  # kwargs need a name
    with pytest.raises(TypeError):
        SupervisedBackend(inner=object())


def test_policy_validation():
    with pytest.raises(ValueError):
        SupervisorPolicy(max_chunk_retries=-1)
    with pytest.raises(ValueError):
        SupervisorPolicy(chunk_timeout=0)
    with pytest.raises(ValueError):
        SupervisorPolicy(hedge_delay=-0.5)
    with pytest.raises(ValueError):
        SupervisorPolicy(base_delay=2.0, max_delay=1.0)
    with pytest.raises(ValueError):
        SupervisorPolicy(chunksize=0)


# -- chaos recovery ----------------------------------------------------------


def test_crash_is_retried_and_pool_restarted():
    backend = chaotic(ChaosSchedule(kinds={0: "crash"}), chunksize=3)
    assert run_jobs("machines", JOBS, backend=backend) == CLEAN
    report = backend.last_report
    assert report.retries == 1
    assert report.pool_restarts == 1
    assert report.virtual_backoff > 0
    assert backend.inner.recoveries == 1  # the restart reached the chaos layer


def test_timeout_is_retried_after_deadline():
    backend = chaotic(ChaosSchedule(kinds={1: "timeout"}), chunksize=3, chunk_timeout=0.05)
    assert run_jobs("machines", JOBS, backend=backend) == CLEAN
    assert backend.last_report.retries == 1
    assert backend.last_report.pool_restarts == 0  # a hang is not a crash


def test_corruption_is_retried():
    backend = chaotic(ChaosSchedule(kinds={2: "corrupt"}), chunksize=3)
    assert run_jobs("machines", JOBS, backend=backend) == CLEAN
    assert backend.last_report.retries == 1


def test_hedge_beats_hung_chunk():
    backend = chaotic(
        ChaosSchedule(kinds={0: "timeout"}),
        chunksize=3,
        chunk_timeout=5.0,
        hedge_delay=0.02,
    )
    assert run_jobs("machines", JOBS, backend=backend) == CLEAN
    report = backend.last_report
    assert report.hedges == 1
    assert report.retries == 0  # the hedge settled the chunk before its deadline


def test_poison_job_quarantined_by_bisection():
    poison_index = 7
    backend = chaotic(
        poison=[JOBS[poison_index]],
        chunksize=4,
        max_chunk_retries=1,
        max_pool_restarts=100,
    )
    results = run_jobs("machines", JOBS, backend=backend)
    assert results[poison_index] is None
    assert all(results[i] == CLEAN[i] for i in range(len(JOBS)) if i != poison_index)
    report = backend.last_report
    assert report.quarantined_indices == [poison_index]
    assert report.bisections >= 1
    letter = report.quarantined[0]
    assert letter.index == poison_index
    assert letter.job == JOBS[poison_index]
    assert "WorkerCrash" in letter.reason


def test_every_dispatch_crashing_degrades_to_serial():
    backend = chaotic(ChaosSchedule(rates={"crash": 1.0}, seed=0), chunksize=3, max_pool_restarts=3)
    assert run_jobs("machines", JOBS, backend=backend) == CLEAN  # the batch still finishes
    report = backend.last_report
    assert report.degraded
    assert report.pool_restarts == 4  # budget of 3, the 4th tripped degradation
    assert report.quarantined == []


def test_mixed_chaos_run_equals_clean_run():
    """The acceptance scenario: crashes + a hang + corruption + one poison
    job, in one batch; everything but the poison job is exact."""
    poison_index = 10
    backend = chaotic(
        ChaosSchedule(kinds={0: "crash", 1: "timeout", 3: "corrupt"}),
        poison=[JOBS[poison_index]],
        chunksize=3,
        chunk_timeout=0.5,
        hedge_delay=0.02,
        max_pool_restarts=100,
    )
    results = run_jobs("machines", JOBS, backend=backend)
    assert all(results[i] == CLEAN[i] for i in range(len(JOBS)) if i != poison_index)
    assert results[poison_index] is None
    assert backend.last_report.quarantined_indices == [poison_index]


def test_supervised_metrics_recorded():
    poison_index = 4
    backend = chaotic(
        ChaosSchedule(kinds={1: "crash"}),
        poison=[JOBS[poison_index]],
        chunksize=3,
        max_chunk_retries=1,
        max_pool_restarts=100,
    )
    with observed() as obs:
        run_jobs("machines", JOBS, backend=backend)
    assert obs.registry.total("batch_chunk_retries_total") >= 1
    assert obs.registry.total("batch_quarantined_jobs") == 1
    assert obs.registry.total("batch_pool_restarts_total") >= 1


def test_hedge_metric_recorded():
    backend = chaotic(
        ChaosSchedule(kinds={0: "timeout"}), chunksize=3, chunk_timeout=5.0, hedge_delay=0.02
    )
    with observed() as obs:
        run_jobs("machines", JOBS, backend=backend)
    assert obs.registry.total("batch_hedged_total") == 1


def test_report_reset_between_runs():
    backend = chaotic(ChaosSchedule(kinds={0: "crash"}), chunksize=3)
    run_jobs("machines", JOBS, backend=backend)
    assert backend.last_report.retries == 1
    run_jobs("machines", JOBS, backend=backend)  # schedule slots 4+: fault-free now
    assert backend.last_report.retries == 0
    assert isinstance(backend.last_report, SupervisionReport)


# -- a real broken pool ------------------------------------------------------


class ExitingMachine(TuringMachine):
    """A genuinely poisonous job: kills the worker process outright."""

    def run(self, tape_input, *, fuel=10_000):
        os._exit(23)


def poison_machine():
    base = binary_increment()
    return ExitingMachine(base.delta, base.initial, base.accept_states, base.reject_states)


def test_real_broken_process_pool_quarantine_and_recovery():
    """An os._exit in a worker raises BrokenProcessPool; the supervisor
    restarts the pool, quarantines the job, and the backend still works."""
    backend = SupervisedBackend(
        inner=ProcessBackend(MACHINES, workers=2),
        policy=SupervisorPolicy(chunksize=1, max_chunk_retries=1, max_pool_restarts=50),
    )
    jobs = [(poison_machine(), "1")]
    results = run_jobs("machines", jobs, backend=backend, compiled=False)
    assert results == [None]
    report = backend.last_report
    assert report.quarantined_indices == [0]
    assert report.pool_restarts >= 1
    assert not report.degraded
    # The same backend instance recovers for the next, healthy batch.
    healthy = JOBS[:4]
    assert run_jobs("machines", healthy, backend=backend, compiled=False) == CLEAN[:4]
    assert backend.last_report.quarantined == []


# -- dead-letter replay ------------------------------------------------------


def test_replay_dead_letters_recovers_after_fix():
    poison_index = 7
    backend = chaotic(
        poison=[JOBS[poison_index]],
        chunksize=4,
        max_chunk_retries=1,
        max_pool_restarts=100,
    )
    results = backend.execute(JOBS, fuel=10_000, compiled=True)
    assert results[poison_index] is None
    assert backend.last_report.quarantined_indices == [poison_index]

    backend.inner._poison.clear()  # "deploy the fix"
    merged = backend.replay_dead_letters()
    assert merged == CLEAN  # recovered result merged in index order
    assert backend.last_report.quarantined == []
    assert backend.last_replay_report is not None
    assert backend.last_replay_report.quarantined == []


def test_replay_still_poison_stays_quarantined():
    poison_index = 3
    backend = chaotic(
        poison=[JOBS[poison_index]],
        chunksize=4,
        max_chunk_retries=1,
        max_pool_restarts=100,
    )
    backend.execute(JOBS, fuel=10_000, compiled=True)

    merged = backend.replay_dead_letters()  # nothing fixed: dies again
    assert merged[poison_index] is None
    assert backend.last_report.quarantined_indices == [poison_index]
    assert backend.last_replay_report.quarantined_indices == [0]


def test_replay_with_nothing_quarantined_is_a_noop():
    backend = chaotic()
    results = backend.execute(JOBS, fuel=10_000, compiled=True)
    assert results == CLEAN
    assert backend.replay_dead_letters() == CLEAN
    assert backend.last_replay_report is None


def test_replay_merges_multiple_letters_in_order():
    poisoned = [2, 9]
    backend = chaotic(
        poison=[JOBS[i] for i in poisoned],
        chunksize=4,
        max_chunk_retries=1,
        max_pool_restarts=100,
    )
    results = backend.execute(JOBS, fuel=10_000, compiled=True)
    assert [i for i, r in enumerate(results) if r is None] == poisoned

    backend.inner._poison.clear()
    merged = backend.replay_dead_letters()
    assert merged == CLEAN
    assert backend.last_report.quarantined == []


def test_replay_uses_a_fresh_generation():
    poison_index = 5
    backend = chaotic(
        poison=[JOBS[poison_index]],
        chunksize=4,
        max_chunk_retries=1,
        max_pool_restarts=100,
    )
    backend.execute(JOBS, fuel=10_000, compiled=True)
    recoveries_before = backend.inner.recoveries
    backend.inner._poison.clear()
    backend.replay_dead_letters()
    assert backend.inner.recoveries > recoveries_before
