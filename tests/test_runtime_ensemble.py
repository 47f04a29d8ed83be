"""Tests for the ensemble backends: lock-step exactness against the
per-machine reference, content interning, shared-memory result
transport, fault recovery, and the deterministic machine enumerator."""

import pickle

import pytest

from repro.faults.chaos import ChaosBackend, ChaosSchedule
from repro.faults.supervisor import SupervisedBackend, SupervisorPolicy
from repro.machines.busybeaver import (
    busy_beaver_machine,
    enumerate_machines,
    halting_survey,
    score_sweep,
)
from repro.machines.turing import BLANK, TuringMachine
from repro.obs.instrument import observed
from repro.perf.ensemble_engine import (
    _PAD,
    EnsembleIneligible,
    compile_family,
    intern_input,
    lower_machine,
    run_family,
)
from repro.runtime import run_jobs
from repro.runtime.ensemble import EnsembleBackend, EnsembleProcessBackend
from repro.runtime.workloads.busybeaver import BUSYBEAVER
from repro.runtime.workloads.machines import MACHINES

FUEL = 128


def family_jobs(n, pop, seed, input=""):
    return [(m, input) for m in enumerate_machines(n, pop, seed=seed)]


def reference(workload, jobs, fuel=FUEL):
    return [workload.run_direct(program, input, fuel) for program, input in jobs]


# -- the enumerator ----------------------------------------------------------


def test_enumerate_machines_deterministic():
    a = enumerate_machines(3, 50, seed=11)
    b = enumerate_machines(3, 50, seed=11)
    assert len(a) == 50
    assert [BUSYBEAVER.program_key(m) for m in a] == [
        BUSYBEAVER.program_key(m) for m in b
    ]
    c = enumerate_machines(3, 50, seed=12)
    assert [BUSYBEAVER.program_key(m) for m in a] != [
        BUSYBEAVER.program_key(m) for m in c
    ]


def test_enumerate_machines_distinct():
    machines = enumerate_machines(2, 300, seed=5)
    keys = {BUSYBEAVER.program_key(m) for m in machines}
    assert len(keys) == 300


def test_enumerate_machines_exhaustive_small_space():
    # n=1: base 4*(1+1)=8 choices per slot, 2 slots -> 64 machines total.
    machines = enumerate_machines(1, 64, seed=0)
    assert len(machines) == 64
    assert len({BUSYBEAVER.program_key(m) for m in machines}) == 64
    # Covering limit ignores the seed: canonical order is canonical.
    again = enumerate_machines(1, 10_000, seed=99)
    assert [BUSYBEAVER.program_key(m) for m in machines] == [
        BUSYBEAVER.program_key(m) for m in again
    ]


def test_enumerate_machines_structure():
    for machine in enumerate_machines(2, 20, seed=3):
        assert machine.initial == "A"
        assert machine.accept_states == frozenset({"Z"})
        assert set(machine.delta) == {(s, c) for s in "AB" for c in (BLANK, "1")}


def test_enumerate_machines_validation():
    with pytest.raises(ValueError):
        enumerate_machines(0, 10)
    with pytest.raises(ValueError):
        enumerate_machines(26, 10)
    with pytest.raises(ValueError):
        enumerate_machines(2, -1)


# -- lock-step exactness (the property the whole engine stands on) ----------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_ensemble_matches_reference_over_random_families(n, seed):
    """Verdicts, scores and step counts equal run_direct exactly —
    including never-halters (fuel exhaustion) and tape escapers."""
    jobs = family_jobs(n, 120, seed)
    expected = reference(BUSYBEAVER, jobs)
    got = run_jobs("busybeaver", jobs, fuel=FUEL, backend="ensemble")
    assert got == expected
    # The family must exercise the honest trichotomy, not just halters.
    assert any(r.halted for r in expected)
    assert any(not r.halted for r in expected)


def test_ensemble_matches_reference_full_results():
    """The machines adapter returns full TMResults: tapes and final
    states from the lock-step arrays equal the reference renderer."""
    jobs = family_jobs(3, 80, seed=7, input="11")
    expected = reference(MACHINES, jobs)
    got = run_jobs("machines", jobs, fuel=FUEL, backend="ensemble")
    assert got == expected


@pytest.mark.parametrize("fuel", [0, 1, 2, 107])
def test_ensemble_fuel_edges(fuel):
    jobs = family_jobs(2, 60, seed=9) + [(busy_beaver_machine(4), "")]
    expected = [BUSYBEAVER.run_direct(m, i, fuel) for m, i in jobs]
    assert run_jobs("busybeaver", jobs, fuel=fuel, backend="ensemble") == expected


def test_ensemble_window_escapers_grow_exactly():
    """Machines that run off either side of the seed window force
    window reallocation; results stay identical to the reference."""
    runner = {("A", BLANK): ("A", "1", "L")}  # escapes left forever
    walker = {("A", BLANK): ("B", "1", "R"), ("B", BLANK): ("A", BLANK, "R")}
    escapers = [
        TuringMachine(delta=runner, initial="A", accept_states=frozenset({"Z"})),
        TuringMachine(delta=walker, initial="A", accept_states=frozenset({"Z"})),
    ]
    jobs = [(m, "") for m in escapers] * 10 + family_jobs(2, 40, seed=4)
    expected = reference(BUSYBEAVER, jobs, fuel=512)
    assert run_jobs("busybeaver", jobs, fuel=512, backend="ensemble") == expected


def test_engine_outcome_reports_growth():
    spec = lower_machine(
        TuringMachine(
            delta={("A", BLANK): ("A", "1", "L")},
            initial="A",
            accept_states=frozenset({"Z"}),
        )
    )
    outcome = run_family(compile_family([(spec, [], "")] * 20), fuel=200)
    assert outcome.grows > 0
    assert not outcome.halted.any()
    assert (outcome.steps == 200).all()


def _chain_machine(length):
    """Walks right over blanks through ``length`` states, then halts on
    the next read (its last state has no rule).  Started ``length``
    cells left of the window's right edge, it halts on the very step its
    head first leaves the window."""
    delta = {
        ("C%d" % i, BLANK): ("C%d" % (i + 1), "1", "R") for i in range(length)
    }
    return TuringMachine(delta=delta, initial="C0", accept_states=frozenset({"Z"}))


def _mixed_family():
    """(machine, input) rows for the row-level exactness checks.

    Rows differ in state count (2-, 3- and 4-state candidates plus a
    long chain); inputs carry symbols outside the machines' alphabets,
    one of them non-ASCII; a left and a right escaper force the window
    to double; the chain row halts on the step its head first leaves
    the initial window.
    """
    inputs = ["", "1", "11x", "1\u00e91"]
    rows = []
    for n, seed in ((2, 21), (3, 22), (4, 23)):
        for i, machine in enumerate(enumerate_machines(n, 40, seed=seed)):
            rows.append((machine, inputs[i % len(inputs)]))
    runner = {("A", BLANK): ("A", "1", "L"), ("A", "1"): ("A", "1", "L")}
    walker = {("A", BLANK): ("B", "1", "R"), ("B", BLANK): ("A", BLANK, "R")}
    for delta in (runner, walker):
        machine = TuringMachine(delta=delta, initial="A", accept_states=frozenset({"Z"}))
        rows += [(machine, ""), (machine, "1x")]
    width = max(len(tape) for _, tape in rows) + 2 * _PAD
    rows.append((_chain_machine(width - _PAD), ""))
    return rows


def _outcome_of(rows, fuel, straggler_cutoff=0):
    entries = []
    for machine, tape in rows:
        spec = lower_machine(machine)
        entries.append((spec, intern_input(spec, tape) if tape else [], tape))
    family = compile_family(entries)
    return family, run_family(family, fuel=fuel, straggler_cutoff=straggler_cutoff)


def _assert_row_matches(outcome, row, machine, tape, fuel):
    ref = machine.run(tape, fuel=fuel)
    assert bool(outcome.halted[row]) == ref.halted, row
    assert bool(outcome.accepted[row]) == ref.accepted, row
    assert int(outcome.steps[row]) == ref.steps, row
    assert outcome.state_name(row) == ref.final_state, row
    assert outcome.tape_string(row) == ref.tape, row
    assert int(outcome.count_symbol("1")[row]) == ref.tape.count("1"), row


def test_run_family_rows_match_machine_run():
    """Every row of a mixed family equals its own ``machine.run``:
    verdicts, step counts, final states, rendered tapes and sigma."""
    fuel = 2_048
    rows = _mixed_family()
    family, outcome = _outcome_of(rows, fuel)
    assert outcome.grows >= 3  # the escapers doubled the window repeatedly
    assert not outcome.abandoned.any()
    for row, (machine, tape) in enumerate(rows):
        _assert_row_matches(outcome, row, machine, tape, fuel)
    chain = len(rows) - 1
    assert outcome.halted[chain]
    assert outcome.steps[chain] == len(rows[chain][0].delta)
    assert any(not name.isascii() for names in family.names for name in names)


def test_run_family_straggler_rows_match_machine_run():
    """With a cutoff, the settled rows stay exact and the rest come
    back abandoned before the fuel runs out."""
    fuel = 2_048
    rows = _mixed_family()
    # 36 rows never halt; a cutoff of 40 abandons them and a few late
    # halters once every early halter has settled.
    _, outcome = _outcome_of(rows, fuel, straggler_cutoff=40)
    assert outcome.abandoned.any()
    assert outcome.lock_steps < fuel
    for row, (machine, tape) in enumerate(rows):
        if not outcome.abandoned[row]:
            _assert_row_matches(outcome, row, machine, tape, fuel)


# -- interning: equal jobs share one result object ---------------------------


def test_ensemble_interns_equal_jobs():
    machines = enumerate_machines(3, 40, seed=2)
    jobs = [(m, "") for m in machines] + [(machines[4], ""), (machines[8], "")]
    backend = EnsembleBackend(BUSYBEAVER)
    results = backend.execute(jobs, fuel=FUEL)
    assert results[40] is results[4]
    assert results[41] is results[8]
    assert backend.last_dispatch["unique_jobs"] == 40
    assert backend.last_dispatch["deduped"] == 2


# -- fallback routing --------------------------------------------------------


def test_ineligible_machines_fall_back_exactly():
    """Machines over the state cap mix into the family untouched: the
    ensemble runs what fits, the warm compiled path runs the rest."""
    jobs = family_jobs(3, 50, seed=6)
    backend = EnsembleBackend(BUSYBEAVER, max_states=2)  # 3-state: ineligible
    assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)
    assert backend.last_dispatch["fallback_jobs"] == 50
    assert backend.last_dispatch["ensemble_jobs"] == 0


def test_exotic_input_falls_back_exactly():
    """An input symbol outside the symbol budget keeps that one job on
    the fallback path while the rest of the family lock-steps."""
    jobs = family_jobs(2, 40, seed=8)
    exotic = [(jobs[0][0], "xyz")]
    backend = EnsembleBackend(BUSYBEAVER, max_symbols=2)
    got = backend.execute(jobs + exotic, fuel=FUEL)
    assert got == reference(BUSYBEAVER, jobs + exotic)
    assert backend.last_dispatch["fallback_jobs"] == 1
    assert backend.last_dispatch["ensemble_jobs"] == 40


def test_min_population_routes_small_batches_to_fallback():
    jobs = family_jobs(2, 30, seed=1)
    backend = EnsembleBackend(BUSYBEAVER, min_population=1000)
    assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)
    assert backend.last_dispatch["ensemble_jobs"] == 0
    assert backend.last_dispatch["fallback_jobs"] == 30


def test_straggler_cutoff_reruns_abandoned_rows_exactly():
    """An aggressive cutoff abandons the long tail mid-flight; the
    rerun through the per-machine path keeps results exact."""
    jobs = family_jobs(3, 80, seed=3)
    backend = EnsembleBackend(BUSYBEAVER, straggler_cutoff=40)
    assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)


def test_compiled_false_takes_the_reference_path():
    jobs = family_jobs(2, 30, seed=2)
    backend = EnsembleBackend(BUSYBEAVER)
    assert backend.execute(jobs, fuel=FUEL, compiled=False) == reference(
        BUSYBEAVER, jobs
    )
    assert backend.last_dispatch["ensemble_jobs"] == 0


def test_incapable_workload_rejected():
    from repro.runtime.workloads.machines import ENCODED_MACHINES

    with pytest.raises(TypeError):
        EnsembleBackend(ENCODED_MACHINES)


def test_spec_cache_warms_across_executes():
    jobs = family_jobs(2, 40, seed=5)
    backend = EnsembleBackend(BUSYBEAVER)
    first = backend.execute(jobs, fuel=FUEL)
    assert backend.last_cache_stats["misses"] == 40
    second = backend.execute(jobs, fuel=FUEL)
    assert second == first
    assert backend.last_cache_stats["hits"] == 40
    assert backend.last_cache_stats["misses"] == 0


# -- the engine's own guardrails ---------------------------------------------


def test_lower_machine_caps():
    big = {("S%d" % i, BLANK): ("S%d" % (i + 1), "1", "R") for i in range(10)}
    machine = TuringMachine(delta=big, initial="S0", accept_states=frozenset())
    with pytest.raises(EnsembleIneligible):
        lower_machine(machine, max_states=4)
    spec = lower_machine(machine)  # default caps admit it
    with pytest.raises(EnsembleIneligible):
        intern_input(spec, "abcdef", max_symbols=2)


# -- shared-memory transport -------------------------------------------------


def test_process_shards_byte_identical_with_zero_pickled_results():
    """The census comes home through shared memory: results are
    byte-identical to the serial ensemble and the pickle channel
    carries zero result payload."""
    jobs = family_jobs(3, 90, seed=10)
    serial = run_jobs("busybeaver", jobs, fuel=FUEL, backend="serial")
    backend = EnsembleProcessBackend(BUSYBEAVER)
    try:
        got = backend.execute(jobs, fuel=FUEL)
        assert pickle.dumps(got) == pickle.dumps(serial)
        dispatch = backend.last_dispatch
        assert dispatch["result_payload_bytes"] == 0
        assert dispatch["shm_bytes"] > 0
        assert dispatch["ensemble_jobs"] == 90
        # Duplicates are interned before sharding and share one object.
        dup = backend.execute(jobs + [jobs[3]], fuel=FUEL)
        assert dup[-1] is dup[3]
        assert backend.last_dispatch["deduped"] == 1
    finally:
        backend.close()


def test_process_shards_without_schema_pickle_results():
    """The machines adapter declares no fixed-width schema, so its
    results travel pickled — and the accounting says so."""
    jobs = family_jobs(2, 40, seed=12)
    serial = run_jobs("machines", jobs, fuel=FUEL, backend="serial")
    backend = EnsembleProcessBackend(MACHINES)
    try:
        got = backend.execute(jobs, fuel=FUEL)
        assert got == serial
        assert backend.last_dispatch["shm_bytes"] == 0
        assert backend.last_dispatch["result_payload_bytes"] > 0
    finally:
        backend.close()


def test_raw_submit_chunk_still_interns_duplicates():
    """A wrapper that does not intern (unsupervised chaos hands the
    whole batch to ``submit_chunk``) gets the same dedup as
    ``execute``: duplicates share one result object and tally as the
    in-process ensemble's hits."""
    jobs = family_jobs(2, 40, seed=12)
    jobs += [jobs[3], jobs[7]]
    local = EnsembleBackend(MACHINES)
    expected = local.execute(jobs, fuel=FUEL, compiled=True)
    backend = ChaosBackend(EnsembleProcessBackend(MACHINES, workers=1))
    try:
        got = backend.execute(jobs, fuel=FUEL, compiled=True)
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert got[40] is got[3]
        assert got[41] is got[7]
        for key in ("hits", "misses"):
            assert backend.last_cache_stats[key] == local.last_cache_stats[key]
    finally:
        backend.close()


# -- supervision and fault recovery ------------------------------------------


def test_supervised_ensemble_process_survives_crashes():
    """A killed shard recovers through SupervisedBackend: the pool
    restarts and the census is unchanged."""
    jobs = family_jobs(3, 60, seed=13)
    expected = run_jobs("busybeaver", jobs, fuel=FUEL, backend="ensemble")
    inner = ChaosBackend(
        EnsembleProcessBackend(BUSYBEAVER),
        schedule=ChaosSchedule(kinds={0: "crash"}),
    )
    backend = SupervisedBackend(
        inner=inner, policy=SupervisorPolicy(chunksize=30, max_chunk_retries=3)
    )
    try:
        got = backend.execute(jobs, fuel=FUEL)
        assert pickle.dumps(got) == pickle.dumps(expected)
        report = backend.last_report
        assert report.retries >= 1
        assert report.pool_restarts >= 1
        assert report.quarantined == []
    finally:
        backend.close()


def test_supervised_serial_ensemble_fault_free():
    jobs = family_jobs(2, 40, seed=14)
    backend = SupervisedBackend(
        inner=EnsembleBackend(BUSYBEAVER), policy=SupervisorPolicy(chunksize=20)
    )
    try:
        assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)
        assert backend.last_report.retries == 0
    finally:
        backend.close()


# -- the sweep front doors and observability ---------------------------------


def test_sweeps_default_to_ensemble_and_match_serial():
    machines = enumerate_machines(3, 60, seed=15)
    assert score_sweep(machines, fuel=FUEL) == score_sweep(
        machines, fuel=FUEL, backend="serial"
    )
    report = halting_survey(machines, fuel=FUEL, compiled=True)
    against = halting_survey(machines, fuel=FUEL, compiled=True, backend="serial")
    assert (report.halted, report.running) == (against.halted, against.running)
    assert report.total == 60


def test_ensemble_observability_counters():
    jobs = family_jobs(2, 40, seed=16)
    with observed() as obs:
        run_jobs("busybeaver", jobs, fuel=FUEL, backend="ensemble")
    assert obs.registry.total("ensemble_batches_total") == 1
    assert obs.registry.total("ensemble_machines_total") == 40
    assert obs.registry.total("ensemble_lock_steps_total") > 0
    assert obs.registry.total("ensemble_fallback_jobs_total") == 0
