"""Tests for the workload-generic runtime core: the adapter registry,
backend factories/resolution, interning, the resident cache, and the
``runtime_*`` observability surface.

The adapter machinery is exercised through a tiny self-contained test
workload so these tests pin the *generic* contracts; the real adapters
(machines, complang, sat, busybeaver) get their exact-equality property
tests in ``test_runtime_workloads.py``.
"""

import pickle

import pytest

from repro.obs.instrument import KNOWN_METRICS, observed
from repro.runtime import (
    ProcessBackend,
    ResidentCache,
    SerialBackend,
    create_backend,
    intern_jobs,
    resolve_backend,
    run_job_loop,
    run_jobs,
)
from repro.runtime.workload import (
    Workload,
    WorkloadBase,
    get_workload,
    register_workload,
)


class ScaleResult:
    """A fresh object per execution, so sharing is observable by identity."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other) -> bool:
        return isinstance(other, ScaleResult) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


class ScaleWorkload(WorkloadBase):
    """Programs are integer scale factors; ``prepare`` doubles them so
    the compiled path is distinguishable from ``run_direct``'s maths."""

    kind = "scale-test"
    result_type = ScaleResult

    def prepare(self, program: int) -> int:
        if program < 0:
            raise ValueError("negative scales are unpreparable")
        return program * 2

    def execute(self, resident: int, input: int, fuel: int) -> ScaleResult:
        return ScaleResult(resident * input)

    def run_direct(self, program: int, input: int, fuel: int) -> ScaleResult:
        return ScaleResult(program * 2 * input)


SCALE = ScaleWorkload()


# -- the adapter registry ----------------------------------------------------


def test_get_workload_resolves_every_builtin_kind():
    for kind in ("machines", "encoded_machines", "complang", "sat", "busybeaver"):
        workload = get_workload(kind)
        assert workload.kind == kind
        assert isinstance(workload, Workload)  # runtime-checkable protocol
        assert get_workload(kind) is workload  # registry caches the singleton


def test_get_workload_unknown_kind_lists_choices():
    with pytest.raises(ValueError, match="unknown workload 'starfleet'"):
        get_workload("starfleet")
    with pytest.raises(ValueError, match="machines"):
        get_workload("starfleet")


def test_register_workload_roundtrip():
    register_workload(SCALE)
    assert get_workload("scale-test") is SCALE


def test_workload_base_defaults():
    class Plain(WorkloadBase):
        kind = "plain-test"

        def execute(self, resident, input, fuel):
            return (resident, input)

    plain = Plain()
    assert plain.program_key("p") == "p"  # the program is its own key
    assert plain.content_key(("p", "x")) == ("p", "x")
    assert plain.prepare("p") == "p"
    assert plain.run_direct("p", "x", 9) == ("p", "x")
    assert plain.cost(object()) == 1.0
    assert plain.valid_result("anything") and not plain.valid_result(None)
    # result_type sharpens valid_result into an isinstance check.
    assert SCALE.valid_result(ScaleResult(1)) and not SCALE.valid_result("fake")


# -- backend factory and resolution ------------------------------------------


def test_create_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend 'quantum'"):
        create_backend("quantum")


def test_create_backend_defaults_to_machines_workload():
    backend = create_backend()
    assert isinstance(backend, SerialBackend)
    assert backend.workload.kind == "machines"


def test_create_backend_accepts_workload_by_kind_or_instance():
    by_name = create_backend("serial", workload="sat")
    assert by_name.workload.kind == "sat"
    by_instance = create_backend("serial", workload=SCALE)
    assert by_instance.workload is SCALE


def test_resolve_backend_name_is_owned():
    backend, owned = resolve_backend("serial", workload=SCALE)
    assert owned and isinstance(backend, SerialBackend)
    assert backend.workload is SCALE


def test_resolve_backend_instance_passes_through_unowned():
    mine = SerialBackend(SCALE)
    backend, owned = resolve_backend(mine)
    assert backend is mine and not owned


def test_resolve_backend_rejects_kwargs_with_instance():
    with pytest.raises(ValueError, match="backend kwargs only apply"):
        resolve_backend(SerialBackend(SCALE), workers=2)


# -- interning ---------------------------------------------------------------


def test_intern_jobs_dedups_by_content():
    jobs = [(3, 1), (4, 1), (3, 1), (3, 2), (4, 1)]
    unique, slots, keys = intern_jobs(SCALE, jobs)
    assert unique == [(3, 1), (4, 1), (3, 2)]
    assert slots == [0, 1, 0, 2, 1]
    assert keys == [3, 4, 3]
    for job, s in zip(jobs, slots):
        assert unique[s] == job


def test_intern_jobs_empty():
    assert intern_jobs(SCALE, []) == ([], [], [])


# -- the resident cache ------------------------------------------------------


def test_resident_cache_hit_miss_and_lru_eviction():
    cache = ResidentCache(SCALE, maxsize=2)
    assert cache.get(3) == 6 and cache.misses == 1
    assert cache.get(3) == 6 and cache.hits == 1
    cache.get(4)
    cache.get(5)  # evicts 3 (least recently used)
    assert len(cache) == 2
    cache.get(3)
    assert cache.misses == 4  # 3, 4, 5, and 3 again after eviction
    assert cache.stats() == {"hits": 1, "misses": 4, "size": 2}


def test_resident_cache_absorb_folds_counters_not_size():
    cache = ResidentCache(SCALE)
    cache.get(2)
    cache.absorb({"hits": 5, "misses": 7, "size": 99})
    assert cache.stats() == {"hits": 5, "misses": 8, "size": 1}


def test_resident_cache_rejects_bad_maxsize():
    with pytest.raises(ValueError, match="maxsize"):
        ResidentCache(SCALE, maxsize=0)


def test_resident_cache_lets_prepare_raise():
    cache = ResidentCache(SCALE)
    with pytest.raises(ValueError, match="unpreparable"):
        cache.get(-1)
    assert cache.misses == 1  # the failed probe still counted


def test_run_job_loop_falls_back_to_run_direct_on_unpreparable():
    jobs = [(3, 2), (-3, 2)]  # -3 is unpreparable: ValueError from prepare
    results = run_job_loop(SCALE, jobs, 10, True)
    assert results == [ScaleResult(12), ScaleResult(-12)]


# -- run_jobs: semantics -----------------------------------------------------


def test_run_jobs_matches_run_direct_and_shares_duplicates():
    jobs = [(2, 5), (3, 5), (2, 5), (2, 7)]
    results = run_jobs(SCALE, jobs, backend="serial")
    assert results == [SCALE.run_direct(p, x, 10_000) for p, x in jobs]
    assert results[0] is results[2]  # interned duplicates share one object
    assert results[0] is not results[3]


def test_run_jobs_accepts_workload_by_kind():
    from repro.machines.turing import binary_increment

    machine = binary_increment()
    results = run_jobs("machines", [(machine, "101")])
    assert results == [machine.run("101", fuel=10_000)]


def test_run_jobs_uncompiled_uses_run_direct():
    results = run_jobs(SCALE, [(2, 5)], compiled=False)
    assert results == [ScaleResult(20)]


def test_run_jobs_reuses_caller_backend_without_closing_it():
    backend = SerialBackend(SCALE)
    run_jobs(SCALE, [(2, 1)], backend=backend)
    assert backend.last_dispatch["jobs"] == 1  # same instance did the work


def test_run_jobs_shared_cache_carries_residents_across_calls():
    cache = ResidentCache(SCALE)
    run_jobs(SCALE, [(2, 1)], cache=cache)
    run_jobs(SCALE, [(2, 9)], cache=cache)
    assert cache.hits == 1 and cache.misses == 1


# -- run_jobs: observability -------------------------------------------------


def test_runtime_metrics_are_registered():
    for name in ("runtime_jobs_total", "runtime_unique_jobs_total", "runtime_cost_total"):
        assert name in KNOWN_METRICS
        kind, help_text = KNOWN_METRICS[name]
        assert kind == "counter" and help_text


def test_run_jobs_emits_workload_labelled_metrics():
    jobs = [(2, 5), (3, 5), (2, 5)]
    with observed() as obs:
        run_jobs(SCALE, jobs, backend="serial")
    reg = obs.registry
    labels = {"workload": "scale-test", "backend": "serial"}
    assert reg.value("runtime_jobs_total", **labels) == 3
    assert reg.value("runtime_unique_jobs_total", **labels) == 2
    assert reg.value("runtime_cost_total", **labels) == 3.0  # cost defaults to 1/job


def test_run_jobs_emits_dispatch_summary_event_with_workload():
    with observed() as obs:
        run_jobs(SCALE, [(2, 5), (2, 5)], backend="serial")
    (tree,) = [t for t in obs.tracer.span_trees() if t["name"] == "runtime.run_jobs"]
    assert tree["attributes"]["workload"] == "scale-test"
    assert tree["attributes"]["backend"] == "serial"
    events = [e for e in tree["events"] if e["name"] == "runtime.dispatch_summary"]
    assert len(events) == 1
    attrs = events[0]["attributes"]
    assert attrs["workload"] == "scale-test"
    assert attrs["jobs"] == 2 and attrs["unique_jobs"] == 1 and attrs["deduped"] == 1


# -- the process backend, generically ----------------------------------------


def test_process_backend_binds_workload_and_matches_serial():
    jobs = [(2, i % 3) for i in range(8)] + [(5, 4), (2, 1)]
    expected = run_jobs(SCALE, jobs, backend="serial")
    backend = ProcessBackend(SCALE, workers=2)
    try:
        backend.warm(jobs=jobs)
        assert backend.workload is SCALE
        got = run_jobs(SCALE, jobs, backend=backend)
        assert got == expected
        # Warm memo: the second call never touches the pool.
        again = run_jobs(SCALE, jobs, backend=backend)
        assert again == expected
        assert backend.last_dispatch["warm_hits"] == len(jobs)
    finally:
        backend.close()


def test_supervised_backend_by_name_carries_workload():
    backend = create_backend("supervised", workload=SCALE, inner="serial")
    try:
        assert backend.workload is SCALE
        jobs = [(2, 3), (2, 3), (4, 1)]
        assert backend.execute(jobs, fuel=10, compiled=True, cache=None) == [
            ScaleResult(12),
            ScaleResult(12),
            ScaleResult(8),
        ]
    finally:
        backend.close()


# -- the one chunk entry point: serial and process settle alike -------------


def _weird_machine_chunk():
    from repro.machines.turing import TuringMachine, binary_increment

    symbols = [chr(0x100 + i) for i in range(300)]  # too wide to compile
    weird = TuringMachine({("s", c): ("s", c, "R") for c in symbols}, "s")
    return [(weird, symbols[0] * 2), (binary_increment(), "11"), (weird, symbols[0])]


SUBMIT_CHUNKS = [
    pytest.param(SCALE, [(2, 1), (3, 4), (2, 5), (2, 1)], True, (2, 2), id="duplicate"),
    pytest.param(SCALE, [(-2, 3), (4, 1), (-2, 5)], True, (1, 2), id="unpreparable"),
    pytest.param(SCALE, [(2, 1), (-2, 3), (2, 1)], False, (0, 0), id="direct"),
    pytest.param("machines", _weird_machine_chunk(), True, (1, 2), id="machines"),
]


@pytest.mark.parametrize("workload,chunk,compiled,tally", SUBMIT_CHUNKS)
def test_serial_and_process_submit_chunk_settle_alike(workload, chunk, compiled, tally):
    """Both backends run a chunk through the one worker entry point, so
    duplicate and unpreparable programs tally the same way: one miss
    per distinct program, a hit for every later job of it."""
    workload = get_workload(workload) if isinstance(workload, str) else workload
    serial = SerialBackend(workload).submit_chunk(chunk, fuel=50, compiled=compiled)
    backend = ProcessBackend(workload, workers=1)
    try:
        pooled = backend.submit_chunk(chunk, fuel=50, compiled=compiled).result()
    finally:
        backend.close()
    results, stats, _ = serial.result()
    assert pickle.dumps(results) == pickle.dumps(pooled[0])
    assert (stats["hits"], stats["misses"]) == (pooled[1]["hits"], pooled[1]["misses"]) == tally


# -- composite chain validation (full-chain error naming, ordering) ----------


def test_composite_error_names_full_requested_chain():
    """A typo deep in a chain points at the string the caller wrote."""
    with pytest.raises(ValueError, match=r"'journaled:supervised:dost'"):
        create_backend("journaled:supervised:dost", workload="machines")
    with pytest.raises(ValueError, match=r"'process:serial'"):
        create_backend("process:serial", workload="machines")


def test_supervised_cannot_wrap_another_wrapper():
    """Ordering matters: 'supervised' drives submit_chunk, which the
    wrapper backends do not expose — the error spells out the fix."""
    with pytest.raises(ValueError) as err:
        create_backend("supervised:journaled", workload="machines")
    message = str(err.value)
    assert "'supervised:journaled'" in message  # the full requested chain
    assert "journaled:supervised:" in message  # the valid ordering


def test_journaled_supervised_dist_chain_composes(tmp_path):
    jobs = [(3, 2), (4, 1), (3, 2), (5, 5)]
    expected = run_jobs(SCALE, jobs, backend="serial")
    backend = create_backend(
        "journaled:supervised:dist",
        workload=SCALE,
        journal_dir=tmp_path,
        nodes=2,
        topology="single_node",
        workers_per_node=0,
    )
    try:
        assert run_jobs(SCALE, jobs, backend=backend) == expected
    finally:
        backend.close()


# -- idempotent close across every backend -----------------------------------

CLOSE_SPECS = [
    pytest.param("serial", {}, id="serial"),
    pytest.param("process", {"workers": 2}, id="process"),
    pytest.param("supervised", {"inner": "serial"}, id="supervised"),
    pytest.param("ensemble", {}, id="ensemble"),
    pytest.param("ensemble_process", {"workers": 2}, id="ensemble_process"),
    pytest.param("journaled:serial", {}, id="journaled"),
    pytest.param(
        "dist",
        {"nodes": 2, "topology": "single_node", "workers_per_node": 0},
        id="dist",
    ),
]


@pytest.mark.parametrize("spec,kwargs", CLOSE_SPECS)
def test_backend_close_is_idempotent(spec, kwargs, tmp_path):
    if spec.startswith("journaled"):
        kwargs = dict(kwargs, journal_dir=tmp_path)
    backend = create_backend(spec, workload="machines", **kwargs)
    backend.close()
    backend.close()  # double close is a no-op by the shared guard


def test_process_backend_close_execute_close_reopens():
    """The close guard resets when the pool lazily rebuilds."""
    from repro.machines.turing import binary_increment

    backend = create_backend("process", workload="machines", workers=2)
    jobs = [(binary_increment(), "11")]
    try:
        backend.close()
        first = backend.execute(jobs, fuel=1_000, compiled=True)
        backend.close()  # must actually release the rebuilt pool
        again = backend.execute(jobs, fuel=1_000, compiled=True)
        assert [r.tape for r in again] == [r.tape for r in first]
    finally:
        backend.close()
