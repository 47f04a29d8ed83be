"""The workload-generic runtime: one execution waist for every subsystem.

The repo's fastest, most robust execution path — payload interning,
warm process pools, adaptive work-stealing dispatch, supervision —
used to be monomorphic over Turing-machine jobs.  This package is that
stack lifted to a narrow waist: any subsystem that runs pure
``(program, input)`` jobs plugs in through a small
:class:`~repro.runtime.workload.Workload` adapter and gets the whole
stack unchanged.

    from repro.runtime import run_jobs
    results = run_jobs("complang", jobs, backend="process")

Turing machines are the ``"machines"`` workload like any other
(``run_jobs("machines", jobs)``); the adapters live in
:mod:`repro.runtime.workloads`.
"""

from repro.runtime.core import (
    BACKENDS,
    Backend,
    ProcessBackend,
    ProgramNotResident,
    ResidentCache,
    SerialBackend,
    create_backend,
    intern_jobs,
    resolve_backend,
    run_job_loop,
    run_jobs,
)
from repro.runtime.workload import (
    Job,
    Workload,
    WorkloadBase,
    get_workload,
    register_workload,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "EnsembleBackend",
    "EnsembleCapable",
    "EnsembleProcessBackend",
    "Job",
    "JobFuture",
    "Journal",
    "JournaledBackend",
    "ProcessBackend",
    "ProgramNotResident",
    "ResidentCache",
    "Scheduler",
    "SerialBackend",
    "Session",
    "Workload",
    "WorkloadBase",
    "create_backend",
    "get_workload",
    "intern_jobs",
    "open_session",
    "register_workload",
    "resolve_backend",
    "run_job_loop",
    "run_jobs",
]

# The ensemble layer pulls in numpy and the journal layer pulls in the
# recovery scanner; resolve both sets of exports lazily so `import
# repro.runtime` stays as cheap as the workload registry's lazy
# imports promise.
_ENSEMBLE_EXPORTS = frozenset(
    {"EnsembleBackend", "EnsembleCapable", "EnsembleProcessBackend"}
)
_JOURNAL_EXPORTS = frozenset({"Journal", "JournaledBackend"})
_SESSION_EXPORTS = frozenset({"JobFuture", "Scheduler", "Session", "open_session"})


def __getattr__(name: str):
    if name in _ENSEMBLE_EXPORTS:
        from repro.runtime import ensemble

        return getattr(ensemble, name)
    if name in _JOURNAL_EXPORTS:
        from repro.runtime import journal

        return getattr(journal, name)
    if name in _SESSION_EXPORTS:
        from repro.runtime import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
