"""The compiled machine engine (paper §1a refinement, §2a multicore).

The reference interpreters in :mod:`repro.machines` and
:mod:`repro.core.statemachine` are the *specification*: readable,
dict-of-strings, one small step at a time.  This package is their
*refinement*: :mod:`repro.perf.engine` compiles a machine into dense
integer tables (states and symbols interned to small ints, transitions
flattened into flat lists, the tape a growable ``bytearray``) and runs
a tight hot loop that is step-for-step equivalent to the reference —
the equivalence is property-tested, which is what licenses the speed.

Batches of jobs run through :mod:`repro.runtime`, the workload-generic
execution layer every subsystem shares: ``run_jobs("machines", jobs)``
amortises compilation with resident program tables and can use every
core.
"""

from repro.perf.engine import (
    CompiledDFA,
    CompiledMachine,
    CompiledStateMachine,
    CompiledTM,
    compile_dfa,
    compile_machine,
    compile_statemachine,
    compile_tm,
    run_compiled,
)

__all__ = [
    "CompiledMachine",
    "CompiledTM",
    "CompiledDFA",
    "CompiledStateMachine",
    "compile_machine",
    "compile_tm",
    "compile_dfa",
    "compile_statemachine",
    "run_compiled",
]
