"""Turing machines as a runtime workload — the founding adapter.

``MACHINES`` is the adapter the whole batch stack was extracted from:
programs are :class:`~repro.machines.turing.TuringMachine` instances,
inputs are tapes, ``prepare`` lowers through
:func:`repro.perf.engine.compile_tm` and ``run_direct`` is the
reference interpreter — so ``run_jobs("machines", jobs)`` returns
byte-identical results to ``machine.run(tape)``, compiled or through
the fallback, by construction.

``ENCODED_MACHINES`` is the same machine family one abstraction level
down: programs are *description strings* in the universal machine's
encoding, so the content key is the description itself and ``prepare``
pays decode+compile once per distinct description — the amortisation
:class:`repro.machines.universal.UniversalMachine` wants when replaying
one program over many inputs.
"""

from __future__ import annotations

from typing import Any

from repro.machines.turing import TMResult, TuringMachine
from repro.perf.engine import compile_tm, program_key
from repro.runtime.workload import WorkloadBase, register_workload

__all__ = ["MachineWorkload", "EncodedMachineWorkload", "MACHINES", "ENCODED_MACHINES"]


class MachineWorkload(WorkloadBase):
    """(TuringMachine, tape) jobs through the compiled engine."""

    kind = "machines"
    result_type = TMResult

    def program_key(self, program: TuringMachine) -> Any:
        return program_key(program)

    def prepare(self, program: TuringMachine):
        return compile_tm(program)  # ValueError for uncompilable alphabets

    def execute(self, resident, input: str, fuel: int) -> TMResult:
        return resident.run(input, fuel=fuel)

    def run_direct(self, program: TuringMachine, input: str, fuel: int) -> TMResult:
        return program.run(input, fuel=fuel)

    def cost(self, result: TMResult) -> float:
        return result.steps

    # -- EnsembleCapable -----------------------------------------------------
    # Full TMResults carry rendered tapes (variable width), so there is
    # no fixed-width shm schema: ``ensemble_fields() is None`` keeps
    # the process backend on the pickled result channel for this
    # adapter, while the in-process ensemble still lock-steps the
    # family.

    def ensemble_program(self, program: TuringMachine) -> TuringMachine:
        return program

    def ensemble_results(self, outcome) -> list[TMResult]:
        return [
            TMResult(
                halted=h,
                accepted=a,
                steps=s,
                tape=outcome.tape_string(row),
                final_state=outcome.state_name(row),
            )
            for row, (h, a, s) in enumerate(
                zip(
                    outcome.halted.tolist(),
                    outcome.accepted.tolist(),
                    outcome.steps.tolist(),
                )
            )
        ]

    def ensemble_fields(self) -> None:
        return None

    def ensemble_pack(self, outcome):  # pragma: no cover - no schema
        raise NotImplementedError("machines results have no fixed-width schema")

    def ensemble_unpack(self, arrays):  # pragma: no cover - no schema
        raise NotImplementedError("machines results have no fixed-width schema")


class EncodedMachineWorkload(WorkloadBase):
    """(description, tape) jobs: decode once, compile once, run many.

    The description string *is* the program key — two equal strings
    decode to equal machines.  ``decode_tm`` is imported inside the
    hooks because :mod:`repro.machines.universal` routes its cache
    through this adapter.
    """

    kind = "encoded_machines"
    result_type = TMResult

    def prepare(self, description: str):
        from repro.machines.universal import decode_tm

        return compile_tm(decode_tm(description))

    def execute(self, resident, input: str, fuel: int) -> TMResult:
        return resident.run(input, fuel=fuel)

    def run_direct(self, description: str, input: str, fuel: int) -> TMResult:
        from repro.machines.universal import decode_tm

        return decode_tm(description).run(input, fuel=fuel)

    def cost(self, result: TMResult) -> float:
        return result.steps


MACHINES = register_workload(MachineWorkload())
ENCODED_MACHINES = register_workload(EncodedMachineWorkload())
