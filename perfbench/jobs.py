"""Seeded job streams: the inputs every workload draws from.

Each stream hands out jobs no earlier call of the same stream has
handed out, so a run never times a job some backend instance could
already have memoised (the freshness guard re-checks this).  The
workload seed is the only source of randomness: the same seed gives
the same jobs in the same order.
"""

from __future__ import annotations

import random
from typing import Any

from repro.complexity.sat import CNF
from repro.machines.busybeaver import enumerate_machines
from repro.machines.turing import BLANK, binary_increment
from repro.machines.universal import encode_tm
from repro.runtime.workloads.complang import complang_job
from repro.runtime.workloads.sat import sat_job

#: Three MiniLang programs whose cost stays small for any ``n``.
COMPLANG_SOURCES = (
    "s = 0; k = n; while k > 0 { s = s + k % 10; k = k / 10; } print s;",
    "x = n * n + 1; print x;",
    "a = 0; b = 1; k = n % 20; while k > 0 { t = a + b; a = b; b = t; k = k - 1; } print a;",
)

TRIVIAL_FUEL = 2_000


def rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


class TapeStream:
    """Distinct binary tapes for one fixed machine (``machines`` kind)."""

    kind = "machines"

    def __init__(self, seed: int, name: str = "tapes", bits: int = 20) -> None:
        self._rng = rng(seed, name)
        self._bits = bits
        self._seen: set[str] = set()
        self.machine = binary_increment()

    def tape(self) -> str:
        while True:
            tape = format(self._rng.getrandbits(self._bits), f"0{self._bits}b")
            if tape not in self._seen:
                self._seen.add(tape)
                return tape

    def take(self, n: int) -> list[Any]:
        return [(self.machine, self.tape()) for _ in range(n)]


class EncodedStream(TapeStream):
    """One machine description, distinct tapes (``encoded_machines``)."""

    kind = "encoded_machines"

    def __init__(self, seed: int) -> None:
        super().__init__(seed, "encoded", bits=16)
        self.description = encode_tm(self.machine)

    def take(self, n: int) -> list[Any]:
        return [(self.description, self.tape()) for _ in range(n)]


class ComplangStream:
    """A few programs crossed with distinct ``n`` (``complang``)."""

    kind = "complang"

    def __init__(self, seed: int) -> None:
        self._rng = rng(seed, "complang")
        self._seen: set[tuple[int, int]] = set()

    def take(self, n: int) -> list[Any]:
        out = []
        while len(out) < n:
            program = self._rng.randrange(len(COMPLANG_SOURCES))
            value = self._rng.randrange(10**9)
            if (program, value) not in self._seen:
                self._seen.add((program, value))
                out.append(complang_job(COMPLANG_SOURCES[program], {"n": value}))
        return out


class SatStream:
    """Distinct seeded small random 3-SAT formulas near the phase
    transition (``sat``): 8-12 variables, 4.2 clauses per variable."""

    kind = "sat"

    def __init__(self, seed: int) -> None:
        self._rng = rng(seed, "sat")
        self._seen: set = set()

    def formula(self) -> CNF:
        variables = self._rng.randrange(8, 13)
        clauses = []
        for _ in range(round(4.2 * variables)):
            chosen = self._rng.sample(range(1, variables + 1), 3)
            clauses.append(tuple(v if self._rng.random() < 0.5 else -v for v in chosen))
        return CNF.of(clauses)

    def take(self, n: int) -> list[Any]:
        out = []
        while len(out) < n:
            formula = self.formula()
            if formula not in self._seen:
                self._seen.add(formula)
                out.append(sat_job(formula))
        return out


class CensusStream:
    """Distinct busy-beaver candidates with ``states`` states (``busybeaver``).

    ``take(n, instant=True)`` draws candidates that halt on their first
    step (``A`` on a blank goes to the halt state): a request whose
    compute is negligible, so its latency is the path it takes.
    """

    kind = "busybeaver"

    def __init__(self, seed: int, states: int, name: str = "census") -> None:
        self._rng = rng(seed, f"{name}{states}")
        self._states = states
        self._seen: set = set()
        self._buffers: dict[bool, list[Any]] = {False: [], True: []}

    @staticmethod
    def key(machine) -> tuple:
        return tuple(sorted(machine.delta.items()))

    def take(self, n: int, *, instant: bool = False) -> list[Any]:
        buffer = self._buffers[instant]
        while len(buffer) < n:
            draw = enumerate_machines(self._states, 256, seed=self._rng.getrandbits(32))
            for machine in draw:
                key = self.key(machine)
                if key in self._seen:
                    continue
                if instant and machine.delta[("A", BLANK)][0] != "Z":
                    continue
                self._seen.add(key)
                buffer.append((machine, ""))
        out, self._buffers[instant] = buffer[:n], buffer[n:]
        return out
