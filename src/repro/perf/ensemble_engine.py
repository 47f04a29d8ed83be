"""Lock-step numpy execution of whole Turing-machine populations.

The compiled engine (:mod:`repro.perf.engine`) makes *one* machine
fast; the paper's "what is computable?" exemplars — busy-beaver
censuses, fuel-bounded halting surveys — run *millions of small
machines*, and there the per-machine Python overhead (a ``program_key``
sort, a ``compile_tm`` table build, a result object) dominates the
actual stepping.  This module turns the population itself into the
unit of execution:

* every machine's transition table is lowered into one shared flat
  int64 code table ``table[(row * states + state) * symbols + symbol]``;
  an entry packs the write byte in its low byte, ``move + 1`` above
  it and, from bit 10 up, the flat offset of the *next state's row*,
  so one add of the read symbol finds the next code; ``-1`` means
  "no rule / halting state" (the same all-``None``-row trick
  :class:`~repro.perf.engine.CompiledTM` uses);
* the population's live state is three compacted vectors — row ids,
  current state-row offsets and flat tape positions
  (``row * width + head``) into a shared growable tape *window*
  ``tape[pop, W]`` of interned symbol bytes;
* one survey step is a handful of flat operations across the whole
  live population: ``take`` the read symbols, add, ``take`` the codes,
  a ``min()`` test that settles the halters, a scatter of the write
  bytes, and shifts for the move and the next state.  Halted and
  escaped machines are masked out of the live vectors so later lock
  steps touch only the survivors.  A head moves at most one cell per
  step, so the window bounds are checked only once the slack measured
  at the last check is used up; when a live head is off an edge the
  window is reallocated (amortised doubling, like the compiled
  engine's segmented tape) on exactly the step the per-step check
  would have.

Equivalence contract: for every machine in the family and every input,
the outcome row is *identical* to ``machine.run(input, fuel=fuel)`` —
the same honest halted / still-running trichotomy, the same step
count, the same rendered tape and final state.  The property tests in
``tests/test_runtime_ensemble.py`` check this against both the
reference interpreter and the compiled per-machine path over
randomized enumerated families, including machines that escape the
initial window and machines that never halt under the fuel bound, and
row by row against each machine's own ``run`` over a family that mixes
state counts, out-of-alphabet (and non-ASCII) input symbols and a row
that halts on the step its head first leaves the window.

A machine is *ensemble-eligible* when its states and its (input-
extended) alphabet fit the family's caps; :exc:`EnsembleIneligible`
routes the rest back to the per-machine warm path.  Long-tail
stragglers can be abandoned mid-flight (``straggler_cutoff``): the
survivors' partial work is discarded and the caller reruns them
through the per-machine path, so macro-step acceleration — which the
lock-step loop deliberately does not replicate — still covers lone
spinners under huge fuels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.machines.turing import BLANK, MOVE_OFFSET, TuringMachine
from repro.perf.engine import _render

__all__ = [
    "EnsembleIneligible",
    "MachineSpec",
    "EnsembleFamily",
    "EnsembleOutcome",
    "lower_machine",
    "compile_family",
    "run_family",
]

# Hard ceiling: tape cells are uint8, so a row's alphabet (including
# symbols interned from the input at load time) can never exceed 256.
_MAX_SYMBOLS = 256

# Initial padding on each side of the widest input; the window doubles
# on a boundary hit, so a small margin only costs a few reallocations.
_PAD = 16


class EnsembleIneligible(ValueError):
    """This job cannot join the lock-step family (caps, types); run it
    through the per-machine path instead."""


@dataclass
class MachineSpec:
    """One machine lowered for ensemble packing, cached per program.

    Everything stays in plain Python lists: a census lowers tens of
    thousands of machines and per-machine numpy small-array
    construction costs more than the lock-step run itself.
    :func:`compile_family` concatenates the lists across the family
    and stamps every rule with *one* fancy-index scatter.  Interning
    mirrors :func:`repro.perf.engine.compile_tm` (sorted states,
    ``BLANK`` first then sorted symbols) so the two paths agree cell
    for cell.
    """

    state_names: list[str]
    symbol_names: list[str]
    symbol_ids: dict[str, int]
    initial_id: int
    accept_ids: list[int]    # state ids flagged accepting
    rule_states: list[int]   # parallel per-rule scatter coordinates
    rule_symbols: list[int]
    rule_codes: list[int]    # packed (next+1)<<16 | write<<8 | move+1

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_symbols(self) -> int:
        return len(self.symbol_names)


def lower_machine(
    machine: TuringMachine, *, max_states: int = 64, max_symbols: int = 32
) -> MachineSpec:
    """Lower one machine into a family-row spec.

    Raises :exc:`EnsembleIneligible` when the machine exceeds the
    family caps — the caller keeps it on the per-machine path.
    """
    if not isinstance(machine, TuringMachine):
        raise EnsembleIneligible(f"not a TuringMachine: {type(machine).__name__}")
    delta = machine.delta
    states = {machine.initial}
    states.update(machine.accept_states)
    states.update(machine.reject_states)
    symbols = {BLANK}
    for (s, sym), (t, wsym, _) in delta.items():
        states.add(s)
        states.add(t)
        symbols.add(sym)
        symbols.add(wsym)
    if len(states) > max_states:
        raise EnsembleIneligible(
            f"{len(states)} states exceeds the ensemble cap {max_states}"
        )
    state_names = sorted(states)
    state_ids = {s: i for i, s in enumerate(state_names)}
    symbols.discard(BLANK)
    symbol_names = [BLANK] + sorted(symbols)
    if len(symbol_names) > min(max_symbols, _MAX_SYMBOLS):
        raise EnsembleIneligible(
            f"{len(symbol_names)} symbols exceeds the ensemble cap {max_symbols}"
        )
    symbol_ids = {c: i for i, c in enumerate(symbol_names)}
    halting = machine.accept_states | machine.reject_states
    rule_states: list[int] = []
    rule_symbols: list[int] = []
    rule_codes: list[int] = []
    for (s, sym), (t, wsym, move) in delta.items():
        if s in halting:
            continue  # the reference checks halt states before rules
        rule_states.append(state_ids[s])
        rule_symbols.append(symbol_ids[sym])
        rule_codes.append(
            ((state_ids[t] + 1) << 16) | (symbol_ids[wsym] << 8) | (MOVE_OFFSET[move] + 1)
        )
    return MachineSpec(
        state_names=state_names,
        symbol_names=symbol_names,
        symbol_ids=symbol_ids,
        initial_id=state_ids[machine.initial],
        accept_ids=[state_ids[s] for s in machine.accept_states if s in state_ids],
        rule_states=rule_states,
        rule_symbols=rule_symbols,
        rule_codes=rule_codes,
    )


def intern_input(spec: MachineSpec, tape_input: str, *, max_symbols: int = 32) -> list[str]:
    """Input symbols outside the machine's alphabet, in first-seen order.

    They intern to fresh ids past the machine's table (no rules, so
    reading one halts — exactly the reference's ``delta.get`` miss) but
    must survive onto the rendered tape.  Raises
    :exc:`EnsembleIneligible` when the extended alphabet overflows the
    family cap.
    """
    if not isinstance(tape_input, str):
        raise EnsembleIneligible(f"ensemble input must be str, not {type(tape_input).__name__}")
    extras = [c for c in dict.fromkeys(tape_input) if c not in spec.symbol_ids]
    if spec.n_symbols + len(extras) > min(max_symbols, _MAX_SYMBOLS):
        raise EnsembleIneligible("input symbols overflow the ensemble alphabet cap")
    return extras


@dataclass
class EnsembleFamily:
    """A whole population compiled into flat lock-step arrays.

    ``table`` is one 1-D int64 code table: row ``e``'s state ``q``
    reading symbol ``c`` sits at ``(e * n_states + q) * n_symbols + c``.
    An entry packs ``next << 10 | (move + 1) << 8 | write``, where
    ``next`` is the flat offset of the next state's row, so stepping
    never re-derives a row's base; ``-1`` means "halt / no rule".
    ``accept`` is indexed by ``e * n_states + q`` (a row offset divided
    by ``n_symbols``).

    Single-use: :func:`run_family` consumes ``tape`` in place.
    """

    table: np.ndarray        # (E*S*K,) int64 flat codes; -1 = halt/no rule
    accept: np.ndarray       # (E*S,) bool
    initial: np.ndarray      # (E,) int32 initial state ids
    tape: np.ndarray         # (E, W) uint8 window, blank == 0
    head: np.ndarray         # (E,) int64 window positions
    n_states: int            # S: the widest row's state count
    n_symbols: int           # K: the widest row's alphabet, input extras included
    state_names: list[list[str]]
    names: list[list[str]]   # per-row symbol names, input extras included

    @property
    def population(self) -> int:
        return self.initial.shape[0]


# Bit layout of a flat code: write byte, then move + 1, then the next
# state's row offset.
_MOVE_SHIFT = 8
_NEXT_SHIFT = 10


def compile_family(
    entries: list[tuple[MachineSpec, list[str], str]]
) -> EnsembleFamily:
    """Stack ``(spec, input_extras, input)`` rows into one family.

    One scatter stamps every machine's rules into the shared flat code
    table; inputs are interned into the initial tape window with a
    shared left/right margin.
    """
    pop = len(entries)
    n_states = max(spec.n_states for spec, _, _ in entries)
    n_symbols = max(spec.n_symbols + len(extras) for spec, extras, _ in entries)
    table = np.full(pop * n_states * n_symbols, -1, dtype=np.int64)
    accept = np.zeros(pop * n_states, dtype=bool)
    initial_ids: list[int] = []
    state_names: list[list[str]] = []
    names: list[list[str]] = []

    # Flat Python accumulation + one materialisation per axis + one
    # scatter: at census scale this is ~3x cheaper than building
    # per-machine arrays and concatenating them.
    r_counts: list[int] = []
    r_states: list[int] = []
    r_symbols: list[int] = []
    r_codes: list[int] = []
    a_rows: list[int] = []
    a_states: list[int] = []
    for e, (spec, extras, _) in enumerate(entries):
        initial_ids.append(spec.initial_id)
        state_names.append(spec.state_names)
        names.append(spec.symbol_names + extras if extras else spec.symbol_names)
        r_counts.append(len(spec.rule_codes))
        r_states.extend(spec.rule_states)
        r_symbols.extend(spec.rule_symbols)
        r_codes.extend(spec.rule_codes)
        if spec.accept_ids:
            a_rows.extend([e] * len(spec.accept_ids))
            a_states.extend(spec.accept_ids)
    if r_codes:
        n = len(r_codes)
        rows = np.repeat(np.arange(0, pop * n_states, n_states, dtype=np.int64), r_counts)
        packed = np.fromiter(r_codes, dtype=np.int64, count=n)
        next_row = (rows + (packed >> 16) - 1) * n_symbols
        slot = (rows + np.fromiter(r_states, dtype=np.int64, count=n)) * n_symbols
        table[slot + np.fromiter(r_symbols, dtype=np.int64, count=n)] = (
            (next_row << _NEXT_SHIFT) | ((packed & 0xFF) << _MOVE_SHIFT) | ((packed >> 8) & 0xFF)
        )
    if a_rows:
        accept[np.array(a_rows, dtype=np.int64) * n_states + np.array(a_states, dtype=np.int64)] = True
    initial = np.array(initial_ids, dtype=np.int32)

    width = max(len(tape_input) for _, _, tape_input in entries)
    tape = np.zeros((pop, width + 2 * _PAD), dtype=np.uint8)
    head = np.full(pop, _PAD, dtype=np.int64)
    for e, (spec, extras, tape_input) in enumerate(entries):
        if not tape_input:
            continue
        ids = dict(spec.symbol_ids)
        for i, c in enumerate(extras):
            ids[c] = spec.n_symbols + i
        tape[e, _PAD : _PAD + len(tape_input)] = [ids[c] for c in tape_input]
    return EnsembleFamily(
        table=table,
        accept=accept,
        initial=initial,
        tape=tape,
        head=head,
        n_states=n_states,
        n_symbols=n_symbols,
        state_names=state_names,
        names=names,
    )


# Rows per block of the sigma count: bounds its boolean temporary to
# about 1 MiB whatever the window width.
_COUNT_CELLS = 1 << 20


@dataclass
class EnsembleOutcome:
    """Per-row outcomes plus lazy decoders for tapes and state names.

    Rows flagged ``abandoned`` hit the straggler cutoff: their
    ``halted``/``steps`` values are meaningless and the caller must
    rerun them from scratch through the per-machine path.
    """

    family: EnsembleFamily
    halted: np.ndarray       # (E,) bool
    accepted: np.ndarray     # (E,) bool
    steps: np.ndarray        # (E,) int64
    final_state: np.ndarray  # (E,) int32
    abandoned: np.ndarray    # (E,) bool
    lock_steps: int
    grows: int
    _count_memo: dict = field(default_factory=dict, repr=False)

    def state_name(self, row: int) -> str:
        return self.family.state_names[row][int(self.final_state[row])]

    def tape_string(self, row: int) -> str:
        """The same trimmed tape string the reference renders."""
        return _render(self.family.tape[row].tobytes(), tuple(self.family.names[row]))

    def count_symbol(self, char: str) -> np.ndarray:
        """Per-row occurrences of ``char`` on the final tape.

        Vectorised across the whole population — the busy-beaver sigma
        count without rendering a single tape string — in row blocks,
        so the comparison temporary stays small at any window width.
        ``BLANK`` is indistinguishable from window padding, so it
        cannot be counted.
        """
        if char == BLANK:
            raise ValueError("cannot count the blank symbol: it is the window padding")
        counts = self._count_memo.get(char)
        if counts is None:
            names = self.family.names
            targets = np.fromiter(
                (names[e].index(char) if char in names[e] else -1 for e in range(len(names))),
                dtype=np.int16,
                count=len(names),
            )
            tape = self.family.tape
            pop, width = tape.shape
            counts = np.zeros(pop, dtype=np.int64)
            block = max(1, _COUNT_CELLS // max(1, width))
            for lo in range(0, pop, block):
                hi = min(pop, lo + block)
                counts[lo:hi] = np.count_nonzero(
                    tape[lo:hi] == targets[lo:hi, None], axis=1
                )
            counts[targets < 0] = 0
            self._count_memo[char] = counts
        return counts


def run_family(
    family: EnsembleFamily, *, fuel: int, straggler_cutoff: int = 0
) -> EnsembleOutcome:
    """Step the whole population in lock-step until everyone settles.

    The live machines are three compacted vectors: row ids, flat code
    offsets of their current state rows, and flat tape positions
    (``row * width + head``).  One iteration = one transition for every
    live machine: ``take`` the read symbols, ``take`` the codes at
    offset + symbol, a ``min()`` test that settles halters, a scatter
    of the low (write) bytes, and shifts for the move and next state.

    A head moves at most one cell per step, so the window bounds are
    checked only once the slack measured at the last check is used up;
    the check still fires on the first step any live head is off an
    edge, and the window grows (amortised doubling, on whichever side
    was hit) exactly then.

    With ``straggler_cutoff > 0`` the loop stops early once at most
    that many machines remain live before the fuel runs out; they come
    back flagged ``abandoned`` with no partial state leaked.
    """
    pop = family.population
    n_states, n_symbols = family.n_states, family.n_symbols
    halted = np.zeros(pop, dtype=bool)
    accepted = np.zeros(pop, dtype=bool)
    steps = np.zeros(pop, dtype=np.int64)
    final_state = family.initial.astype(np.int32, copy=True)
    abandoned = np.zeros(pop, dtype=bool)

    table, accept = family.table, family.accept
    width = family.tape.shape[1]
    flat = family.tape.reshape(-1)
    idx = np.arange(pop)
    cur = (idx * n_states + family.initial) * n_symbols  # state-row offsets
    pos = idx * width + family.head                       # flat tape positions
    t = 0
    grows = 0
    check_at = 0  # the first step at which a head can be off the window
    while t < fuel and idx.size:
        if straggler_cutoff and idx.size <= straggler_cutoff:
            abandoned[idx] = True
            idx = idx[:0]
            break
        code = table.take(cur + flat.take(pos))
        if code.min() < 0:  # some machine has no rule: settle it now
            live = code >= 0
            dead = ~live
            dead_idx = idx[dead]
            dead_rows = cur[dead] // n_symbols
            halted[dead_idx] = True
            steps[dead_idx] = t
            accepted[dead_idx] = accept.take(dead_rows)
            final_state[dead_idx] = dead_rows - dead_idx * n_states
            idx, cur, pos, code = idx[live], cur[live], pos[live], code[live]
            if not idx.size:
                break
        flat[pos] = code.astype(np.uint8)
        pos += ((code >> _MOVE_SHIFT) & 3) - 1
        cur = code >> _NEXT_SHIFT
        t += 1
        if t >= check_at:
            head = pos - idx * width
            lo = int(head.min())
            hi = int(head.max())
            if lo < 0 or hi >= width:
                left = width if lo < 0 else 0
                right = width if hi >= width else 0
                wider = np.zeros((pop, width + left + right), dtype=np.uint8)
                wider[:, left : left + width] = family.tape
                family.tape = wider
                width = wider.shape[1]
                flat = wider.reshape(-1)
                pos = idx * width + head + left
                lo += left
                hi += left
                grows += 1
            check_at = t + 1 + min(lo, width - 1 - hi)
    if idx.size:  # fuel exhausted: the honest "still running" verdict
        final_state[idx] = cur // n_symbols - idx * n_states
        steps[idx] = fuel
    return EnsembleOutcome(
        family=family,
        halted=halted,
        accepted=accepted,
        steps=steps,
        final_state=final_state,
        abandoned=abandoned,
        lock_steps=t,
        grows=grows,
    )
