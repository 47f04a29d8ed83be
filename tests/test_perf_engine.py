"""Equivalence tests for the compiled machine engine.

The reference interpreters are the specification; the compiled tables
are the refinement.  Every test here asserts *identical observable
results* — all five ``TMResult`` fields, acceptance booleans, reached
states — across both paths, over the standard machine library and
randomly generated machines, including fuel-exhaustion edge cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statemachine import StateMachine
from repro.machines.automata import DFA, NFA
from repro.machines.busybeaver import busy_beaver_machine
from repro.machines.turing import (
    BLANK,
    TuringMachine,
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.obs.instrument import observed
from repro.perf.engine import (
    CompiledMachine,
    CompiledTM,
    _render,
    _render_table,
    compile_dfa,
    compile_machine,
    compile_statemachine,
    compile_tm,
    run_compiled,
)

LIBRARY = {
    "binary_increment": binary_increment,
    "palindrome_checker": palindrome_checker,
    "unary_adder": unary_adder,
    "copier": copier,
    "bb2": lambda: busy_beaver_machine(2),
    "bb3": lambda: busy_beaver_machine(3),
    "bb4": lambda: busy_beaver_machine(4),
}

INPUTS = ["", "1011", "abba", "ab", "111+11", "111", "_x_", "a" * 40, "1" * 25, "0"]
FUELS = [0, 1, 3, 50, 1000, 100_000]


def assert_same_result(machine: TuringMachine, tape_input: str, fuel: int) -> None:
    ref = machine.run(tape_input, fuel=fuel)
    got = run_compiled(machine, tape_input, fuel=fuel)
    assert (ref.halted, ref.accepted, ref.steps, ref.tape, ref.final_state) == (
        got.halted,
        got.accepted,
        got.steps,
        got.tape,
        got.final_state,
    ), f"{tape_input!r} fuel={fuel}: {ref} != {got}"


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_equivalence(name):
    machine = LIBRARY[name]()
    compiled = compile_tm(machine)
    for tape_input in INPUTS:
        for fuel in FUELS:
            ref = machine.run(tape_input, fuel=fuel)
            got = compiled.run(tape_input, fuel=fuel)
            assert ref == got, f"{name}({tape_input!r}, fuel={fuel})"


def test_fuel_exhaustion_spinner():
    spinner = TuringMachine.from_rules([("s", BLANK, "s", BLANK, "S")], initial="s")
    for fuel in (0, 1, 7, 50_000):
        ref = spinner.run("", fuel=fuel)
        got = run_compiled(spinner, "", fuel=fuel)
        assert ref == got
        assert not got.halted
        assert got.steps == fuel


def test_fuel_exhaustion_mid_scan():
    # Cut the fuel in the middle of a long macro-accelerated scan: the
    # compiled engine must stop at exactly the same cell and count.
    machine = palindrome_checker()
    full = machine.run("a" * 60, fuel=100_000)
    for fuel in (0, 1, 2, 30, 59, 60, 61, 500, full.steps - 1, full.steps):
        assert_same_result(machine, "a" * 60, fuel)


def test_unknown_input_symbols_halt_identically():
    machine = binary_increment()
    for tape_input in ("10z1", "zzz", "1_0", "é1"):
        for fuel in (0, 5, 100):
            assert_same_result(machine, tape_input, fuel)


def test_initial_state_is_accepting():
    machine = TuringMachine.from_rules(
        [("ok", "1", "ok", "1", "R")], initial="ok", accept=["ok"]
    )
    for fuel in (0, 1, 10):
        assert_same_result(machine, "111", fuel)


def test_uncompilable_alphabet_falls_back():
    # >256 symbols cannot intern into a tape byte; run_compiled must
    # transparently use the reference interpreter instead.
    symbols = [chr(0x100 + i) for i in range(300)]
    delta = {("s", c): ("s", c, "R") for c in symbols}
    machine = TuringMachine(delta, "s")
    with pytest.raises(ValueError):
        compile_tm(machine)
    ref = machine.run(symbols[0] * 3, fuel=10)
    got = run_compiled(machine, symbols[0] * 3, fuel=10)
    assert ref == got


STATES = [f"q{i}" for i in range(5)]
SYMBOLS = list("_01a")


@st.composite
def random_machines(draw):
    states = STATES[: draw(st.integers(1, 5))]
    symbols = SYMBOLS[: draw(st.integers(2, 4))]
    delta = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(states), st.sampled_from(symbols)),
            st.tuples(
                st.sampled_from(states),
                st.sampled_from(symbols),
                st.sampled_from(["L", "R", "S"]),
            ),
            max_size=20,
        )
    )
    accept = draw(st.frozensets(st.sampled_from(states), max_size=2))
    reject = draw(st.frozensets(st.sampled_from(states), max_size=2)) - accept
    return TuringMachine(delta, draw(st.sampled_from(states)), accept, reject)


@settings(deadline=None, max_examples=150)
@given(
    machine=random_machines(),
    tape_input=st.text(alphabet="01a_x", max_size=10),
    fuel=st.sampled_from([0, 1, 7, 100, 3000]),
)
def test_random_machine_equivalence(machine, tape_input, fuel):
    assert_same_result(machine, tape_input, fuel)


def test_compiled_tm_describe():
    compiled = compile_tm(binary_increment())
    info = compiled.describe()
    assert info["states"] >= 3
    assert info["symbols"] >= 3  # blank, 0, 1
    assert info["rules"] == 6


def test_compiled_is_reusable():
    compiled = compile_tm(binary_increment())
    assert compiled.run("1").tape == "10"
    assert compiled.run("11").tape == "100"
    assert compiled.run("1").tape == "10"  # no state leaks between runs


# -- alphabet-sized rows, the render table, the visited window ---------------

# "r" slides right over 0s and 1s and "l" slides left over 1s — both
# identity self-scans, so both compile to macro slots.  Turning at a
# blank writes a real symbol, so each scan starts from a plain step.
SCANNER = TuringMachine.from_rules(
    [
        ("r", "1", "r", "1", "R"),
        ("r", "0", "r", "0", "R"),
        ("r", BLANK, "l", "0", "L"),
        ("l", "1", "l", "1", "L"),
        ("l", BLANK, "r", "1", "R"),
    ],
    initial="r",
)


def test_runtime_symbol_right_after_right_macro_scan():
    # The scan stops on "x", a symbol only the input mentions: its
    # byte indexes past the end of the row, which must halt exactly
    # like the reference's missing rule.
    for tape_input in ("x", "1x", "111x", "10x11", "0000x1x", "1" * 40 + "x"):
        for fuel in (0, 1, 2, 3, 39, 40, 41, 1_000):
            assert_same_result(SCANNER, tape_input, fuel)


def test_runtime_symbol_right_after_left_macro_scan():
    # Start in "l": the left scan runs off the input, turns at the
    # blank, and the right scan that follows reaches the extra symbol.
    machine = TuringMachine(dict(SCANNER.delta), "l")
    for tape_input in ("1x", "111x", "11y1", "1" * 30 + "x"):
        for fuel in (0, 1, 2, 3, 4, 31, 32, 33, 1_000):
            assert_same_result(machine, tape_input, fuel)


def test_non_ascii_alphabet_matches_reference():
    # Non-ASCII symbols render through the join path, whether they are
    # compiled or interned from the input at run time.
    machine = TuringMachine.from_rules(
        [
            ("r", "é", "r", "é", "R"),
            ("r", "ü", "r", "é", "R"),
            ("r", BLANK, "l", "→", "L"),
            ("l", "é", "l", "é", "L"),
        ],
        initial="r",
    )
    for tape_input in ("", "é", "üéü", "éüßé", "ééß", "x"):
        for fuel in (0, 2, 5, 100):
            assert_same_result(machine, tape_input, fuel)
    for tape_input in ("1ß1", "ß", "11€0"):
        for fuel in (0, 3, 100):
            assert_same_result(SCANNER, tape_input, fuel)


def test_render_join_path_for_multi_character_names():
    # The reference refuses multi-character symbols, so no machine can
    # produce them; the renderer must still decode them by name.
    names = (BLANK, "ab", "c")
    assert _render_table(names) is None
    assert _render(bytearray(b"\x00\x00\x01\x02\x00\x01\x00"), names) == "abc_ab"
    assert _render(bytearray(b"\x00\x00"), names) == ""


def test_render_table_built_once_per_alphabet():
    names = (BLANK, "0", "1")
    assert _render_table(names) is _render_table(tuple(list(names)))
    assert _render(bytearray(b"\x00\x02\x00\x01\x00"), names) == "1_0"


@pytest.mark.parametrize(
    "machine,fuel",
    [
        (busy_beaver_machine(2), 100),
        (busy_beaver_machine(3), 100),
        (busy_beaver_machine(4), 1_000),
        (TuringMachine.from_rules([("s", BLANK, "s", "1", "R")], initial="s"), 100),
        (TuringMachine.from_rules([("s", BLANK, "s", "1", "L")], initial="s"), 100),
    ],
    ids=["bb2", "bb3", "bb4", "right-writer", "left-writer"],
)
def test_blank_tape_run_within_pad_never_grows(machine, fuel):
    # fuel <= 4096 pads each side of a blank tape by ``fuel`` cells, so
    # a run of at most ``fuel`` steps never needs a wider tape.
    compiled = compile_tm(machine)
    with observed() as obs:
        result = compiled.run("", fuel=fuel)
    assert result == machine.run("", fuel=fuel)
    assert result.steps <= fuel
    assert obs.registry.total("engine_tape_grows_total") == 0


# -- DFAs -------------------------------------------------------------------


@st.composite
def random_dfas(draw):
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    alphabet = list("abc")[: draw(st.integers(1, 3))]
    transitions = []
    for s in states:
        for a in alphabet:
            if draw(st.booleans()):
                transitions.append((s, a, draw(st.sampled_from(states))))
    accepting = draw(st.lists(st.sampled_from(states), max_size=3, unique=True))
    return DFA.build(transitions, initial=states[0], accepting=accepting)


@settings(deadline=None, max_examples=100)
@given(dfa=random_dfas(), word=st.text(alphabet="abcz", max_size=12))
def test_dfa_equivalence(dfa, word):
    assert compile_dfa(dfa).accepts(word) == dfa.accepts(word)


def test_dfa_non_string_word():
    dfa = DFA.build([("p", "a", "q"), ("q", "a", "p")], initial="p", accepting=["q"])
    compiled = compile_dfa(dfa)
    assert compiled.accepts(["a"]) == dfa.accepts(["a"])
    assert compiled.accepts(["a", "a"]) == dfa.accepts(["a", "a"])
    assert compiled.accepts([]) == dfa.accepts([])


def test_dfa_from_subset_construction():
    # The classic "2nd symbol from the end is a" family via determinize.
    nfa = NFA.build(
        [("p", "a", "p"), ("p", "b", "p"), ("p", "a", "q"), ("q", "a", "r"), ("q", "b", "r")],
        initial=["p"],
        accepting=["r"],
    )
    dfa = nfa.determinize()
    compiled = compile_dfa(dfa)
    for word in ("", "a", "ab", "aa", "ba", "abab", "aab" * 20, "b" * 50 + "ab"):
        assert compiled.accepts(word) == dfa.accepts(word)


# -- Labelled transition systems -------------------------------------------


def test_statemachine_equivalence():
    machine = StateMachine(
        initial=0,
        transitions=[(i, "t", (i + 1) % 5) for i in range(5)] + [(i, "r", 0) for i in range(5)],
    )
    compiled = compile_statemachine(machine)
    for seq in ([], ["t"], ["t", "t", "r"], ["r", "x"], ["t"] * 12, ["x"]):
        ref = machine.run(seq)
        got = compiled.run(seq)
        assert (set() if got is None else {got}) == ref
        assert compiled.accepts(seq) == machine.accepts(seq)


def test_statemachine_nondeterministic_refused():
    machine = StateMachine(initial=0, transitions=[(0, "a", 1), (0, "a", 2)])
    with pytest.raises(ValueError, match="deterministic"):
        compile_statemachine(machine)


# -- The shared protocol ----------------------------------------------------


def test_compile_machine_dispatch():
    tm = compile_machine(binary_increment())
    assert isinstance(tm, CompiledTM)
    dfa = compile_machine(
        DFA.build([("p", "a", "p")], initial="p", accepting=["p"])
    )
    lts = compile_machine(StateMachine(initial=0, transitions=[(0, "a", 1)]))
    for compiled in (tm, dfa, lts):
        assert isinstance(compiled, CompiledMachine)
        info = compiled.describe()
        assert info["states"] >= 1 and info["rules"] >= 1


def test_compile_machine_unknown_type():
    with pytest.raises(TypeError):
        compile_machine(42)
