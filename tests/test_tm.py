from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers_oracles import (
    Window,
    dict_tape_run,
    enumerate_space_perturbed,
    enumerate_time_perturbed,
    head_span,
    object_window_reach,
    random_machines,
    trace,
    truncate,
    window_is_stuck,
    window_successors,
)
from robustreach.formats import load_tm
from robustreach.tm import (
    Configuration,
    MachineError,
    MissingTransitionError,
    Outcome,
    RunResult,
    TuringMachine,
    _window_levels,
    accepts_space_perturbed,
    accepts_time_perturbed,
    run,
    space_perturbed_window_count,
    step,
)


def is_palindrome(w: str) -> bool:
    return w == w[::-1]


def binary_words(max_len: int):
    yield ""
    for length in range(1, max_len + 1):
        for w in product("01", repeat=length):
            yield "".join(w)


# -- exact runs ---------------------------------------------------------------


@pytest.mark.parametrize(
    "word,outcome,steps",
    [
        ("", Outcome.ACCEPT, 1),
        ("0", Outcome.ACCEPT, 3),
        ("010", Outcome.ACCEPT, 10),
        ("0110", Outcome.ACCEPT, 15),
        ("01", Outcome.REJECT, 4),
        ("011", Outcome.REJECT, 5),
    ],
)
def test_palindrome_runs(palindrome, word, outcome, steps):
    result = run(palindrome, word, 200)
    assert (result.outcome, result.steps) == (outcome, steps)


def test_palindrome_decides_correctly(palindrome):
    for w in binary_words(6):
        result = run(palindrome, w, 1000)
        want = Outcome.ACCEPT if is_palindrome(w) else Outcome.REJECT
        assert result.outcome is want, w


def test_run_budget_and_trace(right_mover, immediate):
    result = run(right_mover, "01", 5)
    assert result == RunResult(Outcome.RUNNING, 5)
    # the stepped trace oracle stops where run stops, one step per pair
    for path in sorted(FIXTURES.glob("*.tm")):
        machine = load_tm(path)
        for word in binary_words(3):
            for max_steps in (0, 1, 5, 40):
                result = run(machine, word, max_steps)
                configs = trace(machine, word, max_steps)
                assert len(configs) == result.steps + 1, (path.name, word, max_steps)
                for a, b in zip(configs, configs[1:]):
                    assert step(machine, a) == b
                if result.outcome is Outcome.STUCK:
                    with pytest.raises(MissingTransitionError):
                        step(machine, configs[-1])
    assert run(immediate, "", 100).steps == 1
    with pytest.raises(MachineError):
        run(immediate, "", -1)


def test_machine_numbers_its_states_and_symbols(palindrome):
    assert palindrome.symbol_codes == {"_": 0, "0": 1, "1": 2}
    assert list(palindrome.state_codes) == list(palindrome.states)
    assert list(palindrome.state_codes.values()) == list(range(len(palindrome.states)))


def test_word_validation(immediate):
    with pytest.raises(MachineError):
        run(immediate, "0x1", 10)


def test_stuck_run():
    machine = TuringMachine(
        states=("a", "halt"),
        alphabet=("0",),
        blank="_",
        initial="a",
        accepting=frozenset(),
        rejecting=frozenset(),
        rules=(("a", "0", "a", "0", 1),),  # nothing defined on blank
    )
    result = run(machine, "00", 10)
    assert result.outcome is Outcome.STUCK
    assert result.steps == 2
    with pytest.raises(MissingTransitionError):
        step(machine, trace(machine, "00", 10)[-1])


def test_step_canonical_form(palindrome):
    # configurations never carry trailing blanks on either side
    config = Configuration.initial(palindrome, "0")
    seen = [config]
    for _ in range(3):
        config = step(palindrome, config)
        seen.append(config)
    for c in seen:
        assert not (c.left and c.left[-1] == palindrome.blank)
        assert not (c.right and c.right[-1] == palindrome.blank)


def test_machine_validation_rules():
    base = dict(
        states=("a", "b"),
        alphabet=("0",),
        blank="_",
        initial="a",
        accepting=frozenset({"b"}),
        rejecting=frozenset(),
    )
    with pytest.raises(MachineError):
        TuringMachine(rules=(("a", "0", "a", "0", 0),), **base)  # do-nothing rule
    with pytest.raises(MachineError):
        TuringMachine(
            rules=(("a", "0", "b", "0", 1), ("a", "0", "a", "_", 1)), **base
        )  # nondeterministic
    with pytest.raises(MachineError):
        TuringMachine(rules=(("b", "0", "a", "0", 1),), **base)  # leaves accepting
    with pytest.raises(MachineError):
        TuringMachine(
            rules=(), **{**base, "accepting": frozenset({"a"}), "rejecting": frozenset({"a"})}
        )
    with pytest.raises(MachineError):
        TuringMachine(rules=(), **{**base, "blank": "0"})


_VALID_MACHINE = dict(
    states=("a", "b", "r"),
    alphabet=("0",),
    blank="_",
    initial="a",
    accepting=frozenset({"b"}),
    rejecting=frozenset({"r"}),
    rules=(("a", "0", "b", "0", 1),),
)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"states": ()}, "states must be a nonempty duplicate-free tuple"),
        ({"states": ("a", "b", "r", "a")}, "states must be a nonempty duplicate-free tuple"),
        ({"alphabet": ("0", "0")}, "alphabet symbols must be distinct"),
        ({"alphabet": ("01",)}, "symbols must be single characters: '01'"),
        ({"blank": ""}, "symbols must be single characters: ''"),
        ({"initial": "z"}, "initial state 'z' undeclared"),
        ({"accepting": frozenset({"z"})}, "accepting states must be declared states"),
        ({"rejecting": frozenset({"z"})}, "rejecting states must be declared states"),
        ({"rules": (("a", "0", "z", "0", 1),)}, "rule uses undeclared state: a -> z"),
        ({"rules": (("a", "x", "b", "0", 1),)}, "rule uses undeclared symbol: 'x'/'0'"),
        ({"rules": (("a", "0", "b", "0", 2),)}, "bad move 2"),
        ({"rules": (("r", "0", "a", "0", 1),)}, "transitions from rejecting states must stay rejecting"),
    ],
)
def test_machine_validation_messages(change, message):
    TuringMachine(**_VALID_MACHINE)
    with pytest.raises(MachineError) as err:
        TuringMachine(**{**_VALID_MACHINE, **change})
    assert str(err.value) == message


# -- windows ------------------------------------------------------------------


def test_truncate_shapes(palindrome):
    config = Configuration.initial(palindrome, "01")
    for n in range(0, 4):
        win = truncate(palindrome, config, n)
        assert len(win.left) == n
        assert len(win.right) == n + 1
    win = truncate(palindrome, config, 2)
    assert win.right == ("0", "1", "_")
    assert win.left == ("_", "_")
    assert truncate(palindrome, config, 0).right == ("0",)


def test_window_successor_counts(palindrome):
    # a move reveals one unconstrained cell: |alphabet| + 1 successors
    config = Configuration.initial(palindrome, "01")
    win = truncate(palindrome, config, 2)
    succ = window_successors(palindrome, win)
    assert len(succ) == len(palindrome.alphabet) + 1
    for s in succ:
        assert s.state == "r0"
        assert len(s.left) == 2 and len(s.right) == 3

    stay = TuringMachine(
        states=("a", "b"),
        alphabet=("0",),
        blank="_",
        initial="a",
        accepting=frozenset({"b"}),
        rejecting=frozenset(),
        rules=(("a", "0", "b", "_", 0),),
    )
    w = truncate(stay, Configuration.initial(stay, "0"), 1)
    assert window_successors(stay, w) == frozenset(
        {Window("b", ("_",), ("_", "_"))}
    )


def test_window_stuck():
    machine = TuringMachine(
        states=("a",),
        alphabet=("0",),
        blank="_",
        initial="a",
        accepting=frozenset(),
        rejecting=frozenset(),
        rules=(("a", "0", "a", "_", 1),),
    )
    win = Window("a", ("_",), ("_", "_"))
    assert window_is_stuck(machine, win)
    assert window_successors(machine, win) == frozenset()
    live = Window("a", ("_",), ("0", "_"))
    assert not window_is_stuck(machine, live)


def test_packed_search_matches_object_level(palindrome, marker, immediate, right_mover):
    machines = [palindrome, marker, immediate, right_mover]
    words = ["", "0", "1", "01", "11", "010", "100"]
    for machine in machines:
        for w in words:
            for n in (1, 2):
                assert accepts_space_perturbed(machine, w, n) == object_window_reach(
                    machine, w, n
                )[0], (machine.initial, w, n)


def pattern_fillings(machine: TuringMachine, n: int, levels) -> set[Window]:
    """Every window a reachable pattern stands for, decoded by hand.

    A pattern packs the state, then the head and the n cells to its
    right, then the n cells to its left nearest first; the code
    len(tape_symbols) is the wildcard, which any tape symbol fills.
    """
    symbols = machine.tape_symbols
    sbits = (len(machine.states) - 1).bit_length()
    bits = len(symbols).bit_length()
    windows = set()
    for pattern in (p for level in levels for p in level):
        cells = [pattern >> sbits + bits * i & (1 << bits) - 1 for i in range(2 * n + 1)]
        assert cells[0] != len(symbols), "the head cell is always read"
        choices = [symbols if c == len(symbols) else (symbols[c],) for c in cells]
        state = machine.states[pattern & (1 << sbits) - 1]
        for filled in product(*choices):
            windows.add(Window(state, filled[n + 1 :], filled[: n + 1]))
    return windows


# One and three input symbols: 2 and 4 tape codes, so the wildcard code
# needs one more bit per cell than the tape codes do.
TWO_CODES = TuringMachine(
    states=("s", "r", "l", "acc"),
    alphabet=("1",),
    blank="_",
    initial="s",
    accepting=frozenset({"acc"}),
    rejecting=frozenset(),
    rules=(
        ("s", "1", "r", "_", 1),
        ("s", "_", "acc", "1", 1),
        ("r", "1", "r", "1", 1),
        ("r", "_", "l", "1", 0),
        ("l", "1", "l", "1", -1),
        ("l", "_", "s", "_", 1),
    ),
)
FOUR_CODES = TuringMachine(
    states=("p", "q", "acc", "rej"),
    alphabet=("a", "b", "c"),
    blank="_",
    initial="p",
    accepting=frozenset({"acc"}),
    rejecting=frozenset({"rej"}),
    rules=(
        ("p", "a", "q", "b", 1),
        ("p", "b", "p", "c", -1),
        ("p", "c", "rej", "c", 1),
        ("p", "_", "q", "a", -1),
        ("q", "a", "p", "a", -1),
        ("q", "b", "q", "_", 1),
        ("q", "c", "acc", "c", 0),
        ("q", "_", "p", "b", 0),
    ),
)


def test_window_count_matches_object_level(
    palindrome, marker, immediate, right_mover, loop_with_exit
):
    # decided windows count once and are not expanded, as in the oracle;
    # the patterns' fillings are the oracle's windows, not just as many
    cases = [
        (m, ["", "0", "01", "110"])
        for m in (palindrome, marker, immediate, right_mover, loop_with_exit)
    ]
    cases += [(TWO_CODES, ["", "1", "11", "111"]), (FOUR_CODES, ["", "a", "bc", "cab"])]
    for machine, words in cases:
        for w in words:
            for n in (1, 2, 3):
                windows = object_window_reach(machine, w, n)[1]
                got = pattern_fillings(machine, n, _window_levels(machine, w, n))
                assert got == windows, (machine.initial, w, n)
                assert space_perturbed_window_count(machine, w, n) == len(windows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_machines(), st.data())
def test_run_and_trace_match_a_dict_tape_on_random_machines(machine, data):
    # stuck, decided and cut-off runs, every move and blank writes at
    # either end; most random machines stop at once, so the run starts in
    # an undecided state when there is one and the search is steered
    # toward long runs
    undecided = sorted(set(machine.states) - machine.accepting - machine.rejecting)
    if undecided:
        machine = replace(machine, initial=data.draw(st.sampled_from(undecided)))
    word = data.draw(st.text(alphabet=machine.alphabet, max_size=5))
    max_steps = data.draw(st.integers(0, 40))
    outcome, configs = dict_tape_run(machine, word, max_steps)
    target(float(len(configs)))
    result = run(machine, word, max_steps)
    assert (result.outcome.value, result.steps) == (outcome, len(configs) - 1)
    assert [(c.state, c.left, c.right) for c in trace(machine, word, max_steps)] == configs


def test_space_perturbation_needs_a_window(palindrome):
    for search in (accepts_space_perturbed, space_perturbed_window_count):
        with pytest.raises(MachineError, match="n >= 1"):
            search(palindrome, "01", 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_machines(), st.data())
def test_window_search_matches_object_level_on_random_machines(machine, data):
    # state and symbol fields of every width, unused codes, stuck and
    # decided keys; most random machines stop within a few windows, so
    # the search is steered toward large window sets
    word = data.draw(st.text(alphabet=machine.alphabet, max_size=3))
    for n in (1, 2, 3):
        accepted, windows = object_window_reach(machine, word, n)
        assert accepts_space_perturbed(machine, word, n) == accepted, n
        assert space_perturbed_window_count(machine, word, n) == len(windows), n
    target(float(len(windows)))


def test_window_count_matches_pattern_fillings_at_wider_radii(
    palindrome, marker, immediate, right_mover, loop_with_exit
):
    # radii where the object-level search is too slow: the count must
    # still be the number of distinct fillings of the reachable patterns
    cases = [
        (m, w, 4)
        for m in (palindrome, marker, immediate, right_mover, loop_with_exit)
        for w in ["", "0", "01", "110"]
    ]
    cases += [(TWO_CODES, w, 4) for w in ["", "1", "11", "111"]]
    cases += [(FOUR_CODES, w, 4) for w in ["", "a", "bc", "cab"]]
    for machine, w, n in [*cases, (palindrome, "00101111", 5)]:
        windows = pattern_fillings(machine, n, _window_levels(machine, w, n))
        assert space_perturbed_window_count(machine, w, n) == len(windows), (machine.initial, w, n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_machines(max_symbols=2), st.data())
def test_window_count_matches_pattern_fillings_on_random_machines(machine, data):
    # stuck keys, decided keys and unused codes at a radius the
    # object-level comparison does not reach. Most random machines stop
    # within a few windows, so the search is steered toward large window
    # sets; two input symbols keep them under 9 * 3 * 3^8 windows.
    word = data.draw(st.text(alphabet=machine.alphabet, max_size=3))
    windows = pattern_fillings(machine, 4, _window_levels(machine, word, 4))
    target(float(len(windows)))
    assert space_perturbed_window_count(machine, word, 4) == len(windows)


def test_palindrome_long_word_pins(palindrome):
    # the values come from the enumeration of whole windows: acceptance
    # took about 25 s and 1.1 GB at radius 7, the count 3.5 s and 114 MB
    assert space_perturbed_window_count(palindrome, "00101111", 5) == 248_751
    assert space_perturbed_window_count(palindrome, "00101111", 7) == 10_636_839
    assert accepts_space_perturbed(palindrome, "00101111", 7)


def test_space_perturbed_against_run_enumeration(marker, immediate, right_mover, loop_with_exit):
    for machine in (marker, immediate, right_mover, loop_with_exit):
        for w in ["", "0", "1", "01", "10", "11", "001", "0001"]:
            for n in (1, 2):
                assert accepts_space_perturbed(machine, w, n) == enumerate_space_perturbed(
                    machine, w, n
                ), (machine.initial, w, n)


def test_space_perturbed_palindrome_small_windows(palindrome):
    for w in ["", "0", "1", "01", "11", "010", "0110", "100"]:
        for n in (1, 2):
            assert accepts_space_perturbed(palindrome, w, n) == enumerate_space_perturbed(
                palindrome, w, n
            ), (w, n)


def test_space_languages_shrink_as_n_grows(palindrome, marker):
    for machine in (palindrome, marker):
        for w in ["", "0", "01", "010", "11"]:
            for n in (1, 2, 3):
                if accepts_space_perturbed(machine, w, n + 1):
                    assert accepts_space_perturbed(machine, w, n), (w, n)


def test_space_language_contains_exact_language(palindrome):
    for w in binary_words(4):
        if run(palindrome, w, 1000).outcome is Outcome.ACCEPT:
            for n in (1, 2, 3):
                assert accepts_space_perturbed(palindrome, w, n), (w, n)


def test_space_perturbation_equals_exact_at_wide_windows(palindrome):
    # with the window wider than the worked tape the adversary owns nothing useful
    for w in ["", "0", "11", "010", "0110"]:
        n = head_span(palindrome, w) + 2
        assert accepts_space_perturbed(palindrome, w, n) == is_palindrome(w)


def test_marker_counterexample_strict_inclusion(marker):
    # exact machine rejects the empty word, the perturbed one accepts it:
    # the adversary plants a 1 three cells right, beyond the n=1 window
    assert run(marker, "", 100).outcome is Outcome.REJECT
    assert accepts_space_perturbed(marker, "", 1)
    assert run(marker, "0001", 100).outcome is Outcome.ACCEPT
    assert accepts_space_perturbed(marker, "0001", 1)


def test_window_count_bounds(palindrome):
    # the search visits at least the exact run's windows and at most the
    # whole window space |Q| * |symbols|^(2n+1)
    syms = len(palindrome.tape_symbols)
    for n in (1, 2, 3):
        count = space_perturbed_window_count(palindrome, "01", n)
        assert 1 <= count <= len(palindrome.states) * syms ** (2 * n + 1)


# -- time perturbation --------------------------------------------------------


def test_time_perturbed_against_enumeration(
    palindrome, marker, immediate, right_mover, loop_with_exit
):
    machines = [palindrome, marker, immediate, right_mover, loop_with_exit]
    for machine in machines:
        for w in ["", "0", "1", "01", "010"]:
            for n in range(0, 5):
                assert accepts_time_perturbed(machine, w, n) == enumerate_time_perturbed(
                    machine, w, n
                ), (machine.initial, w, n)


def test_time_perturbed_examples(palindrome, right_mover, loop_with_exit):
    # decisions already made within n survive perturbation
    assert accepts_time_perturbed(palindrome, "", 1)
    assert not accepts_time_perturbed(palindrome, "01", 4)
    # undecided at time n with a nonempty accepting set: a jump lands there
    assert accepts_time_perturbed(palindrome, "01", 3)
    assert accepts_time_perturbed(loop_with_exit, "", 7)
    # no accepting state anywhere: no jump can help
    assert right_mover.accepting == frozenset()
    assert not accepts_time_perturbed(right_mover, "", 9)


def test_time_languages_shrink_as_n_grows(palindrome, marker, loop_with_exit):
    for machine in (palindrome, marker, loop_with_exit):
        for w in ["", "0", "01", "010"]:
            for n in range(0, 6):
                if accepts_time_perturbed(machine, w, n + 1):
                    assert accepts_time_perturbed(machine, w, n), (w, n)


def test_time_perturbed_converges_for_deciders(palindrome):
    # the palindrome machine decides every word within 60 steps at length <= 4,
    # so for n past that the perturbed language agrees with the exact one
    for w in binary_words(4):
        assert accepts_time_perturbed(palindrome, w, 60) == is_palindrome(w), w


def test_time_perturbed_stuck_configs_still_perturbable():
    machine = TuringMachine(
        states=("a", "win"),
        alphabet=("0",),
        blank="_",
        initial="a",
        accepting=frozenset({"win"}),
        rejecting=frozenset(),
        rules=(("a", "0", "a", "0", 1),),  # sticks immediately on blank
    )
    assert run(machine, "", 10).outcome is Outcome.STUCK
    assert accepts_time_perturbed(machine, "", 3)
