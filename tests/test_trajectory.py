from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from conftest import FIXTURES
from helpers_oracles import (
    FITTED_METRIC_POLY,
    config_distance,
    config_size,
    eval_poly,
    random_machines,
    time_metric_check,
    trace,
)
from robustreach.embed import EncodingScheme
from robustreach.formats import load_tm
from robustreach.tm import Configuration, MachineError, Outcome, TuringMachine, run
from robustreach.trajectory import (
    LengthBudgetError,
    _measured_run,
    accepts_within_length,
    trajectory_length,
)


def binary_words(max_len):
    yield ""
    for length in range(1, max_len + 1):
        for w in product("01", repeat=length):
            yield "".join(w)


def traced_length(scheme, configs):
    """Sum of config_distance over consecutive configurations."""
    return sum(map(partial(config_distance, scheme), configs, configs[1:]), Fraction(0))


def test_eval_poly():
    assert eval_poly((0, 0, 0, 0, 1), 3) == 81
    assert eval_poly((2, 1), 10) == 12
    assert eval_poly((), 5) == 0


def test_config_size(palindrome, immediate):
    empty = Configuration.initial(immediate, "")
    assert config_size(immediate, empty) == 1  # one state bit, no tape
    c = Configuration.initial(palindrome, "010")
    # 3 state bits for 8 states, 2 bits per symbol, 3 tape symbols
    assert config_size(palindrome, c) == 3 + 2 * 3


def test_config_distance_examples(palindrome, immediate):
    scheme = EncodingScheme.for_machine(palindrome)
    c = Configuration.initial(palindrome, "01")
    assert config_distance(scheme, c, c) == 0
    # the empty-word decision jumps from q0 (index 1) to qa (index 7)
    start = Configuration.initial(palindrome, "")
    done = Configuration("qa", "", "")
    assert config_distance(scheme, start, done) == 6
    imm = EncodingScheme.for_machine(immediate)
    assert (
        config_distance(
            imm,
            Configuration.initial(immediate, ""),
            Configuration("qa", "", ""),
        )
        == 1
    )


def test_trajectory_length_degenerate_cases(palindrome, right_mover):
    assert trajectory_length(palindrome, "01", 0) == 0
    # the one-step empty-word accept is exactly the state jump
    assert trajectory_length(palindrome, "", 10) == 6
    # length is monotone in the step budget
    lengths = [trajectory_length(right_mover, "", t) for t in range(5)]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0 and lengths[4] > lengths[1]


def test_trajectory_length_stops_at_decision(palindrome):
    # extra budget after the decision adds nothing
    assert trajectory_length(palindrome, "0110", 200) == trajectory_length(
        palindrome, "0110", 10_000
    )


def test_accepts_within_length_thresholds(palindrome):
    total = trajectory_length(palindrome, "0", 100)
    assert run(palindrome, "0", 100).outcome is Outcome.ACCEPT
    assert accepts_within_length(palindrome, "0", total)
    assert not accepts_within_length(palindrome, "0", total - Fraction(1, 1000))
    assert accepts_within_length(palindrome, "0", total + 1)
    assert not accepts_within_length(palindrome, "", Fraction(0))
    assert accepts_within_length(palindrome, "", Fraction(6))


def test_accepts_within_length_rejecting_and_stuck(palindrome):
    # rejection is never acceptance, whatever the budget
    assert not accepts_within_length(palindrome, "01", Fraction(10**6))
    machine = TuringMachine(
        states=("a", "win"),
        alphabet=("0",),
        blank="_",
        initial="a",
        accepting=frozenset({"win"}),
        rejecting=frozenset(),
        rules=(("a", "0", "a", "0", 1),),
    )
    assert not accepts_within_length(machine, "0", Fraction(100))


def test_accepts_within_length_budget(right_mover):
    # an undecided run that exceeds the bound settles to False...
    assert not accepts_within_length(right_mover, "", Fraction(10), max_steps=50)
    # ...but one still under the bound at the step budget must not guess
    with pytest.raises(LengthBudgetError):
        accepts_within_length(right_mover, "", Fraction(10**9), max_steps=50)


def test_trajectory_length_sums_trace_distances():
    # the outcome and step count are run's; the length sums the trace's distances
    for path in sorted(FIXTURES.glob("*.tm")):
        machine = load_tm(path)
        scheme = EncodingScheme.for_machine(machine)
        for n in range(5):
            for word in map("".join, product(machine.alphabet, repeat=n)):
                for max_steps in (0, 1, 7, 40):
                    result, length = _measured_run(machine, word, max_steps)
                    case = (path.name, word, max_steps)
                    assert result == run(machine, word, max_steps), case
                    assert length == traced_length(scheme, trace(machine, word, max_steps)), case


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_machines(max_states=5, max_symbols=3), st.data())
def test_trajectory_length_sums_trace_distances_on_random_machines(machine, data):
    # accepting, rejecting, stuck (at the start too) and still-running
    # ends; most random machines stop within a few steps, so the search is
    # steered toward long runs
    word = data.draw(st.text(alphabet="".join(machine.alphabet), max_size=5))
    max_steps = data.draw(st.integers(0, 60))
    scheme = EncodingScheme.for_machine(machine)
    result, length = _measured_run(machine, word, max_steps)
    target(float(result.steps))
    assert result == run(machine, word, max_steps)
    assert length == traced_length(scheme, trace(machine, word, max_steps))


def test_right_mover_length_is_its_step_count(right_mover):
    # the state index alternates 1, 2 at every step and both tape
    # coordinates stay inside (0, 1), so each step moves exactly 1
    assert trajectory_length(right_mover, "0", 10_000) == 10_000


def test_trajectory_length_encodes_only_the_start(palindrome, monkeypatch):
    import robustreach.trajectory as trajectory

    calls = []
    real = trajectory.encode_config

    def counting(scheme, config):
        calls.append(config)
        return real(scheme, config)

    monkeypatch.setattr(trajectory, "encode_config", counting)
    assert trajectory_length(palindrome, "0110", 100) > 0
    assert calls == [Configuration.initial(palindrome, "0110")]
    calls.clear()
    assert trajectory_length(palindrome, "0110", 0) == 0
    assert calls == []


def test_length_queries_compile_once(monkeypatch):
    import robustreach.trajectory as trajectory

    calls = []
    real = trajectory.build_pam

    def counting(machine, scheme=None):
        calls.append(machine)
        return real(machine, scheme)

    monkeypatch.setattr(trajectory, "build_pam", counting)
    trajectory._compiled.cache_clear()
    # two loads give equal machines, not the same object
    first, second = (load_tm(FIXTURES / "palindrome.tm") for _ in range(2))
    assert trajectory_length(first, "0110", 100) > 0
    assert accepts_within_length(second, "0110", Fraction(10**6), 100)
    assert calls == [first]


def test_accepts_within_length_rejects_negative_budget(right_mover):
    with pytest.raises(MachineError, match="^max_steps must be >= 0, got -1$"):
        accepts_within_length(right_mover, "", Fraction(1), max_steps=-1)


def test_metric_check_fitted_poly(palindrome, marker, immediate, right_mover, loop_with_exit):
    words = list(binary_words(4))
    for machine in (palindrome, marker, immediate, right_mover, loop_with_exit):
        report = time_metric_check(machine, words, poly=FITTED_METRIC_POLY)
        assert report.ok, report.violations[:3]
        assert report.checked_steps > 0
        assert 0 < report.min_distance <= report.max_distance


def test_metric_check_reports_lower_violations(palindrome):
    # a distance that collapses to zero violates every lower bound
    report = time_metric_check(
        palindrome, ["0110"], distance_fn=lambda a, b: Fraction(0)
    )
    assert not report.ok
    assert {v.kind for v in report.violations} == {"lower"}
    assert report.min_distance == report.max_distance == 0
    first = report.violations[0]
    assert first.word == "0110" and first.step_index == 0


def test_metric_check_reports_upper_violations(palindrome):
    report = time_metric_check(
        palindrome, ["01"], distance_fn=lambda a, b: Fraction(10**9)
    )
    assert not report.ok
    assert {v.kind for v in report.violations} == {"upper"}


def test_metric_check_measures_corpus_extremes(palindrome):
    # the fitted-poly comment records these two numbers; keep them honest
    words = list(binary_words(6))
    report = time_metric_check(palindrome, words, poly=FITTED_METRIC_POLY, max_steps=100)
    assert report.ok
    assert report.min_distance == Fraction(1, 125)
    assert report.max_distance == 6


def test_metric_check_encodes_each_trace_point_once(palindrome, monkeypatch):
    import helpers_oracles

    calls = []
    real = helpers_oracles.encode_config

    def counting(scheme, config):
        calls.append(config)
        return real(scheme, config)

    monkeypatch.setattr(helpers_oracles, "encode_config", counting)
    words = list(binary_words(4))
    report = time_metric_check(palindrome, words)
    points = sum(len(trace(palindrome, w, 100)) for w in words)
    assert report.ok
    assert report.checked_steps == points - len(words)
    assert len(calls) == points
