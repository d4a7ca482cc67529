"""Lengths of machine runs measured through the configuration embedding.

The distance between two configurations is the sup distance between
their encoded points, so one step moves at most max(state jump, 1) and a
run's length is the sum of its step distances. The lower-bound side of
the time-metric sandwich (consecutive configurations are at distance at
least 1/p(size)) holds on the bundled machine corpus for the polynomial
recorded here, and is re-verified by the test suite; it is an empirical
fit, not a bound valid for arbitrary machines, because the embedding
forgets the absolute head position (a machine sweeping over a uniform
tape without changing state approaches a fixed point of the encoding at
exponential speed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from robustreach.embed import EncodingScheme, encode_config
from robustreach.errors import ToolkitError
from robustreach.geometry import sup_dist
from robustreach.tm import Configuration, Outcome, RunResult, TuringMachine, run

# Fitted on the bundled machines (immediate accept, alternating right
# mover, loop with unused exit, far-marker checker, palindrome decider)
# over all runs of at most 100 steps on binary words of length at most
# 6: the smallest observed step distance is 1/125 (palindrome decider
# mid-scan over the uniform block '000000', where the two half-tape
# coordinates trade off) at configuration size 13, and the largest is 6
# (the empty-word decision jump across the state range) at size 3.
# p(x) = x^4 covers both sides with a margin above 200x; the test suite
# re-measures the corpus against these exact coefficients.
FITTED_METRIC_POLY: tuple[int, ...] = (0, 0, 0, 0, 1)  # coefficients, low degree first


class LengthBudgetError(ToolkitError):
    """A length query ran out of simulation steps before deciding."""


def eval_poly(coeffs: Sequence[int], x: int) -> Fraction:
    """Evaluate an integer-coefficient polynomial exactly at integer x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def config_size(machine: TuringMachine, config: Configuration) -> int:
    """Binary size of a configuration: state bits plus per-symbol bits."""
    state_bits = max(1, (len(machine.states) - 1).bit_length())
    sym_bits = max(1, len(machine.tape_symbols).bit_length())
    return state_bits + sym_bits * (len(config.left) + len(config.right))


def _measured_run(
    machine: TuringMachine, word: str, max_steps: int
) -> tuple[RunResult, Fraction]:
    """The exact run up to halting or max_steps, with its length."""
    scheme = EncodingScheme.for_machine(machine)
    result = run(machine, word, max_steps, keep_trace=True)
    return result, sum(_step_distances(scheme, result.trace), Fraction(0))


def _step_distances(
    scheme: EncodingScheme, trace: Sequence[Configuration]
) -> list[Fraction]:
    """Distances between consecutive configurations, each encoded once."""
    points = [encode_config(scheme, config) for config in trace]
    return [sup_dist(a, b) for a, b in zip(points, points[1:])]


def trajectory_length(machine: TuringMachine, word: str, max_steps: int) -> Fraction:
    """Sum of step distances along the exact run, up to halting or max_steps."""
    return _measured_run(machine, word, max_steps)[1]


def length_verdict(
    machine: TuringMachine, word: str, bound: Fraction, max_steps: int
) -> tuple[bool, Fraction]:
    """accepts_within_length and trajectory_length from a single run.

    The run goes to halting or max_steps; since the length is monotone in
    time, the machine accepts within the bound exactly when that run ends
    accepting with its whole length within the bound. A run still
    undecided and still under the bound at max_steps raises
    LengthBudgetError rather than guessing.
    """
    result, total = _measured_run(machine, word, max_steps)
    if result.outcome is Outcome.RUNNING and total <= bound:
        raise LengthBudgetError(
            f"undecided after {max_steps} steps with length {total} <= {bound}"
        )
    return result.outcome is Outcome.ACCEPT and total <= bound, total


def accepts_within_length(
    machine: TuringMachine, word: str, bound: Fraction, max_steps: int = 10_000
) -> bool:
    """True iff the machine accepts and the run's length stays within bound.

    The verdict of length_verdict: the run is simulated to halting or
    max_steps, so a negative max_steps raises MachineError, and a run
    still undecided and under the bound at max_steps raises
    LengthBudgetError.
    """
    return length_verdict(machine, word, bound, max_steps)[0]


@dataclass(frozen=True)
class MetricViolation:
    word: str
    step_index: int
    distance: Fraction
    size: int
    kind: str  # "lower" or "upper"


@dataclass(frozen=True)
class MetricReport:
    checked_steps: int
    min_distance: Optional[Fraction]
    max_distance: Optional[Fraction]
    violations: tuple[MetricViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def time_metric_check(
    machine: TuringMachine,
    words: Sequence[str],
    poly: Sequence[int] = FITTED_METRIC_POLY,
    max_steps: int = 100,
    distance_fn: Optional[Callable[[Configuration, Configuration], Fraction]] = None,
) -> MetricReport:
    """Check 1/p(size) <= d(C, C') <= p(size) over exact runs.

    The size is taken at the earlier configuration of each step. A custom
    distance_fn replaces the encoding-backed distance, which is how the
    degenerate-metric behaviour is exercised in tests.
    """
    scheme = EncodingScheme.for_machine(machine)
    violations: list[MetricViolation] = []
    checked = 0
    min_d: Optional[Fraction] = None
    max_d: Optional[Fraction] = None
    for word in words:
        trace = run(machine, word, max_steps, keep_trace=True).trace
        if distance_fn is None:
            distances = _step_distances(scheme, trace)
        else:
            distances = [distance_fn(a, b) for a, b in zip(trace, trace[1:])]
        for i, (prev, d) in enumerate(zip(trace, distances)):
            size = config_size(machine, prev)
            bound = eval_poly(poly, size)
            checked += 1
            min_d = d if min_d is None else min(min_d, d)
            max_d = d if max_d is None else max(max_d, d)
            if bound <= 0 or d < 1 / bound:
                violations.append(MetricViolation(word, i, d, size, "lower"))
            if d > bound:
                violations.append(MetricViolation(word, i, d, size, "upper"))
    return MetricReport(checked, min_d, max_d, tuple(violations))
