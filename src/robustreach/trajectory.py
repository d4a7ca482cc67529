"""Run lengths: the length of the encoded run's orbit under the compiled map.

The length is the sum of sup distances between consecutive orbit points,
and one step moves at most max(state jump, 1). As in Bournez, Graca and
Pouly, the length of a trajectory measures computation time.
"""

from __future__ import annotations

from fractions import Fraction

from robustreach.embed import EncodingScheme, build_pam, encode_config
from robustreach.errors import ToolkitError
from robustreach.geometry import sup_dist
from robustreach.pam import UndefinedRegionError
from robustreach.tm import Configuration, MachineError, Outcome, RunResult, TuringMachine


class LengthBudgetError(ToolkitError):
    """A length query ran out of simulation steps before deciding."""


def _measured_run(
    machine: TuringMachine, word: str, max_steps: int
) -> tuple[RunResult, Fraction]:
    """The run up to halting or max_steps, read off the compiled map's orbit.

    Before each step the state coordinate decides the run: an accepting
    or rejecting index ends it, and a point in no piece's region is a
    stuck configuration. Only the start is encoded, and only for a run
    that takes a step, so a machine with nothing to compile still has
    runs of length 0.
    """
    if max_steps < 0:
        raise MachineError(f"max_steps must be >= 0, got {max_steps}")
    scheme = EncodingScheme.for_machine(machine)
    decisions = {scheme.state_index(q): Outcome.ACCEPT for q in machine.accepting}
    decisions.update((scheme.state_index(q), Outcome.REJECT) for q in machine.rejecting)
    start = Configuration.initial(machine, word)
    state = scheme.state_index(start.state)
    point = None
    total = Fraction(0)
    t = 0
    while (outcome := decisions.get(state)) is None:
        if t == max_steps:
            outcome = Outcome.RUNNING
            break
        if point is None:
            if (start.state, start.head_symbol(machine)) not in machine.transition:
                outcome = Outcome.STUCK
                break
            system = build_pam(machine, scheme)
            point = encode_config(scheme, start)
        try:
            image = system.eval_at(point)
        except UndefinedRegionError:
            outcome = Outcome.STUCK
            break
        total += sup_dist(point, image)
        point = image
        state = point[0]
        t += 1
    return RunResult(outcome, t), total


def trajectory_length(machine: TuringMachine, word: str, max_steps: int) -> Fraction:
    """Length of the run's orbit under the compiled map, up to halting or max_steps."""
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
