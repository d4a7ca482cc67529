"""Run lengths: the length of the encoded run's orbit under the compiled map.

`tm.run` decides the run and counts its steps; the start configuration
is then encoded and the compiled map applied that many times, adding up
the sup distances between consecutive orbit points. One step moves at
most max(state jump, 1). As in Bournez, Graca and Pouly, the length of a
trajectory measures computation time. The maps of the last few machines
queried are kept, keyed on the machine's value, so repeated queries on
one machine compile it once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from robustreach.embed import EncodingScheme, build_pam, encode_config
from robustreach.errors import ToolkitError
from robustreach.geometry import sup_dist
from robustreach.pam import PamSystem
from robustreach.tm import Configuration, Outcome, RunResult, TuringMachine, run


class LengthBudgetError(ToolkitError):
    """A length query ran out of simulation steps before deciding."""


@lru_cache(maxsize=8)
def _compiled(machine: TuringMachine) -> PamSystem:
    """The machine's map at its default base, compiled once per machine value."""
    return build_pam(machine)


def _measured_run(
    machine: TuringMachine, word: str, max_steps: int
) -> tuple[RunResult, Fraction]:
    """The run up to halting or max_steps, and the length of its orbit.

    Only a run that takes a step encodes its start and compiles the
    machine, so a machine with nothing to compile still has runs of
    length 0.
    """
    result = run(machine, word, max_steps)
    total = Fraction(0)
    if result.steps:
        system = _compiled(machine)
        scheme = EncodingScheme.for_machine(machine)
        point = encode_config(scheme, Configuration.initial(machine, word))
        for _ in range(result.steps):
            image = system.eval_at(point)
            total += sup_dist(point, image)
            point = image
    return result, total


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
