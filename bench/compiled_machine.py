"""compiled-machine: the palindrome and marker machines compiled into 3-D maps.

Operations are `reach.reach_over_approx` from the encoded initial
configuration of a seeded word at level 3, and exact simulation of the
compiled map along the machine run of seeded words, a fixed number of
map steps each (decided configurations stay put on identity pieces).
Level 4 is left out: one palindrome query there takes about 19 s and
1.3 GB, more than a run of this benchmark can hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import oracles
from common import Op

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MACHINES = ("palindrome", "marker")
LEVEL = 3
REACH_WORD_LENGTH = (0, 6)
SIM_WORDS = 12     # per machine
SIM_WORD_LENGTH = 6
SIM_STEPS = 48


@dataclass
class Compiled:
    name: str
    machine: object          # robustreach.tm.TuringMachine
    scheme: object           # robustreach.embed.EncodingScheme
    system: object           # robustreach.pam.PamSystem
    own: oracles.Machine


@dataclass
class State:
    rr: dict
    compiled: dict
    reach_words: dict
    sim_words: dict


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def setup(rr: dict, seed: int, workdir: Path) -> State:
    rng = random.Random(seed)
    compiled = {}
    for name in MACHINES:
        path = FIXTURES / f"{name}.tm"
        machine = rr["formats"].load_tm(str(path))
        scheme = rr["embed"].EncodingScheme.for_machine(machine)
        system = rr["embed"].build_pam(machine, scheme)
        compiled[name] = Compiled(name, machine, scheme, system,
                                  oracles.machine_from_text(path.read_text()))
    reach_words = {n: _word(rng, rng.randint(*REACH_WORD_LENGTH)) for n in MACHINES}
    sim_words = {n: [_word(rng, SIM_WORD_LENGTH) for _ in range(SIM_WORDS)] for n in MACHINES}
    return State(rr, compiled, reach_words, sim_words)


def _start(state: State, c: Compiled, word: str):
    rr = state.rr
    return rr["embed"].encode_config(c.scheme, rr["tm"].Configuration.initial(c.machine, word))


def _reach(state: State, c: Compiled, word: str):
    x = _start(state, c, word)
    return x.coords, state.rr["reach"].reach_over_approx(c.system, x, LEVEL)


def _check_reach(c: Compiled, word: str, out) -> list[str]:
    start, cells = out
    _, trace = oracles.run(c.own, word, 10_000)
    if start != oracles.encode(c.own, trace[0]):
        return [f"{c.name} {word!r}: encoded start differs from the reference encoding"]
    grid = oracles.Grid(tuple((a, b) for a, b in zip(c.system.domain.lo, c.system.domain.hi)), LEVEL)
    for t, config in enumerate(trace):
        if not grid.cells_of_point(oracles.encode(c.own, config)) <= cells:
            return [f"{c.name} {word!r}: closure misses the cells of run step {t}"]
    return []


def _simulate(state: State, c: Compiled, word: str) -> list:
    x = _start(state, c, word)
    points = [x.coords]
    for _ in range(SIM_STEPS):
        x = c.system.eval_at(x)
        points.append(x.coords)
    return points


def _check_simulation(c: Compiled, word: str, points: list) -> list[str]:
    _, trace = oracles.run(c.own, word, SIM_STEPS)
    want = [oracles.encode(c.own, config) for config in trace]
    want += [want[-1]] * (SIM_STEPS + 1 - len(want))
    for t, (got, ref) in enumerate(zip(points, want)):
        if got != ref:
            return [f"{c.name} {word!r}: map step {t} is not the encoded machine step"]
    return []


def operations(state: State) -> list[Op]:
    ops = []
    for name, c in state.compiled.items():
        w = state.reach_words[name]
        ops.append(Op(f"reach {name} {w!r}", lambda c=c, w=w: _reach(state, c, w),
                      lambda out, c=c, w=w: _check_reach(c, w, out)))
        for w in state.sim_words[name]:
            ops.append(Op(f"simulate {name} {w!r}", lambda c=c, w=w: _simulate(state, c, w),
                          lambda out, c=c, w=w: _check_simulation(c, w, out)))
    return ops
