"""machine-windows: perturbed machine semantics, with no map geometry at all.

Each round sweeps `tm.accepts_space_perturbed` and
`tm.space_perturbed_window_count` over every word of length at most
SWEEP_LENGTH and window radii 1..SWEEP_RADII on the palindrome and
marker machines, plus the palindrome at the radius where window
acceptance must be exact (head span + 2). Seeded long words run at
radius LONG_RADIUS, where the palindrome's window graph has about
250,000 windows. Seeded `tm-perturbed --mode time` and `tm-length`
queries go through `cli.main`, and `trajectory.trajectory_length` is
called directly.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles
from common import Op, cli_stdout

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MACHINES = ("palindrome", "marker")
SWEEP_LENGTH = 4
SWEEP_RADII = (1, 2, 3)
LONG_WORDS = 2           # per machine
LONG_LENGTH = 8
LONG_RADIUS = 5
TIME_QUERIES = 48
LENGTH_QUERIES = 8
TRAJECTORY_QUERIES = 4
QUERY_WORD_LENGTH = (0, 6)
MAX_STEPS = 10_000


@dataclass
class State:
    rr: dict
    machines: dict           # name -> robustreach.tm.TuringMachine
    own: dict                # name -> oracles.Machine
    sweep_words: list
    exact_radii: dict        # word -> palindrome head span + 2
    long_words: dict
    time_queries: list       # (machine, word, n)
    length_queries: list     # (machine, word, bound)
    trajectory_queries: list # (machine, word)


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def setup(rr: dict, seed: int, workdir: Path) -> State:
    rng = random.Random(seed)
    machines, own = {}, {}
    for name in MACHINES:
        path = FIXTURES / f"{name}.tm"
        machines[name] = rr["formats"].load_tm(str(path))
        own[name] = oracles.machine_from_text(path.read_text())
    words = ["".join(w) for k in range(SWEEP_LENGTH + 1) for w in itertools.product("01", repeat=k)]
    pick = lambda: (rng.choice(MACHINES), _word(rng, rng.randint(*QUERY_WORD_LENGTH)))
    radii = {w: oracles.head_span(own["palindrome"], w) + 2 for w in words}
    return State(
        rr, machines, own, words, radii,
        {n: [_word(rng, LONG_LENGTH) for _ in range(LONG_WORDS)] for n in MACHINES},
        [(*pick(), rng.randint(0, 12)) for _ in range(TIME_QUERIES)],
        [(*pick(), Fraction(rng.randint(1, 40), 4)) for _ in range(LENGTH_QUERIES)],
        [pick() for _ in range(TRAJECTORY_QUERIES)],
    )


# -- window sweeps ---------------------------------------------------------------


def _sweep(state: State, name: str, fn: str) -> dict:
    f = getattr(state.rr["tm"], fn)
    m = state.machines[name]
    return {(w, n): f(m, w, n) for n in SWEEP_RADII for w in state.sweep_words}


def _exact_radius(state: State) -> dict:
    m = state.machines["palindrome"]
    accepts = state.rr["tm"].accepts_space_perturbed
    return {(w, n): accepts(m, w, n) for w, n in state.exact_radii.items()}


def check_verdicts(mc: oracles.Machine, verdicts: dict, exact_palindromes: bool = False,
                   oracle_radii=SWEEP_RADII) -> list[str]:
    """Problems with window verdicts keyed by (word, radius)."""
    bad = []
    for (w, n), got in verdicts.items():
        if n in oracle_radii and got != oracles.window_graph(mc, w, n)[0]:
            bad.append(f"{w!r} n={n}: verdict {got} differs from the window-graph reference")
        if oracles.run(mc, w, MAX_STEPS)[0] == "accept" and not got:
            bad.append(f"{w!r} n={n}: exact run accepts, perturbed machine rejects")
        if got and (w, n - 1) in verdicts and not verdicts[(w, n - 1)]:
            bad.append(f"{w!r}: accepted at n={n} but not at n={n - 1}")
        if exact_palindromes and got != (w == w[::-1]):
            bad.append(f"{w!r} n={n}: verdict {got} at the exact radius, palindrome {w == w[::-1]}")
    return bad


def check_counts(mc: oracles.Machine, counts: dict, oracle_radii=SWEEP_RADII) -> list[str]:
    bad = []
    for (w, n), got in counts.items():
        if not 1 <= got <= oracles.window_bound(mc, n):
            bad.append(f"{w!r} n={n}: {got} windows, bound {oracles.window_bound(mc, n)}")
        elif n in oracle_radii and got != oracles.window_graph(mc, w, n)[1]:
            bad.append(f"{w!r} n={n}: {got} windows, the reference graph has "
                       f"{oracles.window_graph(mc, w, n)[1]}")
    return bad


# -- command-line and trajectory queries -------------------------------------------


def _cli_json(state: State, argv: list[str]) -> dict:
    return json.loads(cli_stdout(state.rr, argv))


def _machine_arg(name: str) -> list[str]:
    return ["--machine", str(FIXTURES / f"{name}.tm")]


def check_time(mc: oracles.Machine, word: str, n: int, out: dict) -> list[str]:
    want = oracles.time_perturbed(mc, word, n)
    if out != {"accepts": want, "mode": "time", "n": n}:
        return [f"tm-perturbed time {word!r} n={n}: {out}, expected accepts={want}"]
    return []


def check_length(mc: oracles.Machine, word: str, bound: Fraction, out: dict) -> list[str]:
    length = oracles.run_length(mc, word, MAX_STEPS)
    accepts = oracles.run(mc, word, MAX_STEPS)[0] == "accept" and length <= bound
    if (Fraction(out["trajectoryLength"]) != length or out["acceptsWithinLength"] != accepts
            or Fraction(out["bound"]) != bound):
        return [f"tm-length {word!r} bound {bound}: {out}, expected length {length}, "
                f"accepts {accepts}"]
    return []


def check_trajectory(mc: oracles.Machine, word: str, got: Fraction) -> list[str]:
    want = oracles.run_length(mc, word, MAX_STEPS)
    return [] if got == want else [f"trajectory_length {word!r}: {got}, expected {want}"]


def operations(state: State) -> list[Op]:
    ops = []
    tm = state.rr["tm"]
    for name in MACHINES:
        mc = state.own[name]
        ops.append(Op(f"sweep accepts {name}",
                      lambda name=name: _sweep(state, name, "accepts_space_perturbed"),
                      lambda out, mc=mc: check_verdicts(mc, out)))
        ops.append(Op(f"sweep windows {name}",
                      lambda name=name: _sweep(state, name, "space_perturbed_window_count"),
                      lambda out, mc=mc: check_counts(mc, out)))
        for w in state.long_words[name]:
            m = state.machines[name]
            ops.append(Op(f"long accepts {name} {w}",
                          lambda m=m, w=w: tm.accepts_space_perturbed(m, w, LONG_RADIUS),
                          lambda out, mc=mc, w=w: check_verdicts(
                              mc, {(w, LONG_RADIUS): out}, oracle_radii=())))
            ops.append(Op(f"long windows {name} {w}",
                          lambda m=m, w=w: tm.space_perturbed_window_count(m, w, LONG_RADIUS),
                          lambda out, mc=mc, w=w: check_counts(
                              mc, {(w, LONG_RADIUS): out}, oracle_radii=())))
    pal = state.own["palindrome"]
    ops.append(Op("exact-radius palindrome", lambda: _exact_radius(state),
                  lambda out: check_verdicts(pal, out, exact_palindromes=True, oracle_radii=())))
    for name, w, n in state.time_queries:
        argv = ["tm-perturbed", *_machine_arg(name), "--word", w, "--mode", "time", "--n", str(n)]
        ops.append(Op(f"tm-perturbed {name} {w!r} {n}", lambda argv=argv: _cli_json(state, argv),
                      lambda out, mc=state.own[name], w=w, n=n: check_time(mc, w, n, out)))
    for name, w, bound in state.length_queries:
        argv = ["tm-length", *_machine_arg(name), "--word", w, "--bound", oracles.fmt(bound)]
        ops.append(Op(f"tm-length {name} {w!r} {bound}", lambda argv=argv: _cli_json(state, argv),
                      lambda out, mc=state.own[name], w=w, b=bound: check_length(mc, w, b, out)))
    for name, w in state.trajectory_queries:
        m = state.machines[name]
        ops.append(Op(f"trajectory_length {name} {w!r}",
                      lambda m=m, w=w: state.rr["trajectory"].trajectory_length(m, w, MAX_STEPS),
                      lambda out, mc=state.own[name], w=w: check_trajectory(mc, w, out)))
    return ops
