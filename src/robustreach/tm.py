"""Deterministic Turing machines and their perturbed acceptance notions.

Configurations store the two half-tapes as strings with the blank tail
trimmed: `left` holds the symbols before the head nearest-first, `right`
starts with the symbol under the head. Every tape symbol is one
character, so a step slices and concatenates strings; it still copies
the half-tapes it rewrites, but as C-level copies, not tuple rebuilds.
Machines must be deterministic, accepting and rejecting state sets must
be disjoint and absorbing (a transition leaving F stays in F, same for
R), and the literal do-nothing rule (q, a) -> (q, a, stay) is rejected
outright so every step changes the configuration.

Two perturbation models are implemented.

Space perturbation with window n: before each step, any tape symbol at
distance n+1 or more from the head may be replaced. Acceptance reduces
to reachability in a finite graph over truncated windows
(q, a_-n..a_-1, a_0..a_n); moving the head shifts the window and appends
a nondeterministically chosen symbol on the side the head moved toward.
The search runs over window patterns instead: the appended cell holds a
wildcard code, and since a step reads only the state and the head cell,
a wildcard branches into every tape symbol only when the head reaches
it. The windows reachable are exactly the fillings of the patterns
reachable. Each pattern is packed into one int; a worklist expands one
pattern per turn and yields each pattern once, when it is first found,
so acceptance stops at the first accepting pattern. The window count
adds up the patterns' distinct fillings by a sweep over cell prefixes,
without building a window.

Time perturbation with budget n: once strictly more than n steps have
run, the control state may spontaneously jump anywhere as long as the
machine has not yet decided. Acceptance collapses to a closed form:
accepted within n steps, or not yet decided within n steps (a jump can
then enter an accepting state, provided the machine has one).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from robustreach.errors import ToolkitError

MOVE_LEFT = -1
MOVE_STAY = 0
MOVE_RIGHT = 1

_MOVES = (MOVE_LEFT, MOVE_STAY, MOVE_RIGHT)


class MachineError(ToolkitError):
    """Raised for ill-formed machines, configurations or windows."""


class MissingTransitionError(ToolkitError):
    """The machine halts without a decision: no rule for (state, symbol)."""


Rule = tuple[str, str, str, str, int]  # (state, read, next state, write, move)


@dataclass(frozen=True)
class TuringMachine:
    """A single-tape deterministic machine over a finite alphabet.

    `alphabet` lists the input symbols in declaration order; `blank` is a
    distinct tape-only symbol. `rules` is the transition table as a sorted
    tuple of (state, read, next, write, move) entries. The machine numbers
    its states and tape symbols once (`state_codes`, `symbol_codes`); the
    packed window search and the embedding both read that numbering.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    initial: str
    accepting: frozenset[str]
    rejecting: frozenset[str]
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states) or not self.states:
            raise MachineError("states must be a nonempty duplicate-free tuple")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise MachineError("alphabet symbols must be distinct")
        for sym in (*self.alphabet, self.blank):
            if len(sym) != 1:
                raise MachineError(f"symbols must be single characters: {sym!r}")
        if self.blank in self.alphabet:
            raise MachineError("blank must not appear in the input alphabet")
        state_set = set(self.states)
        if self.initial not in state_set:
            raise MachineError(f"initial state {self.initial!r} undeclared")
        for name, group in (("accepting", self.accepting), ("rejecting", self.rejecting)):
            if not group <= state_set:
                raise MachineError(f"{name} states must be declared states")
        if self.accepting & self.rejecting:
            raise MachineError("accepting and rejecting states must be disjoint")
        tape_syms = set(self.alphabet) | {self.blank}
        seen: set[tuple[str, str]] = set()
        for state, read, nxt, write, move in self.rules:
            if state not in state_set or nxt not in state_set:
                raise MachineError(f"rule uses undeclared state: {state} -> {nxt}")
            if read not in tape_syms or write not in tape_syms:
                raise MachineError(f"rule uses undeclared symbol: {read!r}/{write!r}")
            if move not in _MOVES:
                raise MachineError(f"bad move {move!r}")
            if (state, read) in seen:
                raise MachineError(f"nondeterministic rules for ({state}, {read})")
            seen.add((state, read))
            if state == nxt and read == write and move == MOVE_STAY:
                raise MachineError(
                    f"do-nothing rule ({state}, {read}) is not allowed"
                )
            if state in self.accepting and nxt not in self.accepting:
                raise MachineError("transitions from accepting states must stay accepting")
            if state in self.rejecting and nxt not in self.rejecting:
                raise MachineError("transitions from rejecting states must stay rejecting")

    @cached_property
    def transition(self) -> Mapping[tuple[str, str], tuple[str, str, int]]:
        return {
            (state, read): (nxt, write, move)
            for state, read, nxt, write, move in self.rules
        }

    @cached_property
    def tape_symbols(self) -> tuple[str, ...]:
        """Blank first, then the input alphabet in declaration order."""
        return (self.blank, *self.alphabet)

    @cached_property
    def symbol_codes(self) -> Mapping[str, int]:
        """Each tape symbol's code: the blank is 0, then the alphabet in order."""
        return {s: i for i, s in enumerate(self.tape_symbols)}

    @cached_property
    def state_codes(self) -> Mapping[str, int]:
        """Each state's code, from 0 in declaration order."""
        return {q: i for i, q in enumerate(self.states)}

    def check_word(self, word: str) -> None:
        bad = [c for c in word if c not in self.alphabet]
        if bad:
            raise MachineError(f"word uses symbols outside the alphabet: {bad}")


@dataclass(frozen=True)
class Configuration:
    """A machine configuration in canonical (blank-trimmed) form.

    left:  symbols before the head, nearest first (left[0] sits just left
           of the head); right: symbols from the head on (right[0] is
           under the head). Both strings carry no trailing blanks, so equal
           configurations compare equal structurally.
    """

    state: str
    left: str
    right: str

    @classmethod
    def initial(cls, machine: TuringMachine, word: str) -> "Configuration":
        machine.check_word(word)
        return cls(machine.initial, "", word)

    def head_symbol(self, machine: TuringMachine) -> str:
        return self.right[:1] or machine.blank


def step(machine: TuringMachine, config: Configuration) -> Configuration:
    """One exact machine step; MissingTransitionError if no rule applies."""
    head = config.head_symbol(machine)
    rule = machine.transition.get((config.state, head))
    if rule is None:
        raise MissingTransitionError(
            f"no rule for state {config.state!r} reading {head!r}"
        )
    nxt, write, move = rule
    blank = machine.blank
    left, rest = config.left, config.right[1:]
    if move == MOVE_STAY:
        right = write + rest
    elif move == MOVE_RIGHT:
        left, right = write + left, rest
    else:
        left, right = left[1:], (left[:1] or blank) + write + rest
    return Configuration(nxt, left.rstrip(blank), right.rstrip(blank))


class Outcome(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    RUNNING = "running"
    STUCK = "stuck"  # halt without decision: no applicable rule


@dataclass(frozen=True)
class RunResult:
    """How a run ended, and after how many steps."""

    outcome: Outcome
    steps: int


def run(machine: TuringMachine, word: str, max_steps: int) -> RunResult:
    """Run the machine for at most max_steps steps.

    The step count reported for a decision is the number of the step that
    first entered an accepting/rejecting state; a machine starting in one
    decides at step 0; a stuck run counts the steps taken before it stuck.
    """
    if max_steps < 0:
        raise MachineError(f"max_steps must be >= 0, got {max_steps}")
    config = Configuration.initial(machine, word)
    t = 0
    while True:
        if config.state in machine.accepting:
            return RunResult(Outcome.ACCEPT, t)
        if config.state in machine.rejecting:
            return RunResult(Outcome.REJECT, t)
        if t == max_steps:
            return RunResult(Outcome.RUNNING, t)
        try:
            config = step(machine, config)
        except MissingTransitionError:
            return RunResult(Outcome.STUCK, t)
        t += 1


def _field_bits(machine: TuringMachine) -> tuple[int, int]:
    """Widths of a pattern's state field and of each cell field.

    A cell holds a tape code or the wildcard code len(symbol_codes).
    """
    return (len(machine.states) - 1).bit_length(), len(machine.symbol_codes).bit_length()


def _window_patterns(machine: TuringMachine, word: str, n: int) -> Iterator[int]:
    """The window patterns reachable from the start window, each yielded once.

    A pattern is one int holding, from the low bits up, the state index,
    the head cell and the n cells to its right, then the n cells to its
    left, nearest first. A cell holds a tape code or the wildcard code:
    after a head move the vacated far cell is a wildcard, which a shift
    carries along unread and a move off the window drops. A transition
    reads only the state and the head cell, so a cell the perturbation
    fills in stays free until the head reaches it; only then does a
    wildcard branch into every tape code. The head cell therefore never
    holds the wildcard, and the windows reachable are exactly the
    fillings of the patterns reachable.

    The state and head bits key two rule tables: the move, and the next
    state OR'd with the written symbol where it lands. Decided states and
    stuck keys have no move, so their patterns are yielded but not
    expanded. The search keeps a worklist: each turn expands one pattern,
    and a pattern is yielded when it is first found, before it is
    expanded, so a caller may stop at any pattern.
    """
    if n < 1:
        raise MachineError(f"space perturbation needs window n >= 1, got {n}")
    machine.check_word(word)
    codes = machine.symbol_codes
    state_of = machine.state_codes
    sbits, bits = _field_bits(machine)
    key_mask = (1 << sbits + bits) - 1

    def at(cell: int) -> int:
        return sbits + bits * cell

    def cell_mask(first: int, stop: int) -> int:
        return ((1 << bits * (stop - first)) - 1) << at(first)

    moves: list[int | None] = [None] * (key_mask + 1)
    adds = [0] * (key_mask + 1)
    landing = {MOVE_STAY: at(0), MOVE_RIGHT: at(n + 1), MOVE_LEFT: at(1)}
    decided = machine.accepting | machine.rejecting
    for (q, a), (q2, b, move) in machine.transition.items():
        if q not in decided:
            key = state_of[q] | codes[a] << sbits
            moves[key] = move
            adds[key] = state_of[q2] | codes[b] << landing[move]
    wild = len(codes)
    # right move: cells 1..n move down one, the left cells up one, and the
    # far right cell turns wildcard
    right_kept, right_up = cell_mask(0, n), cell_mask(n + 2, 2 * n + 1)
    right_wild = wild << at(n)
    # left move: the nearest left cell becomes the head, cells 1..n-1 move
    # up one, the other left cells down one, and the far left cell turns
    # wildcard
    head, left_up, left_down = cell_mask(0, 1), cell_mask(2, n + 1), cell_mask(n + 1, 2 * n)
    left_shift = bits * (n + 1)
    left_wild = wild << at(2 * n)
    head_wild = wild << at(0)
    head_codes = [c << at(0) for c in codes.values()]

    # The start's left cells and the right cells past the word are blank, code 0.
    start = state_of[machine.initial] | sum(
        codes[s] << at(i) for i, s in enumerate(word[: n + 1])
    )
    yield start
    seen = {start}
    todo = [start]
    while todo:
        w = todo.pop()
        move = moves[k := w & key_mask]
        if move is None:
            continue
        if move == MOVE_STAY:
            t = w - k
        elif move == MOVE_RIGHT:
            t = (w >> bits & right_kept) | (w << bits & right_up) | right_wild
        else:
            t = (w >> left_shift & head) | (w << bits & left_up) | left_wild
            t |= w >> bits & left_down
        t |= adds[k]
        # only a move can bring a wildcard under the head
        found = [t ^ head_wild | c for c in head_codes] if t & head == head_wild else (t,)
        for v in found:
            if v not in seen:
                seen.add(v)
                todo.append(v)
                yield v


def accepts_space_perturbed(machine: TuringMachine, word: str, n: int) -> bool:
    """Reachability of an accepting window from the start window.

    True iff some n-space-perturbed run accepts the word, by a worklist
    search over the window patterns that stops at the first accepting
    pattern it finds. Rejecting patterns are not expanded: rejection is
    absorbing, so no accepting window lies beyond one.
    """
    state_mask = (1 << _field_bits(machine)[0]) - 1
    accepting = {machine.state_codes[q] for q in machine.accepting}
    return any(w & state_mask in accepting for w in _window_patterns(machine, word, n))


def space_perturbed_window_count(machine: TuringMachine, word: str, n: int) -> int:
    """Size of the reachable window set (diagnostics and test budgets).

    The windows are the fillings of the reachable patterns: each wildcard
    cell takes every tape code. They are counted, not built. Windows that
    differ in state or head cell never coincide, so the patterns are
    grouped by those two fields, and a group's windows are counted by a
    sweep over prefixes of its 2n other cells, read in order. The sweep
    keeps a count per set of pattern suffixes: the suffixes (patterns
    shifted past the cells read) that are still compatible with a prefix,
    mapped to the number of prefixes that lead to that set. A tape code
    keeps the suffixes whose cell holds it or the wildcard; the codes no
    suffix holds keep the same set and are taken together. A set left
    with one suffix adds its fillings, a power of the code count, at once.
    The fillings of a set do not depend on its group, so groups share the
    sweep's entries.
    """
    sbits, bits = _field_bits(machine)
    key_mask = (1 << sbits + bits) - 1
    codes = wild = len(machine.symbol_codes)
    cell = (1 << bits) - 1
    groups: dict[int, set[int]] = {}
    for pattern in _window_patterns(machine, word, n):
        groups.setdefault(pattern & key_mask, set()).add(pattern >> sbits + bits)
    sets: dict[frozenset[int], int] = {}
    for group in map(frozenset, groups.values()):
        sets[group] = sets.get(group, 0) + 1
    count = 0
    while sets:  # every suffix is 0, a single blank filling, after 2n cells
        after: dict[frozenset[int], int] = {}
        for held, ways in sets.items():
            if len(held) == 1:
                (s,) = held  # its cells past the top set bit hold the blank, code 0
                wilds = sum(s >> at & cell == wild for at in range(0, s.bit_length(), bits))
                count += ways * codes**wilds
                continue
            named: dict[int, list[int]] = {}
            for s in held:
                named.setdefault(s & cell, []).append(s >> bits)
            free = named.pop(wild, [])
            for kept in named.values():
                key = frozenset(free + kept)
                after[key] = after.get(key, 0) + ways
            if free and len(named) < codes:
                key = frozenset(free)
                after[key] = after.get(key, 0) + ways * (codes - len(named))
        sets = after
    return count


def accepts_time_perturbed(machine: TuringMachine, word: str, n: int) -> bool:
    """Closed form for time-perturbed acceptance with budget n.

    True iff the machine accepts within n steps, or has neither accepted
    nor rejected within n steps while an accepting state exists for a
    state jump to enter. Perturbations fire only strictly after step n,
    and never from a decided state. A halt without decision does not
    count as deciding, so jumps may still fire from it.
    """
    if n < 0:
        raise MachineError(f"time perturbation needs budget n >= 0, got {n}")
    result = run(machine, word, n)
    if result.outcome is Outcome.ACCEPT:
        return True
    if result.outcome is Outcome.REJECT:
        return False
    return bool(machine.accepting)
