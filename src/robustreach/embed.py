"""Embedding machine configurations into a piecewise affine system.

A configuration (q, left, right) becomes a point in R^3: the state index
in {1..|Q|} and the two half-tapes as base-k fractional expansions. Each
tape symbol's digit is the machine's code for it plus one, a digit in
[1, k-2] with the blank fixed at digit 1, so the infinite blank tail of
a word of length N contributes exactly k^-N/(k-1) and the all-blank tape
encodes to 1/(k-1). Keeping digits strictly inside (0, k-1) leaves a
margin around every digit boundary: the leading digit of a valid
encoding is always recoverable, which is what makes the compiled
system's region selection unambiguous.

The compiled system has one affine piece per (state, leading left digit,
leading right digit) triple that the machine can act on. Head moves are
exact base-k shifts:

  move right: left' = (left + digit(b)) / k      right' = k*right - d_r
  move left:  left' = k*left - d_l               right' = d_l/k + digit(b)/k^2
                                                          + right/k - d_r/k^2
  stay:       left' = left                       right' = right + (digit(b)-d_r)/k

where d_l, d_r are the leading digits of the two tapes and b the symbol
written. One exact machine step therefore commutes with encoding:
eval(encode(C)) == encode(step(C)) whenever the machine has a rule.
States with no rule for some head symbol get an identity piece when they
are accepting or rejecting (decisions are absorbing) and no piece
otherwise, leaving the map partial exactly where the machine is stuck.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from robustreach.errors import ToolkitError
from robustreach.geometry import Box, Point
from robustreach.pam import AffinePiece, PamSystem
from robustreach.tm import Configuration, TuringMachine, MOVE_LEFT, MOVE_RIGHT, MOVE_STAY


class EncodingError(ToolkitError):
    """Raised for invalid schemes or points that decode to no configuration."""


@dataclass(frozen=True)
class EncodingScheme:
    """One machine's numbering written in base `base`.

    A tape symbol's digit is its machine code plus one, so the blank
    takes digit 1 and input symbols take 2, 3, ... in declaration order;
    a state's index is its code plus one. base must be at least
    |alphabet| + 3 so that all digits fit in [1, base-2].
    """

    machine: TuringMachine
    base: int

    def __post_init__(self) -> None:
        if self.base < len(self.machine.alphabet) + 3:
            raise EncodingError(
                f"base {self.base} too small for {len(self.machine.alphabet)} symbols"
            )

    @classmethod
    def for_machine(cls, machine: TuringMachine, base: Optional[int] = None) -> "EncodingScheme":
        return cls(machine, base if base is not None else len(machine.alphabet) + 3)

    def digit(self, symbol: str) -> int:
        try:
            return self.machine.symbol_codes[symbol] + 1
        except KeyError:
            raise EncodingError(f"symbol {symbol!r} not in scheme alphabet") from None

    def symbol(self, digit: int) -> str:
        if 1 <= digit <= len(self.machine.tape_symbols):
            return self.machine.tape_symbols[digit - 1]
        raise EncodingError(f"digit {digit} names no symbol")

    def state_index(self, state: str) -> int:
        try:
            return self.machine.state_codes[state] + 1
        except KeyError:
            raise EncodingError(f"state {state!r} not in scheme") from None

    @property
    def blank_tail(self) -> Fraction:
        """Value of the all-blank tape: sum of digit 1 at every position."""
        return Fraction(1, self.base - 1)


def encode_word(scheme: EncodingScheme, word: Sequence[str]) -> Fraction:
    """Base-k value of a half-tape word followed by the infinite blank tail.

    encode(w) = sum_i digit(w_i) k^-(i+1) + k^-L/(k-1) with L = len(w).
    Times (k-1) k^L this is D (k-1) + 1, where D = sum_i digit(w_i)
    k^(L-1-i) is the word read as a base-k integer, so the value is one
    Fraction over (k-1) k^L.
    """
    k = scheme.base
    digits = 0
    for sym in word:
        digits = digits * k + scheme.digit(sym)
    return Fraction(digits * (k - 1) + 1, (k - 1) * k ** len(word))


def encode_config(scheme: EncodingScheme, config: Configuration) -> Point:
    """(state index, encoded left tape, encoded right tape) as an exact point."""
    return Point(
        (
            Fraction(scheme.state_index(config.state)),
            encode_word(scheme, config.left),
            encode_word(scheme, config.right),
        )
    )


def _decode_word(scheme: EncodingScheme, value: Fraction) -> str:
    """Invert encode_word, or raise EncodingError for off-image values.

    Valid encodings peel one digit per round and reach the blank-tail
    value in finitely many rounds (the word is finite). Remainders repeat
    whenever the value is not an encoding, so a seen-set gives termination.
    """
    k = scheme.base
    tail = scheme.blank_tail
    word: list[str] = []
    seen: set[Fraction] = set()
    while value != tail:
        if value in seen:
            raise EncodingError(f"value {value} is not a tape encoding (repeating)")
        seen.add(value)
        if not 0 < value < 1:
            raise EncodingError(f"value {value} is not a tape encoding (range)")
        scaled = value * k
        digit = int(scaled)  # floor for positive values
        if scaled == digit:
            raise EncodingError(
                f"value {value} is not a tape encoding (digit boundary)"
            )
        word.append(scheme.symbol(digit))  # raises for out-of-range digits
        value = scaled - digit
    return "".join(word)


def decode_point(scheme: EncodingScheme, point: Point) -> Configuration:
    """Partial inverse of encode_config; EncodingError off the image."""
    if point.dim != 3:
        raise EncodingError(f"encoded configurations live in R^3, got dim {point.dim}")
    q, left, right = point.coords
    states = scheme.machine.states
    if q.denominator != 1 or not 1 <= q <= len(states):
        raise EncodingError(f"state coordinate {q} names no state")
    state = states[int(q) - 1]
    left_word = _decode_word(scheme, left)
    right_word = _decode_word(scheme, right)
    # Decoded words stop right at the blank tail, hence are already trimmed.
    return Configuration(state, left_word, right_word)


def machine_domain(scheme: EncodingScheme) -> Box:
    half = Fraction(1, 2)
    return Box.of_intervals([(half, len(scheme.machine.states) + half), (0, 1), (0, 1)])


def build_pam(machine: TuringMachine, scheme: Optional[EncodingScheme] = None) -> PamSystem:
    """Compile the machine into a piecewise affine system on R^3.

    Pieces are emitted in lexicographic (state, d_l, d_r) order, one per
    triple the machine can act on, plus identity pieces on accepting and
    rejecting states wherever no rule applies, so decided configurations
    stay exactly where they are.
    """
    if scheme is None:
        scheme = EncodingScheme.for_machine(machine)
    numbering = (machine.states, machine.tape_symbols)
    if (scheme.machine.states, scheme.machine.tape_symbols) != numbering:
        raise EncodingError("scheme was built for a different machine")
    k = scheme.base
    quarter = Fraction(1, 4)
    decided = machine.accepting | machine.rejecting
    zero, one, inv_k = Fraction(0), Fraction(1), Fraction(1, k)
    identity = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    # each move's (left scale, right scale, left offset, right offset),
    # given the leading digits d_l, d_r and the written digit d_b
    shifts = {
        MOVE_RIGHT: lambda d_l, d_r, d_b: (inv_k, Fraction(k), Fraction(d_b, k), Fraction(-d_r)),
        MOVE_LEFT: lambda d_l, d_r, d_b: (
            Fraction(k), inv_k, Fraction(-d_l), Fraction(d_l * k + d_b - d_r, k * k)
        ),
        MOVE_STAY: lambda d_l, d_r, d_b: (one, one, zero, Fraction(d_b - d_r, k)),
    }
    pieces: list[AffinePiece] = []
    for qi, state in enumerate(machine.states, start=1):
        for d_l in range(1, len(machine.tape_symbols) + 1):
            for d_r, head in enumerate(machine.tape_symbols, start=1):
                rule = machine.transition.get((state, head))
                region = Box.of_intervals(
                    [
                        (qi - quarter, qi + quarter),
                        (Fraction(d_l, k), Fraction(d_l + 1, k)),
                        (Fraction(d_r, k), Fraction(d_r + 1, k)),
                    ]
                )
                if rule is None:
                    if state in decided:
                        pieces.append(AffinePiece(region, identity, Point.of(0, 0, 0)))
                    continue
                nxt, write, move = rule
                l_scale, r_scale, l_off, r_off = shifts[move](d_l, d_r, scheme.digit(write))
                matrix = ((zero, zero, zero), (zero, l_scale, zero), (zero, zero, r_scale))
                offset = Point((Fraction(scheme.state_index(nxt)), l_off, r_off))
                pieces.append(AffinePiece(region, matrix, offset))
    return PamSystem(machine_domain(scheme), tuple(pieces))


def scheme_sidecar(scheme: EncodingScheme) -> dict:
    """JSON-ready description of the encoding, for the embed command."""
    machine = scheme.machine
    return {
        "base": scheme.base,
        "blank": machine.blank,
        "digits": {sym: code + 1 for sym, code in machine.symbol_codes.items()},
        "states": {name: code + 1 for name, code in machine.state_codes.items()},
        "domain": "[1/2, |Q|+1/2] x [0,1] x [0,1]",
    }
