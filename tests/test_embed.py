import random
from fractions import Fraction

import pytest

from conftest import FIXTURES
from helpers_oracles import horner_encode_word, trace
from robustreach.embed import (
    EncodingError,
    EncodingScheme,
    build_pam,
    decode_point,
    encode_config,
    encode_word,
    machine_domain,
    scheme_sidecar,
)
from robustreach.formats import load_tm
from robustreach.geometry import Point
from robustreach.pam import UndefinedRegionError
from robustreach.tm import Configuration, Outcome, TuringMachine, run


def test_scheme_digits(palindrome):
    scheme = EncodingScheme.for_machine(palindrome)
    assert scheme.base == 5  # |alphabet| + 3
    assert scheme.digit(palindrome.blank) == 1
    assert scheme.digit("0") == 2
    assert scheme.digit("1") == 3
    assert scheme.symbol(3) == "1"
    assert scheme.blank_tail == Fraction(1, 4)
    with pytest.raises(EncodingError):
        scheme.digit("x")
    with pytest.raises(EncodingError):
        scheme.symbol(4)  # base leaves headroom digits unassigned
    with pytest.raises(EncodingError):
        EncodingScheme.for_machine(palindrome, base=4)


def test_encode_word_values(palindrome):
    scheme = EncodingScheme.for_machine(palindrome)
    # empty tape is the pure blank tail 1/(k-1)
    assert encode_word(scheme, ()) == Fraction(1, 4)
    # single '1': 3/5 + (1/4)/5
    assert encode_word(scheme, ("1",)) == Fraction(13, 20)
    assert encode_word(scheme, ("0",)) == Fraction(9, 20)
    # prepending a digit divides the rest by the base
    assert encode_word(scheme, ("0", "1")) == Fraction(2, 5) + Fraction(13, 100)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.tm")), ids=lambda p: p.stem)
def test_encode_word_matches_horner(path):
    machine = load_tm(path)
    rng = random.Random(path.stem)
    for base in (None, 9, 20):
        scheme = EncodingScheme.for_machine(machine, base)
        for length in range(61):
            word = tuple(rng.choice(machine.tape_symbols) for _ in range(length))
            assert encode_word(scheme, word) == horner_encode_word(scheme, word), (base, word)


def test_encodings_sit_inside_digit_cells(palindrome):
    # every encoded half-tape lies strictly inside its first-digit cell,
    # so the compiled system never consults its tie-break on real configs
    scheme = EncodingScheme.for_machine(palindrome)
    k = scheme.base
    rng = random.Random(3)
    for _ in range(100):
        word = tuple(rng.choice(["0", "1", "_"]) for _ in range(rng.randrange(0, 6)))
        while word and word[-1] == "_":
            word = word[:-1]  # canonical half-tapes carry no trailing blanks
        value = encode_word(scheme, word)
        lead = scheme.digit(word[0]) if word else 1
        assert Fraction(lead, k) < value < Fraction(lead + 1, k)


def test_decode_round_trip(palindrome):
    scheme = EncodingScheme.for_machine(palindrome)
    rng = random.Random(9)
    for _ in range(200):
        state = rng.choice(palindrome.states)
        left = "".join(rng.choice(["0", "1"]) for _ in range(rng.randrange(0, 5)))
        right = "".join(rng.choice(["0", "1"]) for _ in range(rng.randrange(0, 5)))
        config = Configuration(state, left, right)
        assert decode_point(scheme, encode_config(scheme, config)) == config


def test_decode_rejects_off_image_values(palindrome):
    scheme = EncodingScheme.for_machine(palindrome)
    good = encode_word(scheme, ("1",))
    with pytest.raises(EncodingError):
        decode_point(scheme, Point.of(1, 0, good))  # 0 outside (0, 1)
    with pytest.raises(EncodingError):
        decode_point(scheme, Point.of(1, "1/2", good))  # repeating remainder
    with pytest.raises(EncodingError):
        decode_point(scheme, Point.of(1, "2/5", good))  # lands on a digit boundary
    with pytest.raises(EncodingError):
        decode_point(scheme, Point.of(1, "9/10", good))  # digit 4 names no symbol
    with pytest.raises(EncodingError):
        decode_point(scheme, Point.of(0, good, good))  # no state 0
    with pytest.raises(EncodingError):
        decode_point(scheme, Point.of("3/2", good, good))
    with pytest.raises(EncodingError):
        decode_point(scheme, Point.of(1, good))


def _check_commuting(machine, words, max_steps=200, base=None):
    scheme = EncodingScheme.for_machine(machine, base=base)
    system = build_pam(machine, scheme)
    steps_checked = 0
    for word in words:
        configs = trace(machine, word, max_steps)
        for prev, nxt in zip(configs, configs[1:]):
            image = system.eval_at(encode_config(scheme, prev))
            assert image == encode_config(scheme, nxt), (word, prev)
            steps_checked += 1
    return steps_checked


def test_compiled_system_commutes_with_steps(palindrome):
    checked = _check_commuting(palindrome, ["", "0", "01", "010", "0110", "110011"])
    assert checked >= 50


def test_compiled_system_commutes_for_other_machines(marker, immediate, right_mover):
    _check_commuting(marker, ["", "0001", "111"])
    _check_commuting(immediate, ["", "0"])
    _check_commuting(right_mover, ["", "0101"], max_steps=25)


def test_commuting_survives_base_override(palindrome):
    checked = _check_commuting(palindrome, ["01", "010"], base=7)
    assert checked > 0


def test_decided_configs_are_fixed_points(palindrome):
    scheme = EncodingScheme.for_machine(palindrome)
    system = build_pam(palindrome, scheme)
    result = run(palindrome, "0110", 200)
    assert result.outcome is Outcome.ACCEPT
    point = encode_config(scheme, trace(palindrome, "0110", 200)[-1])
    assert system.eval_at(point) == point


def test_stuck_undecided_configs_are_unmapped():
    machine = TuringMachine(
        states=("a", "win"),
        alphabet=("0",),
        blank="_",
        initial="a",
        accepting=frozenset({"win"}),
        rejecting=frozenset(),
        rules=(("a", "0", "a", "0", 1),),
    )
    scheme = EncodingScheme.for_machine(machine)
    system = build_pam(machine, scheme)
    stuck = run(machine, "0", 10)
    assert stuck.outcome is Outcome.STUCK
    with pytest.raises(UndefinedRegionError):
        system.eval_at(encode_config(scheme, trace(machine, "0", 10)[-1]))


def test_piece_inventory(palindrome, immediate):
    # immediate accept: 9 rule pieces on q0 plus 9 identity pieces on qa
    system = build_pam(immediate)
    assert len(system.pieces) == 18
    assert len(build_pam(palindrome).pieces) == 72
    # the state row is constant, so the expansion is the tape row: the base
    assert build_pam(palindrome).lipschitz == 5


def test_state_coordinate_margin(palindrome):
    # every region spans 1/4 on each side of its state index, and the next
    # state coordinate is written exactly, so state noise below 1/4 never
    # changes which piece fires and is squashed to zero by the step
    scheme = EncodingScheme.for_machine(palindrome)
    system = build_pam(palindrome, scheme)
    config = Configuration.initial(palindrome, "01")
    point = encode_config(scheme, config)
    nudged = Point.of(point[0] + Fraction(1, 5), point[1], point[2])
    assert system.eval_at(nudged) == system.eval_at(point)
    # between the state blocks the map is undefined
    dead = Point.of(point[0] + Fraction(1, 2), point[1], point[2])
    with pytest.raises(UndefinedRegionError):
        system.eval_at(dead)


def test_machine_domain_covers_encodings(palindrome):
    scheme = EncodingScheme.for_machine(palindrome)
    dom = machine_domain(scheme)
    assert dom.lo == Point.of("1/2", 0, 0)
    assert dom.hi == Point.of("17/2", 1, 1)
    config = Configuration.initial(palindrome, "0110")
    assert dom.contains(encode_config(scheme, config))


def test_scheme_mismatch_rejected(palindrome, marker):
    scheme = EncodingScheme.for_machine(marker)
    with pytest.raises(EncodingError):
        build_pam(palindrome, scheme)


def test_scheme_for_another_blank_rejected(marker):
    # same states and alphabet, but the blank is renamed: the scheme digits
    # "#" where the machine's rules read "_", so every blank-reading rule
    # would compile to no piece
    renamed = TuringMachine(
        states=marker.states,
        alphabet=marker.alphabet,
        blank="#",
        initial=marker.initial,
        accepting=marker.accepting,
        rejecting=marker.rejecting,
        rules=tuple(
            (q, "#" if a == "_" else a, q2, "#" if b == "_" else b, move)
            for q, a, q2, b, move in marker.rules
        ),
    )
    assert len(build_pam(marker).pieces) == len(build_pam(renamed).pieces) == 54
    with pytest.raises(EncodingError, match="scheme was built for a different machine"):
        build_pam(marker, EncodingScheme.for_machine(renamed))


def test_scheme_reads_the_machine_numbering(palindrome):
    scheme = EncodingScheme.for_machine(palindrome, base=9)
    assert scheme.machine is palindrome
    for sym, code in palindrome.symbol_codes.items():
        assert scheme.digit(sym) == code + 1
        assert scheme.symbol(code + 1) == sym
    for state, code in palindrome.state_codes.items():
        assert scheme.state_index(state) == code + 1
    with pytest.raises(EncodingError):
        scheme.state_index("nowhere")
    with pytest.raises(EncodingError):
        scheme.symbol(0)


def test_sidecar_contents(palindrome):
    side = scheme_sidecar(EncodingScheme.for_machine(palindrome))
    assert side["base"] == 5
    assert side["digits"] == {"_": 1, "0": 2, "1": 3}
    assert side["states"]["q0"] == 1
    assert side["states"]["qr"] == 8
