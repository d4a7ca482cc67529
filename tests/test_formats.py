import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import partial_pams, random_total_pam, tm_to_text
from robustreach.errors import InputFormatError
from robustreach.formats import (
    dump_json,
    dump_pam,
    load_pam,
    load_tm,
    load_witness,
    pam_from_json,
    pam_to_json,
    pgm_bytes,
    tm_from_text,
    verdict_to_json,
    witness_from_json,
    witness_to_json,
)
from robustreach.reach import (
    FalseAtEps,
    Reached,
    RobustlyUnreachable,
    TrueAtEps,
    Unknown,
    Witness,
)
from robustreach.geometry import Point


# -- PAM JSON ------------------------------------------------------------------


def test_pam_json_round_trip(s1, s2):
    rng = random.Random(5)
    systems = [s1, s2] + [random_total_pam(rng, rng.choice([1, 2])) for _ in range(10)]
    for system in systems:
        assert pam_from_json(pam_to_json(system)) == system


def test_pam_dump_is_deterministic_and_reduced(s2):
    a = io.StringIO()
    b = io.StringIO()
    dump_pam(s2, a)
    dump_pam(s2, b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().endswith("\n")

    tree = pam_to_json(s2)
    tree["pieces"][0]["A"][0][0] = "4/6"
    system = pam_from_json(tree)
    assert pam_to_json(system)["pieces"][0]["A"][0][0] == "2/3"


def test_pam_file_round_trip(tmp_path, s1):
    path = tmp_path / "sys.json"
    with open(path, "w") as fh:
        dump_pam(s1, fh)
    assert load_pam(str(path)) == s1


@pytest.mark.parametrize(
    "mutate, hint",
    [
        (lambda t: t.pop("dimension"), "dimension"),
        (lambda t: t.__setitem__("dimension", "1"), "dimension"),
        (lambda t: t.__setitem__("dimension", 0), "dimension"),
        (lambda t: t.__setitem__("domain", [["0", "1"], ["0", "1"]]), "domain"),
        (lambda t: t.__setitem__("pieces", []), "pieces"),
        (lambda t: t["pieces"][0].pop("region"), "region"),
        (lambda t: t["pieces"][0].__setitem__("A", [["1/2"]] * 2), "A"),
        (lambda t: t["pieces"][0]["A"][0].__setitem__(0, "0.5"), "A[0]"),
        (lambda t: t["pieces"][0].__setitem__("b", ["0", "0"]), "b"),
        (
            lambda t: t["pieces"][1].__setitem__("region", [["0", "1"], ["0", "1"]]),
            "pieces[1]",
        ),
        (lambda t: t["domain"][0].__setitem__(0, 0), "domain[0].lo: expected a rational string"),
        (lambda t: t["pieces"][0].__setitem__("b", "0"), "pieces[0].b: expected a list"),
        (lambda t: t["domain"].__setitem__(0, ["0"]), "domain[0]: expected a [lo, hi] pair"),
        (
            lambda t: t["pieces"][0].__setitem__("region", [["1/2", "0"]]),
            "pieces[0].region: inverted box axis",
        ),
        (lambda t: t["pieces"].__setitem__(0, ["0", "1/2"]), "pieces[0]: expected an object"),
        (lambda t: t["pieces"][1].__setitem__("A", [[]]), "pieces[1].A[0]: expected 1 entries"),
    ],
)
def test_pam_json_rejects_malformed_trees(s2, mutate, hint):
    tree = json.loads(json.dumps(pam_to_json(s2)))
    mutate(tree)
    with pytest.raises(InputFormatError) as err:
        pam_from_json(tree)
    assert hint in str(err.value)


def test_pam_json_rejects_overlapping_pieces(s2):
    tree = json.loads(json.dumps(pam_to_json(s2)))
    tree["pieces"][1]["region"] = [["1/4", "1"]]
    with pytest.raises(InputFormatError) as err:
        pam_from_json(tree)
    assert "invalid system" in str(err.value)


def test_load_pam_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(InputFormatError) as err:
        load_pam(str(path))
    assert "broken.json" in str(err.value)


# -- machine text ---------------------------------------------------------------


def test_tm_text_round_trip(palindrome, marker, immediate, right_mover):
    for machine in (palindrome, marker, immediate, right_mover):
        assert tm_from_text(tm_to_text(machine)) == machine


def test_tm_text_ignores_comments_and_interleaving():
    machine = tm_from_text(
        """
        # a one-way street
        states: a b
        a _ -> b _ R   # jump early, headers later
        alphabet: 0
        blank: _
        initial: a
        accept: b
        reject:
        """
    )
    assert machine.initial == "a"
    assert machine.rules == (("a", "_", "b", "_", 1),)
    assert machine.accepting == frozenset({"b"})


@pytest.mark.parametrize(
    "text, hint",
    [
        ("states: a\nblank: _\ninitial: a\n", "alphabet"),
        ("states: a\nalphabet: 0\nblank: _ x\ninitial: a\n", "blank"),
        ("states: a\nalphabet: 0\nblank: _\ninitial: a b\n", "initial"),
        ("states: a\nstates: a\nalphabet: 0\nblank: _\ninitial: a\n", "duplicate"),
        ("speed: fast\n", "header"),
        ("states: a\nalphabet: 0\nblank: _\ninitial: a\na 0 -> a R\n", "transition"),
        ("states: a\nalphabet: 0\nblank: _\ninitial: a\na 0 -> a 0 X\n", "move"),
    ],
)
def test_tm_text_rejects_malformed_input(text, hint):
    with pytest.raises(InputFormatError) as err:
        tm_from_text(text)
    assert hint in str(err.value)


def test_tm_text_rejects_invalid_machines():
    # parses fine, fails machine validation: a rule that changes nothing
    text = (
        "states: a\nalphabet: 0\nblank: _\ninitial: a\naccept:\nreject:\n"
        "a 0 -> a 0 S\n"
    )
    with pytest.raises(InputFormatError):
        tm_from_text(text)
    # accept and reject overlap
    text = (
        "states: a b\nalphabet: 0\nblank: _\ninitial: a\naccept: b\nreject: b\n"
        "a 0 -> b 0 R\n"
    )
    with pytest.raises(InputFormatError):
        tm_from_text(text)


def test_load_tm_reports_path_and_line(tmp_path):
    path = tmp_path / "bad.tm"
    path.write_text("states: a\nwat\n")
    with pytest.raises(InputFormatError) as err:
        load_tm(str(path))
    assert "bad.tm:2" in str(err.value)


# -- witnesses and verdicts ------------------------------------------------------


def test_witness_json_round_trip():
    witness = Witness(3, 3, frozenset({(5,), (6,), (7,)}))
    tree = witness_to_json(witness)
    assert tree == {"m": 3, "epsExp": 3, "cells": [[5], [6], [7]]}
    assert witness_from_json(tree) == witness

    flat = Witness(2, 4, frozenset({(1, 0), (0, 1)}))
    tree = witness_to_json(flat)
    assert tree["cells"] == [[0, 1], [1, 0]]
    assert witness_from_json(tree) == flat


@pytest.mark.parametrize(
    "tree",
    [
        [],
        {"m": "3", "epsExp": 3, "cells": []},
        {"m": 3, "epsExp": None, "cells": []},
        {"m": 3, "epsExp": 3, "cells": {}},
        {"m": 3, "epsExp": 3, "cells": [[1], ["2"]]},
    ],
)
def test_witness_json_rejects_malformed_trees(tree):
    with pytest.raises(InputFormatError):
        witness_from_json(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {"m": True, "epsExp": True, "cells": [[False], [True]]},
        {"m": True, "epsExp": 3, "cells": []},
        {"m": 3, "epsExp": False, "cells": []},
        {"m": 3, "epsExp": 3, "cells": [[5], [True]]},
    ],
)
def test_witness_json_rejects_booleans(tree):
    with pytest.raises(InputFormatError, match="witness"):
        witness_from_json(tree)


def test_pam_json_rejects_a_boolean_dimension(s1):
    tree = pam_to_json(s1)
    tree["dimension"] = True
    with pytest.raises(InputFormatError, match="dimension"):
        pam_from_json(tree)


def test_load_witness_bare_and_wrapped(tmp_path):
    witness = Witness(3, 3, frozenset({(5,), (6,), (7,)}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(witness_to_json(witness)))
    assert load_witness(str(bare)) == witness

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(
        json.dumps({"verdict": "robustly-unreachable", "witness": witness_to_json(witness)})
    )
    assert load_witness(str(wrapped)) == witness

    broken = tmp_path / "broken.json"
    broken.write_text("[1,")
    with pytest.raises(InputFormatError):
        load_witness(str(broken))


@pytest.mark.parametrize("loader, text, hint", [
    (load_pam, "[1,", "Expecting value"),
    (load_pam, '{"dimension": 1}', "top level: missing key"),
    (load_witness, "[1,", "Expecting value"),
    (load_witness, '{"witness": []}', "witness: expected an object"),
], ids=["pam-syntax", "pam-schema", "witness-syntax", "witness-schema"])
def test_json_loaders_name_the_file(tmp_path, loader, text, hint):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InputFormatError) as err:
        loader(str(path))
    assert str(err.value).startswith(f"{path}: ")
    assert hint in str(err.value)


def test_verdict_json_shapes():
    reached = Reached((Point.of(1), Point.of("1/2"), Point.of("1/4")), 2)
    tree = verdict_to_json(reached)
    assert tree == {
        "verdict": "reached",
        "steps": 2,
        "trajectory": [["1"], ["1/2"], ["1/4"]],
    }

    unreachable = RobustlyUnreachable(Witness(3, 3, frozenset({(5,)})))
    tree = verdict_to_json(unreachable)
    assert tree["verdict"] == "robustly-unreachable"
    assert tree["witness"]["cells"] == [[5]]

    unknown = Unknown(10, 1024, None)
    tree = verdict_to_json(unknown)
    assert tree == {
        "verdict": "unknown",
        "budget": {"maxM": 10, "stepsSimulated": 1024, "simulationStopped": None},
    }

    with pytest.raises(TypeError):
        verdict_to_json("yes")


def test_interval_verdict_json_shapes():
    assert verdict_to_json(TrueAtEps(Fraction(1, 4), 2)) == {
        "verdict": "true-at-eps",
        "eps": "1/4",
        "epsExp": 2,
    }
    assert verdict_to_json(FalseAtEps(Fraction(1, 16), 4)) == {
        "verdict": "false-at-eps",
        "eps": "1/16",
        "epsExp": 4,
    }
    with pytest.raises(TypeError):
        verdict_to_json(None)


def test_dump_json_deterministic():
    tree = {"b": 1, "a": [1, 2]}
    a = io.StringIO()
    b = io.StringIO()
    dump_json(tree, a)
    dump_json(tree, b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().index('"a"') < a.getvalue().index('"b"')


# -- PGM -------------------------------------------------------------------------


def test_pgm_bytes_contract():
    assert pgm_bytes(((1, 1), (1, 1))) == b"P2\n2 2\n1\n1 1\n1 1\n"
    assert pgm_bytes(((0, 1, 0),)) == b"P2\n3 1\n1\n0 1 0\n"
    with pytest.raises(InputFormatError):
        pgm_bytes(())


# -- parser properties -------------------------------------------------------------

# Keys and strings the parsers look for, mixed with arbitrary ones, so that
# generated trees reach past the top-level checks.
_KEYS = st.sampled_from(
    ["dimension", "domain", "pieces", "region", "A", "b", "m", "epsExp", "cells"]
) | st.text(max_size=3)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.floats()
    | st.sampled_from(["0", "1", "1/2", "-3/4", "1/0", "0.5", "x"])
    | st.text(max_size=4)
)
_JSON_TREES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_KEYS, children, max_size=5),
    max_leaves=12,
)
_TOKENS = st.sampled_from(
    ["q0", "q1", "qa", "0", "1", "_", "->", "L", "R", "S", "#", "states:", "alphabet:",
     "blank:", "initial:", "accept:", "reject:", "ab", ":"]
) | st.text(max_size=3)
_MACHINE_TEXTS = st.lists(
    st.lists(_TOKENS, max_size=6).map(" ".join) | st.text(max_size=8), max_size=12
).map("\n".join)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_JSON_TREES)
def test_json_parsers_raise_only_input_format_errors(tree):
    for parse in (pam_from_json, witness_from_json):
        try:
            parse(tree)
        except InputFormatError:
            pass


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_MACHINE_TEXTS)
def test_machine_parser_raises_only_input_format_errors(text):
    try:
        tm_from_text(text)
    except InputFormatError:
        pass


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.builds(
        Witness,
        st.integers(),
        st.integers(),
        st.frozensets(st.lists(st.integers(), max_size=3).map(tuple), max_size=6),
    )
)
def test_witness_json_round_trips(witness):
    assert witness_from_json(json.loads(json.dumps(witness_to_json(witness)))) == witness


@settings(max_examples=100, deadline=None, derandomize=True)
@given(partial_pams())
def test_pam_json_round_trips(system_and_level):
    system = system_and_level[0]
    assert pam_from_json(json.loads(json.dumps(pam_to_json(system)))) == system
