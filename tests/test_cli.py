import json
from fractions import Fraction
from itertools import product

import pytest

from conftest import FIXTURES, fixture_path
from helpers_oracles import scan_accepts_within_length
from robustreach.cli import main
from robustreach.formats import load_tm
from robustreach.geometry import format_rational
from robustreach.trajectory import LengthBudgetError, trajectory_length

S1 = str(fixture_path("s1.json"))
S2 = str(fixture_path("s2.json"))
PALINDROME = str(fixture_path("palindrome.tm"))
MARKER = str(fixture_path("marker.tm"))
IMMEDIATE = str(fixture_path("immediate_accept.tm"))
RIGHT_MOVER = str(fixture_path("right_mover.tm"))
GAP = str(fixture_path("gap.json"))
GOLDEN_PGM = fixture_path("golden/s2_x1_n4.pgm")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# -- reach ---------------------------------------------------------------------


def test_reach_unreachable(capsys):
    tree = run_json(
        capsys, ["reach", "--system", S2, "--x", "3/4", "--y", "1/4"]
    )
    assert tree["verdict"] == "robustly-unreachable"
    assert tree["witness"] == {"m": 3, "epsExp": 3, "cells": [[5], [6], [7]]}


def test_reach_ball_hit(capsys):
    tree = run_json(
        capsys, ["reach", "--system", S1, "--x", "1", "--y", "1/8", "--p", "4"]
    )
    assert tree["verdict"] == "reached"
    assert tree["steps"] == 3
    assert tree["trajectory"] == [["1"], ["1/2"], ["1/4"], ["1/8"]]


def test_reach_unknown_with_budget_flags(capsys):
    tree = run_json(
        capsys,
        [
            "reach", "--system", S1, "--x", "1", "--y", "0",
            "--max-m", "3", "--max-steps", "16",
        ],
    )
    assert tree["verdict"] == "unknown"
    assert tree["budget"]["maxM"] == 3
    # the simulation never outruns what max-m rounds can use: 2^3 steps
    assert tree["budget"]["stepsSimulated"] == 8
    tree = run_json(
        capsys,
        [
            "reach", "--system", S1, "--x", "1", "--y", "0",
            "--max-m", "3", "--max-steps", "5",
        ],
    )
    assert tree["budget"]["stepsSimulated"] == 5


def test_reach_max_m_zero_tests_the_source(capsys):
    argv = ["reach", "--system", S2, "--x", "1/4", "--y", "1/4", "--max-m", "0"]
    tree = run_json(capsys, argv)
    assert tree["verdict"] == "reached"
    assert tree["steps"] == 0
    assert tree["trajectory"] == [["1/4"]]
    # the same answer as a one-round budget that simulates nothing
    assert run_json(capsys, argv[:-1] + ["1", "--max-steps", "0"]) == tree


def test_reach_env_budgets(capsys, monkeypatch):
    monkeypatch.setenv("ROBUSTREACH_MAX_M", "3")
    monkeypatch.setenv("ROBUSTREACH_MAX_STEPS", "5")
    tree = run_json(capsys, ["reach", "--system", S1, "--x", "1", "--y", "0"])
    assert tree["budget"] == {"maxM": 3, "stepsSimulated": 5, "simulationStopped": None}

    # flags beat the environment
    tree = run_json(
        capsys,
        ["reach", "--system", S1, "--x", "1", "--y", "0", "--max-steps", "3"],
    )
    assert tree["budget"]["stepsSimulated"] == 3

    monkeypatch.setenv("ROBUSTREACH_MAX_M", "three")
    assert main(["reach", "--system", S1, "--x", "1", "--y", "0"]) == 1


def test_reach_output_is_deterministic(capsys):
    code = main(["reach", "--system", S2, "--x", "3/4", "--y", "1/4"])
    first = capsys.readouterr().out
    code = main(["reach", "--system", S2, "--x", "3/4", "--y", "1/4"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second


def test_reach_out_file(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    code = main(
        ["reach", "--system", S2, "--x", "3/4", "--y", "1/4", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["verdict"] == "robustly-unreachable"


def test_reach_rejects_bad_input(capsys):
    assert main(["reach", "--system", S1, "--x", "0.5", "--y", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["reach", "--system", "/nowhere.json", "--x", "1", "--y", "0"]) == 1
    assert main(["reach", "--system", S1, "--x", "1,1", "--y", "0"]) == 1


TARGET = ["--system", S2, "--x", "3/4", "--y", "1/4"]
WITNESS = ["--witness", "{tmp}/witness.json"]
TM = ["--machine", PALINDROME, "--word", "0110"]

# Every integer flag of every command, and every budget variable a command
# reads, set to -1: (argv, environment variable or None).
NEGATIVE_INTS = {
    "reach-p": (["reach", *TARGET, "--p", "-1"], None),
    "reach-max-m": (["reach", *TARGET, "--max-m", "-1"], None),
    "reach-max-steps": (["reach", *TARGET, "--max-steps", "-1"], None),
    "reach-env-max-m": (["reach", *TARGET], "ROBUSTREACH_MAX_M"),
    "reach-env-max-steps": (["reach", *TARGET], "ROBUSTREACH_MAX_STEPS"),
    "delta-decide-p": (["delta-decide", *TARGET, "--p", "-1", "--n", "2"], None),
    "delta-decide-n": (["delta-decide", *TARGET, "--n", "-1"], None),
    "witness-check-p": (["witness-check", *TARGET, *WITNESS, "--p", "-1"], None),
    "plot-n": (["plot", "--system", S2, "--x", "1", "--n", "-1"], None),
    "tm-run-max-steps": (["tm-run", *TM, "--max-steps", "-1"], None),
    "tm-run-env-max-steps": (["tm-run", *TM], "ROBUSTREACH_MAX_STEPS"),
    "tm-perturbed-space-n": (["tm-perturbed", *TM, "--mode", "space", "--n", "-1"], None),
    "tm-perturbed-time-n": (["tm-perturbed", *TM, "--mode", "time", "--n", "-1"], None),
    "tm-length-max-steps": (["tm-length", *TM, "--bound", "6", "--max-steps", "-1"], None),
    "tm-length-env-max-steps": (["tm-length", *TM, "--bound", "6"], "ROBUSTREACH_MAX_STEPS"),
    "embed-base": (["embed", "--machine", PALINDROME, "--base", "-1", "--out", "{tmp}/m"], None),
}


@pytest.mark.parametrize("argv, env", NEGATIVE_INTS.values(), ids=NEGATIVE_INTS.keys())
def test_negative_integers_exit_1(argv, env, tmp_path, monkeypatch, capsys):
    (tmp_path / "witness.json").write_text('{"m": 3, "epsExp": 3, "cells": [[5], [6], [7]]}')
    if env is not None:
        monkeypatch.setenv(env, "-1")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plot", "--system", S2, "--x", "5", "--n", "2"], "point 5"),
        (["delta-decide", "--system", S2, "--x", "5", "--y", "1/4", "--n", "2"], "source 5"),
        (["reach", "--system", S2, "--x", "3/4", "--y", "5/2"], "target 5/2"),
    ],
    ids=["plot", "delta-decide", "reach"],
)
def test_points_outside_the_domain_are_named_as_typed(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} outside the domain\n"


def test_simulation_stop_names_the_point_as_typed(capsys):
    # x -> x/2 is defined on [1/2, 1] only, so the orbit of 1 stops at 1/4
    tree = run_json(capsys, ["reach", "--system", GAP, "--x", "1", "--y", "0", "--max-m", "3"])
    assert tree["budget"]["simulationStopped"] == (
        "simulation stopped at step 2: no piece covers 1/4"
    )


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv",
    [
        ["reach", *TARGET],
        ["delta-decide", *TARGET, "--n", "2"],
        ["witness-check", *TARGET, *WITNESS],
        ["plot", "--system", S2, "--x", "1", "--n", "4"],
        ["tm-run", *TM],
        ["tm-perturbed", *TM, "--mode", "space", "--n", "2"],
        ["tm-length", *TM, "--bound", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsysbinary):
    (tmp_path / "witness.json").write_text('{"m": 3, "epsExp": 3, "cells": [[5], [6], [7]]}')
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert printed
    out = tmp_path / "document"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed


# Verdict documents pinned byte for byte: golden file stem -> argv. The
# witness check reads the robustly-unreachable golden as its witness file.
GOLDEN_JSON = {
    "reach_reached": ["reach", "--system", S1, "--x", "1", "--y", "1/8", "--p", "4"],
    "reach_robustly_unreachable": ["reach", *TARGET],
    "reach_unknown": ["reach", "--system", S1, "--x", "1", "--y", "0", "--max-m", "4"],
    "reach_unknown_stopped": ["reach", "--system", GAP, "--x", "1", "--y", "0", "--max-m", "3"],
    "delta_true": ["delta-decide", "--system", S1, "--x", "1", "--y", "1/8", "--p", "4", "--n", "2"],
    "delta_false": ["delta-decide", *TARGET, "--n", "3"],
    "witness_valid": [
        "witness-check", *TARGET,
        "--witness", str(fixture_path("golden/reach_robustly_unreachable.json")),
    ],
}


@pytest.mark.parametrize("name", GOLDEN_JSON)
def test_stdout_matches_golden_json(name, capsysbinary):
    assert main(GOLDEN_JSON[name]) == 0
    assert capsysbinary.readouterr().out == fixture_path(f"golden/{name}.json").read_bytes()


def test_failed_command_creates_no_out_file(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    argv = ["delta-decide", "--system", S2, "--x", "5", "--y", "1/4", "--n", "2"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: source 5 outside the domain\n"
    assert not out.exists()


# -- delta-decide ----------------------------------------------------------------


def test_delta_decide_both_sides(capsys):
    tree = run_json(
        capsys,
        ["delta-decide", "--system", S1, "--x", "1", "--y", "1/8", "--p", "4", "--n", "2"],
    )
    assert tree == {"verdict": "true-at-eps", "eps": "1/4", "epsExp": 2}

    tree = run_json(
        capsys,
        ["delta-decide", "--system", S2, "--x", "3/4", "--y", "1/4", "--p", "3", "--n", "2"],
    )
    assert tree == {"verdict": "false-at-eps", "eps": "1/16", "epsExp": 4}


# -- witness-check -----------------------------------------------------------------


def test_witness_check_round_trip(tmp_path, capsys):
    verdict_file = tmp_path / "verdict.json"
    assert (
        main(
            ["reach", "--system", S2, "--x", "3/4", "--y", "1/4", "--out", str(verdict_file)]
        )
        == 0
    )
    # the reach output itself is a valid witness file (wrapped form)
    tree = run_json(
        capsys,
        [
            "witness-check", "--system", S2, "--x", "3/4", "--y", "1/4",
            "--witness", str(verdict_file),
        ],
    )
    assert tree["valid"] is True
    assert tree["witness"]["cells"] == [[5], [6], [7]]

    # tamper with it: claim one cell fewer
    doc = json.loads(verdict_file.read_text())
    doc["witness"]["cells"] = [[5], [6]]
    bad_file = tmp_path / "tampered.json"
    bad_file.write_text(json.dumps(doc))
    tree = run_json(
        capsys,
        [
            "witness-check", "--system", S2, "--x", "3/4", "--y", "1/4",
            "--witness", str(bad_file),
        ],
    )
    assert tree["valid"] is False


def test_witness_check_rejects_a_target_outside_the_domain(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    assert main(["reach", *TARGET, "--out", str(witness)]) == 0
    for p in ([], ["--p", "1"]):
        argv = ["witness-check", "--system", S2, "--x", "3/4", "--y", "5", *p]
        assert main([*argv, "--witness", str(witness)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: target") and "outside the domain" in err


def test_witness_check_answers_invalid_for_a_negative_level(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    witness.write_text('{"m": -1, "epsExp": 3, "cells": [[0]]}')
    tree = run_json(capsys, ["witness-check", *TARGET, "--witness", str(witness)])
    assert tree["valid"] is False


def test_witness_check_skips_images_that_leave_the_domain(tmp_path, capsys):
    # [0, 1/2] -> 3 leaves the domain; [1/2, 1] -> 1 meets the witness cell
    # only on the shared face, which the tie-break hands to the first piece
    system = tmp_path / "escape.json"
    system.write_text(
        '{"dimension": 1, "domain": [["0", "1"]], "pieces": ['
        '{"region": [["0", "1/2"]], "A": [["0"]], "b": ["3"]}, '
        '{"region": [["1/2", "1"]], "A": [["0"]], "b": ["1"]}]}'
    )
    verdict = tmp_path / "verdict.json"
    query = ["--system", str(system), "--x", "0", "--y", "1", "--p", "2"]
    assert main(["reach", *query, "--out", str(verdict)]) == 0
    tree = json.loads(verdict.read_text())
    assert tree["verdict"] == "robustly-unreachable"
    assert tree["witness"]["m"] == 1 and tree["witness"]["cells"] == [[0]]
    assert run_json(capsys, ["witness-check", *query, "--witness", str(verdict)])["valid"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["reach", *TARGET],
        ["delta-decide", *TARGET, "--n", "1"],
        ["plot", "--system", S2, "--x", "3/4", "--n", "1"],
        ["witness-check", *TARGET, "--witness", "witness.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_has_a_rule_option(argv):
    # there is one edge rule, so no command offers a choice of it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--rule", "exact"])
    assert exc.value.code == 2


# A valid witness and system for TARGET, then one integer in either made
# a JSON boolean: (text replaced, replacement).
BOOLEAN_INTS = {
    "witness-m": ('"m": 3', '"m": true'),
    "witness-eps-exp": ('"epsExp": 3', '"epsExp": true'),
    "witness-cell": ("[6]", "[false]"),
    "pam-dimension": ('"dimension": 1', '"dimension": true'),
}


@pytest.mark.parametrize("old, new", BOOLEAN_INTS.values(), ids=list(BOOLEAN_INTS))
def test_boolean_integers_exit_1(old, new, tmp_path, capsys):
    texts = {
        "witness.json": '{"m": 3, "epsExp": 3, "cells": [[5], [6], [7]]}',
        "system.json": json.dumps(json.loads(fixture_path("s2.json").read_text())),
    }
    assert sum(old in text for text in texts.values()) == 1
    for name, text in texts.items():
        (tmp_path / name).write_text(text.replace(old, new))
    argv = ["witness-check", "--system", str(tmp_path / "system.json"), "--x", "3/4", "--y", "1/4"]
    assert main([*argv, "--witness", str(tmp_path / "witness.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


# -- plot ---------------------------------------------------------------------------


def test_plot_stdout_matches_golden(capsysbinary):
    assert main(["plot", "--system", S2, "--x", "1", "--n", "4"]) == 0
    assert capsysbinary.readouterr().out == GOLDEN_PGM.read_bytes()


def test_plot_out_file_matches_golden(tmp_path):
    out = tmp_path / "plot.pgm"
    assert main(["plot", "--system", S2, "--x", "1", "--n", "4", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_PGM.read_bytes()


def test_plot_rejects_bad_axes(capsys):
    assert main(["plot", "--system", S2, "--x", "1", "--n", "2", "--axes", "0,0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["plot", "--system", S2, "--x", "1", "--n", "2", "--axes", "zero"]) == 1


# -- machine commands -----------------------------------------------------------------


def test_tm_run(capsys):
    tree = run_json(capsys, ["tm-run", "--machine", PALINDROME, "--word", "0110"])
    assert tree == {"outcome": "accept", "steps": 15}
    tree = run_json(capsys, ["tm-run", "--machine", PALINDROME, "--word", "01"])
    assert tree == {"outcome": "reject", "steps": 4}
    tree = run_json(
        capsys, ["tm-run", "--machine", RIGHT_MOVER, "--word", "0", "--max-steps", "7"]
    )
    assert tree == {"outcome": "running", "steps": 7}


def test_tm_run_rejects_foreign_letters(capsys):
    assert main(["tm-run", "--machine", PALINDROME, "--word", "abc"]) == 1
    assert "error:" in capsys.readouterr().err


def test_tm_perturbed_checks_the_window_before_the_word(capsys):
    # with two bad inputs, the window radius is reported first
    argv = ["tm-perturbed", "--machine", PALINDROME, "--word", "2", "--mode", "space"]
    assert main([*argv, "--n", "0"]) == 1
    assert capsys.readouterr().err == "error: space perturbation needs window n >= 1, got 0\n"
    assert main([*argv, "--n", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: word uses symbols outside the alphabet")


def test_tm_perturbed(capsys):
    # the marker machine rejects the empty word exactly, but one cell of
    # fog is enough to make it accept
    tree = run_json(
        capsys,
        ["tm-perturbed", "--machine", MARKER, "--word", "", "--mode", "space", "--n", "1"],
    )
    assert tree == {"accepts": True, "mode": "space", "n": 1}
    tree = run_json(
        capsys,
        ["tm-perturbed", "--machine", PALINDROME, "--word", "01", "--mode", "time", "--n", "4"],
    )
    assert tree == {"accepts": False, "mode": "time", "n": 4}
    tree = run_json(
        capsys,
        ["tm-perturbed", "--machine", PALINDROME, "--word", "01", "--mode", "time", "--n", "3"],
    )
    assert tree["accepts"] is True


def test_tm_length(capsys):
    tree = run_json(
        capsys, ["tm-length", "--machine", PALINDROME, "--word", "", "--bound", "6"]
    )
    assert tree == {
        "acceptsWithinLength": True,
        "bound": "6",
        "trajectoryLength": "6",
    }
    tree = run_json(
        capsys, ["tm-length", "--machine", PALINDROME, "--word", "", "--bound", "5"]
    )
    assert tree["acceptsWithinLength"] is False


def test_tm_length_runaway_budget(capsys):
    # the walker blows past a small bound: an honest False
    tree = run_json(
        capsys, ["tm-length", "--machine", RIGHT_MOVER, "--word", "", "--bound", "2"]
    )
    assert tree["acceptsWithinLength"] is False

    # under a huge bound the step budget runs out first: undecidable here
    assert (
        main(
            [
                "tm-length", "--machine", RIGHT_MOVER, "--word", "",
                "--bound", "1000000000", "--max-steps", "100",
            ]
        )
        == 1
    )
    assert "error:" in capsys.readouterr().err


def test_tm_length_negative_max_steps(capsys):
    # the run itself rejects the bound, before any machine step
    argv = [
        "tm-length", "--machine", RIGHT_MOVER, "--word", "",
        "--bound", "1", "--max-steps", "-1",
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: max_steps must be >= 0, got -1\n"


def test_tm_length_of_a_machine_with_no_rules(tmp_path, capsys):
    # stuck at step 0 with nothing to compile: the length is 0, not an error
    machine = tmp_path / "inert.tm"
    machine.write_text(
        "states: a\nalphabet: 0\nblank: _\ninitial: a\naccept:\nreject:\n"
    )
    tree = run_json(
        capsys, ["tm-length", "--machine", str(machine), "--word", "0", "--bound", "1"]
    )
    assert tree == {"acceptsWithinLength": False, "bound": "1", "trajectoryLength": "0"}


def test_tm_length_matches_library_functions(capsys):
    max_steps = 40
    for path in sorted(FIXTURES.glob("*.tm")):
        machine = load_tm(path)
        words = [
            "".join(w)
            for n in range(5)
            for w in product(machine.alphabet, repeat=n)
        ]
        for word in words:
            length = trajectory_length(machine, word, max_steps)
            for bound in (length / 2, length - Fraction(1, 1000), length, length + 1):
                argv = [
                    "tm-length", "--machine", str(path), "--word", word,
                    f"--bound={format_rational(bound)}", "--max-steps", str(max_steps),
                ]
                try:
                    accepts = scan_accepts_within_length(
                        machine, word, bound, max_steps=max_steps
                    )
                except LengthBudgetError as exc:
                    assert main(argv) == 1
                    assert capsys.readouterr().err == f"error: {exc}\n"
                    continue
                assert run_json(capsys, argv) == {
                    "acceptsWithinLength": accepts,
                    "bound": format_rational(bound),
                    "trajectoryLength": format_rational(length),
                }


# -- embed ------------------------------------------------------------------------------


def test_embed_writes_pam_and_sidecar(tmp_path, capsys):
    out = tmp_path / "machine.pam.json"
    tree = run_json(
        capsys, ["embed", "--machine", IMMEDIATE, "--out", str(out)]
    )
    assert tree == {
        "pam": str(out),
        "sidecar": str(out) + ".sidecar.json",
        "pieces": 18,
    }

    from robustreach import embed as embed_mod
    from robustreach.formats import load_pam, load_tm

    machine = load_tm(IMMEDIATE)
    scheme = embed_mod.EncodingScheme.for_machine(machine)
    assert load_pam(str(out)) == embed_mod.build_pam(machine, scheme)

    sidecar = json.loads((tmp_path / (out.name + ".sidecar.json")).read_text())
    assert sidecar["base"] == scheme.base
    assert "states" in sidecar and "digits" in sidecar


def test_embed_custom_sidecar_and_base(tmp_path, capsys):
    out = tmp_path / "m.json"
    side = tmp_path / "side.json"
    tree = run_json(
        capsys,
        [
            "embed", "--machine", IMMEDIATE, "--base", "7",
            "--out", str(out), "--sidecar", str(side),
        ],
    )
    assert tree["sidecar"] == str(side)
    assert json.loads(side.read_text())["base"] == 7


def test_embed_rejects_sidecar_equal_to_out(tmp_path, capsys):
    out = tmp_path / "m.json"
    side = f"{tmp_path}/./m.json"  # the same file under another spelling
    argv = ["embed", "--machine", PALINDROME, "--out", str(out), "--sidecar", side]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --sidecar {side!r} is the --out file\n"
    assert list(tmp_path.iterdir()) == []
