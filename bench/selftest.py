"""Self-test of the benchmark's checkers: each must pass a true output and
reject a deliberately corrupted one.

    python3 bench/selftest.py

Run from the root of a source checkout; takes a few seconds. Exits 1 if
any checker accepts a corrupted output or rejects a true one.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import compiled_machine  # noqa: E402
import machine_windows  # noqa: E402
import oracles  # noqa: E402
import pam_queries  # noqa: E402
from run import import_program  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list[str], corrupted: bool) -> None:
    if bool(problems) != corrupted:
        FAILURES.append(label)
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if bool(problems) == corrupted else 'FAIL'} {label}: {verdict}")


def _fixture_query(name: str, x: str, y: str, p) -> pam_queries.Query:
    path = pam_queries.FIXTURES / name
    return pam_queries.Query(f"{name}:{x}->{y}", path, oracles.map_from_json(path.read_text()),
                             (Fraction(x),), (Fraction(y),), p, 10, 64, 3, 5)


def _with_reach(raw: dict, reach: dict) -> dict:
    return {**raw, "reach": json.dumps(reach).encode()}


def pam_checks(rr: dict, workdir: Path) -> None:
    state = pam_queries.State(rr, workdir, [], [])
    # Certificate: removing a cell that holds an orbit point breaks closure or coverage.
    q = _fixture_query("s2.json", "3/4", "1/4", None)
    raw = pam_queries._run_query(state, q)
    expect("certificate as produced", pam_queries.check_query(q, raw), corrupted=False)
    reach = json.loads(raw["reach"])
    grid = oracles.Grid(q.system.domain, reach["witness"]["m"])
    needed = sorted({c for pt in oracles.orbit(q.system, q.x, 8) for c in grid.cells_of_point(pt)})
    for cell in needed:
        bad = copy.deepcopy(reach)
        bad["witness"]["cells"].remove(list(cell))
        expect(f"certificate without cell {cell}",
               pam_queries.check_query(q, _with_reach(raw, bad)), corrupted=True)
    # Reached trajectory: move one point by 1/64.
    q = _fixture_query("s1.json", "1", "1/8", 4)
    raw = pam_queries._run_query(state, q)
    expect("reached trajectory as produced", pam_queries.check_query(q, raw), corrupted=False)
    reach = json.loads(raw["reach"])
    for t in range(1, len(reach["trajectory"])):
        bad = copy.deepcopy(reach)
        moved = Fraction(bad["trajectory"][t][0]) + Fraction(1, 64)
        bad["trajectory"][t][0] = f"{moved.numerator}/{moved.denominator}"
        expect(f"reached trajectory with point {t} moved",
               pam_queries.check_query(q, _with_reach(raw, bad)), corrupted=True)
    # The orbit hits the target, so delta-decide must say true-at-eps.
    dd = json.loads(raw["delta"])
    bad = {**dd, "verdict": "false-at-eps"}
    expect("delta-decide turned false on a hit",
           pam_queries.check_query(q, {**raw, "delta": json.dumps(bad).encode()}), corrupted=True)
    # The pixel at x itself must be black.
    text = raw["plot"].decode().split("\n")
    row = text[3].split()
    row[-1] = "0"
    text[3] = " ".join(row)
    expect("plot with the start pixel cleared",
           pam_queries.check_query(q, {**raw, "plot": "\n".join(text).encode()}), corrupted=True)


def machine_checks(rr: dict, workdir: Path) -> None:
    state = machine_windows.setup(rr, 0, workdir)
    for name in machine_windows.MACHINES:
        mc = state.own[name]
        verdicts = machine_windows._sweep(state, name, "accepts_space_perturbed")
        counts = machine_windows._sweep(state, name, "space_perturbed_window_count")
        expect(f"{name} window verdicts as produced", machine_windows.check_verdicts(mc, verdicts), False)
        expect(f"{name} window counts as produced", machine_windows.check_counts(mc, counts), False)
        for key in [("", 1), ("0110", 3), ("01", 2), ("1000", 1)]:
            flipped = {**verdicts, key: not verdicts[key]}
            expect(f"{name} window verdict {key} flipped",
                   machine_windows.check_verdicts(mc, flipped), corrupted=True)
        for key in [("", 1), ("0110", 3)]:
            over = {key: oracles.window_bound(mc, key[1]) + 1}
            expect(f"{name} window count {key} above the bound",
                   machine_windows.check_counts(mc, over, oracle_radii=()), corrupted=True)
    pal = state.own["palindrome"]
    exact = machine_windows._exact_radius(state)
    expect("exact-radius verdicts as produced",
           machine_windows.check_verdicts(pal, exact, exact_palindromes=True, oracle_radii=()), False)
    key = next(k for k in exact if k[0] == "0100")
    expect("exact-radius verdict flipped",
           machine_windows.check_verdicts(pal, {**exact, key: not exact[key]},
                                          exact_palindromes=True, oracle_radii=()), corrupted=True)
    for name, word, bound in [("palindrome", "0110", Fraction(9, 2)), ("marker", "0001", Fraction(7))]:
        argv = ["tm-length", *machine_windows._machine_arg(name), "--word", word, "--bound",
                f"{bound.numerator}/{bound.denominator}"]
        out = machine_windows._cli_json(state, argv)
        mc = state.own[name]
        expect(f"tm-length {name} {word!r} as produced",
               machine_windows.check_length(mc, word, bound, out), False)
        wrong = Fraction(out["trajectoryLength"]) + Fraction(1, 125)
        bad = {**out, "trajectoryLength": f"{wrong.numerator}/{wrong.denominator}"}
        expect(f"tm-length {name} {word!r} with a wrong trajectoryLength",
               machine_windows.check_length(mc, word, bound, bad), corrupted=True)
        for n in (0, 3, 30):
            argv = ["tm-perturbed", *machine_windows._machine_arg(name), "--word", word,
                    "--mode", "time", "--n", str(n)]
            out = machine_windows._cli_json(state, argv)
            expect(f"tm-perturbed time {name} {word!r} n={n} as produced",
                   machine_windows.check_time(mc, word, n, out), False)
            expect(f"tm-perturbed time {name} {word!r} n={n} flipped",
                   machine_windows.check_time(mc, word, n, {**out, "accepts": not out["accepts"]}), True)


def compiled_checks(rr: dict) -> None:
    state = compiled_machine.setup(rr, 0, Path("."))
    for name, c in state.compiled.items():
        word = "0110"
        points = compiled_machine._simulate(state, c, word)
        expect(f"{name} simulation as produced", compiled_machine._check_simulation(c, word, points), False)
        moved = list(points)
        moved[3] = (moved[3][0], moved[3][1] + Fraction(1, 625), moved[3][2])
        expect(f"{name} simulation with step 3 moved",
               compiled_machine._check_simulation(c, word, moved), corrupted=True)
        # A closure made of exactly the run's cells passes; dropping any one fails.
        _, trace = oracles.run(c.own, word, 10_000)
        dom = tuple(zip(c.system.domain.lo, c.system.domain.hi))
        grid = oracles.Grid(dom, compiled_machine.LEVEL)
        cells = set().union(*(grid.cells_of_point(oracles.encode(c.own, cf)) for cf in trace))
        start = oracles.encode(c.own, trace[0])
        expect(f"{name} run cells as a closure", compiled_machine._check_reach(c, word, (start, cells)), False)
        for cell in sorted(cells)[:3]:
            expect(f"{name} closure without run cell {cell}",
                   compiled_machine._check_reach(c, word, (start, cells - {cell})), corrupted=True)


def main() -> int:
    rr = import_program()
    (BENCH.parent / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH.parent / ".bench_out") as tmp:
        pam_checks(rr, Path(tmp))
        machine_checks(rr, Path(tmp))
    compiled_checks(rr)
    print(f"{len(FAILURES)} checker failures" if FAILURES else "all checkers behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
