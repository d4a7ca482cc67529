"""Acceptance suite: nine end-to-end checks, one printed verdict line each.

Each test drives the library against an independent oracle (brute-force
enumeration, hand-derived bounds, golden bytes) and prints a single
``ACCEPTANCE <name>: PASS/FAIL`` line. Stated runtime budgets are
asserted where the contract gives one.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import fixture_path
from helpers_oracles import (
    FITTED_METRIC_POLY,
    bfs_path,
    enumerate_time_perturbed,
    head_span,
    random_interior_point,
    random_total_pam,
    realize_path,
    scan_reach,
    time_metric_check,
    trace,
)
from robustreach.abstraction import (
    EdgeRule,
    make_grid,
    resolution_for_eps,
    successors,
)
from robustreach.embed import EncodingScheme, build_pam, encode_config
from robustreach.geometry import Point, sup_dist
from robustreach.reach import (
    Reached,
    RobustlyUnreachable,
    Unknown,
    check_witness,
    decide_omega_reach,
    graph_reach,
    path_savitch,
    plot_pixels,
)
from robustreach.formats import pgm_bytes
from robustreach.tm import (
    Outcome,
    accepts_space_perturbed,
    accepts_time_perturbed,
    run,
)

GOLDEN_PGM = fixture_path("golden/s2_x1_n4.pgm")


def _finish(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _words(alphabet, max_len):
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


def test_acceptance_commuting_diagram(immediate, right_mover, palindrome):
    started = time.monotonic()
    checked = 0
    bad = []
    for machine in (immediate, right_mover, palindrome):
        scheme = EncodingScheme.for_machine(machine)
        system = build_pam(machine, scheme)
        for word in _words(machine.alphabet, 5):
            result = run(machine, word, 30)
            configs = trace(machine, word, 30)
            for prev, nxt in zip(configs, configs[1:]):
                if system.eval_at(encode_config(scheme, prev)) != encode_config(
                    scheme, nxt
                ):
                    bad.append((word, prev))
                checked += 1
            last = configs[-1]
            if result.outcome in (Outcome.ACCEPT, Outcome.REJECT):
                # a decided configuration is a fixed point on both sides
                point = encode_config(scheme, last)
                if system.eval_at(point) != point:
                    bad.append((word, last))
                checked += 1
    elapsed = time.monotonic() - started
    _finish(
        "commuting-diagram",
        not bad and elapsed < 10 and checked > 1000,
        f"{checked} steps exact on 3 machines, {elapsed:.2f}s < 10s"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_acceptance_space_perturbation_window(palindrome, marker):
    started = time.monotonic()
    mismatches = []
    words = 0
    for word in _words(palindrome.alphabet, 6):
        n = head_span(palindrome, word) + 2
        want = word == word[::-1]
        if accepts_space_perturbed(palindrome, word, n) != want:
            mismatches.append((word, n))
        words += 1
    # strict inclusion: fog beyond a 1-cell window flips a verdict
    strict = (
        run(marker, "", 100).outcome is Outcome.REJECT
        and accepts_space_perturbed(marker, "", 1)
    )
    elapsed = time.monotonic() - started
    _finish(
        "space-window",
        not mismatches and strict and elapsed < 60,
        f"{words} words at n=span+2, counterexample at n=1 ok, {elapsed:.2f}s < 60s"
        + (f"; mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_acceptance_time_perturbation(immediate, right_mover, loop_with_exit):
    started = time.monotonic()
    checked = 0
    bad = []
    for machine in (immediate, right_mover, loop_with_exit):
        assert len(machine.states) <= 3
        for word in _words(machine.alphabet, 3):
            for n in range(5):
                got = accepts_time_perturbed(machine, word, n)
                # closed form; a machine with no accepting state has
                # nothing for a state jump to land on
                result = run(machine, word, n)
                closed = result.outcome is Outcome.ACCEPT or (
                    result.outcome is not Outcome.REJECT and bool(machine.accepting)
                )
                brute = enumerate_time_perturbed(machine, word, n)
                if got != closed or got != brute:
                    bad.append((machine.initial, word, n, got, closed, brute))
                checked += 1
    elapsed = time.monotonic() - started
    _finish(
        "time-window",
        not bad and elapsed < 10,
        f"{checked} (machine, word, n) cases, closed form = enumeration, "
        f"{elapsed:.2f}s < 10s" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_acceptance_certificate(s2):
    started = time.monotonic()
    x, y = Point.of(1), Point.of(0)
    verdict = decide_omega_reach(s2, x, y, 3)
    sound = (
        isinstance(verdict, RobustlyUnreachable)
        and verdict.witness.m <= 6
        and check_witness(s2, verdict.witness, x, y, 3)
    )
    # brute force at m=8: everything reachable from 1 stays at or above 1/2
    grid = make_grid(s2.domain, 8)
    cells = scan_reach(grid, s2, grid.cells_containing(x))
    floor_ok = all(grid.cell_box(c).lo[0] >= Fraction(1, 2) for c in cells)
    elapsed = time.monotonic() - started
    _finish(
        "certificate",
        sound and floor_ok and elapsed < 5,
        f"witness at m={getattr(getattr(verdict, 'witness', None), 'm', '?')} <= 6, "
        f"re-checked; m=8 closure of {len(cells)} cells stays >= 1/2; "
        f"{elapsed:.2f}s < 5s",
    )


def test_acceptance_non_robust_contraction(s1):
    started = time.monotonic()
    x = Point.of(1)
    exact = decide_omega_reach(s1, x, Point.of(0), None)
    never_certified = isinstance(exact, Unknown) and exact.budget.max_m == 10
    ball = decide_omega_reach(s1, x, Point.of(0), 3)
    hit = (
        isinstance(ball, Reached)
        and ball.steps == 3
        and ball.trajectory
        == (Point.of(1), Point.of("1/2"), Point.of("1/4"), Point.of("1/8"))
    )
    elapsed = time.monotonic() - started
    _finish(
        "non-robust-contraction",
        never_certified and hit and elapsed < 5,
        f"point target undecided through maxM=10, ball target reached in 3 steps, "
        f"{elapsed:.2f}s < 5s",
    )


def test_acceptance_savitch():
    started = time.monotonic()
    rng = random.Random(97)
    instances = 0
    pairs = 0
    bad = []
    while instances < 200:
        dim = rng.choice([1, 2])
        system = random_total_pam(rng, dim)
        m = rng.choice([1, 2, 3, 4, 5])
        grid = make_grid(system.domain, m)
        if grid.cell_count > 16:
            continue
        instances += 1
        cells = list(grid.iter_cells())
        for _ in range(3):
            u, v = rng.choice(cells), rng.choice(cells)
            closure = graph_reach(grid, system, EdgeRule.EXACT, {u})
            got = path_savitch(grid, system, EdgeRule.EXACT, u, v)
            if got != (v in closure):
                bad.append((system, m, u, v))
            pairs += 1
    elapsed = time.monotonic() - started
    _finish(
        "savitch",
        not bad and elapsed < 120,
        f"{instances} systems, {pairs} cell pairs, depth bound asserted on "
        f"every call, {elapsed:.2f}s < 120s",
    )


def test_acceptance_abstraction_two_sided():
    started = time.monotonic()
    rng = random.Random(271)
    sound_hits = 0
    realized = 0
    bad = []
    for _ in range(50):
        dim = rng.choice([1, 2])
        system = random_total_pam(rng, dim)
        n = 2 if dim == 1 else 1
        m = resolution_for_eps(system.lipschitz, n)
        grid = make_grid(system.domain, m)
        delta = Fraction(1, 1 << m)

        # soundness: a sub-delta perturbed image lands only in successor cells
        for _ in range(8):
            x = random_interior_point(rng, system)
            fx = system.eval_at(x)
            noise = Point(
                tuple(delta * Fraction(rng.randrange(-7, 8), 8) for _ in range(dim))
            )
            y = fx + noise
            if not system.domain.contains(y):
                continue
            assert sup_dist(y, fx) < delta
            succ_ok = all(
                v in successors(grid, system, u)
                for u in grid.cells_containing(x)
                for v in grid.cells_containing(y)
            )
            if not succ_ok:
                bad.append(("unsound-edge", system, x, y))
            sound_hits += 1

        # realization: a graph path becomes an actual 2^-n perturbed orbit
        x = random_interior_point(rng, system)
        sources = grid.cells_containing(x)
        closure = graph_reach(grid, system, EdgeRule.EXACT, sources)
        goal = rng.choice(sorted(closure))
        path = bfs_path(grid, system, sources, {goal})
        if path is None:
            bad.append(("no-path", system, x, goal))
            continue
        points = realize_path(system, grid, path, x, n)  # asserts drift < 2^-n
        if goal not in grid.cells_containing(points[-1]):
            bad.append(("missed-goal", system, x, goal))
        realized += 1
    elapsed = time.monotonic() - started
    _finish(
        "abstraction-two-sided",
        not bad and sound_hits >= 100 and realized == 50 and elapsed < 120,
        f"{sound_hits} perturbed steps inside successor cells, {realized} "
        f"paths realized at drift 2^-n, {elapsed:.2f}s < 120s"
        + (f"; first failure {bad[0][0]}" if bad else ""),
    )


def test_acceptance_time_metric(
    palindrome, marker, immediate, right_mover, loop_with_exit
):
    started = time.monotonic()
    checked = 0
    violations = []
    for machine in (palindrome, marker, immediate, right_mover, loop_with_exit):
        report = time_metric_check(
            machine,
            list(_words(machine.alphabet, 6)),
            poly=FITTED_METRIC_POLY,
            max_steps=100,
        )
        checked += report.checked_steps
        violations.extend(report.violations)
    elapsed = time.monotonic() - started
    _finish(
        "time-metric",
        not violations and checked > 2000,
        f"{checked} consecutive distances within [1/p, p] for p(x) = x^4, "
        f"{elapsed:.2f}s" + (f"; first violation {violations[0]}" if violations else ""),
    )


def test_acceptance_plot_contract(s2):
    started = time.monotonic()
    pixels = plot_pixels(s2, Point.of(1), 4)
    golden_ok = pgm_bytes(pixels) == GOLDEN_PGM.read_bytes()

    n = 4
    grid = make_grid(s2.domain, n + 2)
    cells = scan_reach(grid, s2, grid.cells_containing(Point.of(1)))
    boxes = [grid.cell_box(c) for c in cells]
    one_pixel = Fraction(1, 1 << n)
    low_white = True
    forced_ok = True
    row = pixels.rows[0]
    for i, z in enumerate(range(pixels.z_lo[0], pixels.z_hi[0] + 1)):
        center = Fraction(z, 1 << n)
        if center < Fraction(1, 4) and row[i] != 0:
            low_white = False

        def meets(radius):
            return any(
                box.lo[0] < center + radius and box.hi[0] > center - radius
                for box in boxes
            )

        if meets(one_pixel) and row[i] != 1:
            forced_ok = False  # a 1-pixel ball meets the set: must be black
        if not meets(2 * one_pixel) and row[i] != 0:
            forced_ok = False  # even a 2-pixel ball misses it: must be white
    elapsed = time.monotonic() - started
    _finish(
        "plot-contract",
        golden_ok and low_white and forced_ok,
        f"golden bytes exact, all pixels below 1/4 white, forced black/white "
        f"pixels verified against ball/cell intersections, {elapsed:.2f}s",
    )
