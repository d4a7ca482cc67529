import ast
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from helpers_oracles import (
    bfs_path,
    box_center,
    cell_box,
    least_closed_cells,
    partial_pams,
    random_interior_point,
    random_total_pam,
    realize_path,
    required_cells,
    scan_check_witness,
    scan_eval,
    scan_piece_index,
    scan_plot,
    scan_reach,
    scan_successors,
    trace,
)
from robustreach.abstraction import (
    EdgeRule,
    Grid,
    GridError,
    SuccessorKernel,
    make_grid,
    resolution_for_eps,
    successors,
)
from robustreach.embed import EncodingScheme, build_pam, encode_config
from robustreach.geometry import Box, Point
from robustreach.pam import AffinePiece, PamSystem
from robustreach.reach import (
    FalseAtEps,
    Reached,
    ReachError,
    RobustlyUnreachable,
    TrueAtEps,
    Unknown,
    Witness,
    check_witness,
    decide_omega_reach,
    decide_perturbed_interval,
    extract_witness,
    graph_reach,
    path_savitch,
    plot_pixels,
    reach_over_approx,
    target_box,
)
from robustreach.tm import Configuration, Outcome, run


def escaper():
    # doubling map: the right half of the domain escapes, so its cells stick
    domain = Box.of_intervals([(0, 1)])
    return PamSystem(domain, (AffinePiece(domain, ((Fraction(2),),), Point.of(0)),))


# -- closures -----------------------------------------------------------------


def test_graph_reach_fixture_closures(s1, s2):
    g3 = make_grid(s1.domain, 3)
    closure = graph_reach(g3, s1, EdgeRule.EXACT, g3.cells_containing(Point.of(1)))
    assert closure == {(0,), (1,), (2,), (3,), (4,), (5,), (7,)}

    g3 = make_grid(s2.domain, 3)
    closure = graph_reach(g3, s2, EdgeRule.EXACT, g3.cells_containing(Point.of("3/4")))
    assert closure == {(5,), (6,), (7,)}


def test_graph_reach_pops_live_cells_and_lays_out_distinct_boxes(palindrome, monkeypatch):
    # one box call per closure cell with a piece at its centre, and one
    # Grid.runs layout per distinct successor box
    scheme = EncodingScheme.for_machine(palindrome)
    system = build_pam(palindrome, scheme)
    grid = make_grid(system.domain, 3)
    sources = grid.cells_containing(encode_config(scheme, Configuration.initial(palindrome, "0110")))
    closure = scan_reach(grid, system, sources)
    live = [c for c in closure if scan_piece_index(system, box_center(cell_box(grid, c))) >= 0]
    boxes = {scan_successors(grid, system, c) for c in live} - {frozenset()}
    assert (len(closure), len(live), len(boxes)) == (4096, 512, 15)

    calls = {"box": 0, "runs": 0}
    box, runs = SuccessorKernel.box, Grid.runs

    def counted_box(self, flat):
        calls["box"] += 1
        return box(self, flat)

    def counted_runs(self, ranges):
        calls["runs"] += inspect.currentframe().f_back.f_code is graph_reach.__code__
        return runs(self, ranges)

    monkeypatch.setattr(SuccessorKernel, "box", counted_box)
    monkeypatch.setattr(Grid, "runs", counted_runs)
    assert graph_reach(grid, system, EdgeRule.EXACT, sources) == closure
    assert calls == {"box": len(live), "runs": len(boxes)}


def test_graph_reach_matches_sweeping_scan(s1, s2):
    rng = random.Random(17)
    systems = [s1, s2] + [random_total_pam(rng, rng.choice([1, 2])) for _ in range(15)]
    for system in systems:
        m = rng.choice([2, 3])
        grid = make_grid(system.domain, m)
        if grid.cell_count > 128:
            continue
        x = random_interior_point(rng, system)
        sources = grid.cells_containing(x)
        want = scan_reach(grid, system, sources)
        assert graph_reach(grid, system, EdgeRule.EXACT, sources) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(partial_pams(), st.data())
def test_graph_reach_matches_scan_on_partial_unaligned_maps(case, data):
    system, m = case
    grid = make_grid(system.domain, m)
    cells = list(grid.iter_cells())
    sources = data.draw(st.sets(st.sampled_from(cells), min_size=1, max_size=2))
    assert graph_reach(grid, system, EdgeRule.EXACT, sources) == scan_reach(grid, system, sources)


def test_graph_reach_on_sliver_region():
    # the centre-point rule sees the [0, 1/1024] piece only from level 9 on
    domain = Box.of_intervals([(0, 1)])
    region = Box.of_intervals([(0, "1/1024")])
    system = PamSystem(domain, (AffinePiece(region, ((Fraction(1),),), Point.of("3/4")),))
    for m in range(12):
        grid = make_grid(domain, m)
        closure = graph_reach(grid, system, EdgeRule.EXACT, {(0,)})
        assert closure == scan_reach(grid, system, {(0,)}), m
        assert (len(closure) > 1) == (m >= 9), m


def test_compiled_palindrome_closure_covers_exact_run_at_level_4(palindrome):
    scheme = EncodingScheme.for_machine(palindrome)
    system = build_pam(palindrome, scheme)
    grid = make_grid(system.domain, 4)
    assert grid.cell_count == 32768
    for word in ("0110", "01"):
        assert run(palindrome, word, 1000).outcome is not Outcome.RUNNING
        configs = trace(palindrome, word, 1000)
        cells = reach_over_approx(system, encode_config(scheme, configs[0]), 4)
        for config in configs:
            assert grid.cells_containing(encode_config(scheme, config)) <= cells, (word, config)


def test_reach_over_approx_contains_exact_orbit(s1, s2):
    for system, x in [(s1, Point.of(1)), (s2, Point.of("9/16"))]:
        for m in (2, 3, 4):
            cells = reach_over_approx(system, x, m)
            grid = make_grid(system.domain, m)
            point = x
            for _ in range(30):
                assert grid.cells_containing(point) <= cells
                point = system.eval_at(point)


def test_reach_over_approx_contains_perturbed_rollouts(s1, s2):
    rng = random.Random(31)
    for system in (s1, s2):
        for m in (2, 4):
            delta = Fraction(1, 1 << m)
            cells = reach_over_approx(system, Point.of("7/8"), m)
            grid = make_grid(system.domain, m)
            for _ in range(100):
                point = Point.of("7/8")
                for _ in range(12):
                    assert grid.cells_containing(point) <= cells, (m, point)
                    noise = delta * Fraction(rng.randrange(-7, 8), 8)
                    nxt = system.eval_at(point) + Point.of(noise)
                    if not system.domain.contains(nxt):
                        break
                    # drift below 2^-m by construction; keep clear of the
                    # piece face, where containment needs the next level
                    if any(nxt == piece.region.lo for piece in system.pieces):
                        break
                    point = nxt


# -- savitch ------------------------------------------------------------------


def test_savitch_trivial_and_stuck_cases(s1):
    grid = make_grid(s1.domain, 0)
    only = (0,)
    assert path_savitch(grid, s1, EdgeRule.EXACT, only, only)

    system = escaper()
    grid = make_grid(system.domain, 1)
    assert path_savitch(grid, system, EdgeRule.EXACT, (0,), (1,))
    # the right cell is stuck: nothing comes back out of it
    assert not path_savitch(grid, system, EdgeRule.EXACT, (1,), (0,))


def test_savitch_matches_bfs_on_fixtures(s1, s2):
    for system in (s1, s2):
        for m in (2, 3):
            grid = make_grid(system.domain, m)
            for u in grid.iter_cells():
                closure = graph_reach(grid, system, EdgeRule.EXACT, {u})
                for v in grid.iter_cells():
                    assert path_savitch(grid, system, EdgeRule.EXACT, u, v) == (
                        v in closure
                    ), (m, u, v)


def test_savitch_matches_bfs_on_random_corpus():
    rng = random.Random(12)
    done = 0
    while done < 30:
        system = random_total_pam(rng, rng.choice([1, 2]))
        m = rng.choice([1, 2])
        grid = make_grid(system.domain, m)
        if grid.cell_count > 16:
            continue
        done += 1
        cells = list(grid.iter_cells())
        for _ in range(3):
            u, v = rng.choice(cells), rng.choice(cells)
            closure = graph_reach(grid, system, EdgeRule.EXACT, {u})
            assert path_savitch(grid, system, EdgeRule.EXACT, u, v) == (v in closure)


# The t = 1 base case searches u's successor box for a cell with an edge
# to v; searching v's box instead fails here. A base case that keeps only
# the direct edge u -> v is not caught here: that search still finds every
# path of up to 2^(t_top - 1) edges, and these maps have no longer shortest
# path. The staircase test below, whose shortest paths need every level,
# catches it.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(partial_pams(max_cells=8))
def test_savitch_matches_bfs_on_partial_unaligned_maps(case):
    system, m = case
    grid = make_grid(system.domain, m)
    for u in grid.iter_cells():
        closure = graph_reach(grid, system, EdgeRule.EXACT, {u})
        for v in grid.iter_cells():
            assert path_savitch(grid, system, EdgeRule.EXACT, u, v) == (v in closure), (u, v)


def staircase(k):
    # k cells at level 5; cell i's constant piece lands on the left face of
    # cell i + 1 (the last on its own), so cell i -> {i, i + 1} and the
    # shortest path 0 -> k - 1 has exactly k - 1 edges
    width = Fraction(1, 32)
    pieces = tuple(
        AffinePiece(
            Box.of_intervals([(i * width, (i + 1) * width)]),
            ((Fraction(0),),),
            Point.of(min(i + 1, k - 1) * width),
        )
        for i in range(k)
    )
    system = PamSystem(Box.of_intervals([(0, k * width)]), pieces)
    return system, make_grid(system.domain, 5)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 9, 16, 17])
def test_savitch_depth_reaches_the_longest_simple_path(k):
    # t_top is the smallest level whose paths reach k - 1 edges, so a search
    # one level shallower misses 0 -> k - 1 for every k >= 3; at k = 2 the
    # top level is t = 0, and at k = 3, 5, 9 and 17 the path fills 2^t_top
    system, grid = staircase(k)
    assert grid.cell_count == k
    first, last = (0,), (k - 1,)
    assert last in graph_reach(grid, system, EdgeRule.EXACT, {first})
    assert path_savitch(grid, system, EdgeRule.EXACT, first, last)
    if k >= 3:
        assert first not in graph_reach(grid, system, EdgeRule.EXACT, {last})
        assert not path_savitch(grid, system, EdgeRule.EXACT, last, first)


def test_savitch_rejects_off_grid_cells(s1):
    grid = make_grid(s1.domain, 2)
    past_end = (grid.counts[0],)
    with pytest.raises(GridError):
        path_savitch(grid, s1, EdgeRule.EXACT, past_end, (0,))
    with pytest.raises(GridError):
        path_savitch(grid, s1, EdgeRule.EXACT, (0,), past_end)


def test_grid_over_another_domain_is_rejected(s1):
    # the kernel scales the system's own faces, so a grid over any other
    # domain of the same dimension is refused rather than misread
    for domain in (Box.of_intervals([(0, 2)]), Box.of_intervals([("1/3", 1)])):
        grid = make_grid(domain, 2)
        with pytest.raises(GridError):
            successors(grid, s1, (0,))
        with pytest.raises(GridError):
            graph_reach(grid, s1, EdgeRule.EXACT, {(0,)})
        with pytest.raises(GridError):
            path_savitch(grid, s1, EdgeRule.EXACT, (0,), (1,))


# -- targets and witnesses ----------------------------------------------------


def test_target_cells(s1):
    grid = make_grid(s1.domain, 3)

    def target_cells(y, p):
        return set(grid.cells_intersecting(target_box(s1, y, p)))

    assert target_cells(Point.of("1/4"), None) == {(1,), (2,)}
    # closed ball: cells touching the ball boundary count
    assert target_cells(Point.of("1/4"), 3) == {(0,), (1,), (2,), (3,)}
    # clipped at the domain edge
    assert target_cells(Point.of(0), 2) == {(0,), (1,), (2,)}


def test_target_box_rejects_bad_targets(s1, s2):
    assert target_box(s1, Point.of("1/4"), None) == Box.of_intervals([("1/4", "1/4")])
    assert target_box(s1, Point.of("1/4"), 2) == Box.of_intervals([(0, "1/2")])
    # every query that takes a target makes the same checks
    x, y = Point.of("3/4"), Point.of("1/4")
    witness = Witness(3, 3, frozenset({(5,), (6,), (7,)}))
    queries = (
        lambda y, p: target_box(s2, y, p),
        lambda y, p: decide_omega_reach(s2, x, y, p),
        lambda y, p: decide_perturbed_interval(s2, x, y, p, 2),
        lambda y, p: check_witness(s2, witness, x, y, p),
    )
    for query in queries:
        for p in (None, 1):
            with pytest.raises(ReachError, match="outside the domain"):
                query(Point.of(5), p)
        with pytest.raises(ReachError, match="must be >= 0, got -1"):
            query(y, -1)


def test_decide_omega_reach_rejects_negative_step_budget(s2):
    with pytest.raises(ReachError, match="max_steps must be >= 0, got -1"):
        decide_omega_reach(s2, Point.of("3/4"), Point.of("1/4"), None, max_steps=-1)
    # a zero budget still runs: only the source point is simulated
    verdict = decide_omega_reach(s2, Point.of("3/4"), Point.of("1/4"), None, max_steps=0)
    assert isinstance(verdict, RobustlyUnreachable)


def test_extract_witness_matches_hand_closure(s2):
    grid = make_grid(s2.domain, 3)
    witness = extract_witness(grid, s2, Point.of("3/8"))
    assert witness.m == witness.eps_exp == 3
    assert witness.cells == {(0,), (1,), (2,), (3,)}


def test_check_witness_accepts_valid_certificates(s2):
    # the closure of 3/8 stays in the contracting half; its top cell only
    # touches the second piece on the shared face, which the tie-break
    # hands to the first piece, so the certificate must still verify
    grid = make_grid(s2.domain, 3)
    witness = extract_witness(grid, s2, Point.of("3/8"))
    assert check_witness(s2, witness, Point.of("3/8"), Point.of("7/8"), 2)


def test_check_witness_rejects_mutations(s2):
    grid = make_grid(s2.domain, 3)
    x, y = Point.of("3/4"), Point.of("1/4")
    witness = extract_witness(grid, s2, x)
    assert witness.cells == {(5,), (6,), (7,)}
    assert check_witness(s2, witness, x, y, None)

    # dropping a cell the images leak into
    leaky = Witness(3, 3, witness.cells - {(7,)})
    assert not check_witness(s2, leaky, x, y, None)
    # dropping a cell of x itself
    uncovered = Witness(3, 3, witness.cells - {(5,)})
    assert not check_witness(s2, uncovered, x, y, None)
    # absorbing a target cell
    greedy = Witness(3, 3, witness.cells | {(1,)})
    assert not check_witness(s2, greedy, x, y, None)
    # claiming a drift level the cells cannot support
    bold = Witness(3, 1, witness.cells)
    assert not check_witness(s2, bold, x, y, None)
    # malformed shells
    assert not check_witness(s2, Witness(3, 3, frozenset()), x, y, None)
    assert not check_witness(s2, Witness(3, 3, frozenset({(9,)})), x, y, None)
    assert not check_witness(s2, Witness(3, -1, witness.cells), x, y, None)
    assert not check_witness(s2, Witness(50, 50, witness.cells), x, y, None)


def test_check_witness_cost_follows_the_witness_not_the_target(s2):
    # three cells at the fixed point 1 against a ball covering a quarter of
    # the domain: 2^38 target cells at level 40, so condition 3 must be
    # tested per member instead of by listing the target's cells
    m = 40
    top = 1 << m
    witness = Witness(m, m, frozenset({(top - 3,), (top - 2,), (top - 1,)}))
    assert check_witness(s2, witness, Point.of(1), Point.of(0), 2)
    # a ball reaching the witness is still caught, member by member
    assert not check_witness(s2, witness, Point.of(1), Point.of("3/4"), 2)


def test_witness_rejection_drives_refinement(s2):
    # 14/25 sits just right of the piece face; coarse closures keep a cell
    # whose closed box touches 1/2, and the face point itself maps to 1/4
    # under the tie-break, outside the closure: the certificate is honestly
    # rejected until the grid pulls the cell boundary off the face
    x, y = Point.of("14/25"), Point.of("1/4")
    for m in (3, 4):
        grid = make_grid(s2.domain, m)
        candidate = extract_witness(grid, s2, x)
        assert candidate.cells.isdisjoint(grid.cells_intersecting(target_box(s2, y, None)))
        assert not check_witness(s2, candidate, x, y, None)
    grid = make_grid(s2.domain, 5)
    fine = extract_witness(grid, s2, x)
    assert check_witness(s2, fine, x, y, None)

    verdict = decide_omega_reach(s2, x, y, None)
    assert isinstance(verdict, RobustlyUnreachable)
    assert verdict.witness.m == 5
    assert verdict.witness == fine


def check_witness_candidates_against_scan(system, m, data):
    # the closure, its drift level shifted, one member dropped, one cell
    # added and a random cell set, against the Fraction-box scan
    grid = make_grid(system.domain, m)

    def lattice_point():
        return Point(tuple(
            a + (b - a) * Fraction(data.draw(st.integers(0, 8)), 8)
            for a, b in zip(system.domain.lo, system.domain.hi)
        ))

    x, y = lattice_point(), lattice_point()
    p = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
    closure = extract_witness(grid, system, x)
    cells = sorted(grid.iter_cells())
    members = sorted(closure.cells)
    candidates = [Witness(m, m + shift, closure.cells) for shift in range(-2, 4)]
    candidates.append(Witness(m, m, closure.cells - {data.draw(st.sampled_from(members))}))
    candidates.append(Witness(m, m, closure.cells | {data.draw(st.sampled_from(cells))}))
    candidates.append(Witness(m, m, frozenset(data.draw(
        st.sets(st.sampled_from(cells), min_size=1, max_size=len(cells))
    ))))
    for witness in candidates:
        expected = scan_check_witness(system, witness, x, y, p)
        assert check_witness(system, witness, x, y, p) == expected, witness


@settings(max_examples=120, deadline=None, derandomize=True)
@given(partial_pams(max_dim=3), st.data())
def test_check_witness_matches_scan_on_partial_unaligned_maps(case, data):
    check_witness_candidates_against_scan(*case, data)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(partial_pams(max_dim=3, aligned=True), st.data())
def test_check_witness_matches_scan_on_partial_aligned_maps(case, data):
    # cell faces on region faces, where a lower-index region exempts a
    # piece that meets a cell only along that face
    check_witness_candidates_against_scan(*case, data)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(partial_pams(max_dim=3, aligned=True), st.data())
def test_check_witness_accepts_the_least_closed_set(case, data):
    # the least set that condition 2 accepts leans on the exemption where
    # a member meets a higher piece along a face a lower region holds;
    # with a target outside it, it is a valid certificate. The search is
    # steered toward sets with many cells that the exemption forgives.
    system, m = case
    grid = make_grid(system.domain, m)
    x = Point(tuple(
        a + (b - a) * Fraction(data.draw(st.integers(0, 8)), 8)
        for a, b in zip(system.domain.lo, system.domain.hi)
    ))
    cells = least_closed_cells(system, x, m)
    outside = sorted(set(grid.iter_cells()) - cells)
    assume(outside)
    eps = Fraction(1, 1 << m)
    target(float(sum(
        len(required_cells(system, grid, cell, eps, exempt=False) - cells) for cell in cells
    )))
    y = box_center(cell_box(grid, data.draw(st.sampled_from(outside))))
    witness = Witness(m, m, cells)
    assert scan_check_witness(system, witness, x, y, None)
    assert check_witness(system, witness, x, y, None)


def test_check_witness_exempts_a_face_that_a_lower_region_holds():
    # the closure of 15/32 is every cell of [0, 1/2]; its top cell meets
    # the identity's region [1/2, 1] only at 1/2, which the first region
    # holds, so the identity's image of 1/2, whose cells above 1/2 are
    # no members, is not checked
    system = PamSystem(Box.of_intervals([(0, 1)]), (
        AffinePiece(Box.of_intervals([(0, "1/2")]), ((Fraction(1, 2),),), Point.of("1/8")),
        AffinePiece(Box.of_intervals([("1/2", 1)]), ((Fraction(1),),), Point.of(0)),
    ))
    x, y = Point.of("15/32"), Point.of("3/4")
    witness = extract_witness(make_grid(system.domain, 4), system, x)
    assert witness.cells == {(i,) for i in range(8)}
    assert scan_check_witness(system, witness, x, y, None)
    assert check_witness(system, witness, x, y, None)


def test_check_witness_reads_nothing_of_the_search():
    # the checker must stay independent of the kernel it checks
    tree = ast.parse(inspect.getsource(check_witness))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                named.add(node.value)
    assert named.isdisjoint({"SuccessorKernel", "_table", "slot_mask"})
    assert {"make_grid", "target_box"} <= named  # the walk sees the body



# -- the interleaved decision -------------------------------------------------


def test_omega_reach_robustly_unreachable(s2):
    verdict = decide_omega_reach(s2, Point.of("3/4"), Point.of("1/4"), None)
    assert isinstance(verdict, RobustlyUnreachable)
    assert verdict.witness.m == 3
    assert verdict.witness.cells == {(5,), (6,), (7,)}
    assert check_witness(s2, verdict.witness, Point.of("3/4"), Point.of("1/4"), None)


def test_omega_reach_ball_hit(s1):
    verdict = decide_omega_reach(s1, Point.of(1), Point.of("1/8"), 4)
    assert isinstance(verdict, Reached)
    assert verdict.steps == 3
    assert verdict.trajectory == (
        Point.of(1),
        Point.of("1/2"),
        Point.of("1/4"),
        Point.of("1/8"),
    )


def test_omega_reach_exact_point_hit(s1):
    verdict = decide_omega_reach(s1, Point.of(1), Point.of("1/16"), None)
    assert isinstance(verdict, Reached)
    assert verdict.steps == 4
    # a degenerate query is answered at step zero
    trivial = decide_omega_reach(s1, Point.of("1/3"), Point.of("1/3"), None)
    assert isinstance(trivial, Reached)
    assert trivial.steps == 0


def test_omega_reach_unknown_budget(s1):
    # 0 is the orbit's limit but never a member, and every closure keeps
    # its cell: neither side of the decision can ever fire
    verdict = decide_omega_reach(s1, Point.of(1), Point.of(0), None)
    assert isinstance(verdict, Unknown)
    assert verdict.max_m == 10
    assert verdict.steps_simulated == 1 << 10
    assert verdict.simulation_stopped is None

    capped = decide_omega_reach(s1, Point.of(1), Point.of(0), None, max_steps=32)
    assert isinstance(capped, Unknown)
    assert capped.steps_simulated == 32


def test_omega_reach_tests_each_orbit_point_once(s1, monkeypatch):
    import robustreach.reach as reach

    real_target_box, real_contains = reach.target_box, Box.contains
    targets = []
    tested = []

    def recording_target_box(*args):
        targets.append(real_target_box(*args))
        return targets[-1]

    def counting_contains(box, point):
        if any(box is t for t in targets):
            tested.append(point)
        return real_contains(box, point)

    monkeypatch.setattr(reach, "target_box", recording_target_box)
    monkeypatch.setattr(Box, "contains", counting_contains)
    verdict = decide_omega_reach(s1, Point.of(1), Point.of(0), None, max_m=6)
    assert isinstance(verdict, Unknown)
    assert verdict.steps_simulated == 64
    # one test per orbit point, the source included, across all six rounds
    assert len(tested) == verdict.steps_simulated + 1
    assert len(set(tested)) == len(tested)


def test_omega_reach_reports_stopped_simulation():
    system = escaper()
    verdict = decide_omega_reach(
        system, Point.of("1/4"), Point.of("33/64"), None, max_m=3
    )
    assert isinstance(verdict, Unknown)
    assert verdict.steps_simulated == 2  # 1/4 -> 1/2 -> 1, then out
    assert "step 2" in verdict.simulation_stopped


def flip():
    # x -> 1 - x: every orbit but the one of 1/2 has period 2
    domain = Box.of_intervals([(0, 1)])
    return PamSystem(domain, (AffinePiece(domain, ((Fraction(-1),),), Point.of(1)),))


def _repeating_orbit(name, palindrome):
    """(system, source, a target next to the orbit but off it, max_m)."""
    if name == "flip":
        return flip(), Point.of("1/3"), Point.of("1/2"), 10
    scheme = EncodingScheme.for_machine(palindrome)
    system = build_pam(palindrome, scheme)
    x = encode_config(scheme, Configuration.initial(palindrome, "0110"))
    *_, halted = trace(palindrome, "0110", 100)
    fixed = encode_config(scheme, halted)
    return system, x, Point((*fixed.coords[:2], fixed.coords[2] + Fraction(1, 1 << 40))), 7


@pytest.mark.parametrize("name", ["flip", "palindrome"])
def test_omega_reach_stops_simulating_a_repeating_orbit(name, palindrome, monkeypatch):
    import robustreach.reach as reach

    system, x, y, max_m = _repeating_orbit(name, palindrome)
    budget = 1 << max_m
    orbit = [x]
    for _ in range(budget):
        orbit.append(scan_eval(system, orbit[-1]))
    repeat = next(j for j, point in enumerate(orbit) if point in orbit[:j])
    tail = orbit.index(orbit[repeat])
    period = repeat - tail
    assert y not in orbit
    if name == "palindrome":
        assert (tail, period) == (15, 1)
        # the level-7 closure of this map is too large for a unit test; a
        # witness that keeps the target's cells leaves the graph side
        # silent, as the real closures up to level 5 are
        def silent_witness(grid, system, x):
            return Witness(grid.m, grid.m, frozenset(grid.cells_intersecting(Box(y, y))))

        monkeypatch.setattr(reach, "extract_witness", silent_witness)
    real_eval = PamSystem.eval_at
    calls = []

    def counting_eval(self, point):
        calls.append(point)
        return real_eval(self, point)

    monkeypatch.setattr(PamSystem, "eval_at", counting_eval)
    verdict = decide_omega_reach(system, x, y, None, max_m=max_m)
    assert verdict == Unknown(max_m=max_m, steps_simulated=budget)
    assert len(calls) <= 4 * max(tail, period) + 1
    assert calls == orbit[: len(calls)]

    # a target on the orbit is still reached at its first step
    t = max(tail, period) - 1
    hit = decide_omega_reach(system, x, orbit[t], None, max_m=max_m)
    assert hit == Reached(tuple(orbit[: t + 1]), t)


def test_omega_reach_tests_the_source_at_max_m_zero(s1, s2):
    assert decide_omega_reach(s2, Point.of("1/4"), Point.of("1/4"), None, max_m=0) == Reached(
        (Point.of("1/4"),), 0
    )
    assert decide_omega_reach(s1, Point.of("3/16"), Point.of("1/8"), 4, max_m=0) == Reached(
        (Point.of("3/16"),), 0
    )
    missed = decide_omega_reach(s2, Point.of("3/4"), Point.of("1/4"), None, max_m=0)
    assert missed == Unknown(max_m=0, steps_simulated=0)


def test_omega_reach_validates_query(s1):
    with pytest.raises(ReachError):
        decide_omega_reach(s1, Point.of(2), Point.of(0), None)
    with pytest.raises(ReachError):
        decide_omega_reach(s1, Point.of(0), Point.of(2), None)
    with pytest.raises(ReachError):
        decide_omega_reach(s1, Point.of(0), Point.of(1), None, max_m=-1)


# -- the perturbed-interval sandwich ------------------------------------------


def test_interval_verdicts_on_fixtures(s1, s2):
    verdict = decide_perturbed_interval(s1, Point.of(1), Point.of("1/8"), 4, 2)
    assert verdict == TrueAtEps(Fraction(1, 4), 2)
    verdict = decide_perturbed_interval(s2, Point.of("3/4"), Point.of("1/4"), 3, 2)
    assert verdict == FalseAtEps(Fraction(1, 16), 4)
    with pytest.raises(ReachError):
        decide_perturbed_interval(s1, Point.of(1), Point.of(0), None, -1)


# ROADMAP item 1 reproducers. The centre-point edge rule gets both wrong
# today; the fix of the edge rule must flip them.
@pytest.mark.xfail(strict=True, reason="bug A: a cell whose centre misses a sliver region is stuck")
@pytest.mark.parametrize("n", [0, 2, 4])
def test_delta_decide_sees_a_sliver_region(n):
    # 0 maps exactly onto the target, so it is reached at every drift
    domain = Box.of_intervals([(0, 1)])
    region = Box.of_intervals([(0, "1/1024")])
    system = PamSystem(domain, (AffinePiece(region, ((Fraction(1),),), Point.of("3/4")),))
    verdict = decide_perturbed_interval(system, Point.of(0), Point.of("3/4"), 10, n)
    assert verdict == TrueAtEps(Fraction(1, 1 << n), n)


@pytest.mark.xfail(strict=True, reason="bug B: a cell straddling a face takes its centre's piece")
@pytest.mark.parametrize("n", [3, 4])
def test_delta_decide_keeps_the_source_point_on_its_piece(n):
    # 63/200 maps to 0, and from [0, 1/8) every drift below 1/8 stays there
    domain = Box.of_intervals([(0, 1)])
    zero = ((Fraction(0),),)
    system = PamSystem(domain, (
        AffinePiece(Box.of_intervals([(0, "8/25")]), zero, Point.of(0)),
        AffinePiece(Box.of_intervals([("8/25", 1)]), zero, Point.of(1)),
    ))
    verdict = decide_perturbed_interval(system, Point.of("63/200"), Point.of(1), 10, n)
    assert not isinstance(verdict, TrueAtEps)


def test_true_verdicts_are_realisable(s1):
    # a PATH answer comes with an actual trajectory at the promised drift
    n = 2
    m = resolution_for_eps(s1.lipschitz, n)
    grid = make_grid(s1.domain, m)
    x, y = Point.of(1), Point.of("1/8")
    verdict = decide_perturbed_interval(s1, x, y, 4, n)
    assert isinstance(verdict, TrueAtEps)
    target = frozenset(grid.cells_intersecting(target_box(s1, y, 4)))
    path = bfs_path(grid, s1, grid.cells_containing(x), target)
    assert path is not None
    points = realize_path(s1, grid, path, x, n)
    # realize_path already asserts per-step drift < 2^-n; land in the target
    assert grid.cells_containing(points[-1]) & target


# -- plots --------------------------------------------------------------------


def test_plot_matches_golden_fixture(s2, tmp_path):
    rows = plot_pixels(s2, Point.of(1), 4)
    assert len(rows) == 1 and len(rows[0]) == 17  # z from 0 to 16
    assert rows == ((0,) * 15 + (1, 1),)


def test_plot_pixels_brute_force(s1, s2):
    # recompute every pixel from the cell union with direct interval checks
    for system, x, n in [(s1, Point.of(1), 3), (s2, Point.of("3/4"), 3)]:
        rows = plot_pixels(system, x, n)
        grid = make_grid(system.domain, n + 2)
        cells = scan_reach(grid, system, grid.cells_containing(x))
        boxes = [cell_box(grid, c) for c in cells]
        radius = Fraction(1, 1 << n)
        frame = range(0, (1 << n) + 1)  # the domain [0, 1] in pixels of 2^-n
        row = rows[0]
        assert len(rows) == 1 and len(row) == len(frame)
        for i, z in enumerate(frame):
            center = Fraction(z, 1 << n)
            want = int(
                any(
                    box.lo[0] < center + radius and box.hi[0] > center - radius
                    for box in boxes
                )
            )
            assert row[i] == want, z


@settings(max_examples=100, deadline=None, derandomize=True)
@given(partial_pams(max_dim=3), st.data())
def test_plot_pixels_matches_scan_on_partial_unaligned_maps(case, data):
    system, _ = case
    x = Point(tuple(
        a + (b - a) * Fraction(data.draw(st.integers(0, 8)), 8)
        for a, b in zip(system.domain.lo, system.domain.hi)
    ))
    n = data.draw(st.integers(0, 2))
    while n > 0 and make_grid(system.domain, n + 2).cell_count > 2000:
        n -= 1
    order = data.draw(st.permutations(range(system.dim)))
    axes = tuple(order[:data.draw(st.integers(1, min(2, system.dim)))])
    rows = plot_pixels(system, x, n, axes)
    z_lo, z_hi, expected = scan_plot(system, x, n, axes)
    widths = [hi - lo + 1 for lo, hi in zip(z_lo, z_hi)]
    assert len(rows[0]) == widths[0] and len(rows) == (widths[1] if len(axes) == 2 else 1)
    assert rows == expected


def test_plot_two_axes_orientation():
    # a contraction onto the top-right corner lights only that corner,
    # and the first row is the top of the image
    domain = Box.of_intervals([(0, 1), (0, 1)])
    matrix = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    system = PamSystem(
        domain, (AffinePiece(domain, matrix, Point.of("1/2", "1/2")),)
    )
    rows = plot_pixels(system, Point.of(1, 1), 2, axes=(0, 1))
    assert len(rows) == 5 and all(len(row) == 5 for row in rows)  # z from 0 to 4
    expected_hot = (0, 0, 0, 1, 1)
    assert rows[0] == expected_hot  # z2 = 4, the top
    assert rows[1] == expected_hot  # z2 = 3
    for row in rows[2:]:
        assert row == (0, 0, 0, 0, 0)


def test_plot_validates_arguments(s1):
    with pytest.raises(ReachError):
        plot_pixels(s1, Point.of(1), -1)
    with pytest.raises(ReachError):
        plot_pixels(s1, Point.of(1), 2, axes=(0, 0))
    with pytest.raises(ReachError):
        plot_pixels(s1, Point.of(1), 2, axes=(1,))
    with pytest.raises(ReachError):
        plot_pixels(s1, Point.of(1), 2, axes=())
