import math
import random
from fractions import Fraction
from itertools import compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import (
    box_center,
    cell_box,
    cell_side,
    partial_pams,
    random_interior_point,
    random_total_pam,
    scan_successors,
)
from robustreach.abstraction import (
    GridError,
    SuccessorKernel,
    make_grid,
    resolution_for_eps,
    successors,
)
from robustreach.geometry import Box, Point, sup_dist
from robustreach.pam import AffinePiece, PamSystem


def test_grid_tiling_counts():
    unit = Box.of_intervals([(0, 1)])
    assert make_grid(unit, 0).cell_count == 1
    assert make_grid(unit, 1).cell_count == 2
    square = Box.of_intervals([(0, 1), (0, 1)])
    assert make_grid(square, 2).cell_count == 16
    assert make_grid(square, 2).counts == (4, 4)


def test_grid_narrow_last_cell():
    grid = make_grid(Box.of_intervals([(0, "3/4")]), 1)
    assert grid.counts == (2,)
    assert cell_box(grid, (0,)) == Box.of_intervals([(0, "1/2")])
    # the trailing cell is clipped to the domain
    assert cell_box(grid, (1,)) == Box.of_intervals([("1/2", "3/4")])


def test_grid_validation():
    with pytest.raises(GridError):
        make_grid(Box.of_intervals([(0, 1)]), -1)
    with pytest.raises(GridError):
        make_grid(Box.of_intervals([(0, 0)]), 2)
    grid = make_grid(Box.of_intervals([(0, 1)]), 1)
    with pytest.raises(GridError):
        grid.flat_index((2,))
    with pytest.raises(GridError):
        grid.cells_containing(Point.of(2))


def test_flat_index_bijection():
    grid = make_grid(Box.of_intervals([(0, 1), (0, "5/8")]), 2)
    assert grid.counts == (4, 3)
    seen = set()
    for cell in grid.iter_cells():
        flat = grid.flat_index(cell)
        assert grid.cell_at(flat) == cell
        seen.add(flat)
    assert seen == set(range(grid.cell_count))
    with pytest.raises(GridError):
        grid.cell_at(grid.cell_count)
    with pytest.raises(GridError):
        grid.cell_at(-1)


@st.composite
def grid_boxes(draw):
    """A grid of 1 to 3 axes with corners on thirds and fifths, and a box of its cells.

    Most such axes are not a whole number of cells long, so their last
    cell is narrow. Each axis of the box is spanned whole half the time.
    """
    intervals = []
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.sampled_from((3, 5)))
        lo = Fraction(draw(st.integers(-den, den)), den)
        intervals.append((lo, lo + Fraction(draw(st.integers(1, 2 * den)), den)))
    grid = make_grid(Box.of_intervals(intervals), draw(st.integers(0, 3)))
    box = []
    for count in grid.counts:
        if draw(st.booleans()):
            box.append((0, count - 1))
        else:
            first = draw(st.integers(0, count - 1))
            box.append((first, draw(st.integers(first, count - 1))))
    return grid, tuple(box)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid_boxes())
def test_runs_list_the_flat_indices_of_a_box(case):
    grid, box = case
    starts, width = grid.runs(box)
    assert width >= 1
    assert all(a + width <= b for a, b in zip(starts, starts[1:]))  # ascending, disjoint
    cells = product(*(range(first, last + 1) for first, last in box))
    flats = [flat for start in starts for flat in range(start, start + width)]
    assert flats == sorted(map(grid.flat_index, cells))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grid_boxes())
def test_sides_tile_each_axis_as_cell_boxes_do(case):
    grid, _ = case
    for axis, count in enumerate(grid.counts):
        sides = [cell_side(grid, axis, i) for i in range(count)]
        assert sides[0][0] == grid.domain.lo[axis]
        assert sides[-1][1] == grid.domain.hi[axis]  # the clipped last cell
        assert all(a[1] == b[0] for a, b in zip(sides, sides[1:]))
        assert all(0 < hi - lo <= grid.delta for lo, hi in sides)


def test_runs_merge_trailing_whole_axes():
    grid = make_grid(Box.of_intervals([(0, 1), (0, 1), (0, "3/4")]), 2)
    assert grid.counts == (4, 4, 3)
    assert grid.strides == (12, 3, 1)
    assert grid.runs(((1, 2), (0, 3), (0, 2))) == ([12], 24)
    assert grid.runs(((1, 2), (1, 2), (0, 2))) == ([15, 27], 6)
    assert grid.runs(((0, 3), (0, 3), (1, 1))) == ([1 + 3 * j for j in range(16)], 1)


def test_cells_containing_boundary_multiplicity():
    grid = make_grid(Box.of_intervals([(0, 1)]), 1)
    assert grid.cells_containing(Point.of("1/4")) == {(0,)}
    assert grid.cells_containing(Point.of("1/2")) == {(0,), (1,)}
    assert grid.cells_containing(Point.of(0)) == {(0,)}
    assert grid.cells_containing(Point.of(1)) == {(1,)}
    square = make_grid(Box.of_intervals([(0, 1), (0, 1)]), 1)
    assert len(square.cells_containing(Point.of("1/2", "1/2"))) == 4
    assert len(square.cells_containing(Point.of("1/2", "1/4"))) == 2


@settings(max_examples=80, deadline=None, derandomize=True)
@given(partial_pams(), st.data())
def test_cells_containing_matches_scan_on_partial_unaligned_maps(case, data):
    # points on cell faces, on the domain ends, on region faces and inside
    # the (often narrow) last cell of unaligned rational domains
    system, m = case
    grid = make_grid(system.domain, m)
    axes = []
    for axis, (a, b, count) in enumerate(zip(grid.domain.lo, grid.domain.hi, grid.counts)):
        faces = [a + i * grid.delta for i in range(count)] + [b]
        regions = [p.region for p in system.pieces]
        faces += [r.lo[axis] for r in regions] + [r.hi[axis] for r in regions]
        axes.append(faces + [(faces[count - 1] + b) / 2])
    points = data.draw(st.lists(
        st.tuples(*(st.sampled_from(coords) for coords in axes)), min_size=1, max_size=12
    ))
    for coords in points:
        x = Point(coords)
        scan = {c for c in grid.iter_cells() if cell_box(grid, c).contains(x)}
        assert grid.cells_containing(x) == scan, x


def test_cells_intersecting_closed_vs_open():
    grid = make_grid(Box.of_intervals([(0, 1)]), 2)
    touch = Box.of_intervals([("1/4", "1/2")])
    assert set(grid.cells_intersecting(touch)) == {(0,), (1,), (2,)}
    degenerate = Box.of_intervals([("1/4", "1/4")])
    assert set(grid.cells_intersecting(degenerate)) == {(0,), (1,)}


def test_successors_on_fixture(s1):
    grid = make_grid(s1.domain, 2)
    assert successors(grid, s1, (0,)) == {(0,), (1,)}


def test_successors_match_scan_on_fixtures(s1, s2):
    for system in (s1, s2):
        for m in range(0, 7):
            grid = make_grid(system.domain, m)
            for cell in grid.iter_cells():
                want = scan_successors(grid, system, cell)
                assert successors(grid, system, cell) == want, (m, cell)


def test_successors_match_scan_on_random_corpus():
    rng = random.Random(20260816)
    checked = 0
    for _ in range(40):
        dim = rng.choice([1, 1, 2])
        system = random_total_pam(rng, dim)
        m = rng.choice([2, 3]) if dim == 2 else rng.choice([2, 3, 4])
        grid = make_grid(system.domain, m)
        if grid.cell_count > 4096:
            continue
        cells = list(grid.iter_cells())
        for cell in rng.sample(cells, min(8, len(cells))):
            assert successors(grid, system, cell) == scan_successors(grid, system, cell)
            checked += 1
    assert checked >= 100


@settings(max_examples=80, deadline=None, derandomize=True)
@given(partial_pams())
def test_successors_match_scan_on_partial_unaligned_maps(case):
    # non-dyadic faces and corners, narrow last cells, centres in no
    # region, escaping images
    system, m = case
    grid = make_grid(system.domain, m)
    for cell in grid.iter_cells():
        assert successors(grid, system, cell) == scan_successors(grid, system, cell), cell


def test_successors_match_scan_on_sliver_region():
    # one piece on [0, 1/1024] mapping to 3/4: centres enter the region
    # only from level 9 on, and every other cell is stuck
    domain = Box.of_intervals([(0, 1)])
    region = Box.of_intervals([(0, "1/1024")])
    system = PamSystem(domain, (AffinePiece(region, ((Fraction(1),),), Point.of("3/4")),))
    for m in range(12):
        grid = make_grid(domain, m)
        count = grid.counts[0]
        for i in sorted({0, 1, 2, count // 2, count - 1} & set(range(count))):
            assert successors(grid, system, (i,)) == scan_successors(grid, system, (i,)), (m, i)
        kernel = SuccessorKernel(grid, system)
        live = [i for i in range(count) if kernel.box(i) is not None]
        inside = [i for i in range(count) if box_center(cell_box(grid, (i,)))[0] <= region.hi[0]]
        assert live == inside and (m < 9 or live), m
        assert list(compress(range(count), kernel.live())) == inside, m


@settings(max_examples=80, deadline=None, derandomize=True)
@given(partial_pams())
def test_live_cells_are_the_centres_in_a_region(case):
    system, m = case
    grid = make_grid(system.domain, m)
    want = bytearray(
        any(piece.region.contains(box_center(cell_box(grid, cell))) for piece in system.pieces)
        for cell in grid.iter_cells()
    )
    assert SuccessorKernel(grid, system).live() == want


def test_identity_map_cells_are_self_successors():
    domain = Box.of_intervals([(0, 1)])
    identity = PamSystem(
        domain, (AffinePiece(domain, ((Fraction(1),),), Point.of(0)),)
    )
    grid = make_grid(domain, 3)
    for cell in grid.iter_cells():
        assert cell in successors(grid, identity, cell)


def test_stuck_cells_have_no_successors():
    # images of the right half escape the domain: those centres are stuck
    domain = Box.of_intervals([(0, 1)])
    system = PamSystem(
        domain, (AffinePiece(domain, ((Fraction(2),),), Point.of(0)),)
    )
    grid = make_grid(domain, 2)
    assert successors(grid, system, (3,)) == frozenset()
    assert successors(grid, system, (0,)) != frozenset()
    kernel = SuccessorKernel(grid, system)
    assert kernel.box(3) is None
    for flat in (-1, grid.cell_count):  # off-grid flat indices
        with pytest.raises(GridError):
            kernel.box(flat)


def test_per_axis_successor_bound(s2):
    rng = random.Random(4)
    systems = [s2] + [random_total_pam(rng, rng.choice([1, 2])) for _ in range(10)]
    for system in systems:
        bound = math.ceil(2 * (system.lipschitz + 1)) + 1
        for m in (2, 3):
            grid = make_grid(system.domain, m)
            if grid.cell_count > 1024:
                continue
            for cell in grid.iter_cells():
                succ = successors(grid, system, cell)
                for axis in range(grid.dim):
                    assert len({c[axis] for c in succ}) <= bound


def test_sound_abstraction_of_perturbed_steps():
    # every cell of a perturbed image is a successor of every cell of the
    # source point, provided the point sits clear of piece faces
    rng = random.Random(99)
    hits = 0
    for _ in range(30):
        system = random_total_pam(rng, rng.choice([1, 2]))
        m = rng.choice([2, 3])
        grid = make_grid(system.domain, m)
        delta = grid.delta
        for _ in range(6):
            x = random_interior_point(rng, system)
            fx = system.eval_at(x)
            noise = Point(
                tuple(
                    delta * Fraction(rng.randrange(-7, 8), 8)
                    for _ in range(system.dim)
                )
            )
            y = fx + noise
            if not system.domain.contains(y):
                continue
            assert sup_dist(y, fx) < delta
            for u in grid.cells_containing(x):
                succ = successors(grid, system, u)
                for v in grid.cells_containing(y):
                    assert v in succ, (x, y, u, v)
                    hits += 1
    assert hits >= 100  # some perturbed images leave the domain and are skipped


@pytest.mark.parametrize(
    "lipschitz,n,m",
    [
        (Fraction(1, 2), 2, 4),
        (Fraction(1, 2), 0, 2),
        (Fraction(0), 0, 2),
        (Fraction(1), 3, 6),
    ],
)
def test_resolution_for_eps(lipschitz, n, m):
    assert resolution_for_eps(lipschitz, n) == m


def test_resolution_for_eps_properties():
    for lipschitz in (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(7, 3)):
        last = 0
        for n in range(0, 8):
            m = resolution_for_eps(lipschitz, n)
            # defining inequality, and minimality
            assert Fraction(1, 1 << m) < Fraction(1, 1 << n) / (2 * lipschitz + 2)
            assert Fraction(1, 1 << (m - 1)) >= Fraction(1, 1 << n) / (2 * lipschitz + 2)
            assert m >= last  # monotone in n
            last = m
    with pytest.raises(GridError):
        resolution_for_eps(Fraction(-1), 0)
    with pytest.raises(GridError):
        resolution_for_eps(Fraction(1), -1)
