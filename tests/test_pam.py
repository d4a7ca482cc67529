import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import (
    apply_piece,
    box_corners,
    first_overlap,
    image_box,
    interiors_meet,
    partial_pams,
    scan_eval,
    scan_piece_index,
)
from robustreach.errors import DimensionMismatchError, InputFormatError
from robustreach.geometry import Box, Point, sup_dist
from robustreach.pam import (
    AffinePiece,
    EscapesDomainError,
    OutsideDomainError,
    PamError,
    PamSystem,
    UndefinedRegionError,
)


def test_tie_break_goes_to_lowest_index(s2):
    # 1/2 sits on the shared face of both pieces; piece 0 wins
    assert s2.eval_at(Point.of("1/2")) == Point.of("1/4")
    assert s2.piece_index_at(Point.of("1/2")) == 0
    flipped = PamSystem(s2.domain, (s2.pieces[1], s2.pieces[0]))
    assert flipped.eval_at(Point.of("1/2")) == Point.of("3/4")


def test_eval_on_fixture(s2):
    assert s2.eval_at(Point.of("1/4")) == Point.of("1/8")
    assert s2.eval_at(Point.of("3/4")) == Point.of("7/8")
    assert s2.eval_at(Point.of(1)) == Point.of(1)


def _square_piece(matrix):
    region = Box.of_intervals([(0, 1), (0, 1)])
    return AffinePiece(
        region,
        tuple(tuple(Fraction(a) for a in row) for row in matrix),
        Point.of(0, 0),
    )


def test_lipschitz_is_max_row_abs_sum():
    piece = _square_piece([[1, -2], [0, 3]])
    assert piece.row_sum_norm() == 3

    # independent ratio oracle: the sup-norm expansion over corner pairs
    # of the region attains the row-sum norm and never exceeds it
    region = piece.region
    corners = box_corners(region)
    best = Fraction(0)
    for i, u in enumerate(corners):
        for v in corners[i + 1 :]:
            d = sup_dist(u, v)
            if d == 0:
                continue
            ratio = sup_dist(apply_piece(piece, u), apply_piece(piece, v)) / d
            best = max(best, ratio)
            assert ratio <= 3
    assert best == 3


def test_lipschitz_random_pairs_never_exceed():
    rng = random.Random(23)
    piece = _square_piece([["1/2", "-3/4"], [1, "1/4"]])
    bound = piece.row_sum_norm()
    assert bound == Fraction(5, 4)
    for _ in range(300):
        u = Point(tuple(Fraction(rng.randrange(0, 17), 16) for _ in range(2)))
        v = Point(tuple(Fraction(rng.randrange(0, 17), 16) for _ in range(2)))
        if u == v:
            continue
        assert sup_dist(apply_piece(piece, u), apply_piece(piece, v)) <= bound * sup_dist(u, v)


def test_system_lipschitz_is_max_over_pieces(s2):
    assert s2.lipschitz == Fraction(1, 2)


def test_image_box_is_exact():
    piece = _square_piece([[1, -2], [0, 3]])
    sub = Box.of_intervals([(0, "1/2"), ("1/4", "1/2")])
    img = image_box(piece, sub)
    # extrema of each affine output are attained at corners of sub
    xs = [apply_piece(piece, c) for c in box_corners(sub)]
    for axis in range(2):
        values = [p[axis] for p in xs]
        assert img.lo[axis] == min(values)
        assert img.hi[axis] == max(values)
    with pytest.raises(PamError):
        image_box(piece, Box.of_intervals([(0, 2), (0, 1)]))


def test_image_box_random_membership():
    rng = random.Random(5)
    piece = _square_piece([["1/3", "1/2"], ["-1/4", 1]])
    sub = Box.of_intervals([("1/8", "7/8"), (0, "1/2")])
    img = image_box(piece, sub)
    for _ in range(200):
        x = Point(
            tuple(
                lo + (hi - lo) * Fraction(rng.randrange(0, 33), 32)
                for lo, hi in zip(sub.lo, sub.hi)
            )
        )
        assert img.contains(apply_piece(piece, x))


def test_eval_error_cases(s1):
    with pytest.raises(OutsideDomainError):
        s1.eval_at(Point.of(2))
    with pytest.raises(DimensionMismatchError):
        s1.eval_at(Point.of(0, 0))

    # a gap between regions leaves points undefined
    dom = Box.of_intervals([(0, 1)])
    half = AffinePiece(
        Box.of_intervals([(0, "1/4")]), ((Fraction(1, 2),),), Point.of(0)
    )
    gappy = PamSystem(dom, (half,))
    with pytest.raises(UndefinedRegionError):
        gappy.eval_at(Point.of("1/2"))

    # an image leaving the domain is reported, not silently clipped
    escaper = PamSystem(
        dom,
        (AffinePiece(Box.of_intervals([(0, 1)]), ((Fraction(2),),), Point.of(0)),),
    )
    with pytest.raises(EscapesDomainError):
        escaper.eval_at(Point.of(1))


def test_system_validation():
    dom = Box.of_intervals([(0, 1)])
    a = AffinePiece(Box.of_intervals([(0, "3/4")]), ((Fraction(0),),), Point.of(0))
    b = AffinePiece(Box.of_intervals([("1/2", 1)]), ((Fraction(0),),), Point.of(0))
    with pytest.raises(InputFormatError):
        PamSystem(dom, (a, b))  # interiors overlap on (1/2, 3/4)
    with pytest.raises(InputFormatError):
        PamSystem(dom, ())
    outside = AffinePiece(Box.of_intervals([(0, 2)]), ((Fraction(0),),), Point.of(0))
    with pytest.raises(InputFormatError):
        PamSystem(dom, (outside,))
    with pytest.raises(DimensionMismatchError):
        AffinePiece(Box.of_intervals([(0, 1)]), ((Fraction(0), Fraction(0)),), Point.of(0))
    with pytest.raises(DimensionMismatchError, match="offset dimension differs from region"):
        AffinePiece(Box.of_intervals([(0, 1)]), ((Fraction(0),),), Point.of(0, 0))
    with pytest.raises(DimensionMismatchError, match="piece 0 dimension differs"):
        PamSystem(Box.of_intervals([(0, 1), (0, 1)]), (a,))


# -- indexed piece lookup against a linear scan ---------------------------------

# Region bounds sit on the 1/2 lattice of [0, 4] and query coordinates on
# the 1/4 lattice of [-1, 5]: queries land exactly on breakpoints, inside
# gaps between them and outside every region, and regions share faces.
_BOUND = st.integers(0, 8).map(lambda k: Fraction(k, 2))
_COORD = st.integers(-4, 20).map(lambda k: Fraction(k, 4))


@st.composite
def _regions(draw, disjoint: bool) -> list[Box]:
    """1 to 12 random boxes in 1 to 3 dimensions, possibly degenerate.

    Boxes may share faces; with disjoint set, a box whose interior meets
    an earlier one's is dropped, otherwise boxes overlap freely.
    """
    dim = draw(st.integers(1, 3))
    regions: list[Box] = []
    for _ in range(draw(st.integers(1, 12))):
        region = Box.of_intervals([sorted(draw(st.tuples(_BOUND, _BOUND))) for _ in range(dim)])
        if not (disjoint and any(interiors_meet(region, r) for r in regions)):
            regions.append(region)
    return regions


def _zero_map(regions: list[Box]) -> tuple[Box, tuple[AffinePiece, ...]]:
    """The domain [0, 4]^d and one zero piece per region."""
    dim = regions[0].dim
    zero = tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim))
    origin = Point(tuple(Fraction(0) for _ in range(dim)))
    return Box.of_intervals([(0, 4)] * dim), tuple(AffinePiece(r, zero, origin) for r in regions)


@st.composite
def _partial_maps(draw):
    """A map from random boxes with disjoint interiors, possibly degenerate."""
    return PamSystem(*_zero_map(draw(_regions(disjoint=True))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(disjoint=st.booleans(), data=st.data())
def test_overlap_check_names_the_oracles_first_pair(disjoint, data):
    regions = data.draw(_regions(disjoint))
    domain, pieces = _zero_map(regions)
    pair = first_overlap(regions)
    if pair is None:
        PamSystem(domain, pieces)
    else:
        with pytest.raises(InputFormatError) as err:
            PamSystem(domain, pieces)
        assert str(err.value) == f"pieces {pair[0]} and {pair[1]} overlap on an interior point"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_piece_index_matches_linear_scan(data):
    system = data.draw(_partial_maps())
    breakpoints = [
        v for p in system.pieces for v in (*p.region.lo, *p.region.hi)
    ]
    for _ in range(12):
        coords = data.draw(
            st.lists(
                st.one_of(_COORD, st.sampled_from(breakpoints)),
                min_size=system.dim,
                max_size=system.dim,
            )
        )
        x = Point(tuple(coords))
        assert system.piece_index_at(x) == scan_piece_index(system, x), x


def test_piece_index_on_partial_map_and_degenerate_region():
    dom = Box.of_intervals([(0, 1), (0, 1)])
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    origin = Point.of(0, 0)
    line = AffinePiece(Box.of_intervals([("1/2", "1/2"), (0, 1)]), zero, origin)
    left = AffinePiece(Box.of_intervals([(0, "1/2"), (0, "1/2")]), zero, origin)
    system = PamSystem(dom, (line, left))
    # the degenerate region wins its shared face by index order
    assert system.piece_index_at(Point.of("1/2", "1/4")) == 0
    assert system.piece_index_at(Point.of("1/4", "1/4")) == 1
    # a gap inside the domain and points beyond every breakpoint
    assert system.piece_index_at(Point.of("3/4", "1/4")) == -1
    assert system.piece_index_at(Point.of("1/4", "3/4")) == -1
    assert system.piece_index_at(Point.of(2, "1/4")) == -1
    assert system.piece_index_at(Point.of(-1, "1/4")) == -1


def test_piece_index_rejects_wrong_dimension(s2):
    with pytest.raises(DimensionMismatchError):
        s2.piece_index_at(Point.of(0, 0))
    with pytest.raises(DimensionMismatchError):
        s2.eval_at(Point.of(0, 0))


# -- integer evaluation against the Fraction scan --------------------------------

_TINY = Fraction(1, 1 << 40)
_FINE = 7 << 40  # a lattice far finer than any face partial_pams draws


def _coordinate(data, domain: tuple, faces: list):
    """A coordinate on, just off, between or beyond the faces of one axis."""
    lo, hi = domain
    kind = data.draw(st.integers(0, 3))
    if kind < 2:
        face = faces[data.draw(st.integers(0, len(faces) - 1))]
        if kind == 0:
            return face
        return face + data.draw(st.sampled_from([_TINY, -_TINY]))
    if kind == 2:  # thirds of the width, one step past either end
        return lo + (hi - lo) * Fraction(data.draw(st.integers(-1, 4)), 3)
    return lo + (hi - lo) * Fraction(data.draw(st.integers(-1, _FINE + 1)), _FINE)


def _outcome(evaluate, x):
    try:
        return evaluate(x)
    except (PamError, DimensionMismatchError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_at_matches_scan_eval(data):
    # partial_pams draws nonzero matrices and offsets past the domain, so
    # all four failure kinds occur next to exact values
    system, _ = data.draw(partial_pams(max_dim=3))
    axes = [
        ((system.domain.lo[i], system.domain.hi[i]),
         sorted({v for p in system.pieces for v in (p.region.lo[i], p.region.hi[i])}))
        for i in range(system.dim)
    ]
    for _ in range(10):
        dim = system.dim + data.draw(st.sampled_from([0] * 6 + [1, -1]))
        x = Point(tuple(_coordinate(data, *axes[min(i, system.dim - 1)]) for i in range(max(dim, 1))))
        want = _outcome(lambda p: scan_eval(system, p), x)
        assert _outcome(system.eval_at, x) == want, x
