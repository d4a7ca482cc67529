import random
from fractions import Fraction

import pytest

from helpers_oracles import box_center, box_corners, inflate, interiors_meet
from robustreach.errors import DimensionMismatchError, InputFormatError
from robustreach.geometry import (
    Box,
    Point,
    as_fraction,
    format_point,
    format_rational,
    parse_rational,
    sup_dist,
)


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Fraction(0)),
        ("7", Fraction(7)),
        ("-3", Fraction(-3)),
        ("1/3", Fraction(1, 3)),
        ("-2/5", Fraction(-2, 5)),
        ("4/6", Fraction(2, 3)),  # canonicalised on parse
        ("10/5", Fraction(2)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["", "1.5", "1e3", " 1", "1 ", "1/", "/2", "1/-2", "--1", "1/0", "0x10", "a/b"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(InputFormatError):
        parse_rational(text)


def test_format_round_trip():
    values = [Fraction(0), Fraction(5), Fraction(-5), Fraction(2, 3), Fraction(-7, 12)]
    for v in values:
        assert parse_rational(format_rational(v)) == v
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_point(Point.of(5, "-7/12", "4/6")) == "5,-7/12,2/3"


def test_as_fraction_coercions():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert as_fraction("5/8") == Fraction(5, 8)
    with pytest.raises(InputFormatError):
        as_fraction(0.5)


def test_point_basics():
    p = Point.of(1, "1/2")
    assert p.dim == 2
    assert list(p) == [Fraction(1), Fraction(1, 2)]
    assert p[1] == Fraction(1, 2)
    q = Point.of("1/3", 0)
    assert (p + q)[0] == Fraction(4, 3)
    assert (p - q)[1] == Fraction(1, 2)
    with pytest.raises(DimensionMismatchError):
        p + Point.of(1)


def test_sup_dist_examples():
    assert sup_dist(Point.of(0, 0), Point.of("1/2", "-1/4")) == Fraction(1, 2)
    assert sup_dist(Point.of(1), Point.of(1)) == 0


def _random_point(rng, dim):
    return Point(tuple(Fraction(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in range(dim)))


def test_sup_dist_metric_axioms():
    rng = random.Random(101)
    for _ in range(200):
        dim = rng.choice([1, 2, 3])
        p, q, r = (_random_point(rng, dim) for _ in range(3))
        assert sup_dist(p, q) >= 0
        assert (sup_dist(p, q) == 0) == (p == q)
        assert sup_dist(p, q) == sup_dist(q, p)
        assert sup_dist(p, r) <= sup_dist(p, q) + sup_dist(q, r)


def test_box_validation():
    with pytest.raises(InputFormatError):
        Box.of_intervals([(1, 0)])
    with pytest.raises(DimensionMismatchError):
        Box.of_intervals([])
    # degenerate axes are fine
    b = Box.of_intervals([(1, 1), (0, 2)])
    assert b.width(0) == 0 and b.width(1) == 2


def test_ball_is_closed_box():
    b = Box.ball(Point.of("1/2", 0), Fraction(1, 4))
    assert b.lo == Point.of("1/4", "-1/4")
    assert b.hi == Point.of("3/4", "1/4")
    # membership in the ball is exactly the sup-distance predicate
    rng = random.Random(7)
    c = Point.of("1/2", 0)
    for _ in range(100):
        p = _random_point(rng, 2)
        assert b.contains(p) == (sup_dist(p, c) <= Fraction(1, 4))
    with pytest.raises(InputFormatError):
        Box.ball(c, Fraction(-1))


def test_box_predicates():
    a = Box.of_intervals([(0, 1), (0, 1)])
    shifted = Box.of_intervals([(1, 2), (0, 1)])  # shares a face
    apart = Box.of_intervals([("3/2", 2), (0, 1)])
    assert not interiors_meet(a, shifted)
    assert interiors_meet(a, Box.of_intervals([("1/2", 2), (0, 1)]))
    assert a.intersection(apart) is None
    common = a.intersection(shifted)
    assert common is not None and common.width(0) == 0
    assert a.contains_box(Box.of_intervals([("1/4", "1/2"), (0, 1)]))
    assert not a.contains_box(shifted)


def test_inflate_and_center():
    b = Box.of_intervals([(0, "1/2")])
    grown = inflate(b, Fraction(1, 4))
    assert grown.lo[0] == Fraction(-1, 4) and grown.hi[0] == Fraction(3, 4)
    assert box_center(b) == Point.of("1/4")
    with pytest.raises(InputFormatError):
        inflate(b, Fraction(-1, 8))


def test_corners():
    b = Box.of_intervals([(0, 1), ("1/2", "1/2")])
    pts = sorted(tuple(p) for p in box_corners(b))
    # the degenerate axis collapses duplicates: 2 corners, not 4
    assert pts == [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 2)),
    ]
    full = box_corners(Box.of_intervals([(0, 1), (0, 1)]))
    assert len(full) == 4
