"""Exact rational points and axis-aligned boxes under the sup norm.

All coordinates are `fractions.Fraction` values, which are kept in
canonical form (reduced, positive denominator) by the standard library.
Distances use the sup norm exclusively, so the closed ball of radius r
around a point c is exactly the closed box [c - r, c + r]; this makes
every ball/box predicate a finite conjunction of rational comparisons
and keeps the whole toolkit decision-exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from robustreach.errors import DimensionMismatchError, InputFormatError

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form "p" or "p/q" (decimal integers).

    Only an optional leading minus sign is accepted; no whitespace, floats
    or exponents. The result is canonical: "4/6" parses to 2/3.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise InputFormatError(f"bad rational literal: {text!r}")
    if "/" in text:
        num_s, den_s = text.split("/")
        den = int(den_s)
        if den == 0:
            raise InputFormatError(f"zero denominator: {text!r}")
        return Fraction(int(num_s), den)
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Render a rational in the same "p" / "p/q" form parse_rational reads."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_point(point: "Point") -> str:
    """Render a point in the comma-separated "p/q,p/q" form the CLI reads."""
    return ",".join(map(format_rational, point.coords))


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputFormatError(f"not a rational value: {value!r}")


@dataclass(frozen=True)
class Point:
    """An immutable point with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise DimensionMismatchError("points must have dimension >= 1")
        if not all(isinstance(c, Fraction) for c in self.coords):
            # Coerce eagerly so downstream arithmetic stays exact.
            object.__setattr__(
                self, "coords", tuple(as_fraction(c) for c in self.coords)
            )

    @classmethod
    def of(cls, *values: RationalLike) -> "Point":
        return cls(tuple(as_fraction(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Point") -> "Point":
        _check_dims(self.dim, other.dim)
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Point") -> "Point":
        _check_dims(self.dim, other.dim)
        return Point(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def shift(self, offset: Fraction) -> "Point":
        """Add the same offset to every coordinate."""
        return Point(tuple(c + offset for c in self.coords))


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatchError(f"dimension mismatch: {a} vs {b}")


def sup_dist(p: Point, q: Point) -> Fraction:
    """Sup-norm distance max_i |p_i - q_i|, computed exactly."""
    _check_dims(p.dim, q.dim)
    return max(abs(a - b) for a, b in zip(p.coords, q.coords))


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d].

    Degenerate axes (lo_i == hi_i) are allowed; an inverted axis is not.
    """

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        _check_dims(self.lo.dim, self.hi.dim)
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise InputFormatError(f"inverted box axis: [{a}, {b}]")

    @classmethod
    def of_intervals(
        cls, intervals: Iterable[tuple[RationalLike, RationalLike]]
    ) -> "Box":
        pairs = [(as_fraction(a), as_fraction(b)) for a, b in intervals]
        if not pairs:
            raise DimensionMismatchError("boxes must have dimension >= 1")
        return cls(
            Point(tuple(a for a, _ in pairs)), Point(tuple(b for _, b in pairs))
        )

    @classmethod
    def ball(cls, center: Point, radius: Fraction) -> "Box":
        """The closed sup-norm ball cB(center, radius) as a box."""
        if radius < 0:
            raise InputFormatError(f"negative ball radius: {radius}")
        return cls(center.shift(-radius), center.shift(radius))

    @property
    def dim(self) -> int:
        return self.lo.dim

    def width(self, axis: int) -> Fraction:
        return self.hi[axis] - self.lo[axis]

    def contains(self, p: Point) -> bool:
        """Closed membership: faces count."""
        _check_dims(self.dim, p.dim)
        return all(a <= x <= b for a, x, b in zip(self.lo, p, self.hi))

    def intersection(self, other: "Box") -> Optional["Box"]:
        """The (possibly degenerate) common box, or None when disjoint."""
        _check_dims(self.dim, other.dim)
        lo = tuple(max(a1, a2) for a1, a2 in zip(self.lo, other.lo))
        hi = tuple(min(b1, b2) for b1, b2 in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Box(Point(lo), Point(hi))

    def contains_box(self, other: "Box") -> bool:
        _check_dims(self.dim, other.dim)
        return all(
            a1 <= a2 and b2 <= b1
            for a1, b1, a2, b2 in zip(self.lo, self.hi, other.lo, other.hi)
        )
