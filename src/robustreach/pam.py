"""Piecewise affine maps with exact rational coefficients.

A system is a finite list of affine pieces f_i(x) = A_i x + b_i, each
attached to a closed box region inside a common box domain. Regions may
share faces but never interior points, and the piece order is part of
the system: a boundary point belonging to several regions is evaluated
by the lowest-index piece. Evaluation is exact; the declared Lipschitz
bound is the induced sup-norm operator norm, i.e. the largest absolute
row sum over all pieces.

Evaluation runs in Python ints. Validation builds one integer table,
the integer description of the map that evaluation and search share: B,
the lcm of the denominators of the domain and region bounds, the domain
faces, region bounds and region breakpoints times B, and each piece's
matrix and offset times the lcm e of that piece's own denominators. A
point x is brought to one denominator q, X = x q, and every test is an
integer comparison; Fractions are built only for the image, one per
coordinate, over the denominator e q. The successor kernel of
abstraction.py scales the same table further, and the overlap check
reads its slot masks. The witness checker of reach.py builds its own,
so that it stays independent.

Piece lookup does not scan the regions. Closed-box membership splits
axis by axis, so the table keeps, per axis, the sorted distinct scaled
breakpoints and, for every breakpoint and every open gap between two
neighbouring breakpoints, a bitmask of the pieces whose region covers
it. A coordinate's slot comes from divmod(X_i B, q): an exact quotient
is compared with the breakpoints, a non-zero remainder lies strictly
inside a gap. Intersecting the slot masks, the lowest set bit is the
lowest-index covering piece. eval_at takes that divmod once per axis,
and the same quotient and remainder serve the domain test: with the
faces times B, x_i is inside when lo <= k and k + r/q <= hi.

A piece with A = I and b = 0 is an identity piece; a compiled machine
puts one on every decided state, so its orbits stand still once the
run halts. The table keeps a bitmask of these pieces, and eval_at
returns the queried point itself when the chosen piece is one of them:
its image is x, which the domain test has just accepted. Such a step
costs the piece lookup and nothing more.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from robustreach.errors import DimensionMismatchError, InputFormatError, ToolkitError
from robustreach.geometry import Box, Point, format_point


class PamError(ToolkitError):
    """Base class for evaluation failures of a piecewise affine system."""


class OutsideDomainError(PamError):
    """The queried point is not in the system's domain box."""


class UndefinedRegionError(PamError):
    """The queried point lies in the domain but in no piece's region."""


class EscapesDomainError(PamError):
    """The image of the queried point falls outside the domain box."""


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece x -> matrix @ x + offset on a closed box region."""

    region: Box
    matrix: tuple[tuple[Fraction, ...], ...]
    offset: Point

    def __post_init__(self) -> None:
        d = self.region.dim
        if len(self.matrix) != d or any(len(row) != d for row in self.matrix):
            raise DimensionMismatchError(
                f"matrix must be {d}x{d} for a region of dimension {d}"
            )
        if self.offset.dim != d:
            raise DimensionMismatchError("offset dimension differs from region")

    def row_sum_norm(self) -> Fraction:
        """Induced sup-norm of the matrix: max over rows of sum |entry|."""
        return max(
            sum((abs(a) for a in row), start=Fraction(0)) for row in self.matrix
        )


def slot_mask(breaks: list[int], masks: list[int], k: int, r: int = 0) -> int:
    """Piece mask of the breakpoint or gap slot of a scaled coordinate.

    breaks and masks are one axis of PamSystem._table, or the same
    breakpoints scaled further. The coordinate is k + r/q on the
    breakpoints' scale, with 0 <= r < q, as divmod returns it. With r == 0
    it is exactly k: a breakpoint hit or a point of a gap. A non-zero r
    puts it strictly between k and k + 1, so inside the gap after the
    last breakpoint at or below k. A coordinate outside every breakpoint
    gets the empty mask.
    """
    if r:
        j = bisect_right(breaks, k)
    else:
        j = bisect_left(breaks, k)
        if j < len(breaks) and breaks[j] == k:
            return masks[2 * j]
    if 0 < j < len(breaks):
        return masks[2 * j - 1]
    return 0


class _Table(NamedTuple):
    """A system's bounds and pieces in ints; see PamSystem._table."""

    scale: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    axes: tuple[tuple[list[int], list[int]], ...]
    regions: tuple[tuple[tuple[int, int], ...], ...]
    pieces: tuple[tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]], ...]
    identity: int


@dataclass(frozen=True)
class PamSystem:
    """A piecewise affine map on a box domain, evaluated exactly."""

    domain: Box
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise InputFormatError("a system needs at least one piece")
        for i, piece in enumerate(self.pieces):
            if piece.region.dim != self.domain.dim:
                raise DimensionMismatchError(f"piece {i} dimension differs")
            if not self.domain.contains_box(piece.region):
                raise InputFormatError(f"piece {i} region leaves the domain")
        # Regions share an interior point when an open gap slot holds both
        # on every axis; report the lowest i, then the lowest j > i.
        axes = self._table.axes
        for i in range(len(self.pieces)):
            bit = 1 << i
            meet = -2 << i  # the pieces after i
            for _, masks in axes:
                near = 0
                for mask in masks[1::2]:
                    if mask & bit:
                        near |= mask
                meet &= near
            if meet:
                j = (meet & -meet).bit_length() - 1
                raise InputFormatError(f"pieces {i} and {j} overlap on an interior point")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def lipschitz(self) -> Fraction:
        """Declared Lipschitz bound: max row-sum norm over all pieces."""
        return max(piece.row_sum_norm() for piece in self.pieces)

    @cached_property
    def _table(self) -> _Table:
        """The system in ints; validation builds it and reads its slot masks.

        scale is B, the lcm of the denominators of the domain and region
        bounds; lo and hi are the domain faces times B. Per axis, axes
        holds the sorted distinct region breakpoints times B and the piece
        mask of each slot: slot 2k is breakpoint k and slot 2k+1 the open
        gap between breakpoints k and k+1, and bit i of a slot's mask is
        set when piece i's closed region covers that slot on this axis.
        Per piece, regions holds its region's (lo, hi) times B on each
        axis, and pieces holds (e, A e, b e) with e the lcm of the
        denominators of its matrix and offset. Bit i of identity is set
        when piece i is the identity: e == 1, A e == I and b e == 0.
        """
        boxes = (self.domain, *(p.region for p in self.pieces))
        scale = math.lcm(*(v.denominator for box in boxes for v in (*box.lo, *box.hi)))

        def scaled(v: Fraction) -> int:
            return v.numerator * (scale // v.denominator)

        regions = tuple(
            tuple(zip(map(scaled, p.region.lo), map(scaled, p.region.hi)))
            for p in self.pieces
        )
        axes = []
        for axis in range(self.dim):
            bounds = [region[axis] for region in regions]
            breaks = sorted({v for bound in bounds for v in bound})
            position = {v: k for k, v in enumerate(breaks)}
            masks = [0] * (2 * len(breaks) - 1)
            for i, (lo, hi) in enumerate(bounds):
                for slot in range(2 * position[lo], 2 * position[hi] + 1):
                    masks[slot] |= 1 << i
            axes.append((breaks, masks))
        pieces = []
        eye = tuple(tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim))
        identity = 0
        for i, p in enumerate(self.pieces):
            e = math.lcm(*(a.denominator for row in p.matrix for a in row),
                         *(b.denominator for b in p.offset))
            pieces.append((
                e,
                tuple(tuple(int(a * e) for a in row) for row in p.matrix),
                tuple(int(b * e) for b in p.offset),
            ))
            if pieces[-1] == (1, eye, (0,) * self.dim):
                identity |= 1 << i
        return _Table(
            scale,
            tuple(scaled(a) for a in self.domain.lo),
            tuple(scaled(b) for b in self.domain.hi),
            tuple(axes),
            regions,
            tuple(pieces),
            identity,
        )

    def _over_one_denominator(self, x: Point) -> tuple[int, list[int]]:
        """(q, X) with q the lcm of x's denominators and X = x * q in ints."""
        coords = x.coords
        if len(coords) != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {x.dim}")
        q = math.lcm(*[v.denominator for v in coords])
        return q, [v.numerator * (q // v.denominator) for v in coords]

    def piece_index_at(self, x: Point) -> int:
        """Lowest index of a piece whose region contains x, or -1.

        Brings x to one denominator q, finds each coordinate's breakpoint
        or gap slot from divmod(X_i * B, q) (see slot_mask) and
        intersects the slot masks; a coordinate outside every breakpoint,
        or an empty intersection, means no piece.
        """
        q, xs = self._over_one_denominator(x)
        t = self._table
        mask = -1
        for v, (breaks, masks) in zip(xs, t.axes):
            mask &= slot_mask(breaks, masks, *divmod(v * t.scale, q))
            if not mask:
                return -1
        return (mask & -mask).bit_length() - 1

    def eval_at(self, x: Point) -> Point:
        """Evaluate the map at x, exactly, in integers.

        x becomes X / q with q the lcm of its denominators. One pass over
        the axes takes k, r = divmod(X_i * B, q) once and uses it twice:
        x_i is below the domain when k < lo_i and above it when k > hi_i,
        or k == hi_i with r != 0 (faces times B); and (k, r) selects the
        breakpoint or gap slot whose mask joins the AND, an exact
        quotient being a breakpoint hit and a non-zero remainder a point
        strictly inside a gap. The piece is the lowest set bit. An
        identity piece returns x itself, the same object. Any other image
        is (A e X + b e q) / (e q), each row tested against the domain in
        integers as it is built and reduced to Fractions only on return.

        Raises DimensionMismatchError for a point of another dimension,
        then OutsideDomainError / UndefinedRegionError / EscapesDomainError
        when x is outside the domain, in no region, or mapped out of the
        domain respectively; the domain test runs on every axis before an
        empty mask counts. Ties on shared region faces go to the
        lowest-index piece.
        """
        q, xs = self._over_one_denominator(x)
        t = self._table
        scale = t.scale
        mask = -1
        for v, lo, hi, (breaks, masks) in zip(xs, t.lo, t.hi, t.axes):
            k, r = divmod(v * scale, q)
            if k < lo or k > hi or (k == hi and r):
                raise OutsideDomainError(f"point {format_point(x)} outside domain")
            if mask:
                mask &= slot_mask(breaks, masks, k, r)
        if not mask:
            raise UndefinedRegionError(f"no piece covers {format_point(x)}")
        mask &= -mask
        if mask & t.identity:
            return x
        e, matrix, offset = t.pieces[mask.bit_length() - 1]
        den = e * q
        ys = []
        for row, b, lo, hi in zip(matrix, offset, t.lo, t.hi):
            y = sum(map(operator.mul, row, xs), b * q)
            if not lo * den <= y * scale <= hi * den:
                ys = [sum(map(operator.mul, row, xs), b * q) for row, b in zip(matrix, offset)]
                image = Point(tuple(Fraction(v, den) for v in ys))
                raise EscapesDomainError(
                    f"image {format_point(image)} escapes the domain (system not closed)"
                )
            ys.append(y)
        return Point(tuple([Fraction(v, den) for v in ys]))
