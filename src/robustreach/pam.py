"""Piecewise affine maps with exact rational coefficients.

A system is a finite list of affine pieces f_i(x) = A_i x + b_i, each
attached to a closed box region inside a common box domain. Regions may
share faces but never interior points, and the piece order is part of
the system: a boundary point belonging to several regions is evaluated
by the lowest-index piece. Evaluation is exact; the declared Lipschitz
bound is the induced sup-norm operator norm, i.e. the largest absolute
row sum over all pieces.

Piece lookup does not scan the regions. Closed-box membership splits
axis by axis, so each system keeps, per axis, the sorted distinct region
breakpoints and, for every breakpoint and every open gap between two
neighbouring breakpoints, a bitmask of the pieces whose region covers
it. A lookup bisects each coordinate into its slot and intersects the
slot masks; the lowest set bit is the lowest-index covering piece.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from robustreach.errors import DimensionMismatchError, InputFormatError, ToolkitError
from robustreach.geometry import Box, Point


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

    def apply(self, x: Point) -> Point:
        """A x + b, exactly. The caller is responsible for region membership."""
        return Point(
            tuple(
                sum((a * v for a, v in zip(row, x.coords)), start=Fraction(0)) + b
                for row, b in zip(self.matrix, self.offset.coords)
            )
        )

    def row_sum_norm(self) -> Fraction:
        """Induced sup-norm of the matrix: max over rows of sum |entry|."""
        return max(
            sum((abs(a) for a in row), start=Fraction(0)) for row in self.matrix
        )

    def image_box(self, box: Box) -> Box:
        """Exact image bounding box of a sub-box of the region.

        Each output coordinate is an affine form; its extrema over a box
        are attained at corners, so per component the minimum takes the
        interval endpoint matching the sign of the coefficient.
        """
        if not self.region.contains_box(box):
            raise PamError("image_box requires a box inside the piece region")
        lo = []
        hi = []
        for row, b in zip(self.matrix, self.offset.coords):
            lo_acc = b
            hi_acc = b
            for a, u, v in zip(row, box.lo, box.hi):
                if a >= 0:
                    lo_acc += a * u
                    hi_acc += a * v
                else:
                    lo_acc += a * v
                    hi_acc += a * u
            lo.append(lo_acc)
            hi.append(hi_acc)
        return Box(Point(tuple(lo)), Point(tuple(hi)))


def slot_mask(breaks: list, masks: list[int], v) -> int:
    """Piece mask of the breakpoint or gap slot holding coordinate v.

    breaks and masks are one axis of PamSystem._axis_index; v and the
    breakpoints may be Fractions or, uniformly scaled, ints. A coordinate
    outside every breakpoint gets the empty mask.
    """
    k = bisect_left(breaks, v)
    if k < len(breaks) and breaks[k] == v:
        return masks[2 * k]
    if 0 < k < len(breaks):
        return masks[2 * k - 1]
    return 0


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
        for i in range(len(self.pieces)):
            for j in range(i + 1, len(self.pieces)):
                if self.pieces[i].region.interior_intersects(self.pieces[j].region):
                    raise InputFormatError(
                        f"pieces {i} and {j} overlap on an interior point"
                    )

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def lipschitz(self) -> Fraction:
        """Declared Lipschitz bound: max row-sum norm over all pieces."""
        return max(piece.row_sum_norm() for piece in self.pieces)

    @cached_property
    def _axis_index(self) -> tuple[tuple[list[Fraction], list[int]], ...]:
        """Per axis: sorted region breakpoints and the piece mask of each slot.

        Slot 2k is breakpoint k and slot 2k+1 the open gap between
        breakpoints k and k+1; bit i of a slot's mask is set when piece
        i's closed region covers that slot on this axis.
        """
        index = []
        for axis in range(self.dim):
            breaks = sorted(
                {p.region.lo[axis] for p in self.pieces}
                | {p.region.hi[axis] for p in self.pieces}
            )
            position = {v: k for k, v in enumerate(breaks)}
            masks = [0] * (2 * len(breaks) - 1)
            for i, piece in enumerate(self.pieces):
                first = 2 * position[piece.region.lo[axis]]
                last = 2 * position[piece.region.hi[axis]]
                for slot in range(first, last + 1):
                    masks[slot] |= 1 << i
            index.append((breaks, masks))
        return tuple(index)

    def piece_index_at(self, x: Point) -> int:
        """Lowest index of a piece whose region contains x, or -1.

        Bisects each coordinate into its breakpoint or gap slot of the
        axis index and intersects the slot masks; a coordinate outside
        every breakpoint, or an empty intersection, means no piece.
        """
        if x.dim != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {x.dim}")
        mask = -1
        for v, (breaks, masks) in zip(x.coords, self._axis_index):
            mask &= slot_mask(breaks, masks, v)
            if not mask:
                return -1
        return (mask & -mask).bit_length() - 1

    def eval_at(self, x: Point) -> Point:
        """Evaluate the map at x.

        Raises OutsideDomainError / UndefinedRegionError / EscapesDomainError
        when x is outside the domain, in no region, or mapped out of the
        domain respectively. Ties on shared region faces go to the
        lowest-index piece.
        """
        if not self.domain.contains(x):
            raise OutsideDomainError(f"point {x.coords} outside domain")
        idx = self.piece_index_at(x)
        if idx < 0:
            raise UndefinedRegionError(f"no piece covers {x.coords}")
        y = self.pieces[idx].apply(x)
        if not self.domain.contains(y):
            raise EscapesDomainError(
                f"image {y.coords} escapes the domain (system not closed)"
            )
        return y
