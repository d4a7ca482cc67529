"""Uniform grid abstractions of a box domain and their transition graphs.

A grid at resolution m tiles the domain with axis-aligned cells of side
2^-m; the last cell of an axis is narrower when the width is not a
multiple of 2^-m, so every cell has sup-norm radius strictly below
2^-m. Cells are identified by their per-axis index tuples and all cell
queries (point membership, box intersection) are index arithmetic: no
operation ever enumerates the full cell population. The grid owns its
layout: side (clipped cell sides), strides (lexicographic flat indices)
and runs (a box of cells as runs of flat indices, walked by reach.py).

The abstraction graph has an edge from cell V to every cell meeting the
open ball of radius (L+1) * 2^-m around the exact image of V's centre,
with L the declared Lipschitz bound. The extra cell width of slack is
what makes every 2^-m-perturbed step land inside a successor cell, and
the refinement threshold below makes graph paths realisable as
perturbed trajectories.

Successor sets are boxes of cells, so they are stored as one
(first, last) index range per axis, never as sets of cells. The
SuccessorKernel computes them in exact integers: the grid must tile the
system's domain, and every coordinate is multiplied by S = 2^(m+1) * B,
with B the scale of the system's integer table (see pam.py), which
makes every cell centre, region breakpoint and domain face an integer.
The kernel reads only that table: its breakpoints and domain faces,
already times B, are multiplied by 2^(m+1), and each piece keeps the
table's (e, A e, b e), so lookup and images use the same slot rule and
pieces as eval_at. An image is an integer vector over one integer
denominator, and the range ends are integer floor and ceiling divisions.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator, Optional

from robustreach.errors import ToolkitError
from robustreach.geometry import Box, Point, format_point
from robustreach.pam import PamSystem, slot_mask

Cell = tuple[int, ...]
Ranges = tuple[tuple[int, int], ...]


class GridError(ToolkitError):
    """Raised for malformed grids or out-of-domain queries."""


class EdgeRule(enum.Enum):
    """The one edge rule: the exact image inflated by (L+1) * 2^-m.

    No function reads its value. It is kept only because the benchmark
    still passes EdgeRule.EXACT to graph_reach and path_savitch
    positionally.
    """

    EXACT = "exact"


@dataclass(frozen=True)
class Grid:
    """The level-m tiling of a box domain. Build through make_grid."""

    domain: Box
    m: int
    counts: tuple[int, ...]

    @cached_property
    def delta(self) -> Fraction:
        return Fraction(1, 1 << self.m)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def cell_count(self) -> int:
        return math.prod(self.counts)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Flat-index step of one index along each axis (lexicographic)."""
        return tuple(math.prod(self.counts[k + 1:]) for k in range(self.dim))

    def iter_cells(self) -> Iterator[Cell]:
        """All cells in lexicographic index order."""
        return product(*(range(c) for c in self.counts))

    def flat_index(self, cell: Cell) -> int:
        """Bijection onto 0..cell_count-1, lexicographic."""
        self._check_cell(cell)
        return sum(map(operator.mul, cell, self.strides))

    def cell_at(self, flat: int) -> Cell:
        if not 0 <= flat < self.cell_count:
            raise GridError(f"flat index {flat} out of range")
        idx = []
        for c in reversed(self.counts):
            idx.append(flat % c)
            flat //= c
        return tuple(reversed(idx))

    def runs(self, box: Ranges) -> tuple[list[int], int]:
        """Ascending run starts and common run length of a box's flat indices.

        Trailing axes the box spans whole merge into the last axis before
        them, k, so there is one run per index tuple of the axes before k.
        """
        k = len(box) - 1
        while k > 0 and box[k] == (0, self.counts[k] - 1):
            k -= 1
        strides = self.strides
        first, last = box[k]
        starts = [first * strides[k]]
        for (lo, hi), stride in zip(box[:k], strides):
            starts = [s + i * stride for s in starts for i in range(lo, hi + 1)]
        return starts, (last - first + 1) * strides[k]

    def _check_cell(self, cell: Cell) -> None:
        if len(cell) != self.dim or any(
            not 0 <= i < c for i, c in zip(cell, self.counts)
        ):
            raise GridError(f"cell {cell} not on this grid")

    def side(self, axis: int, i: int) -> tuple[Fraction, Fraction]:
        """Closed side of index i on an axis; the last one is clipped to the domain."""
        a = self.domain.lo[axis]
        d = self.delta
        return a + i * d, min(a + (i + 1) * d, self.domain.hi[axis])

    def cell_box(self, cell: Cell) -> Box:
        self._check_cell(cell)
        lo, hi = zip(*(self.side(axis, i) for axis, i in enumerate(cell)))
        return Box(Point(lo), Point(hi))

    def cells_containing(self, x: Point) -> frozenset[Cell]:
        """All cells whose closed box contains x; 2^j of them on j faces."""
        if not self.domain.contains(x):
            raise GridError(f"point {format_point(x)} outside the domain")
        return frozenset(self.cells_intersecting(Box(x, x)))

    def _axis_range(self, axis: int, lo: Fraction, hi: Fraction) -> range:
        """Index range of cells meeting the closed interval [lo, hi]."""
        d = self.delta
        a = self.domain.lo[axis]
        t_lo = (lo - a) / d
        first = math.floor(t_lo)
        if t_lo == first:
            first -= 1  # the cell ending at lo touches it
        last = math.floor((hi - a) / d)
        return range(max(first, 0), min(last, self.counts[axis] - 1) + 1)

    def cells_intersecting(self, box: Box) -> Iterator[Cell]:
        """Cells whose closed box meets the given closed box (faces count)."""
        return product(*(
            self._axis_range(i, box.lo[i], box.hi[i]) for i in range(self.dim)
        ))


def make_grid(domain: Box, m: int) -> Grid:
    """Tile the domain at resolution m; degenerate axes are rejected."""
    if m < 0:
        raise GridError(f"resolution must be >= 0, got {m}")
    delta = Fraction(1, 1 << m)
    counts = []
    for axis in range(domain.dim):
        width = domain.width(axis)
        if width == 0:
            raise GridError(f"axis {axis} of the domain is degenerate")
        counts.append(math.ceil(width / delta))
    return Grid(domain, m, tuple(counts))


class SuccessorKernel:
    """The edge rule of one (grid, system) pair in scaled integers.

    ranges(cell) returns the successor box of a cell as one inclusive
    (first, last) index range per axis, or None for a stuck cell. With
    t the image coordinate in cell units from the grid's lower face, the
    range of an axis is first = floor(t - (L+1)) to
    last = ceil(t + (L+1)) - 1, clipped to the axis: the cells meeting
    the open ball, as cells touching it only along a face are not
    successors. Coordinates are scaled by S = 2^(m+1) * B, with B the
    scale of the system's table, so the grid must be over the system's
    domain; another domain is a GridError.

    The centre's piece is the lowest set bit of the AND of per-axis
    tables of slot masks, looked up once per axis index when the kernel
    is built, so ties on shared faces go to the lowest-index piece as in
    eval_at. A centre in no piece, or an image outside the system's
    domain, makes the cell stuck.
    """

    def __init__(self, grid: Grid, system: PamSystem):
        if grid.domain != system.domain:
            raise GridError("the grid must tile the system's domain")
        self.grid = grid
        table = system._table
        factor = 2 << grid.m
        scale = table.scale * factor
        # One cell side is 2^-m * S = 2 * B scaled units.
        self._side = 2 * table.scale
        radius = system.lipschitz + 1
        self._radius = (radius.numerator, radius.denominator)
        self._lo = tuple(a * factor for a in table.lo)
        self._centres: list[list[int]] = []
        for lo, b, count in zip(self._lo, table.hi, grid.counts):
            axis = [lo + (2 * i + 1) * table.scale for i in range(count - 1)]
            # The clipped last cell is centred on its own mid-span.
            axis.append((lo + b * factor) // 2 + (count - 1) * table.scale)
            self._centres.append(axis)
        self._masks = []
        for (breaks, masks), centres in zip(table.axes, self._centres):
            ints = [v * factor for v in breaks]
            self._masks.append([slot_mask(ints, masks, c) for c in centres])
        self._pieces = [
            (
                e,
                matrix,
                tuple(b * scale for b in offset),
                tuple(a * factor * e for a in table.lo),
                tuple(b * factor * e for b in table.hi),
            )
            for e, matrix, offset in table.pieces
        ]

    def ranges(self, cell: Cell) -> Optional[Ranges]:
        """Successor box of an on-grid cell, or None when it has no successors."""
        mask = -1
        for masks, i in zip(self._masks, cell):
            mask &= masks[i]
        if not mask:
            return None
        e, matrix, offset, lo, hi = self._pieces[(mask & -mask).bit_length() - 1]
        x = [centres[i] for centres, i in zip(self._centres, cell)]
        # The image is y / (e * S); compare it with the ball in units of
        # one cell side over the radius denominator.
        rn, rd = self._radius
        den = self._side * e * rd
        reach = self._side * e * rn
        out = []
        for row, b, a, c, grid_lo, count in zip(
            matrix, offset, lo, hi, self._lo, self.grid.counts
        ):
            y = sum(map(operator.mul, row, x), b)
            if not a <= y <= c:
                return None
            t = (y - grid_lo * e) * rd
            first = max((t - reach) // den, 0)
            last = min(-((-t - reach) // den) - 1, count - 1)
            out.append((first, last))
        return tuple(out)


def successors(grid: Grid, system: PamSystem, cell: Cell) -> frozenset[Cell]:
    """Successor cells of one cell.

    The set view of SuccessorKernel.ranges: the product of the cell's
    per-axis successor ranges. The inflated image is an open ball
    (perturbed steps drift strictly less than their bound), so cells
    touching it only along a face are not successors. A centre where the
    map is undefined (no piece, outside domain, or escaping image) makes
    the cell a stuck vertex with no successors; such vertices only ever
    end paths.
    """
    grid._check_cell(cell)
    box = SuccessorKernel(grid, system).ranges(cell)
    if box is None:
        return frozenset()
    return frozenset(product(*(range(first, last + 1) for first, last in box)))


def resolution_for_eps(lipschitz: Fraction, n: int) -> int:
    """Smallest m with 2^-m < 2^-n / (2L + 2).

    At this resolution every path of the abstraction graph is realisable
    as a 2^-n-perturbed trajectory, so PATH answers are sound at level
    2^-n while NOPATH answers are sound at level 2^-m.
    """
    if lipschitz < 0:
        raise GridError(f"Lipschitz bound must be >= 0, got {lipschitz}")
    if n < 0:
        raise GridError(f"perturbation exponent must be >= 0, got {n}")
    # 2^(m-n) > 2L + 2 holds exactly when 2^(m-n) > floor(2L + 2).
    return n + math.floor(2 * lipschitz + 2).bit_length()
