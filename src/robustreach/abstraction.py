"""Uniform grid abstractions of a box domain and their transition graphs.

A grid at resolution m tiles the domain with axis-aligned cells of side
2^-m; the last cell of an axis is narrower when the width is not a
multiple of 2^-m, so every cell has sup-norm radius strictly below
2^-m. Cells are identified by their per-axis index tuples and all cell
queries (point membership, box intersection) are index arithmetic: no
operation ever enumerates the full cell population.

The abstraction graph has an edge from cell V to every cell touching the
closed ball around the image of V's centre:

  exact rule:        radius (L+1) * 2^-m around f(centre)
  approximate rule:  radius (L+2) * 2^-m around a 2^-m-approximation

with L the declared Lipschitz bound. The extra cell width of slack is
what makes every 2^-m-perturbed step land inside a successor cell, and
the refinement threshold below makes graph paths realisable as
perturbed trajectories.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator, Union

from robustreach.errors import ToolkitError
from robustreach.geometry import Box, Point
from robustreach.pam import MapEvaluator, PamError, PamSystem

Cell = tuple[int, ...]


class GridError(ToolkitError):
    """Raised for malformed grids or out-of-domain queries."""


class EdgeRule(enum.Enum):
    """How successor balls are produced from a cell centre."""

    EXACT = "exact"      # exact image, inflation (L+1) * 2^-m
    APPROX = "approx"    # 2^-m-approximate image, inflation (L+2) * 2^-m


@dataclass(frozen=True)
class Grid:
    """The level-m tiling of a box domain. Build through make_grid."""

    domain: Box
    m: int
    counts: tuple[int, ...]

    @property
    def delta(self) -> Fraction:
        return Fraction(1, 1 << self.m)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def cell_count(self) -> int:
        return math.prod(self.counts)

    def iter_cells(self) -> Iterator[Cell]:
        """All cells in lexicographic index order."""
        return product(*(range(c) for c in self.counts))

    def flat_index(self, cell: Cell) -> int:
        """Bijection onto 0..cell_count-1, lexicographic."""
        self._check_cell(cell)
        flat = 0
        for i, c in zip(cell, self.counts):
            flat = flat * c + i
        return flat

    def cell_at(self, flat: int) -> Cell:
        if not 0 <= flat < self.cell_count:
            raise GridError(f"flat index {flat} out of range")
        idx = []
        for c in reversed(self.counts):
            idx.append(flat % c)
            flat //= c
        return tuple(reversed(idx))

    def _check_cell(self, cell: Cell) -> None:
        if len(cell) != self.dim or any(
            not 0 <= i < c for i, c in zip(cell, self.counts)
        ):
            raise GridError(f"cell {cell} not on this grid")

    def cell_box(self, cell: Cell) -> Box:
        self._check_cell(cell)
        d = self.delta
        lo = []
        hi = []
        for i, a, b in zip(cell, self.domain.lo, self.domain.hi):
            lo.append(a + i * d)
            hi.append(min(a + (i + 1) * d, b))
        return Box(Point(tuple(lo)), Point(tuple(hi)))

    def cell_center(self, cell: Cell) -> Point:
        """Centre of the cell's box: lo + (2i+1) 2^-(m+1), or mid-span when clipped."""
        self._check_cell(cell)
        half = Fraction(1, 1 << (self.m + 1))
        coords = []
        for i, a, b, count in zip(cell, self.domain.lo, self.domain.hi, self.counts):
            if i < count - 1:
                coords.append(a + (2 * i + 1) * half)
            else:
                coords.append((a + i * self.delta + b) / 2)
        return Point(tuple(coords))

    def cells_containing(self, x: Point) -> frozenset[Cell]:
        """All cells whose closed box contains x; 2^j of them on j faces."""
        if not self.domain.contains(x):
            raise GridError(f"point {x.coords} outside the domain")
        d = self.delta
        per_axis: list[list[int]] = []
        for v, a, count in zip(x.coords, self.domain.lo, self.counts):
            t = (v - a) / d
            floor_t = math.floor(t)
            axis = []
            if floor_t == t and floor_t > 0:
                axis.append(floor_t - 1)  # face point also lies in the cell below
            axis.append(min(floor_t, count - 1))
            per_axis.append(sorted(set(axis)))
        return frozenset(product(*per_axis))

    def _axis_range(self, axis: int, lo: Fraction, hi: Fraction, open_ends: bool) -> range:
        """Index range of cells meeting [lo, hi] (or (lo, hi) when open)."""
        d = self.delta
        a = self.domain.lo[axis]
        count = self.counts[axis]
        t_lo = (lo - a) / d
        t_hi = (hi - a) / d
        if open_ends:
            # Strict overlap with the open interval.
            first = math.floor(t_lo) if t_lo != math.floor(t_lo) else int(t_lo)
            last = math.ceil(t_hi) - 1
        else:
            first = math.floor(t_lo)
            if t_lo == first:
                first -= 1  # the cell ending at lo touches it
            last = math.floor(t_hi)
        return range(max(first, 0), min(last, count - 1) + 1)

    def cells_intersecting(self, box: Box) -> Iterator[Cell]:
        """Cells whose closed box meets the given closed box (faces count)."""
        ranges = [
            self._axis_range(i, box.lo[i], box.hi[i], open_ends=False)
            for i in range(self.dim)
        ]
        return product(*ranges)

    def cells_intersecting_open(self, box: Box) -> Iterator[Cell]:
        """Cells whose closed box meets the open interior of the given box."""
        if any(a >= b for a, b in zip(box.lo, box.hi)):
            return iter(())
        ranges = [
            self._axis_range(i, box.lo[i], box.hi[i], open_ends=True)
            for i in range(self.dim)
        ]
        return product(*ranges)


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


System = Union[PamSystem, MapEvaluator]


def successors(grid: Grid, system: System, rule: EdgeRule, cell: Cell) -> frozenset[Cell]:
    """Successor cells of one cell under the chosen edge rule.

    The inflated image is an open ball (perturbed steps drift strictly
    less than their bound), so cells touching it only along a face are
    not successors. A centre where the map is undefined (no piece,
    outside domain, or escaping image) makes the cell a stuck vertex
    with no successors; such vertices only ever end paths.
    """
    center = grid.cell_center(cell)
    delta = grid.delta
    if rule is EdgeRule.EXACT and not hasattr(system, "eval_at"):
        raise GridError("the exact edge rule needs an exactly evaluable system")
    try:
        if rule is EdgeRule.EXACT:
            image = system.eval_at(center)  # type: ignore[union-attr]
            radius = (system.lipschitz + 1) * delta
        else:
            image = system.eval_approx(center, grid.m)
            radius = (system.lipschitz + 2) * delta
    except PamError:
        return frozenset()
    ball = Box.ball(image, radius)
    return frozenset(grid.cells_intersecting_open(ball))


def resolution_for_eps(lipschitz: Fraction, n: int) -> int:
    """Smallest m with 2^-m < 2^-n / (2L + 2).

    At this resolution every path of the exact-rule graph is realisable
    as a 2^-n-perturbed trajectory, so PATH answers are sound at level
    2^-n while NOPATH answers are sound at level 2^-m.
    """
    if lipschitz < 0:
        raise GridError(f"Lipschitz bound must be >= 0, got {lipschitz}")
    if n < 0:
        raise GridError(f"perturbation exponent must be >= 0, got {n}")
    threshold = Fraction(1, 1 << n) / (2 * lipschitz + 2)
    m = n
    while Fraction(1, 1 << m) >= threshold:
        m += 1
    return m
