"""Reachability engines over grid abstractions of piecewise affine maps.

All reachability notions here are about perturbed trajectories: a
2^-n-perturbed trajectory may drift by strictly less than 2^-n after
each exact map application, and the robust reachability question asks
whether a target stays reachable for every positive drift bound. The
central facts the engines rely on are:

  covering   every 2^-m-perturbed step from a cell lands inside one of
             its successor cells, so graph NOPATH at resolution m
             refutes reachability at drift 2^-m;
  refinement at m = resolution_for_eps(L, n) every graph path can be
             walked by an actual 2^-n-perturbed trajectory through the
             cell centres, so graph PATH certifies reachability at
             drift 2^-n.

NOPATH therefore comes with a checkable certificate: the forward-closed
cell set discovered by the search is an inductive invariant that
excludes the target, and check_witness re-verifies the three witness
conditions from scratch, in integers on a lattice of its own.

Targets are closed balls cB(y, 2^-p) rather than bare points: a point
target can sit on the shared face of cells whose graph keeps reaching
it at every resolution even though only its neighbourhood, not the
point, is robustly reachable. Exact point targets are still accepted
(pass p=None), with the caveat that the ball-free question may stay
Unknown forever; the S1 fixture does exactly that. Either way target_box
makes the target one closed Box, and orbit points and cells are tested
against that box alone.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from typing import Iterable, Optional, Sequence

from robustreach.abstraction import (
    Cell,
    EdgeRule,
    Grid,
    GridError,
    SuccessorKernel,
    make_grid,
    resolution_for_eps,
)
from robustreach.errors import ToolkitError
from robustreach.geometry import Box, Point, format_point
from robustreach.pam import PamError, PamSystem


class ReachError(ToolkitError):
    """Raised for queries outside the domain or malformed witnesses."""


@dataclass(frozen=True)
class Witness:
    """Certificate of robust non-reachability.

    cells is a forward-closed set of level-m cells containing every cell
    of the source point and no cell that meets the target; eps_exp is
    the drift exponent the certificate is valid for: every trajectory
    with per-step drift below 2^-eps_exp stays inside the cell union.
    """

    m: int
    eps_exp: int
    cells: frozenset[Cell]


@dataclass(frozen=True)
class Reached:
    """The exact (unperturbed) orbit hits the target at step `steps`."""

    trajectory: tuple[Point, ...]
    steps: int


@dataclass(frozen=True)
class RobustlyUnreachable:
    witness: Witness


@dataclass(frozen=True)
class Unknown:
    """Both sides ran out of budget: max_m refinement rounds and
    steps_simulated exact steps; simulation_stopped says why the orbit
    ended early, or is None when it did not."""

    max_m: int
    steps_simulated: int
    simulation_stopped: Optional[str] = None


@dataclass(frozen=True)
class TrueAtEps:
    """Reachable whenever the per-step drift is 2^-n (eps = 2^-n)."""

    eps: Fraction
    n: int


@dataclass(frozen=True)
class FalseAtEps:
    """Unreachable already at per-step drift 2^-m (eps = 2^-m)."""

    eps: Fraction
    m: int


def graph_reach(
    grid: Grid, system: PamSystem, rule: EdgeRule, sources: Iterable[Cell]
) -> frozenset[Cell]:
    """Forward closure of the source cells in the abstraction graph.

    A worklist search over flat cell indices with two bytearrays:
    visited, and pending = SuccessorKernel.live(), the cells that may
    have successors and have not been pushed. Only pending cells are
    pushed, so a cell with no piece at its centre is marked visited in C
    and never popped. A popped cell's successor box comes from
    SuccessorKernel.box; a stuck cell has none, and a box already swept,
    kept in swept as its corners' flat indices lo * cell_count + hi,
    adds nothing new and is skipped. A swept box's runs come from
    Grid.runs: a run with no unvisited cell is skipped with one find,
    otherwise pending.find(1, ...) pushes its pending cells and two
    slice assignments clear pending and set visited over the run. Each
    cell with a piece at its centre is popped at most once, and each
    distinct box is laid out once.

    rule is unread, as there is one edge rule; it stays for the
    benchmark's call form graph_reach(grid, system, EdgeRule.EXACT, ...).
    """
    kernel = SuccessorKernel(grid, system)
    count, strides = grid.cell_count, grid.strides
    visited = bytearray(count)
    pending = kernel.live()
    frontier = []
    for cell in sources:
        flat = grid.flat_index(cell)
        visited[flat] = 1
        if pending[flat]:
            pending[flat] = 0
            frontier.append(flat)
    swept = set()
    while frontier:
        box = kernel.box(frontier.pop())
        if box is None:
            continue
        lo = hi = 0
        for (first, last), stride in zip(box, strides):
            lo += first * stride
            hi += last * stride
        key = lo * count + hi
        if key in swept:
            continue
        swept.add(key)
        starts, width = grid.runs(box)
        zeros, ones = bytes(width), b"\x01" * width
        for start in starts:
            end = start + width
            if visited.find(0, start, end) < 0:
                continue
            flat = pending.find(1, start, end)
            while flat >= 0:
                frontier.append(flat)
                flat = pending.find(1, flat + 1, end)
            pending[start:end] = zeros
            visited[start:end] = ones
    del pending, swept  # freed before the result's cell tuples are built
    return frozenset(compress(grid.iter_cells(), visited))


def path_savitch(
    grid: Grid, system: PamSystem, rule: EdgeRule, source: Cell, target: Cell
) -> bool:
    """Path existence by the recursive midpoint search.

    CANYIELD(u, v, t) asks for a path of length at most 2^t and splits on
    an intermediate cell enumerated in index order. A simple path visits
    each cell at most once, so it has at most |cells| - 1 edges, and t
    starts at the smallest t_top with 2^t_top >= |cells| - 1. Cells are
    their flat indices, so a midpoint is an int of range(|cells|).
    The recursion depth is bounded: the number of descents below the top
    call never exceeds t_top, asserted on every call. An edge u -> v is
    membership of v in the flat indices of u's SuccessorKernel.box. Those
    sets are memoised per call, and the memo keeps a successor set for
    every cell the search visits, so this implementation is not
    space-bounded: its memory grows with the cells visited times their
    successor counts, as a worklist search's does. The memo never records
    which pairs were tried or found connected, so the search order is
    still Savitch's.

    Every call first settles length 0 or 1 (u == v or the edge u -> v),
    which is all that t = 0 allows. At t >= 2 the midpoints u and v are
    skipped: on a shortest path of length 2 <= L <= 2^t, the cell at
    position ceil(L/2) is neither end, and both halves have length at
    most 2^(t-1). At t = 1, with u == v and the edge u -> v ruled out, a
    midpoint can only succeed as u -> mid -> v: mid == u or mid == v
    would need the edge u -> v again. So the base case looks for v among
    the successors of u's successors instead of calling every midpoint
    twice at t = 0.

    rule is unread, as there is one edge rule; it stays for the
    benchmark's call form path_savitch(grid, system, EdgeRule.EXACT, u, v).
    """
    ends = (grid.flat_index(source), grid.flat_index(target))  # GridError off the grid
    total = grid.cell_count
    t_top = max(total - 2, 0).bit_length()  # smallest t with 2^t >= total - 1
    kernel = SuccessorKernel(grid, system)

    @functools.cache
    def succ(flat: int) -> frozenset[int]:
        box = kernel.box(flat)
        if box is None:
            return frozenset()
        starts, width = grid.runs(box)
        return frozenset(f for start in starts for f in range(start, start + width))

    def can_yield(u: int, v: int, t: int, depth: int) -> bool:
        assert depth <= t_top, "midpoint recursion exceeded its depth bound"
        if u == v or v in succ(u):
            return True
        if t == 0:
            return False
        if t == 1:
            return any(v in succ(mid) for mid in succ(u))
        for mid in range(total):
            if mid == u or mid == v:
                continue
            if can_yield(u, mid, t - 1, depth + 1) and can_yield(
                mid, v, t - 1, depth + 1
            ):
                return True
        return False

    return can_yield(*ends, t_top, 0)


def reach_over_approx(system: PamSystem, x: Point, m: int) -> frozenset[Cell]:
    """Cells reachable from the cells of x at resolution m.

    The result covers every 2^-m-perturbed orbit of x: orbits stay inside
    the union of the returned cells.
    """
    grid = make_grid(system.domain, m)
    return graph_reach(grid, system, EdgeRule.EXACT, grid.cells_containing(x))


def target_box(system: PamSystem, y: Point, p: Optional[int]) -> Box:
    """The closed target: the ball cB(y, 2^-p), or the point y when p is None."""
    if not system.domain.contains(y):
        raise ReachError(f"target {format_point(y)} outside the domain")
    if p is None:
        return Box(y, y)
    if p < 0:
        raise ReachError(f"target radius exponent must be >= 0, got {p}")
    return Box.ball(y, Fraction(1, 1 << p))


def extract_witness(grid: Grid, system: PamSystem, x: Point) -> Witness:
    """Forward closure of all cells of x, packaged at drift level 2^-m.

    The closure is forward-closed by construction and each member cell's
    one-step perturbed image at drift 2^-m stays within successor cells,
    so the certificate level equals the grid resolution.
    """
    cells = graph_reach(grid, system, EdgeRule.EXACT, grid.cells_containing(x))
    return Witness(m=grid.m, eps_exp=grid.m, cells=cells)


def check_witness(
    system: PamSystem,
    witness: Witness,
    x: Point,
    y: Point,
    p: Optional[int],
) -> bool:
    """Re-verify a non-reachability certificate from first principles.

    Checks, exactly and with no reuse of the search:
      1. every cell containing x belongs to the witness;
      2. for every member cell and every piece overlapping it, the exact
         image box of the overlap, inflated by 2^-eps_exp and clipped to
         the domain, meets member cells only;
      3. no member cell meets the closed target box (tested per member).
    A piece is exempt from condition 2 on a cell when a lower-index
    piece's region holds the whole overlap: the tie-break hands every
    such point to the earlier piece (this matters for cells touching a
    piece face from outside). Condition 2 asks every grid cell touching
    the inflated image box to be a member, which is conservative;
    callers refine and re-extract when a sound witness is rejected.

    The check runs in ints on its own lattice, built from the domain,
    the target and the pieces, never from SuccessorKernel or the
    system's integer table. With D the lcm of the denominators of the
    domain, target and region bounds times 2^max(m, eps_exp), every face
    and the inflation are integers over D; a piece's A and b times the
    lcm e of its own denominators give image bounds over e D. Per axis,
    a lazy table keyed by the indices the members use holds whether the
    side misses the target (condition 3 wants one axis that misses), the
    mask of pieces meeting it and, per piece, the mask of lower-index
    regions holding the overlap on that axis (ANDed over the axes: the
    exemption) and the extreme terms of each image row. Coverage bisects
    the members' sorted last-axis indices per prefix of the other axes.
    """
    target = target_box(system, y, p)
    try:
        grid = make_grid(system.domain, witness.m)
    except GridError:
        return False
    members = witness.cells
    if not members or witness.eps_exp < 0:
        return False
    try:
        for cell in members:
            grid._check_cell(cell)
    except GridError:
        return False
    if not grid.cells_containing(x) <= members:
        return False

    domain, pieces = system.domain, system.pieces
    bounds = (domain, target, *(piece.region for piece in pieces))
    scale = math.lcm(*(v.denominator for box in bounds for v in (*box.lo, *box.hi)))
    scale <<= max(witness.m, witness.eps_exp)

    def ints(point: Point) -> list[int]:
        return [v.numerator * (scale // v.denominator) for v in point]

    lo, hi, t_lo, t_hi = map(ints, (domain.lo, domain.hi, target.lo, target.hi))
    regions = [(ints(piece.region.lo), ints(piece.region.hi)) for piece in pieces]
    side, eps = scale >> witness.m, scale >> witness.eps_exp
    maps = []  # per piece: A e; per row b e D -/+ eps e; domain faces and cell side over e D
    for piece in pieces:
        e = math.lcm(*(a.denominator for row in piece.matrix for a in row),
                     *(b.denominator for b in piece.offset))
        shift = [int(b * e) * scale for b in piece.offset]
        maps.append(([[int(a * e) for a in row] for row in piece.matrix],
                     [s - eps * e for s in shift], [s + eps * e for s in shift],
                     [a * e for a in lo], [b * e for b in hi], side * e))

    @functools.cache
    def axis_entry(axis: int, i: int) -> tuple:
        u = lo[axis] + i * side
        v = min(u + side, hi[axis])
        meets, parts = 0, {}
        for j, (r_lo, r_hi) in enumerate(regions):
            a, b = max(u, r_lo[axis]), min(v, r_hi[axis])
            if a <= b:
                meets |= 1 << j
                exempt = sum(1 << k for k, (q_lo, q_hi) in enumerate(regions[:j])
                             if q_lo[axis] <= a and b <= q_hi[axis])
                col = [row[axis] for row in maps[j][0]]
                parts[j] = (exempt, [c * (a if c >= 0 else b) for c in col],
                            [c * (b if c >= 0 else a) for c in col])
        return v < t_lo[axis] or u > t_hi[axis], meets, parts

    tails: dict[Cell, list[int]] = {}  # the members' last indices per prefix
    for cell in sorted(members):
        tails.setdefault(cell[:-1], []).append(cell[-1])

    def covered(box: list[tuple[int, int]]) -> bool:
        # Distinct sorted indices hold all of first..last exactly when the
        # one last - first places after first's position is last.
        first, last = box[-1]
        for prefix in product(*(range(f, l + 1) for f, l in box[:-1])):
            tail = tails.get(prefix, ())
            k = bisect_left(tail, first) + last - first
            if k >= len(tail) or tail[k] != last:
                return False
        return True

    for cell in members:
        entries = [axis_entry(axis, i) for axis, i in enumerate(cell)]
        if not any(entry[0] for entry in entries):
            return False
        mask = -1
        for entry in entries:
            mask &= entry[1]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            parts = [entry[2][j] for entry in entries]
            exempt = -1
            for part in parts:
                exempt &= part[0]
            if exempt:
                continue
            _, low, high, faces_lo, faces_hi, width = maps[j]
            box = []
            for base_lo, base_hi, face_lo, face_hi, count, lows, highs in zip(
                low, high, faces_lo, faces_hi, grid.counts,
                zip(*(part[1] for part in parts)), zip(*(part[2] for part in parts)),
            ):
                # The inflated image on one axis over e D, clipped to the
                # domain, and the closed range of cells meeting it: the one
                # range site, with Grid._axis_range's face rule.
                a, b = max(base_lo + sum(lows), face_lo), min(base_hi + sum(highs), face_hi)
                if a > b:
                    break
                box.append((max(-((face_lo - a) // width) - 1, 0),
                            min((b - face_lo) // width, count - 1)))
            else:
                if not covered(box):
                    return False
    return True


def decide_omega_reach(
    system: PamSystem,
    x: Point,
    y: Point,
    p: Optional[int],
    max_m: int = 10,
    max_steps: Optional[int] = None,
) -> Reached | RobustlyUnreachable | Unknown:
    """Interleaved semi-decision of robust reachability of cB(y, 2^-p).

    Round r simulates the exact orbit up to min(2^r, max_steps) steps and
    then searches the level-r abstraction graph. The simulation side can
    only return Reached; the graph side can only return
    RobustlyUnreachable (its witness is the forward-closed reach set,
    valid at drift 2^-r). Both sides exhausted means Unknown, which
    holds the budget spent and why the simulation stopped, if it did.
    The two verdicts are mutually exclusive, so the simulation is
    consulted first in each round; every candidate witness is
    re-verified with check_witness before being emitted, and a rejected
    candidate (box slack, or a member cell leaking through a piece face)
    just means the search continues one level finer.
    """
    if not system.domain.contains(x):
        raise ReachError(f"source {format_point(x)} outside the domain")
    target = target_box(system, y, p)
    if max_m < 0:
        raise ReachError(f"max_m must be >= 0, got {max_m}")
    if max_steps is not None and max_steps < 0:
        raise ReachError(f"max_steps must be >= 0, got {max_steps}")
    step_cap = max_steps if max_steps is not None else 1 << max_m
    points = [x]
    tested = 0  # points[:tested] are known to miss the target
    stopped: Optional[str] = None
    for r in range(1, max_m + 1):
        while stopped is None and len(points) - 1 < min(1 << r, step_cap):
            try:
                points.append(system.eval_at(points[-1]))
            except PamError as exc:
                stopped = f"simulation stopped at step {len(points) - 1}: {exc}"
        for t in range(tested, len(points)):
            if target.contains(points[t]):
                return Reached(tuple(points[: t + 1]), t)
        tested = len(points)
        grid = make_grid(system.domain, r)
        witness = extract_witness(grid, system, x)
        hits = grid.cells_intersecting(target)
        if witness.cells.isdisjoint(hits) and check_witness(system, witness, x, y, p):
            return RobustlyUnreachable(witness)
    return Unknown(
        max_m=max_m, steps_simulated=len(points) - 1, simulation_stopped=stopped
    )


def decide_perturbed_interval(
    system: PamSystem,
    x: Point,
    y: Point,
    p: Optional[int],
    n: int,
) -> TrueAtEps | FalseAtEps:
    """Sandwich decision at the refinement resolution for drift 2^-n.

    PATH from some cell of x to some target cell proves reachability at
    drift 2^-n (the path is realisable); NOPATH from every cell of x
    refutes reachability at drift 2^-m with m = resolution_for_eps(L, n).
    Exactly one of the two holds.
    """
    if not system.domain.contains(x):
        raise ReachError(f"source {format_point(x)} outside the domain")
    target = target_box(system, y, p)
    if n < 0:
        raise ReachError(f"perturbation exponent must be >= 0, got {n}")
    m = resolution_for_eps(system.lipschitz, n)
    grid = make_grid(system.domain, m)
    reached = graph_reach(grid, system, EdgeRule.EXACT, grid.cells_containing(x))
    if not reached.isdisjoint(grid.cells_intersecting(target)):
        return TrueAtEps(Fraction(1, 1 << n), n)
    return FalseAtEps(Fraction(1, 1 << m), m)


def plot_pixels(
    system: PamSystem,
    x: Point,
    n: int,
    axes: Sequence[int] = (0,),
) -> tuple[tuple[int, ...], ...]:
    """Pixel rendering of the reachable set of x at pixel size 2^-n.

    Returns the rows of 0/1 pixels in image order. Pixel z covers the
    point z / 2^n, and per plotted axis z runs from floor(lo * 2^n) to
    ceil(hi * 2^n) over the domain's side [lo, hi]. For one axis there is
    a single row with z ascending; for two axes the first axis ascends
    along a row and rows descend in the second axis, so the top row has
    the largest second coordinate.

    The reachable set is over-approximated by cells at resolution n + 2
    and projected to the chosen axes (one or two of them). Pixel z is set
    when the open ball of radius 2^-n around z / 2^n meets some projected
    cell. Per axis, (z - 1, z + 1) / 2^n meets a closed cell side [u, v]
    exactly when floor(u * 2^n) <= z <= ceil(v * 2^n), so each cell lights
    one box of pixels, never one outside the frame. Pixels whose
    double-radius ball meets the projection while the single-radius ball
    does not may legitimately land either way; this rule clears them.
    """
    if n < 0:
        raise ReachError(f"pixel exponent must be >= 0, got {n}")
    axes = tuple(axes)
    if len(axes) not in (1, 2) or len(set(axes)) != len(axes):
        raise ReachError(f"axes must name one or two distinct dimensions: {axes}")
    if any(not 0 <= a < system.dim for a in axes):
        raise ReachError(f"axes {axes} out of range for dimension {system.dim}")
    grid = make_grid(system.domain, n + 2)
    cells = graph_reach(grid, system, EdgeRule.EXACT, grid.cells_containing(x))
    # Per plotted axis, in units of 2^-n / (4 den) with den the lcm of the
    # domain faces' denominators: a cell at level n + 2 is den wide and a
    # pixel 4 den, the faces are base and top, and cell i's side is
    # [base + i den, min(base + (i + 1) den, top)].
    spans, frames = [], []
    for a in axes:
        lo, hi = system.domain.lo[a], system.domain.hi[a]
        den = math.lcm(lo.denominator, hi.denominator)
        base = lo.numerator * (den // lo.denominator) << (n + 2)
        top = hi.numerator * (den // hi.denominator) << (n + 2)
        unit = 4 * den
        spans.append([
            range((base + i * den) // unit, -(-min(base + (i + 1) * den, top) // unit) + 1)
            for i in range(grid.counts[a])
        ])
        frames.append(range(base // unit, -(-top // unit) + 1))
    lit: set[tuple[int, ...]] = set()
    for cell in {tuple(cell[a] for a in axes) for cell in cells}:
        lit.update(product(*(span[i] for span, i in zip(spans, cell))))
    across = frames[0]
    if len(axes) == 1:
        return (tuple(int((z,) in lit) for z in across),)
    return tuple(
        tuple(int((za, zb) in lit) for za in across) for zb in reversed(frames[1])
    )
