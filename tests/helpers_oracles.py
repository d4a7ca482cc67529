"""Independent oracle implementations the tests check the library against.

Everything here recomputes answers from definitions with different data
structures and traversal orders than the library: exhaustive scans
instead of index arithmetic, explicit run enumeration instead of window
graphs, config-level search instead of closed forms. Slow and obvious
on purpose.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from hypothesis import strategies as st

from robustreach.abstraction import Cell, Grid, GridError, make_grid
from robustreach.embed import EncodingScheme, encode_config
from robustreach.errors import InputFormatError
from robustreach.geometry import Box, Point, sup_dist
from robustreach.pam import (
    AffinePiece,
    EscapesDomainError,
    OutsideDomainError,
    PamError,
    PamSystem,
    UndefinedRegionError,
)
from robustreach.tm import (
    MOVE_LEFT,
    MOVE_RIGHT,
    MOVE_STAY,
    Configuration,
    MachineError,
    MissingTransitionError,
    TuringMachine,
    step,
)
from robustreach.reach import Witness, target_box
from robustreach.trajectory import LengthBudgetError


# -- map oracles -------------------------------------------------------------


def scan_piece_index(system: PamSystem, x: Point) -> int:
    """Lowest index of a piece whose closed region contains x, by linear scan."""
    for i, piece in enumerate(system.pieces):
        if all(a <= v <= b for a, v, b in zip(piece.region.lo, x, piece.region.hi)):
            return i
    return -1


def apply_piece(piece: AffinePiece, x: Point) -> Point:
    """A x + b of one piece in Fractions; region membership is not checked."""
    return Point(
        tuple(
            sum((a * v for a, v in zip(row, x.coords)), start=Fraction(0)) + b
            for row, b in zip(piece.matrix, piece.offset.coords)
        )
    )


def scan_eval(system: PamSystem, x: Point) -> Point:
    """The map at x through scan_piece_index, raising what eval_at raises."""
    if not system.domain.contains(x):
        raise OutsideDomainError(f"point {x.coords} outside domain")
    idx = scan_piece_index(system, x)
    if idx < 0:
        raise UndefinedRegionError(f"no piece covers {x.coords}")
    y = apply_piece(system.pieces[idx], x)
    if not system.domain.contains(y):
        raise EscapesDomainError(f"image {y.coords} escapes the domain")
    return y


def interiors_meet(a: Box, b: Box) -> bool:
    """True when two boxes share an interior point, not just a face."""
    return all(
        max(a1, a2) < min(b1, b2) for a1, b1, a2, b2 in zip(a.lo, a.hi, b.lo, b.hi)
    )


def first_overlap(regions: Sequence[Box]) -> Optional[tuple[int, int]]:
    """The first pair i < j of regions whose interiors meet, in (i, j) order."""
    for i, a in enumerate(regions):
        for j in range(i + 1, len(regions)):
            if interiors_meet(a, regions[j]):
                return i, j
    return None


def box_center(box: Box) -> Point:
    """The midpoint of a box."""
    return Point(tuple((a + b) / 2 for a, b in zip(box.lo, box.hi)))


def box_corners(box: Box) -> list[Point]:
    """All 2^d corner points of a box (duplicates collapse on degenerate axes)."""
    axes = [(a, b) if a != b else (a,) for a, b in zip(box.lo, box.hi)]
    return [Point(coords) for coords in product(*axes)]


def inflate(box: Box, radius: Fraction) -> Box:
    """Grow the box by radius on every face (sup-norm dilation)."""
    if radius < 0:
        raise InputFormatError(f"negative inflation radius: {radius}")
    return Box(box.lo.shift(-radius), box.hi.shift(radius))


def image_box(piece: AffinePiece, box: Box) -> Box:
    """Exact image bounding box of a sub-box of the piece's region.

    Each output coordinate is an affine form; its extrema over a box
    are attained at corners, so per component the minimum takes the
    interval endpoint matching the sign of the coefficient.
    """
    if not piece.region.contains_box(box):
        raise PamError("image_box requires a box inside the piece region")
    lo = []
    hi = []
    for row, b in zip(piece.matrix, piece.offset.coords):
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


# -- grid oracles ------------------------------------------------------------


def cell_side(grid: Grid, axis: int, i: int) -> tuple[Fraction, Fraction]:
    """Closed side of index i on an axis; the last one is clipped to the domain."""
    a = grid.domain.lo[axis]
    d = grid.delta
    return a + i * d, min(a + (i + 1) * d, grid.domain.hi[axis])


def cell_box(grid: Grid, cell: Cell) -> Box:
    """The closed box of a grid cell: its side on each axis."""
    grid._check_cell(cell)
    lo, hi = zip(*(cell_side(grid, axis, i) for axis, i in enumerate(cell)))
    return Box(Point(lo), Point(hi))


@lru_cache(maxsize=16)
def _cell_sides(grid: Grid) -> tuple[tuple[tuple[Fraction, Fraction], ...], ...]:
    """Per axis, the closed side [lo, hi] of every cell index, built once per grid."""
    return tuple(
        tuple(cell_side(grid, axis, i) for i in range(count)) for axis, count in enumerate(grid.counts)
    )


def scan_successors(grid: Grid, system: PamSystem, cell: Cell) -> frozenset[Cell]:
    """Successors by scanning every cell side with direct interval arithmetic.

    The exact image comes from scan_eval, and the open ball around it has
    radius (L+1) * 2^-m. A cell's box meets the open ball when each of
    its sides meets the ball's interval on that axis, so every axis's
    cell sides are scanned and the hits multiplied out.
    """
    center = box_center(cell_box(grid, cell))
    try:
        image = scan_eval(system, center)
    except PamError:
        return frozenset()
    radius = (system.lipschitz + 1) * grid.delta
    hits = [
        [i for i, (lo, hi) in enumerate(sides) if lo < image[a] + radius and hi > image[a] - radius]
        for a, sides in enumerate(_cell_sides(grid))
    ]
    return frozenset(product(*hits))


def scan_reach(grid: Grid, system, sources: Iterable[Cell]) -> frozenset[Cell]:
    """Forward closure by sweeps, each expanding only the cells the last one added."""
    reached = set(sources)
    added = set(reached)
    while added:
        added = {
            nxt
            for cell in added
            for nxt in scan_successors(grid, system, cell)
        } - reached
        reached |= added
    return frozenset(reached)


def scan_plot(
    system: PamSystem, x: Point, n: int, axes: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(z_lo, z_hi, rows) of a plot, pixel by pixel from the scan_reach closure.

    The pixel range is every z whose open ball (z - 1, z + 1) / 2^n meets
    the projected domain, found by testing a margin of candidates around
    it. Pixel z is set when that ball meets the projected closed box of
    some reached level-(n+2) cell. Rows are in image order: z ascending
    along a row, and for two axes the first row holds the largest second
    coordinate.
    """
    grid = make_grid(system.domain, n + 2)
    cells = scan_reach(grid, system, grid.cells_containing(x))
    boxes = [cell_box(grid, c) for c in cells]
    spans = {tuple((box.lo[a], box.hi[a]) for a in axes) for box in boxes}
    scale = 1 << n

    def meets(z: int, lo: Fraction, hi: Fraction) -> bool:
        return lo < Fraction(z + 1, scale) and hi > Fraction(z - 1, scale)

    pixels = []
    for a in axes:
        lo, hi = system.domain.lo[a], system.domain.hi[a]
        candidates = range(int(lo * scale) - 3, int(hi * scale) + 4)
        pixels.append([z for z in candidates if meets(z, lo, hi)])
    bits = {
        z: int(any(all(meets(v, *span) for v, span in zip(z, box)) for box in spans))
        for z in product(*pixels)
    }
    if len(axes) == 1:
        rows = (tuple(bits[(z,)] for z in pixels[0]),)
    else:
        rows = tuple(
            tuple(bits[(za, zb)] for za in pixels[0])
            for zb in sorted(pixels[1], reverse=True)
        )
    return tuple(p[0] for p in pixels), tuple(p[-1] for p in pixels), rows


def bfs_path(grid: Grid, system, sources: Iterable[Cell], goals) -> Optional[list[Cell]]:
    """Explicit shortest cell path from any source to any goal cell."""
    goals = set(goals)
    parent: dict[Cell, Optional[Cell]] = {c: None for c in sources}
    frontier = list(parent)
    while frontier:
        nxt_frontier = []
        for cell in frontier:
            if cell in goals:
                path = [cell]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            for nxt in scan_successors(grid, system, cell):
                if nxt not in parent:
                    parent[nxt] = cell
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return None


def realize_path(
    system: PamSystem, grid: Grid, path: list[Cell], x: Point, n: int
) -> list[Point]:
    """Walk a graph path with an actual 2^-n-perturbed trajectory.

    Starts at x (inside path[0]) and, for each edge, picks a concrete
    point of the next cell inside the open inflated image ball of the
    current cell's centre; the drift of every constructed step must come
    out strictly below 2^-n, which the caller asserts.
    """
    eps = Fraction(1, 1 << n)
    radius = (system.lipschitz + 1) * grid.delta
    points = [x]
    for t in range(1, len(path)):
        image = scan_eval(system, box_center(cell_box(grid, path[t - 1])))
        box = cell_box(grid, path[t])
        coords = []
        for i in range(grid.dim):
            lo = max(box.lo[i], image[i] - radius)
            hi = min(box.hi[i], image[i] + radius)
            assert lo <= hi, "graph edge without geometric overlap"
            coords.append((lo + hi) / 2)
        nxt = Point(tuple(coords))
        drift = sup_dist(nxt, scan_eval(system, points[-1]))
        assert drift < eps, f"step {t} drifted {drift} >= {eps}"
        points.append(nxt)
    return points


def required_cells(
    system: PamSystem, grid: Grid, cell: Cell, eps: Fraction, exempt: bool = True
) -> set[Cell]:
    """The cells that check_witness's condition 2 asks a member cell to bring in.

    For every piece overlapping the cell, unless a lower-index region
    holds the whole overlap (skipped when exempt is False), every grid
    cell touching the exact image of the overlap, inflated by eps and
    clipped to the domain.
    """
    box = cell_box(grid, cell)
    pieces = system.pieces
    required = set()
    for j, piece in enumerate(pieces):
        overlap = box.intersection(piece.region)
        if overlap is None:
            continue
        if exempt and any(pieces[i].region.contains_box(overlap) for i in range(j)):
            continue
        image = inflate(image_box(piece, overlap), eps).intersection(system.domain)
        if image is not None:
            required.update(grid.cells_intersecting(image))
    return required


def least_closed_cells(system: PamSystem, x: Point, m: int) -> frozenset[Cell]:
    """The least level-m cell set holding x's cells that meets condition 2 at drift 2^-m.

    A Fraction fixpoint of required_cells from the cells of x. The search
    closure follows cell centres and so is often larger; this set holds
    only what condition 2 asks for, so where a member meets a piece along
    a face that a lower-index region holds, its acceptance rests on the
    exemption.
    """
    grid = make_grid(system.domain, m)
    eps = Fraction(1, 1 << m)
    members = set(grid.cells_containing(x))
    frontier = list(members)
    while frontier:
        added = required_cells(system, grid, frontier.pop(), eps) - members
        members |= added
        frontier.extend(added)
    return frozenset(members)


def scan_check_witness(
    system: PamSystem,
    witness: Witness,
    x: Point,
    y: Point,
    p: Optional[int],
) -> bool:
    """check_witness by Fraction boxes, one cell and one piece at a time.

    Same conditions and verdicts: every cell of x is a member; for every
    member and every piece overlapping it, unless a lower-index region
    holds the whole overlap, every grid cell touching the exact image of
    the overlap, inflated by 2^-eps_exp and clipped to the domain, is a
    member; and no member meets the closed target box.
    """
    target = target_box(system, y, p)
    try:
        grid = make_grid(system.domain, witness.m)
    except GridError:
        return False
    members = witness.cells
    if not members:
        return False
    try:
        for cell in members:
            grid._check_cell(cell)
    except GridError:
        return False
    if witness.eps_exp < 0:
        return False
    eps = Fraction(1, 1 << witness.eps_exp)

    if not grid.cells_containing(x) <= members:
        return False

    for cell in members:
        if cell_box(grid, cell).intersection(target) is not None:
            return False
        if not required_cells(system, grid, cell, eps) <= members:
            return False
    return True


# -- random aligned PAM corpus -----------------------------------------------


def random_total_pam(rng: random.Random, dim: int, face_level: int = 2) -> PamSystem:
    """A random total PAM whose piece faces are dyadic at face_level.

    The domain is split into one or two slabs along one axis; each piece
    gets a small dyadic matrix and an offset chosen so the whole region
    maps inside the domain (total map, no stuck cells). Keeping faces on
    the 2^-face_level lattice keeps every grid at m >= face_level aligned
    with the pieces.
    """
    side = Fraction(rng.choice([2, 3, 4]), 4)
    domain = Box.of_intervals([(Fraction(0), side)] * dim)
    if rng.random() < 0.3:
        regions = [domain]
    else:
        axis = rng.randrange(dim)
        step_ = Fraction(1, 1 << face_level)
        cuts = int(side / step_)
        cut = step_ * rng.randrange(1, cuts)
        lows = list(domain.lo)
        highs = list(domain.hi)
        mid_hi = list(highs)
        mid_hi[axis] = cut
        mid_lo = list(lows)
        mid_lo[axis] = cut
        regions = [
            Box(Point(tuple(lows)), Point(tuple(mid_hi))),
            Box(Point(tuple(mid_lo)), Point(tuple(highs))),
        ]
    entries = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 2), Fraction(1)]
    pieces = []
    for region in regions:
        while True:
            matrix = tuple(
                tuple(rng.choice(entries) for _ in range(dim)) for _ in range(dim)
            )
            probe = AffinePiece(region, matrix, Point(tuple(Fraction(0) for _ in range(dim))))
            img = image_box(probe, region)
            if all(
                img.hi[i] - img.lo[i] <= domain.hi[i] - domain.lo[i]
                for i in range(dim)
            ):
                break
        offset = []
        for i in range(dim):
            slack = (domain.hi[i] - domain.lo[i]) - (img.hi[i] - img.lo[i])
            # dyadic shift placing this piece's image inside the domain
            offset.append(
                domain.lo[i] - img.lo[i] + slack * Fraction(rng.randrange(0, 5), 4)
            )
        pieces.append(AffinePiece(region, matrix, Point(tuple(offset))))
    return PamSystem(domain, tuple(pieces))


_FRACTIONS = {
    "lo": [Fraction(0), Fraction(1, 3), Fraction(-1, 5), Fraction(2, 5), Fraction(-1)],
    "width": [Fraction(1), Fraction(3, 4), Fraction(2, 3), Fraction(4, 5), Fraction(7, 5), Fraction(5, 3)],
    "cut": [Fraction(1, 3), Fraction(1, 5), Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(1, 1024)],
    "entry": [Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
    "shift": [Fraction(-1, 4), Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(5, 4)],
}
_DYADIC = {
    **_FRACTIONS,
    "lo": [Fraction(0), Fraction(1, 2), Fraction(-1, 4), Fraction(-1)],
    "width": [Fraction(1), Fraction(1, 2)],
    "cut": [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
}


@st.composite
def partial_pams(
    draw, max_dim: int = 2, max_cells: int = 32, aligned: bool = False
) -> tuple[PamSystem, int]:
    """A random partial map on an unaligned domain, with a grid level for it.

    Domain corners sit on thirds and fifths and widths are rarely
    multiples of the grid side, so last cells are often narrow. Region
    faces cut each axis at thirds, fifths, quarters or a 1/1024 sliver of
    its width; a random subset of the resulting boxes carries pieces, so
    centres can lie in no region, and offsets range past the domain, so
    images can escape it. The level is drawn from 0..4 and lowered until
    the grid has at most max_cells cells.

    With aligned, domain corners, widths and cuts are dyadic instead,
    every axis is cut, and the level is the finest that fits, so cell
    faces land on region faces: a cell then meets a region along a face
    only, which a neighbouring region holds.
    """
    fractions = _DYADIC if aligned else _FRACTIONS
    dim = draw(st.integers(1, max_dim))
    lo = [draw(st.sampled_from(fractions["lo"])) for _ in range(dim)]
    width = [draw(st.sampled_from(fractions["width"])) for _ in range(dim)]
    domain = Box(Point(tuple(lo)), Point(tuple(a + w for a, w in zip(lo, width))))
    slabs = []
    for a, w in zip(lo, width):
        cuts = draw(st.lists(
            st.sampled_from(fractions["cut"]), min_size=int(aligned), max_size=2, unique=True
        ))
        faces = [a] + sorted(a + c * w for c in cuts) + [a + w]
        slabs.append(list(zip(faces, faces[1:])))
    boxes = [Box.of_intervals(axes) for axes in product(*slabs)]
    keep = draw(st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes)))
    pieces = []
    for box, kept in zip(boxes, keep):
        if kept or (not pieces and box is boxes[-1]):
            matrix = tuple(
                tuple(draw(st.sampled_from(fractions["entry"])) for _ in range(dim))
                for _ in range(dim)
            )
            offset = Point(tuple(
                a + w * draw(st.sampled_from(fractions["shift"])) for a, w in zip(lo, width)
            ))
            pieces.append(AffinePiece(box, matrix, offset))
    system = PamSystem(domain, tuple(pieces))
    m = 4 if aligned else draw(st.integers(0, 4))
    while make_grid(domain, m).cell_count > max_cells:
        m -= 1
    return system, m


def random_interior_point(rng: random.Random, system: PamSystem, denom_exp: int = 6) -> Point:
    """A random dyadic point of the domain avoiding piece faces."""
    d = 1 << denom_exp
    while True:
        coords = []
        for i in range(system.dim):
            lo, hi = system.domain.lo[i], system.domain.hi[i]
            ticks = int((hi - lo) * d)
            coords.append(lo + Fraction(rng.randrange(0, ticks + 1), d))
        x = Point(tuple(coords))
        on_face = any(
            any(x[i] == p.region.lo[i] or x[i] == p.region.hi[i] for i in range(system.dim))
            for p in system.pieces
        )
        if not on_face:
            return x


# -- machine oracles ---------------------------------------------------------


def tm_to_text(machine: TuringMachine) -> str:
    """The machine in the text format that formats.tm_from_text reads."""
    letter = {MOVE_LEFT: "L", MOVE_STAY: "S", MOVE_RIGHT: "R"}
    lines = [
        "states: " + " ".join(machine.states),
        "alphabet: " + " ".join(machine.alphabet),
        "blank: " + machine.blank,
        "initial: " + machine.initial,
        "accept: " + " ".join(sorted(machine.accepting)),
        "reject: " + " ".join(sorted(machine.rejecting)),
        "",
    ]
    for q, a, q2, b, move in machine.rules:
        lines.append(f"{q} {a} -> {q2} {b} {letter[move]}")
    return "\n".join(lines) + "\n"


def enumerate_space_perturbed(machine: TuringMachine, word: str, n: int) -> bool:
    """Space-perturbed acceptance by explicit search over real tapes.

    Tracks (state, head position, the cells within distance n of the
    head). Cells drifting further than n from the head are forgotten:
    the perturbation owns them, so when one drifts back into range it
    branches over every symbol. Exponential and tiny-input only.
    """
    symbols = machine.tape_symbols
    diameter = len(machine.states) * len(symbols) ** (2 * n + 1)

    def freeze(state: str, head: int, tape: dict[int, str]):
        return (state, tuple(tape[head + off] for off in range(-n, n + 1)))

    def stable(head: int, tape: dict[int, str]) -> dict[int, str]:
        return {
            pos: tape.get(pos, machine.blank)
            for pos in range(head - n, head + n + 1)
        }

    start_tape = stable(0, {i: s for i, s in enumerate(word)})
    start = (machine.initial, 0, start_tape)
    seen = {freeze(*start)}
    frontier = [start]
    for _ in range(diameter + 1):
        if not frontier:
            return False
        nxt_frontier = []
        for state, head, tape in frontier:
            if state in machine.accepting:
                return True
            if state in machine.rejecting:
                continue
            rule = machine.transition.get((state, tape[head]))
            if rule is None:
                continue
            q2, write, move = rule
            head2 = head + move
            kept = {
                pos: sym
                for pos, sym in {**tape, head: write}.items()
                if abs(pos - head2) <= n
            }
            missing = [
                pos for pos in range(head2 - n, head2 + n + 1) if pos not in kept
            ]
            branches = [kept]
            for pos in missing:
                branches = [{**b, pos: s} for b in branches for s in symbols]
            for b in branches:
                key = freeze(q2, head2, b)
                if key not in seen:
                    seen.add(key)
                    nxt_frontier.append((q2, head2, b))
        frontier = nxt_frontier
    return False


def enumerate_time_perturbed(machine: TuringMachine, word: str, n: int, horizon: int = 3) -> bool:
    """Time-perturbed acceptance by explicit search over configurations.

    Steps up to n are exact (a halted machine just sits); afterwards the
    state may additionally jump anywhere outside a decision. Any branch
    entering an accepting state accepts. horizon extra steps suffice:
    one jump reaches F directly when F is nonempty.
    """
    def decided(c: Configuration) -> bool:
        return c.state in machine.accepting or c.state in machine.rejecting

    def exact_next(c: Configuration) -> Configuration:
        if decided(c) or machine.transition.get((c.state, c.head_symbol(machine))) is None:
            return c
        return step(machine, c)

    frontier = {Configuration.initial(machine, word)}
    for t in range(n + horizon + 1):
        for c in frontier:
            if c.state in machine.accepting:
                return True
        nxt = set()
        for c in frontier:
            if c.state in machine.rejecting:
                continue
            nxt.add(exact_next(c))
            if t >= n and not decided(c):
                for q2 in machine.states:
                    nxt.add(Configuration(q2, c.left, c.right))
        frontier = nxt
    return any(c.state in machine.accepting for c in frontier)


def trace(machine: TuringMachine, word: str, max_steps: int) -> list[Configuration]:
    """Every configuration of the exact run, stepped one by one.

    Stops where run stops: at a decided configuration, after max_steps
    steps, or at a configuration with no rule. So the list holds
    run(...).steps + 1 configurations.
    """
    configs = [Configuration.initial(machine, word)]
    decided = machine.accepting | machine.rejecting
    while configs[-1].state not in decided and len(configs) <= max_steps:
        try:
            configs.append(step(machine, configs[-1]))
        except MissingTransitionError:
            break
    return configs


def dict_tape_run(
    machine: TuringMachine, word: str, max_steps: int
) -> tuple[str, list[tuple[str, str, str]]]:
    """(outcome, every configuration) of the exact run on a dict tape.

    The tape maps positions to the symbols written so far and the head is
    a position, with rules read from machine.rules; nothing is shared with
    step or Configuration. A configuration is read off the tape as
    (state, left, right) strings, nearest-first left and blank-trimmed
    like canonical configurations. The outcome is an Outcome value, and
    the run stops where run stops, so there are steps + 1 configurations.
    """
    rules = {(q, a): (q2, b, move) for q, a, q2, b, move in machine.rules}
    blank = machine.blank
    tape = dict(enumerate(word))
    state, head = machine.initial, 0

    def read() -> tuple[str, str, str]:
        lo, hi = min(tape, default=head), max(tape, default=head)
        left = "".join(tape.get(i, blank) for i in range(head - 1, lo - 1, -1))
        right = "".join(tape.get(i, blank) for i in range(head, hi + 1))
        return state, left.rstrip(blank), right.rstrip(blank)

    configs = [read()]
    while True:
        if state in machine.accepting:
            return "accept", configs
        if state in machine.rejecting:
            return "reject", configs
        if len(configs) > max_steps:
            return "running", configs
        rule = rules.get((state, tape.get(head, blank)))
        if rule is None:
            return "stuck", configs
        state, tape[head], move = rule
        head += move
        configs.append(read())


def head_span(machine: TuringMachine, word: str, max_steps: int = 10_000) -> int:
    """Cells visited by the head during the exact run (work-space bound)."""
    config = Configuration.initial(machine, word)
    pos = lo = hi = 0
    for _ in range(max_steps):
        if config.state in machine.accepting or config.state in machine.rejecting:
            break
        rule = machine.transition.get((config.state, config.head_symbol(machine)))
        if rule is None:
            break
        config = step(machine, config)
        pos += rule[2]
        lo = min(lo, pos)
        hi = max(hi, pos)
    return hi - lo + 1


def horner_encode_word(scheme: EncodingScheme, word: Sequence[str]) -> Fraction:
    """encode_word by Fraction Horner from the far end of the word.

    The blank tail after the last symbol is worth k/(k-1) one digit up, so
    the accumulator starts there and each symbol adds its digit and
    divides by k.
    """
    k = scheme.base
    acc = Fraction(k, k - 1)
    for sym in reversed(word):
        acc = scheme.digit(sym) + acc / k
    return acc / k


def config_distance(
    scheme: EncodingScheme, a: Configuration, b: Configuration
) -> Fraction:
    """Sup distance between the encoded points of two configurations."""
    return sup_dist(encode_config(scheme, a), encode_config(scheme, b))


def scan_accepts_within_length(
    machine: TuringMachine, word: str, bound: Fraction, max_steps: int
) -> bool:
    """accepts_within_length by stepping and summing, stopping early.

    The length is monotone in time, so the scan returns False as soon as
    the bound is passed, without running to max_steps; a run still
    undecided and under the bound at max_steps raises LengthBudgetError
    with the library's message.
    """
    scheme = EncodingScheme.for_machine(machine)
    config = Configuration.initial(machine, word)
    total = Fraction(0)
    for _ in range(max_steps):
        if config.state in machine.accepting:
            return total <= bound
        if config.state in machine.rejecting or total > bound:
            return False
        try:
            nxt = step(machine, config)
        except MissingTransitionError:
            return False
        total += config_distance(scheme, config, nxt)
        config = nxt
    if config.state in machine.accepting:
        return total <= bound
    if config.state in machine.rejecting or total > bound:
        return False
    raise LengthBudgetError(
        f"undecided after {max_steps} steps with length {total} <= {bound}"
    )


# -- time metric -------------------------------------------------------------
#
# The lower-bound side of the time-metric sandwich (consecutive
# configurations are at distance at least 1/p(size)) holds on the bundled
# machine corpus for the polynomial recorded here; it is an empirical fit,
# not a bound valid for arbitrary machines, because the embedding forgets
# the absolute head position (a machine sweeping over a uniform tape
# without changing state approaches a fixed point of the encoding at
# exponential speed).
#
# Fitted on the bundled machines (immediate accept, alternating right
# mover, loop with unused exit, far-marker checker, palindrome decider)
# over all runs of at most 100 steps on binary words of length at most
# 6: the smallest observed step distance is 1/125 (palindrome decider
# mid-scan over the uniform block '000000', where the two half-tape
# coordinates trade off) at configuration size 13, and the largest is 6
# (the empty-word decision jump across the state range) at size 3.
# p(x) = x^4 covers both sides with a margin above 200x; the suite
# re-measures the corpus against these exact coefficients.
FITTED_METRIC_POLY: tuple[int, ...] = (0, 0, 0, 0, 1)  # coefficients, low degree first


def eval_poly(coeffs: Sequence[int], x: int) -> Fraction:
    """Evaluate an integer-coefficient polynomial exactly at integer x."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def config_size(machine: TuringMachine, config: Configuration) -> int:
    """Binary size of a configuration: state bits plus per-symbol bits."""
    state_bits = max(1, (len(machine.states) - 1).bit_length())
    sym_bits = max(1, len(machine.tape_symbols).bit_length())
    return state_bits + sym_bits * (len(config.left) + len(config.right))


@dataclass(frozen=True)
class MetricViolation:
    word: str
    step_index: int
    distance: Fraction
    size: int
    kind: str  # "lower" or "upper"


@dataclass(frozen=True)
class MetricReport:
    checked_steps: int
    min_distance: Optional[Fraction]
    max_distance: Optional[Fraction]
    violations: tuple[MetricViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def time_metric_check(
    machine: TuringMachine,
    words: Sequence[str],
    poly: Sequence[int] = FITTED_METRIC_POLY,
    max_steps: int = 100,
    distance_fn: Optional[Callable[[Configuration, Configuration], Fraction]] = None,
) -> MetricReport:
    """Check 1/p(size) <= d(C, C') <= p(size) over exact runs.

    The size is taken at the earlier configuration of each step. By
    default d is the sup distance of the encoded configurations, each
    encoded once; a custom distance_fn replaces it, which is how the
    degenerate-metric behaviour is exercised.
    """
    scheme = EncodingScheme.for_machine(machine)
    violations: list[MetricViolation] = []
    checked = 0
    min_d: Optional[Fraction] = None
    max_d: Optional[Fraction] = None
    for word in words:
        configs = trace(machine, word, max_steps)
        if distance_fn is None:
            points = [encode_config(scheme, config) for config in configs]
            distances = [sup_dist(a, b) for a, b in zip(points, points[1:])]
        else:
            distances = [distance_fn(a, b) for a, b in zip(configs, configs[1:])]
        for i, (prev, d) in enumerate(zip(configs, distances)):
            size = config_size(machine, prev)
            bound = eval_poly(poly, size)
            checked += 1
            min_d = d if min_d is None else min(min_d, d)
            max_d = d if max_d is None else max(max_d, d)
            if bound <= 0 or d < 1 / bound:
                violations.append(MetricViolation(word, i, d, size, "lower"))
            if d > bound:
                violations.append(MetricViolation(word, i, d, size, "upper"))
    return MetricReport(checked, min_d, max_d, tuple(violations))


# -- window graph ------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Head-centred truncation of a configuration.

    left has exactly n symbols (nearest first), right exactly n+1 symbols
    starting with the one under the head. Unlike configurations, windows
    keep their blanks: the fixed width is the whole point.
    """

    state: str
    left: tuple[str, ...]
    right: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.left)


def truncate(machine: TuringMachine, config: Configuration, n: int) -> Window:
    """The window of radius n around the head, blank-padded as needed."""
    if n < 0:
        raise MachineError(f"window radius must be >= 0, got {n}")
    blank = machine.blank
    left = tuple(
        config.left[i] if i < len(config.left) else blank for i in range(n)
    )
    right = tuple(
        config.right[i] if i < len(config.right) else blank for i in range(n + 1)
    )
    return Window(config.state, left, right)


def window_successors(machine: TuringMachine, window: Window) -> frozenset[Window]:
    """One-step successors of a window in the space-perturbed graph.

    A stay move rewrites the head cell: exactly one successor. A head
    move shifts the window and the vacated far cell takes every symbol in
    turn, so there are exactly |alphabet| + 1 successors. A window whose
    (state, head symbol) has no rule has no successors. The window has
    radius n >= 1, as the library search requires.
    """
    head = window.right[0]
    rule = machine.transition.get((window.state, head))
    if rule is None:
        return frozenset()
    nxt, write, move = rule
    if move == MOVE_STAY:
        return frozenset({Window(nxt, window.left, (write, *window.right[1:]))})
    fresh = machine.tape_symbols
    if move == MOVE_RIGHT:
        left = (write, *window.left[:-1])
        return frozenset(Window(nxt, left, (*window.right[1:], s)) for s in fresh)
    right = (window.left[0], write, *window.right[1:-1])
    return frozenset(Window(nxt, (*window.left[1:], s), right) for s in fresh)


def window_is_stuck(machine: TuringMachine, window: Window) -> bool:
    """True when the window's (state, head symbol) has no rule.

    Distinguishes the empty successor set of a halted-without-decision
    window from that of a decided one (whose emptiness callers usually
    arrange by not expanding it).
    """
    return machine.transition.get((window.state, window.right[0])) is None


def object_window_reach(
    machine: TuringMachine, word: str, n: int
) -> tuple[bool, frozenset[Window]]:
    """(accepting window reachable, the reachable windows), with Window objects.

    Depth-first over Window objects with no packing. Decided windows are
    counted but not expanded.
    """
    start = truncate(machine, Configuration.initial(machine, word), n)
    seen = {start}
    frontier = [start]
    accepted = False
    while frontier:
        win = frontier.pop()
        if win.state in machine.accepting:
            accepted = True
            continue
        if win.state in machine.rejecting:
            continue
        for nxt in window_successors(machine, win):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return accepted, frozenset(seen)


@st.composite
def random_machines(draw, max_states: int = 9, max_symbols: int = 4) -> TuringMachine:
    """A random valid machine with a partial transition table.

    1 to max_states states, each accepting, rejecting or neither, and 1 to
    max_symbols input symbols. Each (state, tape symbol) pair may lack a
    rule; a rule from a decided state stays in its decision set, all
    three moves occur, and the do-nothing rule is never drawn.
    """
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, max_states))))
    alphabet = tuple("abcd"[: draw(st.integers(1, max_symbols))])
    kinds = draw(st.lists(st.sampled_from("arn"), min_size=len(states), max_size=len(states)))
    accepting = frozenset(q for q, kind in zip(states, kinds) if kind == "a")
    rejecting = frozenset(q for q, kind in zip(states, kinds) if kind == "r")
    tape = ("_", *alphabet)
    rules = []
    for q in states:
        targets = sorted(accepting if q in accepting else rejecting if q in rejecting else states)
        for a in tape:
            if not draw(st.booleans()):
                continue
            q2 = draw(st.sampled_from(targets))
            b = draw(st.sampled_from(tape))
            moves = (MOVE_LEFT, MOVE_RIGHT) if (q2, b) == (q, a) else (MOVE_LEFT, MOVE_STAY, MOVE_RIGHT)
            rules.append((q, a, q2, b, draw(st.sampled_from(moves))))
    return TuringMachine(
        states=states,
        alphabet=alphabet,
        blank="_",
        initial=draw(st.sampled_from(states)),
        accepting=accepting,
        rejecting=rejecting,
        rules=tuple(rules),
    )
