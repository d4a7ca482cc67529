"""Reference computations the benchmark checks robustreach's outputs against.

Nothing here imports robustreach. Maps, machines, grids, encodings and
window graphs are rebuilt from their definitions with plain tuples,
dicts and Fractions, using different representations from the library
(a full tape dict with a head position instead of trimmed half-tapes,
whole windows instead of packed integers, corner enumeration instead of
sign-split interval bounds). Slow and obvious on purpose.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

Interval = tuple[Fraction, Fraction]
Vec = tuple[Fraction, ...]


# -- piecewise affine maps -----------------------------------------------------


@dataclass(frozen=True)
class Piece:
    region: tuple[Interval, ...]
    matrix: tuple[Vec, ...]
    offset: Vec


@dataclass(frozen=True)
class Map:
    """A piecewise affine map; ties on shared faces go to the lowest index."""

    domain: tuple[Interval, ...]
    pieces: tuple[Piece, ...]

    @property
    def dim(self) -> int:
        return len(self.domain)

    @property
    def lipschitz(self) -> Fraction:
        return max(sum(abs(a) for a in row) for p in self.pieces for row in p.matrix)


def fmt(v: Fraction) -> str:
    """A rational as robustreach's files write it: \"p\" or \"p/q\"."""
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def map_to_json(m: Map) -> str:
    tree = {
        "dimension": m.dim,
        "domain": [[fmt(a), fmt(b)] for a, b in m.domain],
        "pieces": [
            {
                "region": [[fmt(a), fmt(b)] for a, b in p.region],
                "A": [[fmt(v) for v in row] for row in p.matrix],
                "b": [fmt(v) for v in p.offset],
            }
            for p in m.pieces
        ],
    }
    return json.dumps(tree, indent=1)


def map_from_json(text: str) -> Map:
    tree = json.loads(text)
    ivs = lambda node: tuple((Fraction(a), Fraction(b)) for a, b in node)
    return Map(
        ivs(tree["domain"]),
        tuple(
            Piece(
                ivs(p["region"]),
                tuple(tuple(Fraction(v) for v in row) for row in p["A"]),
                tuple(Fraction(v) for v in p["b"]),
            )
            for p in tree["pieces"]
        ),
    )


def _inside(point: Vec, box: tuple[Interval, ...]) -> bool:
    return all(a <= v <= b for v, (a, b) in zip(point, box))


def _affine(p: Piece, x: Vec) -> Vec:
    return tuple(sum(a * v for a, v in zip(row, x)) + c for row, c in zip(p.matrix, p.offset))


def evaluate(m: Map, x: Vec) -> Optional[Vec]:
    """The image of x, or None where the map is undefined or leaves the domain."""
    if not _inside(x, m.domain):
        return None
    for p in m.pieces:
        if _inside(x, p.region):
            y = _affine(p, x)
            return y if _inside(y, m.domain) else None
    return None


def orbit(m: Map, x: Vec, steps: int) -> list[Vec]:
    """x, f(x), ..., up to `steps` applications or until the map is undefined."""
    points = [x]
    while len(points) <= steps:
        y = evaluate(m, points[-1])
        if y is None:
            break
        points.append(y)
    return points


def in_target(point: Vec, y: Vec, p: Optional[int]) -> bool:
    if p is None:
        return point == y
    return max(abs(a - b) for a, b in zip(point, y)) <= Fraction(1, 1 << p)


def first_hit(points: list[Vec], y: Vec, p: Optional[int]) -> Optional[int]:
    return next((t for t, pt in enumerate(points) if in_target(pt, y, p)), None)


# -- grids and certificates ----------------------------------------------------


class Grid:
    """Side-2^-level cells over a box domain, the last cell of an axis clipped."""

    def __init__(self, domain: tuple[Interval, ...], level: int):
        self.domain = domain
        self.delta = Fraction(1, 1 << level)
        self.counts = tuple(math.ceil((b - a) / self.delta) for a, b in domain)

    def cell_interval(self, axis: int, i: int) -> Interval:
        a, b = self.domain[axis]
        return a + i * self.delta, min(a + (i + 1) * self.delta, b)

    def _axis_meeting(self, axis: int, lo: Fraction, hi: Fraction) -> list[int]:
        """Indices of cells whose closed interval meets [lo, hi]."""
        a = self.domain[axis][0]
        first = max(math.floor((lo - a) / self.delta) - 1, 0)
        last = min(math.floor((hi - a) / self.delta), self.counts[axis] - 1)
        out = []
        for i in range(first, last + 1):
            c_lo, c_hi = self.cell_interval(axis, i)
            if c_lo <= hi and c_hi >= lo:
                out.append(i)
        return out

    def cells_meeting(self, box: tuple[Interval, ...]) -> set[tuple[int, ...]]:
        return set(product(*(self._axis_meeting(i, a, b) for i, (a, b) in enumerate(box))))

    def cells_of_point(self, x: Vec) -> set[tuple[int, ...]]:
        return self.cells_meeting(tuple((v, v) for v in x))

    def cell_box(self, cell: tuple[int, ...]) -> tuple[Interval, ...]:
        return tuple(self.cell_interval(axis, i) for axis, i in enumerate(cell))

    def valid(self, cell: tuple[int, ...]) -> bool:
        return len(cell) == len(self.counts) and all(
            0 <= i < c for i, c in zip(cell, self.counts)
        )


def _meet(b1: tuple[Interval, ...], b2: tuple[Interval, ...]) -> Optional[tuple[Interval, ...]]:
    out = tuple((max(a1, a2), min(c1, c2)) for (a1, c1), (a2, c2) in zip(b1, b2))
    return None if any(a > b for a, b in out) else out


def image_box(p: Piece, box: tuple[Interval, ...]) -> tuple[Interval, ...]:
    corners = [_affine(p, c) for c in product(*box)]
    return tuple((min(c[i] for c in corners), max(c[i] for c in corners)) for i in range(len(box)))


def witness_valid(
    m: Map, x: Vec, y: Vec, p: Optional[int], level: int, eps_exp: int, cells: set
) -> bool:
    """The three witness conditions, each derived from the map's definition.

    1. every cell containing x is a member;
    2. for each member cell and each piece overlapping it (unless a
       lower-index region already holds the whole overlap), the image of
       the overlap, grown by 2^-eps_exp and clipped to the domain, meets
       member cells only;
    3. no member cell meets the target (the point y, or its closed ball
       of radius 2^-p).
    """
    if level < 0 or eps_exp < 0 or not cells:
        return False
    grid = Grid(m.domain, level)
    if not all(grid.valid(c) for c in cells):
        return False
    if not grid.cells_of_point(x) <= cells:
        return False
    eps = Fraction(1, 1 << eps_exp)
    for cell in cells:
        box = grid.cell_box(cell)
        for j, piece in enumerate(m.pieces):
            overlap = _meet(box, piece.region)
            if overlap is None:
                continue
            if any(_meet(overlap, q.region) == overlap for q in m.pieces[:j]):
                continue
            grown = tuple((a - eps, b + eps) for a, b in image_box(piece, overlap))
            clipped = _meet(grown, m.domain)
            if clipped is not None and not grid.cells_meeting(clipped) <= cells:
                return False
    if p is None:
        target = grid.cells_of_point(y)
    else:
        r = Fraction(1, 1 << p)
        target = grid.cells_meeting(tuple((v - r, v + r) for v in y))
    return not (target & cells)


def refinement_level(lipschitz: Fraction, n: int) -> int:
    """Smallest m >= n with 2^-m < 2^-n / (2L + 2)."""
    m = n
    while Fraction(1, 1 << m) * (2 * lipschitz + 2) >= Fraction(1, 1 << n):
        m += 1
    return m


def parse_pgm(data: bytes) -> list[list[int]]:
    tokens = data.decode("ascii").split()
    if tokens[0] != "P2" or tokens[3] != "1":
        raise ValueError("not a P2 bitmap with maxval 1")
    width, height = int(tokens[1]), int(tokens[2])
    values = [int(t) for t in tokens[4:]]
    if len(values) != width * height or any(v not in (0, 1) for v in values):
        raise ValueError("pixel count or value out of range")
    return [values[r * width:(r + 1) * width] for r in range(height)]


def plot_shape(m: Map, axes: tuple[int, ...], n: int) -> tuple[int, int]:
    """(rows, columns) of a plot at pixel size 2^-n: one pixel per multiple of 2^-n."""
    scale = 1 << n
    count = [math.ceil(m.domain[a][1] * scale) - math.floor(m.domain[a][0] * scale) + 1
             for a in axes]
    return (1, count[0]) if len(axes) == 1 else (count[1], count[0])


def forced_black(
    m: Map, axes: tuple[int, ...], n: int, points: list[Vec]
) -> list[tuple[int, int]]:
    """(row, column) of every pixel whose point lies within one pixel of an orbit point.

    Pixel z sits at z/2^n; a projected orbit point strictly closer than
    2^-n on every plotted axis lies inside the pixel's open ball, so a
    sound reach-set plot must set that pixel.
    """
    scale = 1 << n
    z_lo0 = math.floor(m.domain[axes[0]][0] * scale)
    out = set()
    for pt in points:
        near = []
        for a in axes:
            v = pt[a] * scale
            near.append({z for z in (math.floor(v), math.ceil(v)) if abs(z - v) < 1})
        for zs in product(*near):
            row = 0 if len(axes) == 1 else math.ceil(m.domain[axes[1]][1] * scale) - zs[1]
            out.add((row, zs[0] - z_lo0))
    return sorted(out)


# -- Turing machines -----------------------------------------------------------


@dataclass(frozen=True)
class Machine:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    initial: str
    accept: frozenset[str]
    reject: frozenset[str]
    delta: dict


def machine_from_text(text: str) -> Machine:
    head: dict[str, list[str]] = {}
    delta = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "->" in line:
            (q, a), (q2, b, mv) = (s.split() for s in line.split("->"))
            delta[(q, a)] = (q2, b, {"L": -1, "S": 0, "R": 1}[mv])
        elif line:
            key, _, rest = line.partition(":")
            head[key.strip()] = rest.split()
    return Machine(
        tuple(head["states"]), tuple(head["alphabet"]), head["blank"][0],
        head["initial"][0], frozenset(head.get("accept", ())),
        frozenset(head.get("reject", ())), delta,
    )


# A configuration is (state, head position, tape) with the tape a sorted
# tuple of (position, symbol) pairs holding the non-blank cells only.
Config = tuple[str, int, tuple[tuple[int, str], ...]]


def initial_config(mc: Machine, word: str) -> Config:
    return (mc.initial, 0, tuple((i, s) for i, s in enumerate(word)))


def step(mc: Machine, c: Config) -> Optional[Config]:
    """One exact step, or None when no rule applies."""
    state, pos, cells = c
    tape = dict(cells)
    rule = mc.delta.get((state, tape.get(pos, mc.blank)))
    if rule is None:
        return None
    q2, write, move = rule
    tape.pop(pos, None)
    if write != mc.blank:
        tape[pos] = write
    return (q2, pos + move, tuple(sorted(tape.items())))


def run(mc: Machine, word: str, max_steps: int) -> tuple[str, list[Config]]:
    """Outcome ('accept', 'reject', 'running' or 'stuck') and every configuration."""
    trace = [initial_config(mc, word)]
    while True:
        state = trace[-1][0]
        if state in mc.accept:
            return "accept", trace
        if state in mc.reject:
            return "reject", trace
        if len(trace) - 1 == max_steps:
            return "running", trace
        nxt = step(mc, trace[-1])
        if nxt is None:
            return "stuck", trace
        trace.append(nxt)


def encode(mc: Machine, c: Config, base: Optional[int] = None) -> Vec:
    """(state number, left half-tape, right half-tape) as base-k expansions.

    Digits: blank 1, input symbols 2, 3, ... in declaration order; the
    blank tail beyond the last written cell contributes sum_j k^-j = 1/(k-1)
    scaled to its starting position.
    """
    k = base if base is not None else len(mc.alphabet) + 3
    state, pos, cells = c
    tape = dict(cells)
    digit = lambda s: 1 if s == mc.blank else mc.alphabet.index(s) + 2
    lo = min([p for p, _ in cells] + [pos])
    hi = max([p for p, _ in cells] + [pos])
    tail = Fraction(1, k - 1)
    left_n = pos - lo
    left = sum((Fraction(digit(tape.get(pos - i, mc.blank)), k ** i) for i in range(1, left_n + 1)),
               Fraction(0)) + tail / k ** left_n
    right_n = hi - pos + 1
    right = sum((Fraction(digit(tape.get(pos + i, mc.blank)), k ** (i + 1)) for i in range(right_n)),
                Fraction(0)) + tail / k ** right_n
    return (Fraction(mc.states.index(state) + 1), left, right)


def run_length(mc: Machine, word: str, max_steps: int) -> Fraction:
    """Sum of sup distances between encodings of consecutive configurations."""
    _, trace = run(mc, word, max_steps)
    points = [encode(mc, c) for c in trace]
    return sum(
        (max(abs(a - b) for a, b in zip(p, q)) for p, q in zip(points, points[1:])),
        Fraction(0),
    )


def head_span(mc: Machine, word: str, max_steps: int = 10_000) -> int:
    _, trace = run(mc, word, max_steps)
    heads = [c[1] for c in trace]
    return max(heads) - min(heads) + 1


def time_perturbed(mc: Machine, word: str, n: int) -> bool:
    """Accepted within n steps, or undecided after n steps while F is nonempty."""
    outcome, _ = run(mc, word, n)
    if outcome == "accept":
        return True
    if outcome == "reject":
        return False
    return bool(mc.accept)


def window_graph(mc: Machine, word: str, n: int) -> tuple[bool, int]:
    """(accepting window reachable, number of reachable windows) at radius n.

    A window is (state, cells at offsets -n..n from the head). Decided
    windows are counted but not expanded; when the head moves, the cell
    entering the window on that side takes every tape symbol in turn.
    """
    symbols = (mc.blank, *mc.alphabet)
    tape = dict(enumerate(word))
    start = (mc.initial, tuple(tape.get(i, mc.blank) for i in range(-n, n + 1)))
    seen = {start}
    queue = deque([start])
    accepted = False
    while queue:
        state, cells = queue.popleft()
        if state in mc.accept:
            accepted = True
            continue
        if state in mc.reject:
            continue
        rule = mc.delta.get((state, cells[n]))
        if rule is None:
            continue
        q2, write, move = rule
        written = cells[:n] + (write,) + cells[n + 1:]
        if move == 0:
            nexts = [(q2, written)]
        elif move == 1:
            nexts = [(q2, written[1:] + (s,)) for s in symbols]
        else:
            nexts = [(q2, (s,) + written[:-1]) for s in symbols]
        for w in nexts:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return accepted, len(seen)


def window_bound(mc: Machine, n: int) -> int:
    """|Q| * |Gamma|^(2n+1): every window there is."""
    return len(mc.states) * (len(mc.alphabet) + 1) ** (2 * n + 1)
