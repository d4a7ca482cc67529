"""pam-queries: the everyday command-line path on small piecewise affine maps.

Each corpus query runs `reach` (verdict saved to a file in a scratch
directory), then `witness-check` on any certificate, `delta-decide` and
`plot`, all through `robustreach.cli.main` in-process; the bundle is one
operation. Four fixed queries
on the s1/s2 fixtures and a set of `reach.path_savitch` queries on grids
of at most 16 cells complete the round.

The corpus keeps to total maps whose piece faces lie on the 1/4 lattice,
so every grid the commands build (level >= 2) is aligned with the pieces
and the centre-point edge rule over-approximates every orbit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import oracles
from common import Op, cli_stdout

FIXTURES = Path(__file__).resolve().parent / "fixtures"

CORPUS_1D = 40
CORPUS_2D = 16
# Seeded midpoint-search pairs run on corpus grids of at most 8 cells, where
# a search without a path costs milliseconds. At 16 cells such a search costs
# about a second and varies twofold with the map, so the 16-cell case is one
# fixed pair on the two-basin fixture, the same in every run.
SAVITCH_PAIRS = 6
SAVITCH_FIXED = [("s2.json", 4, (15,), (0,))]
# Per-dimension budgets: (reach --max-m, reach --max-steps, delta-decide --n, plot --n).
BUDGETS = {1: (8, 64, 3, 5), 2: (4, 32, 1, 2)}
ENTRIES = [Fraction(v, 4) for v in (-2, -1, 0, 1, 2, 3)]
# The work a query costs depends mostly on the map's dimension, its Lipschitz
# bound and whether the target lies on the orbit, so those are fixed per
# corpus slot and only the rest is drawn from the seed: every seed gets the
# same mix of query kinds.
LIPSCHITZ = {1: [Fraction(v, 4) for v in (1, 2, 3)], 2: [Fraction(v, 4) for v in (2, 3, 4)]}

# (fixture, x, y, p, expected verdict); the s1 point target must stay unknown.
FIXTURE_QUERIES = [
    ("s1.json", "1", "0", None, "unknown"),
    ("s1.json", "1", "1/8", 4, "reached"),
    ("s2.json", "3/4", "1/4", None, "robustly-unreachable"),
    ("s2.json", "1", "1/4", 3, "robustly-unreachable"),
]


def _point_arg(x: tuple[Fraction, ...]) -> str:
    return ",".join(oracles.fmt(v) for v in x)


def random_map(rng: random.Random, dim: int, lipschitz: Fraction) -> oracles.Map:
    """A total map on [0, s]^dim cut into slabs on the 1/4 lattice (s = 1 in 2-D).

    Every piece's matrix has absolute row sums at most `lipschitz`, and
    the first piece's attains it.
    """
    side = Fraction(rng.choice([2, 3, 4]), 4) if dim == 1 else Fraction(1)
    domain = ((Fraction(0), side),) * dim
    axis = rng.randrange(dim)
    inner = [Fraction(i, 4) for i in range(1, int(side * 4))]
    cuts = sorted(rng.sample(inner, rng.randint(0, min(2, len(inner)))))
    bounds = [Fraction(0), *cuts, side]
    matrices = [_matrix(rng, dim, lipschitz, exact=k == 0) for k in range(len(bounds) - 1)]
    pieces = []
    for lo, hi, matrix in zip(bounds, bounds[1:], matrices):
        region = tuple((lo, hi) if i == axis else domain[i] for i in range(dim))
        img = oracles.image_box(oracles.Piece(region, matrix, (Fraction(0),) * dim), region)
        offset = tuple(
            -img[i][0] + (side - (img[i][1] - img[i][0])) * Fraction(rng.randrange(5), 4)
            for i in range(dim)
        )
        pieces.append(oracles.Piece(region, matrix, offset))
    return oracles.Map(domain, tuple(pieces))


def _matrix(rng: random.Random, dim: int, lipschitz: Fraction, exact: bool):
    while True:
        matrix = tuple(tuple(rng.choice(ENTRIES) for _ in range(dim)) for _ in range(dim))
        norm = max(sum(abs(a) for a in row) for row in matrix)
        if norm == lipschitz or (norm < lipschitz and not exact):
            return matrix


def random_point(rng: random.Random, m: oracles.Map) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randrange(int(b * 32) + 1), 32) for _, b in m.domain)


@dataclass(frozen=True)
class Query:
    name: str
    path: Path
    system: oracles.Map
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    p: Optional[int]
    max_m: int
    max_steps: int
    delta_n: int
    plot_n: int
    expect: Optional[str] = None


def _corpus(rng: random.Random, workdir: Path) -> list[Query]:
    queries = []
    for i in range(CORPUS_1D + CORPUS_2D):
        dim = 1 if i < CORPUS_1D else 2
        m = random_map(rng, dim, LIPSCHITZ[dim][i % 3])
        path = workdir / f"map{i:02d}.json"
        text = oracles.map_to_json(m)
        # Set-up runs several times per process; the files need writing once.
        if not path.is_file() or path.read_text() != text:
            path.write_text(text)
        x = random_point(rng, m)
        max_m, max_steps, delta_n, plot_n = BUDGETS[dim]
        if i % 2 == 0:
            # A point of the orbit, so the query is reached.
            pts = oracles.orbit(m, x, rng.randint(2, 6))
            y, p = pts[-1], 5
        else:
            y, p = random_point(rng, m), 3
        queries.append(Query(f"map{i:02d}", path, m, x, y, p, max_m, max_steps, delta_n, plot_n))
    for name, xs, ys, p, expect in FIXTURE_QUERIES:
        path = FIXTURES / name
        m = oracles.map_from_json(path.read_text())
        x, y = (Fraction(xs),), (Fraction(ys),)
        queries.append(Query(f"{name}:{xs}->{ys}", path, m, x, y, p, 10, 1024, 3, 5, expect))
    return queries


@dataclass
class State:
    rr: dict
    workdir: Path
    queries: list[Query]
    savitch: list[tuple]


def setup(rr: dict, seed: int, workdir: Path) -> State:
    rng = random.Random(seed)
    queries = _corpus(rng, workdir)
    make_grid = rr["abstraction"].make_grid
    savitch = []
    for k in range(SAVITCH_PAIRS):
        q = queries[(k * 5) % (CORPUS_1D + CORPUS_2D)]
        system = rr["formats"].load_pam(str(q.path))
        level = max(l for l in range(6) if math.prod(oracles.Grid(q.system.domain, l).counts) <= 8)
        grid = make_grid(system.domain, level)
        cells = list(grid.iter_cells())
        savitch.append((q.name, system, grid, rng.choice(cells), rng.choice(cells)))
    for name, level, u, v in SAVITCH_FIXED:
        system = rr["formats"].load_pam(str(FIXTURES / name))
        savitch.append((name, system, make_grid(system.domain, level), u, v))
    return State(rr, workdir, queries, savitch)


def _run_query(state: State, q: Query) -> dict:
    rr = state.rr
    target = ["--system", str(q.path), "--x", _point_arg(q.x), "--y", _point_arg(q.y)]
    if q.p is not None:
        target += ["--p", str(q.p)]
    # The verdict goes to a file, as a user keeping a certificate to check later would.
    reach_path = state.workdir / (q.name.replace("/", "_").replace(":", "_") + ".reach.json")
    argv = ["reach", *target, "--max-m", str(q.max_m), "--max-steps", str(q.max_steps),
            "--out", str(reach_path)]
    if rr["cli"].main(argv) != 0:
        raise RuntimeError(f"exit non-zero: {' '.join(argv)}")
    raw = {"reach": reach_path.read_bytes()}
    if json.loads(raw["reach"])["verdict"] == "robustly-unreachable":
        raw["witness"] = cli_stdout(rr, ["witness-check", *target, "--witness", str(reach_path)])
    raw["delta"] = cli_stdout(rr, ["delta-decide", *target, "--n", str(q.delta_n)])
    axes = "0" if q.system.dim == 1 else "0,1"
    raw["plot"] = cli_stdout(rr, ["plot", "--system", str(q.path), "--x", _point_arg(q.x),
                                  "--n", str(q.plot_n), "--axes", axes])
    return raw


def check_query(q: Query, raw: dict) -> list[str]:
    """Problems with one query's outputs, each judged from the map's definition."""
    bad = []
    reach = json.loads(raw["reach"])
    verdict = reach["verdict"]
    pts = oracles.orbit(q.system, q.x, q.max_steps)
    hit = oracles.first_hit(pts, q.y, q.p)
    if q.expect is not None and verdict != q.expect:
        bad.append(f"{q.name}: reach says {verdict}, expected {q.expect}")
    cert = None
    if verdict == "reached":
        traj = [tuple(Fraction(v) for v in pt) for pt in reach["trajectory"]]
        steps = reach["steps"]
        if traj != pts[: steps + 1] or len(traj) != steps + 1:
            bad.append(f"{q.name}: reached trajectory differs from the exact orbit")
        if hit != steps:
            bad.append(f"{q.name}: orbit first enters the target at {hit}, not {steps}")
    elif verdict == "robustly-unreachable":
        w = reach["witness"]
        cert = w["epsExp"]
        if not oracles.witness_valid(q.system, q.x, q.y, q.p, w["m"], w["epsExp"],
                                     {tuple(c) for c in w["cells"]}):
            bad.append(f"{q.name}: certificate fails the three witness conditions")
        if "witness" not in raw or json.loads(raw["witness"])["valid"] is not True:
            bad.append(f"{q.name}: witness-check does not accept the certificate")
    elif verdict == "unknown":
        simulated = reach["budget"]["stepsSimulated"]
        if oracles.first_hit(pts[: simulated + 1], q.y, q.p) is not None:
            bad.append(f"{q.name}: unknown although the orbit hits within {simulated} steps")
    else:
        bad.append(f"{q.name}: unexpected verdict {verdict!r}")
    delta = json.loads(raw["delta"])
    n = q.delta_n
    if hit is not None and delta["verdict"] != "true-at-eps":
        bad.append(f"{q.name}: delta-decide misses an exact hit")
    if cert is not None and n >= cert and delta["verdict"] == "true-at-eps":
        bad.append(f"{q.name}: delta-decide true at n={n} against a certificate at {cert}")
    want_exp = n if delta["verdict"] == "true-at-eps" else oracles.refinement_level(
        q.system.lipschitz, n)
    if delta["epsExp"] != want_exp or Fraction(delta["eps"]) != Fraction(1, 1 << want_exp):
        bad.append(f"{q.name}: delta-decide level {delta['epsExp']}, expected {want_exp}")
    try:
        rows = oracles.parse_pgm(raw["plot"])
    except (ValueError, IndexError) as exc:
        return bad + [f"{q.name}: plot is not a bitmap: {exc}"]
    axes = (0,) if q.system.dim == 1 else (0, 1)
    if (len(rows), len(rows[0])) != oracles.plot_shape(q.system, axes, q.plot_n):
        bad.append(f"{q.name}: plot is {len(rows)}x{len(rows[0])} pixels")
    for row, col in oracles.forced_black(q.system, axes, q.plot_n, pts):
        if row >= len(rows) or col >= len(rows[row]) or rows[row][col] != 1:
            bad.append(f"{q.name}: plot pixel ({row}, {col}) next to the orbit is white")
            break
    return bad


def _savitch(state: State, case) -> bool:
    _, system, grid, u, v = case
    rr = state.rr
    return rr["reach"].path_savitch(grid, system, rr["abstraction"].EdgeRule.EXACT, u, v)


def _check_savitch(state: State, case, got: bool) -> list[str]:
    name, system, grid, u, v = case
    rr = state.rr
    closure = rr["reach"].graph_reach(grid, system, rr["abstraction"].EdgeRule.EXACT, [u])
    if got != (v in closure):
        return [f"savitch {name} {u}->{v}: {got}, graph_reach says {v in closure}"]
    return []


def operations(state: State) -> list[Op]:
    ops = [
        Op(f"query {q.name}", lambda q=q: _run_query(state, q), lambda raw, q=q: check_query(q, raw))
        for q in state.queries
    ]
    ops += [
        Op(f"savitch {c[0]}", lambda c=c: _savitch(state, c),
           lambda got, c=c: _check_savitch(state, c, got))
        for c in state.savitch
    ]
    return ops
