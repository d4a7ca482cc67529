"""File formats: PAM systems as JSON, machines as plain text, verdicts
as JSON, plot rows as ASCII PGM.

Every rational number crossing a file boundary is the string "p/q" (or
"p" for integers), already reduced on output. All emitters are
deterministic: identical values produce identical bytes, cells and keys
are written in sorted order, and no timestamps or environment details
leak into output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Mapping, TextIO

from robustreach.errors import InputFormatError
from robustreach.geometry import Box, Point, format_rational, parse_rational
from robustreach.pam import AffinePiece, PamSystem
from robustreach.reach import (
    FalseAtEps,
    Reached,
    RobustlyUnreachable,
    TrueAtEps,
    Unknown,
    Witness,
)
from robustreach.tm import MOVE_LEFT, MOVE_RIGHT, MOVE_STAY, Rule, TuringMachine

_LETTER_MOVE = {"L": MOVE_LEFT, "S": MOVE_STAY, "R": MOVE_RIGHT}


# -- numbers in JSON trees ---------------------------------------------------


def _is_int(node: Any) -> bool:
    """A JSON integer: bool subclasses int, but true and false are no integers."""
    return isinstance(node, int) and not isinstance(node, bool)


def _rat(node: Any, where: str) -> Fraction:
    if not isinstance(node, str):
        raise InputFormatError(f"{where}: expected a rational string, got {node!r}")
    try:
        return parse_rational(node)
    except InputFormatError as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def _rat_list(node: Any, where: str) -> list[Fraction]:
    if not isinstance(node, list):
        raise InputFormatError(f"{where}: expected a list, got {node!r}")
    return [_rat(v, f"{where}[{i}]") for i, v in enumerate(node)]


def _intervals(node: Any, dim: int, where: str) -> Box:
    if not isinstance(node, list) or len(node) != dim:
        raise InputFormatError(f"{where}: expected {dim} [lo, hi] pairs")
    pairs = []
    for i, entry in enumerate(node):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputFormatError(f"{where}[{i}]: expected a [lo, hi] pair")
        pairs.append((_rat(entry[0], f"{where}[{i}].lo"), _rat(entry[1], f"{where}[{i}].hi")))
    try:
        return Box.of_intervals(pairs)
    except Exception as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def _box_json(box: Box) -> list[list[str]]:
    return [
        [format_rational(lo), format_rational(hi)]
        for lo, hi in zip(box.lo, box.hi)
    ]


def _point_json(point: Point) -> list[str]:
    return [format_rational(c) for c in point]


# -- PAM files ---------------------------------------------------------------


def pam_from_json(tree: Any) -> PamSystem:
    if not isinstance(tree, Mapping):
        raise InputFormatError("top level: expected an object")
    try:
        dim = tree["dimension"]
        domain_node = tree["domain"]
        pieces_node = tree["pieces"]
    except KeyError as exc:
        raise InputFormatError(f"top level: missing key {exc.args[0]!r}") from None
    if not _is_int(dim) or dim < 1:
        raise InputFormatError(f"dimension: expected a positive integer, got {dim!r}")
    domain = _intervals(domain_node, dim, "domain")
    if not isinstance(pieces_node, list) or not pieces_node:
        raise InputFormatError("pieces: expected a nonempty list")
    pieces = []
    for idx, node in enumerate(pieces_node):
        where = f"pieces[{idx}]"
        if not isinstance(node, Mapping):
            raise InputFormatError(f"{where}: expected an object")
        region = _intervals(node.get("region"), dim, f"{where}.region")
        a_node = node.get("A")
        if not isinstance(a_node, list) or len(a_node) != dim:
            raise InputFormatError(f"{where}.A: expected {dim} rows")
        matrix = []
        for r, row in enumerate(a_node):
            values = _rat_list(row, f"{where}.A[{r}]")
            if len(values) != dim:
                raise InputFormatError(f"{where}.A[{r}]: expected {dim} entries")
            matrix.append(tuple(values))
        offset = _rat_list(node.get("b"), f"{where}.b")
        if len(offset) != dim:
            raise InputFormatError(f"{where}.b: expected {dim} entries")
        pieces.append(AffinePiece(region, tuple(matrix), Point(tuple(offset))))
    try:
        return PamSystem(domain, tuple(pieces))
    except Exception as exc:
        raise InputFormatError(f"invalid system: {exc}") from None


def pam_to_json(system: PamSystem) -> dict[str, Any]:
    return {
        "dimension": system.dim,
        "domain": _box_json(system.domain),
        "pieces": [
            {
                "region": _box_json(piece.region),
                "A": [[format_rational(v) for v in row] for row in piece.matrix],
                "b": _point_json(piece.offset),
            }
            for piece in system.pieces
        ],
    }


def _load_json(path: str, parse: Callable[[Any], Any]) -> Any:
    """Parse a JSON file's tree, naming the path in every InputFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            tree = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: {exc}") from None
    try:
        return parse(tree)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def load_pam(path: str) -> PamSystem:
    return _load_json(path, pam_from_json)


def dump_pam(system: PamSystem, fh: TextIO) -> None:
    dump_json(pam_to_json(system), fh)


# -- machine files -----------------------------------------------------------

_HEADERS = ("states", "alphabet", "blank", "initial", "accept", "reject")


def tm_from_text(text: str, where: str = "machine") -> TuringMachine:
    """Parse the plain-text machine format.

    Header lines `key: values`, one per key: states, alphabet, blank,
    initial, accept, reject (the last three may list zero or more
    names). Transition lines `q a -> q' b M` with M one of L, R, S.
    Blank lines and #-comments are ignored. Headers and transitions may
    be interleaved in any order; validation happens once at the end.
    """
    headers: dict[str, list[str]] = {}
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        spot = f"{where}:{lineno}"
        if "->" in line:
            lhs, _, rhs = line.partition("->")
            lhs_parts = lhs.split()
            rhs_parts = rhs.split()
            if len(lhs_parts) != 2 or len(rhs_parts) != 3:
                raise InputFormatError(
                    f"{spot}: transition must read `q a -> q' b L|R|S`"
                )
            move = _LETTER_MOVE.get(rhs_parts[2])
            if move is None:
                raise InputFormatError(f"{spot}: move must be L, R or S")
            rules.append(
                (lhs_parts[0], lhs_parts[1], rhs_parts[0], rhs_parts[1], move)
            )
            continue
        key, colon, rest = line.partition(":")
        key = key.strip()
        if not colon or key not in _HEADERS:
            raise InputFormatError(f"{spot}: expected a header or a transition")
        if key in headers:
            raise InputFormatError(f"{spot}: duplicate header {key!r}")
        headers[key] = rest.split()
    for key in ("states", "alphabet", "blank", "initial"):
        if key not in headers:
            raise InputFormatError(f"{where}: missing header {key!r}")
    if len(headers["blank"]) != 1:
        raise InputFormatError(f"{where}: blank must name exactly one symbol")
    if len(headers["initial"]) != 1:
        raise InputFormatError(f"{where}: initial must name exactly one state")
    try:
        return TuringMachine(
            states=tuple(headers["states"]),
            alphabet=tuple(headers["alphabet"]),
            blank=headers["blank"][0],
            initial=headers["initial"][0],
            accepting=frozenset(headers.get("accept", ())),
            rejecting=frozenset(headers.get("reject", ())),
            rules=tuple(rules),
        )
    except Exception as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def load_tm(path: str) -> TuringMachine:
    with open(path, "r", encoding="utf-8") as fh:
        return tm_from_text(fh.read(), where=path)


# -- verdicts and witnesses --------------------------------------------------


def witness_to_json(witness: Witness) -> dict[str, Any]:
    return {
        "m": witness.m,
        "epsExp": witness.eps_exp,
        "cells": sorted(list(cell) for cell in witness.cells),
    }


def witness_from_json(tree: Any) -> Witness:
    if not isinstance(tree, Mapping):
        raise InputFormatError("witness: expected an object")
    m = tree.get("m")
    eps_exp = tree.get("epsExp")
    cells_node = tree.get("cells")
    if not _is_int(m) or not _is_int(eps_exp):
        raise InputFormatError("witness: m and epsExp must be integers")
    if not isinstance(cells_node, list):
        raise InputFormatError("witness: cells must be a list")
    cells = set()
    for i, entry in enumerate(cells_node):
        if not isinstance(entry, list) or not all(map(_is_int, entry)):
            raise InputFormatError(f"witness: cells[{i}] must be an integer list")
        cells.add(tuple(entry))
    return Witness(m=m, eps_exp=eps_exp, cells=frozenset(cells))


def load_witness(path: str) -> Witness:
    """A witness file, bare or wrapped under a verdict's "witness" key."""
    return _load_json(path, lambda tree: witness_from_json(
        tree.get("witness", tree) if isinstance(tree, Mapping) else tree
    ))


def verdict_to_json(
    verdict: Reached | RobustlyUnreachable | Unknown | TrueAtEps | FalseAtEps,
) -> dict[str, Any]:
    if isinstance(verdict, Reached):
        return {
            "verdict": "reached",
            "steps": verdict.steps,
            "trajectory": [_point_json(p) for p in verdict.trajectory],
        }
    if isinstance(verdict, RobustlyUnreachable):
        return {
            "verdict": "robustly-unreachable",
            "witness": witness_to_json(verdict.witness),
        }
    if isinstance(verdict, Unknown):
        return {
            "verdict": "unknown",
            "budget": {
                "maxM": verdict.max_m,
                "stepsSimulated": verdict.steps_simulated,
                "simulationStopped": verdict.simulation_stopped,
            },
        }
    if isinstance(verdict, TrueAtEps):
        return {
            "verdict": "true-at-eps",
            "eps": format_rational(verdict.eps),
            "epsExp": verdict.n,
        }
    if isinstance(verdict, FalseAtEps):
        return {
            "verdict": "false-at-eps",
            "eps": format_rational(verdict.eps),
            "epsExp": verdict.m,
        }
    raise TypeError(f"not a verdict: {verdict!r}")


def dump_json(tree: Mapping[str, Any], fh: TextIO) -> None:
    fh.write(json.dumps(tree, indent=2, sort_keys=True) + "\n")


# -- PGM images --------------------------------------------------------------


def pgm_bytes(rows: tuple[tuple[int, ...], ...]) -> bytes:
    if not rows or not rows[0]:
        raise InputFormatError("cannot render an empty pixel grid")
    width = len(rows[0])
    height = len(rows)
    body = "".join(" ".join(str(bit) for bit in row) + "\n" for row in rows)
    return f"P2\n{width} {height}\n1\n{body}".encode("ascii")
