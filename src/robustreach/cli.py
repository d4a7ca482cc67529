"""Command-line surface.

Every command reads files named on the command line and returns one
document: a JSON tree, or PGM bytes for `plot`. `main` alone writes it,
to stdout or to --out, opening the file only after the command returns.
`embed` writes its PAM file (its --out) and sidecar itself; its summary
goes to stdout. Exit codes are 0 when a verdict was produced, 1 on bad
input, 2 on an internal failure. Output bytes are a pure function of
the inputs: no timestamps, no environment echoes, keys sorted.

Default search budgets can be overridden with ROBUSTREACH_MAX_M and
ROBUSTREACH_MAX_STEPS.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from robustreach import formats
from robustreach.errors import InputFormatError, ToolkitError
from robustreach.geometry import Point, format_rational, parse_rational
from robustreach.reach import (
    check_witness,
    decide_omega_reach,
    decide_perturbed_interval,
    plot_pixels,
)
from robustreach.tm import accepts_space_perturbed, accepts_time_perturbed, run
from robustreach.trajectory import length_verdict
from robustreach import embed

DEFAULT_MAX_M = 10
DEFAULT_MAX_STEPS = 10_000


def _env_int(flag: Optional[int], name: str, fallback: int) -> int:
    """The flag's value, else the environment variable's, else the fallback."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise InputFormatError(f"{name} must be an integer, got {raw!r}") from None


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    try:
        return Point(tuple(parse_rational(part.strip()) for part in parts))
    except InputFormatError as exc:
        raise InputFormatError(f"point {text!r}: {exc}") from None


def _parse_axes(text: str) -> tuple[int, ...]:
    try:
        axes = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise InputFormatError(f"axes {text!r}: expected integers") from None
    return axes


def _add_target_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--system", required=True, help="PAM file (JSON)")
    sub.add_argument("--x", required=True, help="source point, comma-separated rationals")
    sub.add_argument("--y", required=True, help="target point, comma-separated rationals")
    sub.add_argument(
        "--p",
        type=int,
        default=None,
        help="target ball radius exponent (ball radius 2^-p); omit for an exact point target",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustreach",
        description="Reachability with certificates for piecewise affine maps, "
        "and perturbed machine semantics.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("reach", help="semi-decide robust reachability")
    _add_target_args(sub)
    sub.add_argument("--max-m", type=int, default=None)
    sub.add_argument("--max-steps", type=int, default=None)
    sub.add_argument("--out")

    sub = commands.add_parser("delta-decide", help="two-sided decision at drift 2^-n")
    _add_target_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--out")

    sub = commands.add_parser("witness-check", help="re-verify a non-reachability certificate")
    _add_target_args(sub)
    sub.add_argument("--witness", required=True, help="witness file (JSON)")
    sub.add_argument("--out")

    sub = commands.add_parser("plot", help="render the over-approximated reach set as PGM")
    sub.add_argument("--system", required=True)
    sub.add_argument("--x", required=True)
    sub.add_argument("--n", type=int, required=True, help="pixel exponent (pixel 2^-n)")
    sub.add_argument("--axes", default="0", help="one or two axis indices, e.g. 0 or 0,1")
    sub.add_argument("--out")

    sub = commands.add_parser("tm-run", help="run a machine exactly")
    sub.add_argument("--machine", required=True)
    sub.add_argument("--word", required=True)
    sub.add_argument("--max-steps", type=int, default=None)
    sub.add_argument("--out")

    sub = commands.add_parser("tm-perturbed", help="perturbed acceptance")
    sub.add_argument("--machine", required=True)
    sub.add_argument("--word", required=True)
    sub.add_argument("--mode", choices=("space", "time"), required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--out")

    sub = commands.add_parser("tm-length", help="acceptance within a trajectory-length budget")
    sub.add_argument("--machine", required=True)
    sub.add_argument("--word", required=True)
    sub.add_argument("--bound", required=True, help="length budget, a rational")
    sub.add_argument("--max-steps", type=int, default=None)
    sub.add_argument("--out")

    sub = commands.add_parser("embed", help="compile a machine into a PAM file")
    sub.add_argument("--machine", required=True)
    sub.add_argument("--base", type=int, default=None, help="encoding base (default |alphabet|+3)")
    sub.add_argument("--out", dest="pam", metavar="OUT", required=True, help="PAM file to write")
    sub.set_defaults(out=None)  # its summary goes to stdout
    sub.add_argument("--sidecar", help="sidecar path (default: <out>.sidecar.json)")

    return parser


def _cmd_reach(args: argparse.Namespace) -> dict:
    system = formats.load_pam(args.system)
    max_m = _env_int(args.max_m, "ROBUSTREACH_MAX_M", DEFAULT_MAX_M)
    max_steps = _env_int(args.max_steps, "ROBUSTREACH_MAX_STEPS", DEFAULT_MAX_STEPS)
    verdict = decide_omega_reach(
        system,
        _parse_point(args.x),
        _parse_point(args.y),
        args.p,
        max_m=max_m,
        max_steps=max_steps,
    )
    return formats.verdict_to_json(verdict)


def _cmd_delta_decide(args: argparse.Namespace) -> dict:
    system = formats.load_pam(args.system)
    verdict = decide_perturbed_interval(
        system,
        _parse_point(args.x),
        _parse_point(args.y),
        args.p,
        args.n,
    )
    return formats.verdict_to_json(verdict)


def _cmd_witness_check(args: argparse.Namespace) -> dict:
    system = formats.load_pam(args.system)
    witness = formats.load_witness(args.witness)
    valid = check_witness(
        system, witness, _parse_point(args.x), _parse_point(args.y), args.p
    )
    return {"valid": valid, "witness": formats.witness_to_json(witness)}


def _cmd_plot(args: argparse.Namespace) -> bytes:
    system = formats.load_pam(args.system)
    rows = plot_pixels(
        system,
        _parse_point(args.x),
        args.n,
        axes=_parse_axes(args.axes),
    )
    return formats.pgm_bytes(rows)


def _cmd_tm_run(args: argparse.Namespace) -> dict:
    machine = formats.load_tm(args.machine)
    max_steps = _env_int(args.max_steps, "ROBUSTREACH_MAX_STEPS", DEFAULT_MAX_STEPS)
    result = run(machine, args.word, max_steps)
    return {"outcome": result.outcome.value, "steps": result.steps}


def _cmd_tm_perturbed(args: argparse.Namespace) -> dict:
    machine = formats.load_tm(args.machine)
    if args.mode == "space":
        accepts = accepts_space_perturbed(machine, args.word, args.n)
    else:
        accepts = accepts_time_perturbed(machine, args.word, args.n)
    return {"accepts": accepts, "mode": args.mode, "n": args.n}


def _cmd_tm_length(args: argparse.Namespace) -> dict:
    machine = formats.load_tm(args.machine)
    bound = parse_rational(args.bound)
    max_steps = _env_int(args.max_steps, "ROBUSTREACH_MAX_STEPS", DEFAULT_MAX_STEPS)
    accepts, length = length_verdict(machine, args.word, bound, max_steps)
    return {
        "acceptsWithinLength": accepts,
        "bound": format_rational(bound),
        "trajectoryLength": format_rational(length),
    }


def _cmd_embed(args: argparse.Namespace) -> dict:
    sidecar_path = args.sidecar if args.sidecar else args.pam + ".sidecar.json"
    if os.path.realpath(sidecar_path) == os.path.realpath(args.pam):
        raise InputFormatError(f"--sidecar {sidecar_path!r} is the --out file")
    machine = formats.load_tm(args.machine)
    scheme = embed.EncodingScheme.for_machine(machine, base=args.base)
    system = embed.build_pam(machine, scheme)
    with open(args.pam, "w", encoding="utf-8") as fh:
        formats.dump_pam(system, fh)
    sidecar = embed.scheme_sidecar(scheme)
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        formats.dump_json(sidecar, fh)
    return {"pam": args.pam, "sidecar": sidecar_path, "pieces": len(system.pieces)}


_COMMANDS = {
    "reach": _cmd_reach,
    "delta-decide": _cmd_delta_decide,
    "witness-check": _cmd_witness_check,
    "plot": _cmd_plot,
    "tm-run": _cmd_tm_run,
    "tm-perturbed": _cmd_tm_perturbed,
    "tm-length": _cmd_tm_length,
    "embed": _cmd_embed,
}


def _write(document: dict | bytes, out: Optional[str]) -> None:
    """Write a command's document to stdout or to the file `out`: PGM
    bytes as they are, a JSON tree through `formats.dump_json`."""
    if isinstance(document, bytes):
        if out is None:
            sys.stdout.buffer.write(document)
        else:
            with open(out, "wb") as fh:
                fh.write(document)
    elif out is None:
        formats.dump_json(document, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            formats.dump_json(document, fh)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _write(_COMMANDS[args.command](args), args.out)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
