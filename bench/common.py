"""Pieces shared by the workload modules."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One user-level operation: `run` does the work, `check` lists problems with its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def cli_stdout(rr: dict, argv: list[str]) -> bytes:
    """Run robustreach's command line in-process; return what it wrote to stdout.

    Output is captured in memory rather than through --out, so the
    latency of a file write and read-back does not add to the operation.
    """
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = rr["cli"].main(argv)
        out.flush()
    if code != 0:
        raise RuntimeError(f"exit {code}: {' '.join(argv)}")
    return out.buffer.getvalue()
