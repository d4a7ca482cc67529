"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of robustreach's
modules with wrappers, patching each name where its callers look it up
(`robustreach.reach.successors` as well as
`robustreach.abstraction.successors`, say). A timed wrapper records a
span (id, parent id, name, start, end) on an in-memory list; a counted
wrapper only bumps counters, for functions called far too often for a
span each. Calls count whether or not they raise; result hooks (cells
returned, denominators seen) run on returns only. Spans carry their parent, so each layer's self time is its
duration minus what its child spans cover, and every span below an
operation's root span belongs to that operation.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

Hook = Callable[["Tracer", tuple, Any], None]


def _den_bits(tracer: "Tracer", args: tuple, point: Any) -> None:
    bits = max(c.denominator.bit_length() for c in point.coords)
    tracer.maxima["pam.eval_at.max_den_bits"] = max(tracer.maxima["pam.eval_at.max_den_bits"], bits)


def _boxes_scanned(tracer: "Tracer", args: tuple, index: int) -> None:
    # The scan stops at the first region holding the point, or visits them all.
    tracer.counts["pam.piece_index_at.boxes"] += index + 1 if index >= 0 else len(args[0].pieces)


def _add_len(counter: str) -> Hook:
    def hook(tracer: "Tracer", args: tuple, result: Any) -> None:
        tracer.counts[counter] += len(result)

    return hook


def _accepted(tracer: "Tracer", args: tuple, valid: bool) -> None:
    tracer.counts["reach.check_witness.accepted"] += bool(valid)


def _windows(tracer: "Tracer", args: tuple, count: int) -> None:
    tracer.counts["tm.window_bfs.windows"] += count


def _out_bytes(tracer: "Tracer", args: tuple, code: int) -> None:
    # What the command wrote: its --out file, or the in-memory stdout the
    # benchmark captures (common.cli_stdout).
    argv = list(args[0])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.isfile(path):
            tracer.counts["formats.out_bytes"] += os.path.getsize(path)
    elif isinstance(getattr(sys.stdout, "buffer", None), io.BytesIO):
        sys.stdout.flush()
        tracer.counts["formats.out_bytes"] += len(sys.stdout.buffer.getvalue())


# (span name, owner module, attribute path, modules that look the name up, hook).
# Owner "pam.PamSystem" / "geometry.Box" patches the method on the class.
TIMED: list[tuple[str, str, str, tuple[str, ...], Optional[Hook]]] = [
    ("cli.main", "cli", "main", ("cli",), _out_bytes),
    ("reach.decide_omega_reach", "reach", "decide_omega_reach", ("reach", "cli"), None),
    ("reach.check_witness", "reach", "check_witness", ("reach", "cli"), _accepted),
    ("reach.decide_perturbed_interval", "reach", "decide_perturbed_interval", ("reach", "cli"), None),
    ("reach.plot_pixels", "reach", "plot_pixels", ("reach", "cli"), None),
    ("reach.path_savitch", "reach", "path_savitch", ("reach",), None),
    ("reach.graph_reach", "reach", "graph_reach", ("reach",), _add_len("reach.graph_reach.cells")),
    ("abstraction.successors", "abstraction", "successors", ("abstraction", "reach"),
     _add_len("abstraction.successors.cells")),
    ("pam.eval_at", "pam.PamSystem", "eval_at", (), _den_bits),
    ("tm.window_bfs", "tm", "accepts_space_perturbed", ("tm", "cli"), None),
    ("tm.window_bfs", "tm", "space_perturbed_window_count", ("tm",), _windows),
    ("tm.run", "tm", "run", ("tm", "cli", "trajectory"), None),
    ("embed.build_pam", "embed", "build_pam", ("embed",), None),
    ("embed.encode_config", "embed", "encode_config", ("embed", "trajectory"), None),
    ("trajectory.trajectory_length", "trajectory", "trajectory_length", ("trajectory", "cli"), None),
    ("trajectory.accepts_within_length", "trajectory", "accepts_within_length",
     ("trajectory", "cli"), None),
    ("formats.load", "formats", "load_pam", ("formats",), None),
    ("formats.load", "formats", "load_tm", ("formats",), None),
    ("formats.load", "formats", "load_witness", ("formats",), None),
    ("formats.dump", "formats", "dump_json", ("formats",), None),
    ("formats.dump", "formats", "dump_pam", ("formats",), None),
    ("formats.dump", "formats", "pgm_bytes", ("formats",), None),
]

COUNTED: list[tuple[str, str, str, tuple[str, ...], Optional[Hook]]] = [
    ("geometry.Box.contains", "geometry.Box", "contains", (), None),
    ("geometry.Box.intersection", "geometry.Box", "intersection", (), None),
    ("pam.piece_index_at", "pam.PamSystem", "piece_index_at", (), _boxes_scanned),
    # decide_omega_reach extracts one candidate witness per refinement round.
    ("reach.decide_omega_reach.round", "reach", "extract_witness", ("reach",), None),
    ("tm.step", "tm", "step", ("tm",), None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.counts.clear()
        self.maxima.clear()

    def span(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else -1
            record = [len(tracer.spans), parent, name, time.perf_counter_ns(), 0]
            tracer.spans.append(record)
            tracer.stack.append(record)
            tracer.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter_ns()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self, rr: dict) -> None:
        """Wrap every layer function of the imported program modules in rr."""
        for table, make in ((TIMED, self.span), (COUNTED, self.counter)):
            for name, owner, attr, homes, hook in table:
                module, _, cls = owner.partition(".")
                target = getattr(rr[module], cls) if cls else rr[module]
                wrapped = make(name, getattr(target, attr), hook)
                setattr(target, attr, wrapped)
                for home in homes:
                    setattr(rr[home], attr, wrapped)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            total[name] += (end - start) / 1e9
            if parent >= 0:
                child[parent] += (end - start) / 1e9
        own: dict[str, float] = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            own[name] += (end - start) / 1e9 - child[sid]
        return total, own

    def op(self, name: str, fn: Callable) -> Callable:
        """A root span around one benchmark operation."""
        return self.span("op:" + name, fn)

    def dump(self, path: Path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "counts": dict(self.counts), "maxima": dict(self.maxima)}, fh)
            fh.write("\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def layer_metrics(rounds: Tracer, n_rounds: int, build_s: float, overhead_s: float) -> dict:
    """Per-layer figures per round of operations (build_pam: per set-up)."""
    total, own = rounds.totals()
    c = rounds.counts
    per = lambda v: v / n_rounds
    ratio = lambda a, b: c[a] / c[b] if c[b] else 0.0
    out = {
        "geometry.Box.contains.calls": (per(c["geometry.Box.contains.calls"]), "count"),
        "geometry.Box.intersection.calls": (per(c["geometry.Box.intersection.calls"]), "count"),
        "pam.piece_index_at.calls": (per(c["pam.piece_index_at.calls"]), "count"),
        "pam.piece_index_at.boxes_per_call":
            (ratio("pam.piece_index_at.boxes", "pam.piece_index_at.calls"), "count"),
        "pam.eval_at.calls": (per(c["pam.eval_at.calls"]), "count"),
        "pam.eval_at.s": (per(total["pam.eval_at"]), "s"),
        "pam.eval_at.max_den_bits": (rounds.maxima["pam.eval_at.max_den_bits"], "bits"),
        "abstraction.successors.calls": (per(c["abstraction.successors.calls"]), "count"),
        "abstraction.successors.s": (per(total["abstraction.successors"]), "s"),
        "abstraction.successors.cells_per_call":
            (ratio("abstraction.successors.cells", "abstraction.successors.calls"), "count"),
        "reach.graph_reach.calls": (per(c["reach.graph_reach.calls"]), "count"),
        "reach.graph_reach.self_s": (per(own["reach.graph_reach"]), "s"),
        "reach.graph_reach.cells": (per(c["reach.graph_reach.cells"]), "count"),
        "reach.decide_omega_reach.rounds": (per(c["reach.decide_omega_reach.round.calls"]), "count"),
        "reach.decide_omega_reach.s": (per(total["reach.decide_omega_reach"]), "s"),
        "reach.check_witness.calls": (per(c["reach.check_witness.calls"]), "count"),
        "reach.check_witness.s": (per(total["reach.check_witness"]), "s"),
        "reach.check_witness.accepted_per_attempt":
            (ratio("reach.check_witness.accepted", "reach.check_witness.calls"), "ratio"),
        "reach.path_savitch.s": (per(total["reach.path_savitch"]), "s"),
        "reach.plot_pixels.s": (per(total["reach.plot_pixels"]), "s"),
        "reach.decide_perturbed_interval.s": (per(total["reach.decide_perturbed_interval"]), "s"),
        "tm.window_bfs.s": (per(total["tm.window_bfs"]), "s"),
        "tm.window_bfs.windows": (per(c["tm.window_bfs.windows"]), "count"),
        "tm.run.s": (per(total["tm.run"]), "s"),
        "tm.step.calls": (per(c["tm.step.calls"]), "count"),
        "embed.build_pam.s": (build_s, "s"),
        "embed.encode_config.calls": (per(c["embed.encode_config.calls"]), "count"),
        "embed.encode_config.s": (per(total["embed.encode_config"]), "s"),
        "trajectory.trajectory_length.s": (per(total["trajectory.trajectory_length"]), "s"),
        "trajectory.accepts_within_length.s":
            (per(total["trajectory.accepts_within_length"]), "s"),
        "formats.load.s": (per(total["formats.load"]), "s"),
        "formats.dump.s": (per(total["formats.dump"]), "s"),
        "formats.out_bytes": (per(c["formats.out_bytes"]), "B"),
        "cli.main.self_s": (per(own["cli.main"]), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
