"""Run one robustreach benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload pam-queries --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. The workload's inputs come from
--seed. Set-up (importing the program, loading fixtures, generating the
seeded corpus, compiling machines) is repeated SETUP_REPEATS times and
its median reported; then whole rounds of the workload's fixed list of
operations run until --seconds have passed. The first round's outputs
are checked against the benchmark's own reference computations, and
every later round's outputs must equal them.

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced rounds
for half the time, then wraps the program's layer functions, sets up
once more and runs traced rounds for the other half; it prints per-layer
metrics per round, including the tracing overhead, and writes every span
to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Progress and problems go to
standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = {
    "pam-queries": "pam_queries",
    "compiled-machine": "compiled_machine",
    "machine-windows": "machine_windows",
}
PROGRAM_MODULES = ("geometry", "pam", "abstraction", "reach", "tm", "embed", "trajectory", "formats", "cli")
SETUP_REPEATS = 7


def import_program() -> dict:
    """Import robustreach afresh from ./src, as a new process would."""
    for name in [n for n in sys.modules if n == "robustreach" or n.startswith("robustreach.")]:
        del sys.modules[name]
    rr = {n: importlib.import_module(f"robustreach.{n}") for n in PROGRAM_MODULES}
    where = Path(rr["cli"].__file__).resolve().parent
    if where != ROOT / "src" / "robustreach":
        raise ImportError(f"robustreach imported from {where}, not from this checkout")
    return rr


class Rounds:
    """Whole rounds of operations, with every output checked."""

    def __init__(self) -> None:
        self.reference: list = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, ops: list, seconds: float, wrap=None) -> tuple[list[float], list[float]]:
        """Round wall times and per-operation latencies (ms) until `seconds` pass."""
        start = time.perf_counter()
        round_s, latencies = [], []
        while True:
            outputs = []
            t_round = time.perf_counter()
            for op in ops:
                fn = wrap(op.name, op.run) if wrap else op.run
                t0 = time.perf_counter_ns()
                try:
                    outputs.append((True, fn()))
                except Exception as exc:  # an operation that fails is counted, not fatal
                    outputs.append((False, repr(exc)))
                    self.failed += 1
                    print(f"failed: {op.name}: {exc!r}", file=sys.stderr)
                latencies.append((time.perf_counter_ns() - t0) / 1e6)
                self.attempted += 1
            round_s.append(time.perf_counter() - t_round)
            self._check(ops, outputs)
            if time.perf_counter() - start >= seconds:
                return round_s, latencies

    def _check(self, ops: list, outputs: list) -> None:
        if not self.reference:
            self.reference = outputs
            for op, (ok, out) in zip(ops, outputs):
                if ok:
                    self.problems += op.check(out)
            return
        for op, (ok, out), (ref_ok, ref) in zip(ops, outputs, self.reference):
            if ok and ref_ok and out != ref:
                self.problems.append(f"{op.name}: output differs from the first round")


def measure(args: argparse.Namespace, workload, workdir: Path) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rr = import_program()
        state = workload.setup(rr, args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    print(f"set-up seconds {' '.join(f'{s:.3f}' for s in setup_s)}", file=sys.stderr)
    rounds = Rounds()
    if not args.trace:
        round_s, latencies = rounds.run(workload.operations(state), args.seconds)
        print(f"{len(round_s)} rounds of {len(latencies) // len(round_s)} operations, "
              f"round seconds {' '.join(f'{s:.3f}' for s in round_s)}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": statistics.median(round_s), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        from tracer import Tracer, layer_metrics

        plain_s, _ = rounds.run(workload.operations(state), args.seconds / 2)
        tracer = Tracer()
        tracer.install(rr)
        state = workload.setup(rr, args.seed, workdir)
        build_s = tracer.totals()[0]["embed.build_pam"]
        tracer.reset()
        traced_s, _ = rounds.run(workload.operations(state), args.seconds / 2, wrap=tracer.op)
        overhead = statistics.median(traced_s) - statistics.median(plain_s)
        metrics = layer_metrics(tracer, len(traced_s), build_s, overhead)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(out, {"workload": args.workload, "seed": args.seed, "rounds": len(traced_s)})
        print(f"spans written to {out}", file=sys.stderr)
    for problem in rounds.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "robustreach" / "__init__.py").is_file():
        print(f"error: no robustreach sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    # Keep compiled bytecode under .bench_out whatever PYTHONDONTWRITEBYTECODE
    # says, so every set-up after the first imports from bytecode, as an
    # installed copy would, on any machine.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(ROOT / ".bench_out" / "pycache")
    sys.path.insert(0, str(ROOT / "src"))
    workload = importlib.import_module(WORKLOADS[args.workload])
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_out"))
    try:
        result = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
