"""The benchmark tracer's tables name functions that exist.

bench/tracer.py wraps each (owner, attr) of its TIMED and COUNTED
tables with getattr and no default, so a name deleted or renamed in
robustreach makes every `bench/run.py --trace 1` run fail. The tracer
imports only the standard library, so it is loaded here by path, and
installed on a freshly imported program in a child process, as
bench/run.py imports it, so this process keeps its own unwrapped copy.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"

# Loads the tracer by path, imports every robustreach module its tables
# name, installs it, and prints the rows whose attribute is not a wrapper.
INSTALL_SCRIPT = """
import importlib, importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
rows = tracer.TIMED + tracer.COUNTED
assert rows
names = {owner.partition(".")[0] for _, owner, _, _, _ in rows}
names |= {home for *_, homes, _ in rows for home in homes}
rr = {n: importlib.import_module(f"robustreach.{n}") for n in sorted(names)}
tracer.Tracer().install(rr)
for name, owner, attr, _homes, _hook in rows:
    module, _, cls = owner.partition(".")
    target = getattr(rr[module], cls) if cls else rr[module]
    if not hasattr(getattr(target, attr), "__wrapped__"):
        print(name, owner, attr)
"""


def test_tracer_tables_resolve():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", INSTALL_SCRIPT, str(TRACER)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""
