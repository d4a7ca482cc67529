"""The benchmark tracer's tables name functions that exist.

bench/tracer.py wraps each (owner, attr) of its TIMED and COUNTED
tables with getattr, so a name deleted or renamed in robustreach makes
`bench/run.py --trace 1` fail. The tracer imports only the standard
library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_tables_resolve():
    tracer = _load_tracer()
    entries = tracer.TIMED + tracer.COUNTED
    assert entries
    for name, owner, attr, _homes, _hook in entries:
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"robustreach.{module}")
        if cls:
            target = getattr(target, cls)
        assert callable(getattr(target, attr, None)), (name, owner, attr)
