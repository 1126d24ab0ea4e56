"""Every name bench/trace.py wraps resolves to a function of the package.

The file is loaded by path: as the module `trace` it would be shadowed
by the standard library's module of that name.
"""

import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    traced = trace.traced_functions()  # an AttributeError names a lost function
    assert traced and all(callable(fn) for *_, fn in traced)
