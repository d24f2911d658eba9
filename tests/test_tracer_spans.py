"""The benchmark tracer's span table must match the library's module attributes.

perfbench/tracer.py wraps library functions at the module attributes the
library calls them through; a rename or a moved function would break
`perfbench/run.py --trace 1` without failing any library test.  The tracer
is loaded from its file, without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_row_resolves_to_a_library_callable(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.SPANS
    for module_name, path, span, _ in tracer.SPANS:
        owner = importlib.import_module(f"spectralab.{module_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{span}: spectralab.{module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: spectralab.{module_name}.{path}"
