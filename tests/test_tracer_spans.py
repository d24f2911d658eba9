"""The benchmark tracer's span table must match the library's module attributes.

perfbench/tracer.py wraps library functions at the module attributes the
library calls them through; a rename or a moved function would break
`perfbench/run.py --trace 1` without failing any library test.  The tracer
is loaded from its file, without writing bytecode next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from spectralab import operators, potentials, sublevel

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


def test_thinness_evaluations_split_into_proposals_and_sub_budget_balls(monkeypatch):
    # The tracer's thinness hook derives `sublevel.accept_ratio` from the
    # points passed to `sublevel.evaluate`: `budget` proposals per annulus,
    # then `sub_budget` points (the signature default) per accepted proposal.
    sub_budget = inspect.signature(sublevel.thinness).parameters["sub_budget"].default
    budget = 3 * sub_budget + 1  # no multiple of sub_budget equals budget
    sizes = []

    def counting_evaluate(V, pts):
        sizes.append(len(pts))
        return potentials.evaluate(V, pts)

    monkeypatch.setattr(sublevel, "evaluate", counting_evaluate)
    radii = (10.0, 20.0, 40.0)
    sublevel.thinness(potentials.parse_potential("x1^2", 2), 1.0, 2.0, 1.0, radii,
                      budget=budget, seed=3)
    starts = [i for i, n in enumerate(sizes) if n == budget]
    assert starts[0] == 0 and len(starts) == len(radii)
    later = [n for n in sizes if n != budget]
    assert later and all(n % sub_budget == 0 for n in later)


def test_spectrum_spans_see_one_solve_and_the_residual_matvecs_per_box(monkeypatch):
    # The nu <= 2 solve runs on a factor, not on SparseOperator.matvec; the
    # tracer must still see one lanczos_extremal call per box and the
    # matvecs against H that it makes per box (the symmetry probe and the
    # k residuals).
    tracer = load_tracer(monkeypatch).Tracer()
    schedule, k = (1.5, 2.0), 3
    tracer.install()
    try:
        operators.spectrum_study(potentials.parse_potential("x1^2*x2^2", 2),
                                 schedule, 0.25, k)
    finally:
        tracer.uninstall()
    assert tracer.calls["linalg.lanczos"] == len(schedule)
    assert tracer.counters["operators.matvecs"] >= k * len(schedule)
