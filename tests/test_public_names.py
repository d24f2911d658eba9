"""The package's public surface: `spectralab` re-exports the __all__ of each
library module, so every name a module declares public, every name the
package exported before that rule, and every public name README.md
documents imports from `spectralab` itself.
"""

import ast
import re
from pathlib import Path

import pytest

import spectralab

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = sorted(path for path in (ROOT / "src" / "spectralab").glob("*.py")
                 if path.stem != "__init__")

# the names the package listed one by one before it re-exported __all__
LISTED_EXPORTS = [
    "__version__", "BoundCheck", "CompactnessDiagnostics", "DecayFit", "Grid",
    "InequalityReport", "KernelMatrix", "MeasureEstimate", "PotentialExpr", "Region",
    "RunManifest", "SparseOperator", "SpectrumReport", "ThinnessReport", "ball_volume",
    "batch_summary", "compactness_proxy", "compose_C", "d_kernel", "decay_fit",
    "derived_rng", "discrete_laplacian", "domination_check", "emit_plot_data", "evaluate",
    "file_digest", "gaussian_squared_mass", "golden_thompson", "half_product_bound",
    "hamiltonian", "heat_matrix", "hs_diagnostics", "indicator", "inequality_batch",
    "kernel_power_bound", "lanczos_extremal", "local_measure", "measure",
    "multiply_function", "operator_norm", "parse_potential", "potential_on_grid",
    "product_spectrum_match", "segal", "split_tail", "spectrum_study", "thinness",
    "to_jsonable", "trotter_sequence", "truncated_convolution", "wedge_norm_identity",
    "wedge_segal_chain", "write_json",
]


def module_all(path: Path) -> list:
    """The literal __all__ of a module file, or [] when it has none."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


DECLARED = {name: path.stem for path in MODULES for name in module_all(path)}


def missing_from_package(names) -> list:
    return sorted(name for name in names if not hasattr(spectralab, name))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_all_is_exported(path):
    assert missing_from_package(module_all(path)) == []


def test_listed_exports_are_kept():
    assert missing_from_package(LISTED_EXPORTS) == []


def test_each_export_is_the_module_object():
    for name, stem in DECLARED.items():
        module = getattr(spectralab, stem)
        assert getattr(spectralab, name) is getattr(module, name), name


def test_potential_tools_import_from_the_package():
    from spectralab import NonPolynomialError, ParseError, degeneracy_direction, to_polynomial

    V = spectralab.parse_potential("x1^2", 2)
    verdict = degeneracy_direction(to_polynomial(V))
    assert verdict.degenerate
    assert abs(abs(verdict.direction[1]) - 1.0) < 1e-12
    assert issubclass(ParseError, ValueError) and issubclass(NonPolynomialError, ValueError)


def test_readme_public_names_import_from_the_package():
    # a backticked identifier that some module declares public is documented
    # API, so it must import from the package
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", README)) & set(DECLARED)
    assert {"to_polynomial", "degeneracy_direction"} <= documented
    assert missing_from_package(documented) == []


def test_readme_library_sketch_imports_run():
    sketch = README.split("## Library sketch", 1)[1]
    statement = re.search(r"^from spectralab import \(.*?\)$", sketch, re.M | re.S)
    assert statement is not None
    namespace = {}
    exec(statement.group(0), namespace)
    assert {"to_polynomial", "degeneracy_direction", "ParseError"} <= set(namespace)
