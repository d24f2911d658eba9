"""Spans and counters around spectralab's layers, recorded from outside the library.

The tracer replaces module attributes through which the library calls its
layers (for example ``spectralab.operators.lanczos_extremal``, which
``spectrum_study`` looks up at call time) with timing wrappers, and puts the
originals back afterwards. Nothing under src/ changes. Spans nest on a
stack; a span's self time is its duration minus the durations of the spans
it directly encloses, so the self times of one pass sum to its wall time.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

def _kernel_bytes(result) -> int:
    """Bytes of the dense kernel matrices in a kernel call's result."""
    parts = result if isinstance(result, tuple) else (result,)
    return sum(part.values.nbytes for part in parts
               if hasattr(part, "values") and hasattr(part.values, "nbytes"))


def _evaluate(tr, args, kwargs, result, pre):
    points = len(result) if getattr(result, "ndim", 0) else 1
    tr.counters["potentials.points"] += points
    if tr.inside("sublevel."):
        tr.counters["sublevel.points"] += points


def _matvec(tr, args, kwargs, result, pre):
    tr.counters["operators.matvecs"] += 1


def _lanczos(tr, args, kwargs, result, pre):
    requested = kwargs["k"] if "k" in kwargs else args[2]
    tolerance = tr.module("operators").RESIDUAL_TOLERANCE
    kept = 0
    while kept < result.residuals.size and result.residuals[kept] <= tolerance:
        kept += 1
    tr.counters["linalg.requested"] += int(requested)
    tr.counters["linalg.kept"] += kept
    tr.counters["linalg.solver_matvecs"] += int(result.matvec_count)


def _dense(tr, args, kwargs, result, pre):
    tr.counters["kernels.dense_bytes"] += _kernel_bytes(result)


def _power(tr, args, kwargs, result, pre):
    # D^k forms k - 1 dense N x N products of 2 N^3 flops each.
    D = args[0]
    k = kwargs["k"] if "k" in kwargs else args[1]
    n = D.values.shape[0]
    tr.counters["kernels.matmul_flop"] += 2 * n**3 * (int(k) - 1)
    tr.counters["kernels.dense_bytes"] += (int(k) - 1) * D.values.nbytes


def _domination(tr, args, kwargs, result, pre):
    # the product kernel C^T C it forms is N x N
    tr.counters["kernels.dense_bytes"] += args[0].values.nbytes


def _thinness_pre(tr):
    return tr.counters["sublevel.points"]


def _thinness(tr, args, kwargs, result, pre):
    # Each annulus evaluates `budget` proposals, then `sub_budget` points
    # around every proposal that landed in the sublevel set.
    budget = kwargs["budget"]
    proposals = len(args[4]) * budget
    evaluated = tr.counters["sublevel.points"] - pre
    hits = (evaluated - proposals) // tr.thinness_sub_budget
    tr.counters["sublevel.proposals"] += proposals
    tr.counters["sublevel.hits"] += hits


def _measure(tr, args, kwargs, result, pre):
    region = args[2]
    budget = kwargs["budget"]
    tr.counters["sublevel.proposals"] += budget
    tr.counters["sublevel.hits"] += round(result.value / region.volume * budget)


def _checks(tr, args, kwargs, result, pre):
    tr.counters["inequalities.checks"] += len(result)


def _written(tr, args, kwargs, result, pre):
    paths = result if isinstance(result, list) else [result]
    tr.counters["reports.bytes_written"] += sum(p.stat().st_size for p in paths)


# (module, attribute path, span name, counter hook). One row per place the
# library looks a layer up; the same function may appear under several
# modules that each imported it.
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "resolve_config", "cli.resolve", None),
    ("cli", "execute", "cli.execute", None),
    ("cli", "parse_potential", "potentials.parse", None),
    ("potentials", "evaluate", "potentials.evaluate", _evaluate),
    ("operators", "evaluate", "potentials.evaluate", _evaluate),
    ("sublevel", "evaluate", "potentials.evaluate", _evaluate),
    ("operators", "Grid.__post_init__", "operators.grid", None),
    ("cli", "potential_on_grid", "operators.potential_on_grid", None),
    ("operators", "potential_on_grid", "operators.potential_on_grid", None),
    ("kernels", "potential_on_grid", "operators.potential_on_grid", None),
    ("operators", "hamiltonian", "operators.hamiltonian", None),
    ("operators", "SparseOperator.matvec", "operators.matvec", _matvec),
    ("cli", "spectrum_study", "operators.spectrum_study", None),
    ("operators", "lanczos_extremal", "linalg.lanczos", _lanczos),
    ("cli", "heat_matrix", "kernels.heat_matrix", _dense),
    ("kernels", "heat_matrix", "kernels.heat_matrix", _dense),
    ("cli", "hs_diagnostics", "kernels.hs_diagnostics", None),
    ("cli", "d_kernel", "kernels.d_kernel", _dense),
    ("kernels", "d_kernel", "kernels.d_kernel", _dense),
    ("cli", "kernel_power_bound", "kernels.kernel_power_bound", _power),
    ("kernels", "operator_norm", "kernels.operator_norm", None),
    ("kernels", "compose_C", "kernels.compose_C", None),
    ("kernels", "multiply_function", "kernels.multiply_function", _dense),
    ("kernels", "split_tail", "kernels.split_tail", None),
    ("kernels", "truncated_convolution", "kernels.truncated_convolution", _dense),
    ("kernels", "domination_check", "kernels.domination_check", _domination),
    ("cli", "thinness", "sublevel.thinness", _thinness),
    ("cli", "measure", "sublevel.measure", _measure),
    ("cli", "inequality_batch", "inequalities.batch", _checks),
    ("cli", "batch_summary", "inequalities.summary", None),
    ("cli", "to_jsonable", "reports.write", None),
    ("cli", "write_json", "reports.write", _written),
    ("cli", "write_eigenvalue_csv", "reports.write", _written),
    ("cli", "write_summary_csv", "reports.write", _written),
    ("cli", "write_thinness_csv", "reports.write", _written),
    ("cli", "emit_plot_data", "reports.write", _written),
    ("cli", "write_manifest", "reports.write", _written),
    ("cli", "file_digest", "reports.digest", None),
)

PRE_HOOKS = {_thinness: _thinness_pre}


class Tracer:
    """Records spans and counters for one pass while installed."""

    def __init__(self):
        self.totals = defaultdict(float)   # span name -> inclusive seconds
        self.selfs = defaultdict(float)    # span name -> self seconds
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []
        self.thinness_sub_budget = None

    @staticmethod
    def module(name):
        return importlib.import_module(f"spectralab.{name}")

    def inside(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def _wrap(self, fn, name, hook):
        pre_hook = PRE_HOOKS.get(hook)
        stack = self._stack

        def wrapper(*args, **kwargs):
            pre = pre_hook(self) if pre_hook else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.totals[name] += elapsed
                self.selfs[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook:
                hook(self, args, kwargs, result, pre)
            return result

        return wrapper

    def install(self):
        """Wrap every row of SPANS; uninstall() restores the originals."""
        for module_name, path, name, hook in SPANS:
            owner = self.module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        thinness = self.module("sublevel").thinness
        self.thinness_sub_budget = inspect.signature(thinness).parameters["sub_budget"].default

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, fn):
        """Run fn() as the pass's root span and return its wall seconds."""
        self._wrap(fn, "run.harness", None)()
        return self.totals["run.harness"]

    def snapshot_counts(self) -> dict:
        """The exact counts that must repeat between passes of one seed."""
        return {key: self.counters[key] for key in
                ("potentials.points", "operators.matvecs", "kernels.dense_bytes")}

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the recorded pass, in seconds and counts."""
        t, s, n, c = self.totals, self.selfs, self.calls, self.counters

        def layer_self(layer):
            return sum(v for k, v in s.items() if k.split(".")[0] == layer)

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        matmul_gflop = c["kernels.matmul_flop"] / 1e9
        return {
            "cli.resolve_s": t["cli.resolve"],
            "cli.execute_self_s": s["cli.execute"],
            "cli.self_s": layer_self("cli"),
            "potentials.evaluate_s": t["potentials.evaluate"],
            "potentials.points": c["potentials.points"],
            "potentials.ns_per_point": ratio(t["potentials.evaluate"],
                                             c["potentials.points"], 1e9),
            "potentials.self_s": layer_self("potentials"),
            "operators.grid_s": t["operators.grid"],
            "operators.potential_on_grid_s": t["operators.potential_on_grid"],
            "operators.hamiltonian_s": t["operators.hamiltonian"],
            "operators.matvec_s": t["operators.matvec"],
            "operators.matvecs": c["operators.matvecs"],
            "operators.self_s": layer_self("operators"),
            "linalg.lanczos_s": t["linalg.lanczos"],
            "linalg.lanczos_calls": n["linalg.lanczos"],
            "linalg.solver_self_s": layer_self("linalg"),
            "linalg.matvecs_per_eig": ratio(c["linalg.solver_matvecs"], c["linalg.kept"]),
            "linalg.kept_ratio": ratio(c["linalg.kept"], c["linalg.requested"]),
            "kernels.heat_matrix_s": t["kernels.heat_matrix"],
            "kernels.hs_diagnostics_s": t["kernels.hs_diagnostics"],
            "kernels.d_kernel_s": t["kernels.d_kernel"],
            "kernels.kernel_power_bound_s": t["kernels.kernel_power_bound"],
            "kernels.operator_norm_s": t["kernels.operator_norm"],
            "kernels.operator_norm_calls": n["kernels.operator_norm"],
            "kernels.truncated_convolution_s": t["kernels.truncated_convolution"],
            "kernels.domination_check_s": t["kernels.domination_check"],
            "kernels.split_tail_s": t["kernels.split_tail"],
            "kernels.dense_bytes": c["kernels.dense_bytes"],
            "kernels.matmul_gflop": matmul_gflop,
            "kernels.matmul_gflop_per_s": ratio(matmul_gflop,
                                                t["kernels.kernel_power_bound"]),
            "kernels.self_s": layer_self("kernels"),
            "sublevel.thinness_s": t["sublevel.thinness"],
            "sublevel.measure_s": t["sublevel.measure"],
            "sublevel.points": c["sublevel.points"],
            "sublevel.accept_ratio": ratio(c["sublevel.hits"], c["sublevel.proposals"]),
            "sublevel.self_s": layer_self("sublevel"),
            "inequalities.batch_s": t["inequalities.batch"],
            "inequalities.checks": c["inequalities.checks"],
            "inequalities.us_per_check": ratio(t["inequalities.batch"],
                                               c["inequalities.checks"], 1e6),
            "inequalities.self_s": layer_self("inequalities"),
            "reports.write_s": t["reports.write"],
            "reports.digest_s": t["reports.digest"],
            "reports.bytes_written": c["reports.bytes_written"],
            "reports.self_s": layer_self("reports"),
            "run.harness_self_s": s["run.harness"],
            "run.traced_wall_s": t["run.harness"],
        }


# Self-time metrics, one per layer; on every pass they sum to run.traced_wall_s.
SELF_METRICS = ("run.harness_self_s", "cli.self_s", "potentials.self_s",
                "operators.self_s", "linalg.solver_self_s", "kernels.self_s",
                "sublevel.self_s", "inequalities.self_s", "reports.self_s")
