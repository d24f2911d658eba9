"""One benchmark run inside a fresh interpreter: repeated passes over a workload.

run.py starts this script with the BLAS thread count and PYTHONPATH set in
its environment, so numpy and spectralab load here with those settings.
A pass runs every study of the workload once, back to back, and its wall
time is taken from the first study's start to the last study's end;
wall_s is the total wall time of the untraced passes over their number.
Outcomes are read and checked after the pass, outside the timed region.
Passes repeat until the next one would end past --seconds (at least two,
so that the determinism check always has a pair). With --trace 1 the passes
alternate untraced and traced, starting untraced.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import SELF_METRICS, Tracer  # noqa: E402

MIN_PASSES = 2


def kernel_sequence(half_width: float, spacing: float, seed: int) -> dict:
    """Criterion-7 kernel machinery on Grid(2, half_width, spacing).

    Calls go through the spectralab.kernels module attributes so that the
    tracer sees them. Returns the values and the named bounds.
    """
    from spectralab import kernels, operators, parse_potential

    cross = parse_potential("x1^2*x2^2", 2)
    grid = operators.Grid(2, half_width, spacing)
    s = 1.0
    bounds = []

    def bound(name, lhs, rhs):
        bounds.append({"name": name, "lhs": float(lhs), "rhs": float(rhs),
                       "passed": bool(lhs <= rhs)})

    C = kernels.compose_C(grid, cross, s)
    for m in (1.0, 4.0, 16.0):
        _, _, norms = kernels.split_tail(C, cross, m)
        bound(f"tail-split m={m:g}", norms["D_m"], norms["reference"] * 1.001)
    del C

    heat = kernels.heat_matrix(grid, s)
    F, tail = kernels.truncated_convolution(grid, s, 5.0)
    gap = kernels.KernelMatrix(grid, heat.values - F.values)
    del heat, F
    bound("truncation-tail", kernels.operator_norm(gap, seed=seed), tail * 1.01)
    del gap

    chi = (kernels.potential_on_grid(grid, cross) < 1.0).astype(float)
    F2, _ = kernels.truncated_convolution(grid, s, 2.0)
    C_MR = kernels.multiply_function(F2, chi)
    del F2
    D = kernels.d_kernel(grid, cross, 1.0, 2.0)
    dom = kernels.domination_check(C_MR, D)
    for check in dom.checks:
        bounds.append({"name": check.name, "lhs": check.lhs,
                       "rhs": check.rhs + check.tol, "passed": check.passed})
    bound("finite-domination-constant", dom.constants["c"], sys.float_info.max)
    return {"grid": [half_width, spacing], "bounds": bounds, "c": dom.constants["c"]}


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_study(study, seed: int, out: Path):
    """Execute one study; returns what the outcome check needs later."""
    if study.kernel_grid:
        report = kernel_sequence(*study.kernel_grid, seed)
        return {"exit_code": 0, "report": report}
    argv = list(study.argv) + ["--seed", str(seed), "--output-dir", str(out)]
    from spectralab import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return {"exit_code": code, "stderr": err.getvalue()}


def collect(study, raw: dict, out: Path) -> dict:
    """Read the study's report and manifest digests from disk (untimed)."""
    if study.kernel_grid:
        payload = json.dumps(raw["report"], sort_keys=True).encode()
        return {**raw, "verdict": "",
                "digests": {"kernel-sequence": hashlib.sha256(payload).hexdigest()}}
    sub = study.subcommand
    manifest_path = out / f"{sub}-manifest.json"
    if not manifest_path.exists():
        return {**raw, "verdict": None, "report": None, "digests": {}}
    manifest = _read_json(manifest_path)
    return {**raw, "verdict": manifest["verdict"],
            "report": _read_json(out / f"{sub}-report.json"),
            "digests": {f["name"]: f["sha256"] for f in manifest["files"]}}


def run_pass(studies, seed: int, scratch: Path, tracer=None):
    """One timed pass. Returns (wall seconds, cpu seconds, outcomes)."""
    raws = []
    counts = []
    dirs = [scratch / f"study-{i}" for i in range(len(studies))]
    for out in dirs:  # so that a study that writes nothing leaves nothing to read
        shutil.rmtree(out, ignore_errors=True)

    def body():
        for study, out in zip(studies, dirs):
            before = tracer.snapshot_counts() if tracer else None
            try:
                raws.append(run_study(study, seed, out))
            except Exception:  # a crashing study is a failed operation
                raws.append({"error": traceback.format_exc(limit=3)})
            if tracer:
                after = tracer.snapshot_counts()
                counts.append({k: after[k] - before[k] for k in after})

    cpu0 = os.times()
    if tracer:
        tracer.install()
        try:
            wall = tracer.root(body)
        finally:
            tracer.uninstall()
    else:
        start = perf_counter()
        body()
        wall = perf_counter() - start
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    outcomes = []
    for i, (study, raw, out) in enumerate(zip(studies, raws, dirs)):
        outcome = raw if raw.get("error") else collect(study, raw, out)
        outcome["counts"] = counts[i] if tracer else None
        outcomes.append(outcome)
    return wall, cpu, outcomes


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "bench", scratch: Path | None = None, studies=None) -> dict:
    """Run passes for about `seconds` and summarise them.

    `studies` overrides the workload's study list (the benchmark's tests use
    it to plant a wrong expectation).
    """
    studies = studies if studies is not None else workloads.studies(workload, size)
    scratch = scratch or HERE.parent / ".perfbench_out" / f"worker-{os.getpid()}"
    passes = []
    started = perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            wall, cpu, outcomes = run_pass(studies, seed, scratch, tracer)
            passes.append({"wall": wall, "cpu": cpu, "traced": traced,
                           "outcomes": outcomes,
                           "layers": tracer.layer_metrics() if tracer else None})
            elapsed = perf_counter() - started
            need = MIN_PASSES * (2 if trace else 1)
            if len(passes) >= need and elapsed + wall > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return summarise(studies, passes)


def summarise(studies, passes) -> dict:
    """Check every study execution and reduce the passes to one result."""
    # Each later pass must repeat the first pass's payload digests and the
    # first traced pass's exact counts.
    first = passes[0]["outcomes"]
    first_traced = next((p["outcomes"] for p in passes if p["traced"]), first)
    attempted = failed = 0
    wrong = False
    failures = []
    for index, p in enumerate(passes):
        for i, (study, outcome) in enumerate(zip(studies, p["outcomes"])):
            reference = {"digests": first[i].get("digests"),
                         "counts": first_traced[i].get("counts")}
            found = checks.problems(study, outcome, reference if index else None)
            attempted += 1
            if found:
                failed += 1
                wrong |= any(kind == checks.WRONG for kind, _ in found)
                failures.append({"pass": index, "study": study.name,
                                 "problems": [f"{kind}: {text}" for kind, text in found]})
    untraced = [p["wall"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "failures": failures,
        "pass_walls": [p["wall"] for p in passes],
        "traced": [p["traced"] for p in passes],
        "wall_s": sum(untraced) / len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        # report the traced pass with the median wall time, so that its
        # self times still sum to its own wall time
        ordered = sorted(traced, key=lambda p: p["wall"])
        chosen = ordered[(len(ordered) - 1) // 2]
        layers = dict(chosen["layers"])
        layers["run.cpu_s"] = chosen["cpu"]
        layers["run.trace_overhead_s"] = chosen["wall"] - result["wall_s"]
        result["layers"] = layers
        result["self_sum_s"] = sum(layers[name] for name in SELF_METRICS)
    return result


def provenance(threads: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="bench")
    args = parser.parse_args(argv)

    import spectralab
    expected = HERE.parent / "src" / "spectralab"
    if Path(spectralab.__file__).resolve().parent != expected:
        print(f"spectralab was imported from {spectralab.__file__}, "
              f"not from {expected}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    result["provenance"] = provenance(os.environ.get("OPENBLAS_NUM_THREADS", ""))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
