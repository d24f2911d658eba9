"""spectralab benchmark: one workload, one run, every metric by name with its unit.

    python3 perfbench/run.py --workload sampling --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run measures set-up time in fresh interpreters, then starts worker.py in
one more interpreter with a fixed BLAS thread count, which runs the
workload's studies in passes for --seconds and checks every outcome. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Metric names and units come from
BENCHMARK.json. --out appends the full result, with provenance, to a
JSON-lines file; --compare reads two such files.

Exits 2 without a result when the checkout has no spectralab sources or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BLAS_THREADS = 1       # fixed: heat-diagnostics payloads depend on it
SETUP_PROBES = 5       # interpreter starts per run; setup_s is their median
RUN_LIMIT_S = 170.0    # a bench or tiny run must end within this
PROBE = "import spectralab.cli, numpy, scipy; print('ready', flush=True)"


class BenchError(Exception):
    """The run cannot produce a result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("SPECTRALAB_OUTPUT_DIR", None)
    return env


def setup_seconds(env) -> float:
    """Interpreter start until spectralab, numpy and scipy are imported."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def run_worker(env, args, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(ROOT / ".git" / ref)
    if value != "unavailable":
        return value
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def provenance(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read(Path("/sys/fs/cgroup/cpu.max")),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args) -> dict:
    if not (ROOT / "src" / "spectralab" / "__init__.py").is_file():
        raise BenchError(f"no spectralab sources under {ROOT / 'src'}")
    started = perf_counter()
    env = child_env()
    setups = [setup_seconds(env) for _ in range(SETUP_PROBES)]
    timeout = None if args.size == "readme" else RUN_LIMIT_S - (perf_counter() - started)
    worker = run_worker(env, args, timeout)

    declared = spec()
    values = {"wall_s": worker["wall_s"], "setup_s": statistics.median(setups),
              "peak_rss_mb": worker["peak_rss_mb"], **worker.get("layers", {})}
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[section]}
    return {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
        "failures": worker["failures"],
        "pass_walls": worker["pass_walls"],
        "traced_passes": worker["traced"],
        "setup_samples": setups,
        "self_sum_s": worker.get("self_sum_s"),
        "provenance": {**provenance(args), **worker["provenance"]},
    }


def report(args, result) -> None:
    """Human-readable lines, then the one-line JSON result."""
    walls = result["pass_walls"]
    print(f"workload {args.workload}  size {args.size}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(walls)}  "
          f"blas_threads {BLAS_THREADS}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_op_ratio = {ratio:.4g} ({result['failed']} failed of "
          f"{result['attempted']} study executions)")
    if result["self_sum_s"] is not None:
        print(f"per-layer self times sum to {result['self_sum_s']:.6g} s "
              "(the traced pass's run.traced_wall_s)")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED pass {failure['pass']} {failure['study']}: "
              + "; ".join(failure["problems"]), file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="bench",
                        help="bench (timed runs), readme (README arguments), "
                             "tiny (the benchmark's own tests)")
    parser.add_argument("--out", type=Path,
                        help="append the full result as one JSON line")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="compare two JSON-lines result sets")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        compare.main(*args.compare, spec())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args, result)
    if args.out:
        with args.out.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
