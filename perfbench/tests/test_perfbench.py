"""The benchmark's own tests: tiny workloads, declared metrics, failure accounting.

Run with:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import SELF_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2 * len(workloads.studies(workload, "tiny"))

    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    text = "\n".join(lines)
    for metric in declared:
        assert f"{metric['name']} = " in text
    assert "failed_op_ratio = 0 (0 failed of " in text
    assert '"blas_threads": "1"' in text
    if trace:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        total = sum(values[name] for name in SELF_METRICS)
        assert total == pytest.approx(values["run.traced_wall_s"], rel=1e-9)


def test_wrong_expected_outcome_shows_in_failed_op_ratio(tmp_path):
    studies = list(workloads.studies("sampling", "tiny"))
    strip = studies[0]
    assert strip.expect.verdict == "divergent-evidence"
    studies[0] = replace(strip, expect=replace(strip.expect, verdict="convergent-evidence"))

    result = worker.measure("sampling", 0, 0.0, False, scratch=tmp_path,
                            studies=tuple(studies))

    passes = len(result["pass_walls"])
    assert result["attempted"] == passes * len(studies)
    assert result["failed"] == passes
    assert not result["correct"]
    assert all(f["study"] == strip.name for f in result["failures"])


def _spectrum_outcome(notes, residuals, verdict="not-stabilized"):
    return {"exit_code": 0, "verdict": verdict, "digests": {"a": "1"},
            "report": {"schedule": [6.0, 8.0], "residuals": residuals,
                       "eigenvalues": [[1.0] * len(r) for r in residuals],
                       "notes": notes}}


def test_declared_solver_shortfall_fails_without_making_output_wrong():
    study = workloads.studies("spectral-2d", "readme")[0]
    outcome = _spectrum_outcome(["L=8: inner iteration cap reached"],
                                [[1e-12] * 5, [1e-11] * 3])
    found = checks.problems(study, outcome)
    assert found and {kind for kind, _ in found} == {checks.SHORTFALL}


def test_bad_residual_and_digest_mismatch_are_wrong():
    study = workloads.studies("spectral-2d", "bench")[0]
    outcome = _spectrum_outcome([], [[1e-12] * 5, [1e-3] * 5])
    assert checks.problems(study, outcome) == [
        (checks.WRONG, "L=8: kept residual 1.000e-03 > 1e-06")]
    clean = _spectrum_outcome([], [[1e-12] * 5] * 2)
    first = {"digests": {"a": "2"}, "counts": None}
    assert checks.problems(study, clean, first) == [
        (checks.WRONG, "payload digests differ from the first pass")]


def test_oscillator_oracle_misses_are_wrong():
    study = workloads.studies("spectral-1d", "bench")[0]
    outcome = _spectrum_outcome([], [[1e-12] * 5] * 2, verdict="stabilized")
    outcome["report"]["eigenvalues"] = [[1.0, 3.0, 5.0, 7.0, 9.0],
                                        [1.0, 3.0, 5.0, 7.2, 9.0]]
    found = checks.problems(study, outcome)
    assert [kind for kind, _ in found] == [checks.WRONG]


def _write_set(path, walls):
    with open(path, "w", encoding="utf-8") as fh:
        for seed, wall in enumerate(walls):
            fh.write(json.dumps({
                "provenance": {"workload": "sampling", "trace": 0, "seed": seed},
                "metrics": {"wall_s": {"value": wall, "unit": "s"}},
            }) + "\n")


def test_compare_reports_gain_and_bound(tmp_path, capsys):
    before = [5.0 + 0.01 * i for i in range(10)]
    _write_set(tmp_path / "a.jsonl", before)
    _write_set(tmp_path / "b.jsonl", [w * 0.8 for w in before])
    _write_set(tmp_path / "c.jsonl", [w * 1.3 for w in before])
    spec = {"workloads": [{"name": "sampling"}], "per_layer": [],
            "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}]}

    compare.main(tmp_path / "a.jsonl", tmp_path / "b.jsonl", spec)
    compare.main(tmp_path / "a.jsonl", tmp_path / "a.jsonl", spec)
    compare.main(tmp_path / "a.jsonl", tmp_path / "c.jsonl", spec)
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("sampling")]
    assert "1.00  gain (10 pairs)" in rows[0]
    assert "0.00  within bound (10 pairs)" in rows[1]
    assert "0.00  regression (10 pairs)" in rows[2]


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sampling", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
