"""Compare two result sets (JSON lines written by run.py --out), metric by metric.

For every (workload, metric) pair present in both sets it prints each
side's median and quartiles over runs, and the pairwise win rate of AFTER
over BEFORE. The i-th runs of the two sets in seed order form a pair, so
make the sets with the same seeds, alternating which side runs first.
Ties count for neither side.

The verdict follows the rule for noisy shared machines: "gain" when AFTER wins at
least nine tenths of the pairs and the medians differ by more than BEFORE's
own spread (the distance between its quartiles). For a metric with a bound
in BENCHMARK.json, "regression" when AFTER's median is worse by more than
the bound, and "unresolved" when BEFORE's spread is wider than the bound
and not every AFTER run is better than every BEFORE run.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from a JSON-lines file."""
    runs = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        prov = record["provenance"]
        key = (prov["workload"], prov["trace"])
        runs.setdefault(key, {})[prov["seed"]] = {
            name: metric["value"] for name, metric in record["metrics"].items()}
    return runs


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before, after, pairs, better, bound) -> tuple:
    """(win rate of AFTER, verdict string) for one metric on one workload."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, a in pairs if sign * (a - b) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    q1, med_b, q3 = quartiles(before)
    med_a = quartiles(after)[1]
    gain = sign * (med_a - med_b)
    if win_rate >= WIN_SHARE and gain > q3 - q1:
        return win_rate, "gain"
    if bound is None:
        return win_rate, "no claim"
    all_better = (max(after) < min(before)) if better == "lower" \
        else (min(after) > max(before))
    if med_b and (q3 - q1) / abs(med_b) > bound and not all_better:
        return win_rate, "unresolved"
    if med_b and -gain / abs(med_b) > bound:
        return win_rate, "regression"
    return win_rate, "within bound"


def main(before_path, after_path, spec: dict) -> None:
    before, after = load(before_path), load(after_path)
    declared = [(m, 0) for m in spec["end_to_end"]] + [(m, 1) for m in spec["per_layer"]]
    print(f"{'workload':<13} {'metric':<32} {'before median [q1, q3]':<34} "
          f"{'after median [q1, q3]':<34} {'win':>5}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric, trace in declared:
            name = metric["name"]
            b_runs = before.get((workload, trace), {})
            a_runs = after.get((workload, trace), {})
            if not (b_runs and a_runs):
                continue
            b_vals = [b_runs[s][name] for s in sorted(b_runs)]
            a_vals = [a_runs[s][name] for s in sorted(a_runs)]
            pairs = list(zip(b_vals, a_vals))
            win_rate, text = verdict(b_vals, a_vals, pairs, metric["better"],
                                     metric.get("bound"))
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                     for q in (quartiles(b_vals), quartiles(a_vals))]
            print(f"{workload:<13} {name:<32} {cells[0]:<34} {cells[1]:<34} "
                  f"{win_rate:>5.2f}  {text} ({len(pairs)} pairs)")
