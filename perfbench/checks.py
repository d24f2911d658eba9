"""Outcome checker: decides whether each study execution failed.

A study execution fails when any of these holds: its exit code or verdict is
not the expected one, a kept eigenvalue's residual is above 1e-6, a solver
note names a shortfall, an oracle misses its tolerance, or it does not
repeat the run's first pass (payload digests, and exact counts in traced
passes).

Problems come in two kinds. A "shortfall" is one the program declared
itself: a spectrum study whose notes say the solver stopped short, and
whose verdict or eigenvalue count misses because of it. Everything else is
"wrong": an outcome the program did not flag. Both count as failed
operations; only wrong ones make a run's result incorrect.
"""

from __future__ import annotations

import math

from workloads import DISC_AREA, KERNEL_BOUNDS, OSCILLATOR

RESIDUAL_LIMIT = 1e-6
OSCILLATOR_LEVELS = (1.0, 3.0, 5.0, 7.0, 9.0)
OSCILLATOR_REL_TOL = 0.01
DISC_STD_ERRORS = 3.0

SHORTFALL = "shortfall"
WRONG = "wrong"


def _oracle(name, outcome):
    """Problems (as strings) for one oracle; empty when it holds."""
    report = outcome.get("report") or {}
    if name == OSCILLATOR:
        final = report.get("eigenvalues", [[]])[-1]
        misses = [(value, level) for value, level in zip(final, OSCILLATOR_LEVELS)
                  if abs(value - level) > OSCILLATOR_REL_TOL * level]
        return [f"oscillator eigenvalue {v!r} not within 1% of {lv:g}" for v, lv in misses]
    if name == DISC_AREA:
        est = report["estimate"]
        gap = abs(est["value"] - 4.0 * math.pi)
        if gap > DISC_STD_ERRORS * est["std_error"]:
            return [f"disc area {est['value']!r} is {gap / est['std_error']:.2f} "
                    "std errors from 4*pi"]
        return []
    if name == KERNEL_BOUNDS:
        return [f"bound {b['name']} failed ({b['lhs']!r} > {b['rhs']!r})"
                for b in report["bounds"] if not b["passed"]]
    raise ValueError(f"unknown oracle {name!r}")


def _spectrum(report):
    """(shortfalls, wrong): solver notes, and kept residuals above the limit."""
    shortfalls = [f"solver note: {note}" for note in report.get("notes", [])]
    wrong = []
    for L, residuals in zip(report.get("schedule", []), report.get("residuals", [])):
        worst = max(residuals, default=0.0)
        if worst > RESIDUAL_LIMIT:
            wrong.append(f"L={L:g}: kept residual {worst:.3e} > {RESIDUAL_LIMIT:g}")
    return shortfalls, wrong


def problems(study, outcome, first=None):
    """List of (kind, text) for one study execution; empty when it passed.

    `outcome` holds "exit_code", "verdict", "report" (the study's JSON
    payload), "digests" ({file name: sha256}) and, in traced passes,
    "counts" (exact counters). `first` is the outcome of the same study in
    an earlier pass of the run at the same seed, which must match.
    """
    if outcome.get("error"):
        return [(WRONG, f"raised {outcome['error']}")]
    expect = study.expect
    found = []
    shortfalls = []
    if outcome["exit_code"] != expect.exit_code:
        found.append((WRONG, f"exit code {outcome['exit_code']} "
                             f"(expected {expect.exit_code})"))
    if study.subcommand == "spectrum":
        shortfalls, wrong = _spectrum(outcome.get("report") or {})
        found += [(WRONG, text) for text in wrong]
        found += [(SHORTFALL, text) for text in shortfalls]
    if expect.verdict is not None and outcome["verdict"] != expect.verdict:
        # a verdict missed for a reason the solver declared is a shortfall
        kind = SHORTFALL if shortfalls else WRONG
        found.append((kind, f"verdict {outcome['verdict']!r} "
                            f"(expected {expect.verdict!r})"))
    if expect.oracle is not None and outcome["exit_code"] == expect.exit_code:
        found += [(WRONG, text) for text in _oracle(expect.oracle, outcome)]
    if first is not None:
        if outcome["digests"] != first["digests"]:
            found.append((WRONG, "payload digests differ from the first pass"))
        if None not in (outcome.get("counts"), first.get("counts")) \
                and outcome["counts"] != first["counts"]:
            found.append((WRONG, f"exact counts {outcome['counts']} differ from "
                                 f"{first['counts']}"))
    return found
