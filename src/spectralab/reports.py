"""Deterministic result persistence: JSON, CSV, plot data, run manifests.

Payload writers are byte-deterministic for identical inputs: dict keys are
sorted, floats go through repr (shortest round-trip form), and line endings
are fixed to "\n".  JSON has no infinite or NaN number, so to_jsonable
writes such a float as the string the CSV writers give it: "inf", "-inf"
or "nan".  Wall-clock time lives only in the manifest, so repeated
runs with the same seed produce identical payload bytes and a manifest that
differs in the timing field alone.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from .kernels import CompactnessDiagnostics
from .operators import SpectrumReport
from .sublevel import ThinnessReport

__all__ = [
    "RunManifest",
    "emit_plot_data",
    "file_digest",
    "to_jsonable",
    "write_eigenvalue_csv",
    "write_json",
    "write_manifest",
    "write_summary_csv",
    "write_thinness_csv",
]


def to_jsonable(obj):
    """Recursively convert dataclasses/arrays/numpy scalars to JSON types;
    a float that is not finite becomes its repr ("inf", "-inf", "nan")."""
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return to_jsonable(obj.item())
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def write_json(path, payload) -> Path:
    path = Path(path)
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"
    path.write_bytes(text.encode("utf-8"))
    return path


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> Path:
    path = Path(path)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row])
    path.write_bytes(buffer.getvalue().encode("utf-8"))
    return path


def write_eigenvalue_csv(path, report: SpectrumReport) -> Path:
    """Eigenvalue table with columns L, index, lambda, residual."""
    rows = []
    for L, values, residuals in zip(report.schedule, report.eigenvalues,
                                    report.residuals):
        for index, (lam, res) in enumerate(zip(values, residuals), start=1):
            rows.append((_format_cell(L), index, lam, res))
    return _write_csv(path, ("L", "index", "lambda", "residual"), rows)


def write_summary_csv(path, rows) -> Path:
    """Inequality batch summary: name, trials, min_margin, pass_rate."""
    body = [(r["name"], r["trials"], r["min_margin"], r["pass_rate"])
            for r in rows]
    return _write_csv(path, ("name", "trials", "min_margin", "pass_rate"), body)


def write_thinness_csv(path, report: ThinnessReport) -> Path:
    # tail_ratios[i] compares the increments ending at radii[i + 2], so the
    # first rows have no ratio; pad them with empty cells.
    pad = [""] * (len(report.radii) - len(report.tail_ratios))
    ratios = pad + list(report.tail_ratios)
    rows = list(zip(report.radii, report.partial_integrals, ratios))
    return _write_csv(path, ("R", "partial_integral", "tail_ratio"), rows)


def _write_series(path: Path, header: str, xs, ys) -> Path:
    lines = [f"# {header}"]
    lines += [f"{_format_cell(x)} {_format_cell(y)}" for x, y in zip(xs, ys)]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def emit_plot_data(subcommand: str, report, outdir) -> list:
    """Two-column .dat series named <subcommand>-<series>.dat.

    SpectrumReport emits one eigenvalue-vs-L series per index,
    ThinnessReport the partial-integral series, CompactnessDiagnostics the
    singular-value decay.  Other reports have no plot series.
    """
    outdir = Path(outdir)
    written = []
    if isinstance(report, SpectrumReport):
        k = max((vals.size for vals in report.eigenvalues), default=0)
        for index in range(k):
            xs, ys = [], []
            for L, vals in zip(report.schedule, report.eigenvalues):
                if index < vals.size:
                    xs.append(L)
                    ys.append(vals[index])
            path = outdir / f"{subcommand}-eigenvalue-{index + 1}.dat"
            written.append(_write_series(path, f"L lambda_{index + 1}", xs, ys))
    elif isinstance(report, ThinnessReport):
        path = outdir / f"{subcommand}-partial-integral.dat"
        written.append(_write_series(path, "R partial_integral",
                                     report.radii, report.partial_integrals))
    elif isinstance(report, CompactnessDiagnostics):
        mu = report.singular_values
        path = outdir / f"{subcommand}-singular-values.dat"
        written.append(_write_series(path, "n mu_n",
                                     range(1, mu.size + 1), mu))
    return written


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance record for one CLI run."""

    version: str
    config: dict
    master_seed: int
    wall_clock_seconds: float
    checks: tuple
    verdict: str
    files: tuple


def write_manifest(path, manifest: RunManifest) -> Path:
    return write_json(path, manifest)
