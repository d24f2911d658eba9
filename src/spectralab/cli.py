"""Command-line surface: configuration, orchestration, result persistence.

Every run resolves its configuration from built-in defaults, then an
optional flat key = value config file, then command-line flags (flags win),
validates it fully before any computation, and writes a JSON report, CSV
tables, two-column .dat plot series, and a manifest with content digests
into the output directory.

Exit codes: 0 when all enabled checks pass (verdicts such as
"not-stabilized" or "divergent-evidence" are findings, not failures),
1 when a mathematical check fails (the failing check is named on stderr),
2 on usage or configuration errors ("configuration error: ...") and on
numerical failures found during the run ("run failed: ..."); a failed run
removes the output directory again if it created it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .inequalities import batch_summary, inequality_batch
from .kernels import d_kernel, heat_matrix, hs_diagnostics, kernel_power_bound
from .operators import Grid, potential_on_grid, spectrum_study
from .potentials import parse_potential
from .reports import (
    RunManifest,
    emit_plot_data,
    file_digest,
    to_jsonable,
    write_eigenvalue_csv,
    write_json,
    write_manifest,
    write_summary_csv,
    write_thinness_csv,
)
from .sublevel import Region, check_radii, measure, thinness

OUTPUT_DIR_ENV = "SPECTRALAB_OUTPUT_DIR"
SUBCOMMANDS = ("spectrum", "sublevel", "thinness", "inequalities",
               "heat-diagnostics", "kernel-power")


def _float_tuple(raw) -> tuple:
    if isinstance(raw, tuple):
        return raw
    parts = [p for p in str(raw).split(",") if p.strip()]
    return tuple(float(p) for p in parts)


def _str(raw) -> str:
    return str(raw)


_FIELD_TYPES = {
    "subcommand": _str,
    "potential": _str,
    "nu": int,
    "M": float,
    "r": float,
    "ell": float,
    "radii": _float_tuple,
    "L": _float_tuple,
    "h": float,
    "s": float,
    "R": float,
    "k": int,
    "seed": int,
    "trials": int,
    "dim": int,
    "budget": int,
    "max_iters": int,
    "count_levels": _float_tuple,
    "mode": _str,
    "output_dir": _str,
}

_DEFAULTS = {
    "potential": None,
    "nu": 2,
    "M": 1.0,
    "r": 2.0,
    "ell": 1.0,
    "radii": (10.0, 20.0, 40.0, 80.0),
    "L": (4.0,),
    "h": 0.1,
    "s": 1.0,
    "R": 1.0,
    "k": None,
    "seed": 0,
    "trials": 100,
    "dim": 8,
    "budget": 100_000,
    "max_iters": 600,
    "count_levels": (),
    "mode": "gaussian-kernel",
    "output_dir": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved and validated inputs of one CLI run."""

    subcommand: str
    potential: str
    nu: int
    M: float
    r: float
    ell: float
    radii: tuple
    L: tuple
    h: float
    s: float
    R: float
    k: int
    seed: int
    trials: int
    dim: int
    budget: int
    max_iters: int
    count_levels: tuple
    mode: str
    output_dir: str


def parse_config_file(path) -> dict:
    """Flat key = value pairs; # comments; unknown keys rejected."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}")
    return values


def smallest_admissible_power(r: float) -> int:
    """Smallest integer k with 2k - 2 > r."""
    return int(math.floor((r + 2.0) / 2.0 + 1e-12)) + 1


def resolve_config(subcommand: str, file_values: dict, flag_values: dict) -> RunConfig:
    values = dict(_DEFAULTS)
    values.update(file_values)
    for key, flag in flag_values.items():
        if flag is not None:
            values[key] = flag
    values["subcommand"] = subcommand
    if values["output_dir"] is None:
        values["output_dir"] = os.environ.get(OUTPUT_DIR_ENV, "spectralab-output")
    if values["k"] is None:
        values["k"] = 5 if subcommand == "spectrum" \
            else smallest_admissible_power(values["r"])
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    if config.nu not in (1, 2, 3):
        raise ValueError("nu must be 1, 2, or 3")
    for name in ("h", "s", "ell"):
        if getattr(config, name) <= 0:
            raise ValueError(f"{name} must be > 0")
    for name in ("trials", "budget", "max_iters"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    if config.seed < 0:
        raise ValueError("seed must be >= 0")
    needs_potential = config.subcommand != "inequalities"
    if needs_potential and not config.potential:
        raise ValueError(f"{config.subcommand} requires --potential")
    if config.potential:
        parse_potential(config.potential, config.nu)  # fail fast on bad text
    if config.subcommand == "spectrum":
        if len(config.L) < 2:
            raise ValueError("spectrum requires at least two box sizes in --L")
        if config.k < 1:
            raise ValueError("k must be >= 1")
    if config.subcommand in ("sublevel", "thinness", "heat-diagnostics",
                             "kernel-power"):
        if config.M <= 0:
            raise ValueError("M must be > 0")
    if config.subcommand in ("sublevel", "kernel-power") and config.R <= 0:
        raise ValueError("R must be > 0")
    if config.subcommand == "thinness":
        check_radii(config.radii)
    if config.subcommand == "inequalities" and config.dim < 2:
        raise ValueError("dim must be >= 2")
    if config.subcommand in ("heat-diagnostics", "kernel-power") and not config.L:
        raise ValueError(f"{config.subcommand} requires a box size in --L")
    if config.subcommand == "kernel-power" and 2 * config.k - 2 <= config.r:
        raise ValueError(
            f"k = {config.k} violates 2k - 2 > r (r = {config.r:g}); "
            f"smallest admissible k is {smallest_admissible_power(config.r)}"
        )


def _run_spectrum(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    report = spectrum_study(V, config.L, config.h, config.k, seed=config.seed,
                            max_iters=config.max_iters,
                            count_levels=config.count_levels)
    payload = to_jsonable(report)
    payload["stabilized"] = report.verdict == "stabilized"
    files = [write_json(out / "spectrum-report.json", payload),
             write_eigenvalue_csv(out / "spectrum-eigenvalues.csv", report)]
    files += emit_plot_data("spectrum", report, out)
    return 0, [], report.verdict, files


def _run_sublevel(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    region = Region("ball", (0.0,) * config.nu, config.R)
    est = measure(V, config.M, region, method="monte-carlo",
                  budget=config.budget, seed=config.seed)
    payload = {
        "potential": config.potential,
        "M": config.M,
        "region_radius": config.R,
        "estimate": to_jsonable(est),
    }
    files = [write_json(out / "sublevel-report.json", payload)]
    return 0, [], "", files


def _run_thinness(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    report = thinness(V, config.M, config.r, config.ell, config.radii,
                      budget=config.budget, seed=config.seed)
    files = [write_json(out / "thinness-report.json", report),
             write_thinness_csv(out / "thinness-partial-integrals.csv", report)]
    files += emit_plot_data("thinness", report, out)
    return 0, [], report.verdict, files


def _run_inequalities(config: RunConfig, out: Path):
    dims = tuple(range(2, config.dim + 1))
    reports = inequality_batch(trials=config.trials, dims=dims,
                               master_seed=config.seed)
    rows = batch_summary(reports)
    failures = [r for r in reports if not r.passed]
    payload = {
        "trials": config.trials,
        "dimensions": list(dims),
        "summary": rows,
        "failures": [to_jsonable(r) for r in failures],
    }
    files = [write_json(out / "inequalities-report.json", payload),
             write_summary_csv(out / "inequalities-summary.csv", rows)]
    checks = [{"name": row["name"], "passed": row["pass_rate"] == 1.0}
              for row in rows]
    code = 0
    if failures:
        first = failures[0]
        print(f"FAILED check: {first.name} (inputs {first.inputs})",
              file=sys.stderr)
        code = 1
    return code, checks, "", files


def _run_heat_diagnostics(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    grid = Grid(config.nu, config.L[0], config.h)
    mask = potential_on_grid(grid, V) < config.M
    kernel = heat_matrix(grid, config.s, config.mode)
    diag = hs_diagnostics(kernel, mask, config.s, config.mode)
    files = [write_json(out / "heat-diagnostics-report.json", diag)]
    files += emit_plot_data("heat-diagnostics", diag, out)
    return _diagnostic_exit(diag), _diagnostic_checks(diag), "", files


def _run_kernel_power(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    grid = Grid(config.nu, config.L[0], config.h)
    D = d_kernel(grid, V, config.M, config.R)
    diag = kernel_power_bound(D, config.k, V, config.M, config.R)
    files = [write_json(out / "kernel-power-report.json", diag)]
    files += emit_plot_data("kernel-power", diag, out)
    return _diagnostic_exit(diag), _diagnostic_checks(diag), "", files


def _diagnostic_checks(diag) -> list:
    return [{"name": check.name, "passed": check.passed}
            for check in diag.checks]


def _diagnostic_exit(diag) -> int:
    for check in diag.checks:
        if not check.passed:
            print(f"FAILED check: {check.name} "
                  f"(lhs {check.lhs!r} > rhs {check.rhs!r} + tol {check.tol!r})",
                  file=sys.stderr)
            return 1
    return 0


_RUNNERS = {
    "spectrum": _run_spectrum,
    "sublevel": _run_sublevel,
    "thinness": _run_thinness,
    "inequalities": _run_inequalities,
    "heat-diagnostics": _run_heat_diagnostics,
    "kernel-power": _run_kernel_power,
}


def execute(config: RunConfig) -> int:
    out = Path(config.output_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        code, checks, verdict, files = _RUNNERS[config.subcommand](config, out)
    except BaseException:
        for directory in created:  # innermost first; rmdir spares any file
            try:
                directory.rmdir()
            except OSError:
                break
        raise
    elapsed = time.time() - started
    inventory = tuple(
        {"name": p.name, "sha256": file_digest(p), "bytes": p.stat().st_size}
        for p in sorted(files, key=lambda p: p.name)
    )
    manifest = RunManifest(
        version=__version__,
        config={f.name: to_jsonable(getattr(config, f.name))
                for f in fields(config)},
        master_seed=config.seed,
        wall_clock_seconds=elapsed,
        checks=tuple(checks),
        verdict=verdict,
        files=inventory,
    )
    write_manifest(out / f"{config.subcommand}-manifest.json", manifest)
    label = verdict if verdict else ("ok" if code == 0 else "failed")
    print(f"{config.subcommand}: {label} ({len(inventory)} files in {out})")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralab",
        description="Numerical laboratory for Schrodinger operators "
                    "-Delta + V with nonnegative potentials.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "spectrum": "eigenvalues across a growing-box schedule",
        "sublevel": "Monte Carlo measure of a sublevel set in a ball",
        "thinness": "partial integrals of the local-measure power",
        "inequalities": "seeded semigroup inequality batch",
        "heat-diagnostics": "Hilbert-Schmidt diagnostics of the masked heat kernel",
        "kernel-power": "pointwise and HS bounds for powers of the proximity kernel",
    }
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=descriptions[name])
        sub.add_argument("--config", default=None,
                         help="flat key = value config file")
        sub.add_argument("--potential", default=None,
                         help="potential expression, e.g. 'x1^2 * x2^2'")
        sub.add_argument("--nu", type=int, default=None,
                         help="space dimension (1, 2, or 3)")
        sub.add_argument("--M", type=float, default=None,
                         help="sublevel height")
        sub.add_argument("--r", type=float, default=None,
                         help="thinness exponent")
        sub.add_argument("--ell", type=float, default=None,
                         help="local-measure ball radius")
        sub.add_argument("--radii", type=_float_tuple, default=None,
                         help="comma-separated radii, e.g. 10,20,40,80")
        sub.add_argument("--L", type=_float_tuple, default=None,
                         help="comma-separated box half-widths")
        sub.add_argument("--h", type=float, default=None, help="grid spacing")
        sub.add_argument("--s", type=float, default=None, help="heat time")
        sub.add_argument("--R", type=float, default=None,
                         help="truncation / region radius")
        sub.add_argument("--k", type=int, default=None,
                         help="eigenvalue count (spectrum) or kernel power")
        sub.add_argument("--seed", type=int, default=None, help="master seed")
        sub.add_argument("--trials", type=int, default=None,
                         help="inequality batch size")
        sub.add_argument("--dim", type=int, default=None,
                         help="largest matrix dimension in the batch")
        sub.add_argument("--budget", type=int, default=None,
                         help="Monte Carlo sample budget")
        sub.add_argument("--max-iters", dest="max_iters", type=int,
                         default=None,
                         help="ARPACK restart cap per eigensolver run")
        sub.add_argument("--count-levels", dest="count_levels",
                         type=_float_tuple, default=None,
                         help="lambda values for the counting function")
        sub.add_argument("--mode", default=None,
                         help="heat mode: gaussian-kernel | expm-of-laplacian")
        sub.add_argument("--output-dir", dest="output_dir", default=None,
                         help=f"output directory (default ${OUTPUT_DIR_ENV} "
                              "or ./spectralab-output)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    file_values = {}
    try:
        if args.config:
            file_values = parse_config_file(args.config)
        flag_values = {key: getattr(args, key) for key in _FIELD_TYPES
                       if key != "subcommand" and hasattr(args, key)}
        config = resolve_config(args.subcommand, file_values, flag_values)
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(config)
    except ValueError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
