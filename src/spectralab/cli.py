"""Command-line surface: configuration, orchestration, result persistence.

Every run field is declared once, as a RunConfig field whose metadata holds
its parser, help text, bound and the subcommands that read it.  That table
generates each subcommand's flags (only the fields it reads), the check of
config-file keys, the bound checks and the manifest's `config` object.

A run resolves its configuration from the defaults, then an optional flat
key = value config file, then command-line flags (flags win), validates it
fully before any computation, and writes a JSON report, CSV tables,
two-column .dat plot series, and a manifest with content digests into the
output directory.  Validation calls the library's own input rules
(operators.check_spectrum_inputs, sublevel.check_radii,
sublevel.check_ball_volume, sublevel.check_monte_carlo_budget and
kernels.check_kernel_power), so a run refuses what a library call would,
and refuses an output directory that is, or lies under, a file.

Exit codes: 0 when all enabled checks pass (verdicts such as
"not-stabilized" or "divergent-evidence" are findings, not failures),
1 when a mathematical check fails (the failing check is named on stderr),
2 on usage or configuration errors ("configuration error: ...", including a
flag or config key that the subcommand does not read) and on numerical
failures found during the run ("run failed: ..."); a failed run removes the
output directory again if it created it.  Each runner returns its
manifest check records and a description of its first failed check;
execute alone turns that description into the exit code 1 and the one
"FAILED check: ..." line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from .inequalities import batch_summary, inequality_batch
from .kernels import (
    HEAT_MODES,
    check_kernel_power,
    d_kernel,
    heat_matrix,
    hs_diagnostics,
    kernel_power_bound,
)
from .operators import Grid, check_spectrum_inputs, potential_on_grid, spectrum_study
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
from .sublevel import (
    Region,
    check_ball_volume,
    check_monte_carlo_budget,
    check_radii,
    measure,
    thinness,
)

OUTPUT_DIR_ENV = "SPECTRALAB_OUTPUT_DIR"
SUBCOMMANDS = {
    "spectrum": "eigenvalues across a growing-box schedule",
    "sublevel": "Monte Carlo measure of a sublevel set in a ball",
    "thinness": "partial integrals of the local-measure power",
    "inequalities": "seeded semigroup inequality batch",
    "heat-diagnostics": "Hilbert-Schmidt diagnostics of the masked heat kernel",
    "kernel-power": "pointwise and HS bounds for powers of the proximity kernel",
}
_ALL = tuple(SUBCOMMANDS)
_POTENTIAL = tuple(name for name in SUBCOMMANDS if name != "inequalities")
_HEIGHT = ("sublevel", "thinness", "heat-diagnostics", "kernel-power")
_BOX = ("spectrum", "heat-diagnostics", "kernel-power")


def _finite_float(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _float_tuple(raw) -> tuple:
    parts = raw if isinstance(raw, tuple) else [p for p in str(raw).split(",") if p.strip()]
    return tuple(_finite_float(p) for p in parts)


def _field(default, parse, used_by, help, bound=None):
    """A run field: its default, the parser of its text, the subcommands that
    read it, help text, and a bound ("> x" or ">= x", per entry of a tuple,
    or a tuple of allowed values)."""
    return field(default=default, metadata={"parse": parse, "used_by": used_by,
                                            "help": help, "bound": bound})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved and validated inputs of one CLI run."""

    subcommand: str
    potential: str = _field(None, str, _POTENTIAL,
                            "potential expression, e.g. 'x1^2 * x2^2'")
    nu: int = _field(2, int, _POTENTIAL, "space dimension", (1, 2, 3))
    M: float = _field(1.0, _finite_float, _HEIGHT, "sublevel height", "> 0")
    r: float = _field(2.0, _finite_float, ("thinness", "kernel-power"),
                      "thinness exponent", "> 0")
    ell: float = _field(1.0, _finite_float, ("thinness",),
                        "local-measure ball radius", "> 0")
    radii: tuple = _field((10.0, 20.0, 40.0, 80.0), _float_tuple, ("thinness",),
                          "comma-separated radii, e.g. 10,20,40,80; three read "
                          "inconclusive, a verdict needs four or more")
    L: tuple = _field((4.0,), _float_tuple, _BOX,
                      "box half-width (spectrum: comma-separated schedule)", "> 0")
    h: float = _field(0.1, _finite_float, _BOX, "grid spacing", "> 0")
    s: float = _field(1.0, _finite_float, ("heat-diagnostics",), "heat time", "> 0")
    R: float = _field(1.0, _finite_float, ("sublevel", "kernel-power"),
                      "truncation / region radius", "> 0")
    k: int = _field(None, int, ("spectrum", "kernel-power"),
                    "eigenvalue count (spectrum, default 5) or kernel power "
                    "(kernel-power, default the smallest with 2k - 2 > r)", ">= 1")
    seed: int = _field(0, int, _ALL, "master seed", ">= 0")
    trials: int = _field(100, int, ("inequalities",), "inequality batch size",
                         ">= 1")
    dim: int = _field(8, int, ("inequalities",),
                      "largest matrix dimension in the batch", ">= 2")
    budget: int = _field(100_000, int, ("sublevel", "thinness"),
                         "Monte Carlo sample budget", ">= 1")
    max_iters: int = _field(600, int, ("spectrum",),
                            "ARPACK restart cap per eigensolver run", ">= 1")
    count_levels: tuple = _field((), _float_tuple, ("spectrum",),
                                 "lambda levels; counts every eigenvalue of each box "
                                 "below each level (exact for any k)")
    mode: str = _field("gaussian-kernel", str, ("heat-diagnostics",), "heat mode",
                       HEAT_MODES)
    output_dir: str = _field(None, str, _ALL,
                             f"output directory (default ${OUTPUT_DIR_ENV} "
                             "or ./spectralab-output)")


_FIELDS = {f.name: f for f in fields(RunConfig) if f.metadata}


def _used_fields(subcommand: str) -> list:
    """Names of the fields `subcommand` reads, in declaration order."""
    return [name for name, f in _FIELDS.items()
            if subcommand in f.metadata["used_by"]]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse(key: str, raw):
    """The value of field `key` from its text (or an already parsed value)."""
    try:
        return _FIELDS[key].metadata["parse"](raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None


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
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse(key, raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return values


def smallest_admissible_power(r: float) -> int:
    """Smallest integer k with 2k - 2 > r."""
    return int(math.floor((r + 2.0) / 2.0 + 1e-12)) + 1


def resolve_config(subcommand: str, file_values: dict, flag_values: dict) -> RunConfig:
    """Defaults, then file values, then flags that are set; then validation.

    Values may be text or already parsed; each goes through its field's
    parser.  A key that `subcommand` does not read is a configuration error.
    """
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    used = _used_fields(subcommand)
    values = {name: f.default for name, f in _FIELDS.items()}
    for source in (file_values, flag_values):
        for key, value in source.items():
            if value is None:
                continue
            if key not in used:
                raise ValueError(f"{key} is not used by {subcommand}")
            values[key] = _parse(key, value)
    if values["output_dir"] is None:
        values["output_dir"] = os.environ.get(OUTPUT_DIR_ENV, "spectralab-output")
    if values["k"] is None and "k" in used:
        values["k"] = 5 if subcommand == "spectrum" \
            else smallest_admissible_power(values["r"])
    config = RunConfig(subcommand, **values)
    _validate(config, used)
    return config


def _check_bound(name: str, value, bound) -> None:
    if isinstance(bound, tuple):
        if value not in bound:
            raise ValueError(f"{name} must be one of "
                             f"{', '.join(map(str, bound))}, got {value!r}")
        return
    op, limit = bound.split()
    entries = value if isinstance(value, tuple) else (value,)
    if not all(v > float(limit) if op == ">" else v >= float(limit)
               for v in entries):
        raise ValueError(f"{name} must be {bound}")


def _validate(config: RunConfig, used: list) -> None:
    sub = config.subcommand
    for name in used:
        bound = _FIELDS[name].metadata["bound"]
        if bound is not None:
            _check_bound(name, getattr(config, name), bound)
    if "potential" in used:
        if not config.potential:
            raise ValueError(f"{sub} requires --potential")
        parse_potential(config.potential, config.nu)  # fail fast on bad text
    if sub == "spectrum":
        check_spectrum_inputs(config.nu, config.L, config.h, config.k,
                              config.count_levels)
    elif "L" in used:
        if len(config.L) != 1:
            raise ValueError(f"{sub} takes exactly one box size in --L, "
                             f"got {len(config.L)}")
        Grid(config.nu, config.L[0], config.h).require_dense_budget()
    if sub == "thinness":
        check_ball_volume("radius", config.nu, check_radii(config.radii)[-1])
        check_ball_volume("ell", config.nu, config.ell)
    if sub == "sublevel":
        check_monte_carlo_budget(config.budget)
        check_ball_volume("R", config.nu, config.R)
    if sub == "kernel-power":
        if 2 * config.k - 2 <= config.r:
            raise ValueError(
                f"k = {config.k} violates 2k - 2 > r (r = {config.r:g}); "
                f"smallest admissible k is {smallest_admissible_power(config.r)}"
            )
        check_kernel_power(config.k)
        # the power bound's reach: its analytic constant is this ball's volume
        check_ball_volume("2kR", config.nu, 2.0 * config.k * config.R)
    out = Path(config.output_dir)
    if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
        raise ValueError(f"output_dir {config.output_dir!r} is a file or lies under one")


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
    return [], "", report.verdict, files


def _run_sublevel(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    region = Region((0.0,) * config.nu, config.R)
    est = measure(V, config.M, region, method="monte-carlo",
                  budget=config.budget, seed=config.seed)
    payload = {
        "potential": config.potential,
        "M": config.M,
        "region_radius": config.R,
        "estimate": to_jsonable(est),
    }
    files = [write_json(out / "sublevel-report.json", payload)]
    return [], "", "", files


def _run_thinness(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    report = thinness(V, config.M, config.r, config.ell, config.radii,
                      budget=config.budget, seed=config.seed)
    files = [write_json(out / "thinness-report.json", report),
             write_thinness_csv(out / "thinness-partial-integrals.csv", report)]
    files += emit_plot_data("thinness", report, out)
    return [], "", report.verdict, files


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
    failure = f"{failures[0].name} (inputs {failures[0].inputs})" if failures else ""
    return checks, failure, "", files


def _run_heat_diagnostics(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    grid = Grid(config.nu, config.L[0], config.h)
    mask = potential_on_grid(grid, V) < config.M
    kernel = heat_matrix(grid, config.s, config.mode)
    diag = hs_diagnostics(kernel, mask)
    files = [write_json(out / "heat-diagnostics-report.json", diag)]
    files += emit_plot_data("heat-diagnostics", diag, out)
    return *_diagnostic_checks(diag), "", files


def _run_kernel_power(config: RunConfig, out: Path):
    V = parse_potential(config.potential, config.nu)
    grid = Grid(config.nu, config.L[0], config.h)
    D = d_kernel(grid, V, config.M, config.R)
    diag = kernel_power_bound(D, config.k)
    files = [write_json(out / "kernel-power-report.json", diag)]
    files += emit_plot_data("kernel-power", diag, out)
    return *_diagnostic_checks(diag), "", files


def _diagnostic_checks(diag) -> tuple:
    """The manifest records of diag's checks and a description of the first
    that failed ("" when all passed)."""
    records = [{"name": c.name, "passed": c.passed} for c in diag.checks]
    failed = [f"{c.name} (lhs {c.lhs!r} > rhs {c.rhs!r} + tol {c.tol!r})"
              for c in diag.checks if not c.passed]
    return records, failed[0] if failed else ""


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
        checks, failure, verdict, files = _RUNNERS[config.subcommand](config, out)
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
    config_record = {"subcommand": config.subcommand}
    for name in _used_fields(config.subcommand):
        config_record[name] = to_jsonable(getattr(config, name))
    manifest = RunManifest(
        version=__version__,
        config=config_record,
        master_seed=config.seed,
        wall_clock_seconds=elapsed,
        checks=tuple(checks),
        verdict=verdict,
        files=inventory,
    )
    write_manifest(out / f"{config.subcommand}-manifest.json", manifest)
    if failure:
        print(f"FAILED check: {failure}", file=sys.stderr)
    label = verdict if verdict else ("failed" if failure else "ok")
    print(f"{config.subcommand}: {label} ({len(inventory)} files in {out})")
    return 1 if failure else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralab",
        description="Numerical laboratory for Schrodinger operators "
                    "-Delta + V with nonnegative potentials.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, description in SUBCOMMANDS.items():
        # no abbreviations: "--s" must not stand for --seed where s is unread
        sub = subparsers.add_parser(name, help=description, allow_abbrev=False)
        sub.add_argument("--config", default=None,
                         help="flat key = value config file")
        for key in _used_fields(name):
            meta = _FIELDS[key].metadata
            bound = meta["bound"]
            if isinstance(bound, tuple):
                bound = ", ".join(map(str, bound))
            sub.add_argument(_flag(key), dest=key, default=None,
                             help=f"{meta['help']} ({bound})" if bound else meta["help"])
    return parser


def _join_dash_values(argv: list) -> list:
    """`--flag <value>` as `--flag=<value>` for every flag that takes a value,
    when the value starts with "-" (a unary minus, a negative number) and is
    not a flag, which argparse would take it for."""
    takes_value = {"--config", *map(_flag, _FIELDS)}
    out = []
    for arg in argv:
        if (out and out[-1] in takes_value and arg.startswith("-")
                and arg.split("=")[0] not in {"-h", "--help", *takes_value}):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_dash_values(sys.argv[1:] if argv is None else list(argv))
    try:
        flag_values = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    subcommand = flag_values.pop("subcommand")
    config_path = flag_values.pop("config")
    try:
        file_values = parse_config_file(config_path) if config_path else {}
        config = resolve_config(subcommand, file_values, flag_values)
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
