"""End-to-end CLI tests.

Oracle routes: every emitted file is read back with the stdlib json/csv
parsers; manifests are cross-checked by recomputing sha256 digests of the
listed files; reproducibility is asserted at the byte level by running the
same configuration twice; exit codes are pinned (0 findings, 1 failed
check, 2 usage, configuration and mid-run numerical errors).  Library results (measure, thinness) re-run through
the Python API with the same seed must match the CLI output exactly.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectralab.cli import (
    build_parser,
    main,
    parse_config_file,
    resolve_config,
    smallest_admissible_power,
)
from spectralab.potentials import parse_potential
from spectralab.sublevel import Region, measure, thinness

WELL = "x1^2 + x2^2"
README = Path(__file__).resolve().parents[1] / "README.md"

# The run fields each subcommand reads: its flags, config keys and manifest
# `config` entries (besides "subcommand").
USED_FIELDS = {
    "spectrum": {"potential", "nu", "L", "h", "k", "seed", "max_iters",
                 "count_levels", "output_dir"},
    "sublevel": {"potential", "nu", "M", "R", "budget", "seed", "output_dir"},
    "thinness": {"potential", "nu", "M", "r", "ell", "radii", "budget", "seed",
                 "output_dir"},
    "inequalities": {"trials", "dim", "seed", "output_dir"},
    "heat-diagnostics": {"potential", "nu", "L", "h", "M", "s", "mode", "seed",
                         "output_dir"},
    "kernel-power": {"potential", "nu", "L", "h", "M", "R", "k", "r", "seed",
                     "output_dir"},
}
ALL_FIELDS = set().union(*USED_FIELDS.values())

# Inputs that parse but cannot run: each is a configuration error.
INVALID_CONFIGS = (
    ("thinness", "--potential", "x1^2", "--radii", "10,20"),
    ("sublevel", "--potential", WELL, "--seed", "-3"),
    ("heat-diagnostics", "--potential", WELL, "--mode", "bogus"),
    ("spectrum", "--potential", "x1^2", "--nu", "1", "--L", "6,8", "--k", "31"),
    ("spectrum", "--potential", "x1^2", "--nu", "1", "--L", "4,3"),
    ("heat-diagnostics", "--potential", WELL, "--L", "0.1", "--h", "0.5"),
    ("thinness", "--potential", "x1^2", "--r", "-1"),
    ("kernel-power", "--potential", WELL, "--r", "-3"),
    ("spectrum", "--potential", "x1^2", "--nu", "1", "--L", "0.5,1", "--h", "0.5"),
    ("heat-diagnostics", "--potential", WELL, "--L", "25", "--h", "0.1"),
    ("heat-diagnostics", "--potential", WELL, "--L", "4,5"),
    ("kernel-power", "--potential", WELL, "--L", "4,5"),
    ("sublevel", "--potential", WELL, "--budget", "999"),
    # non-finite numbers, in flags, tuple entries and a grid ratio 2L/h
    ("kernel-power", "--potential", "x1^2*x2^2", "--M", "1", "--R", "1",
     "--L", "2", "--h", "0.25", "--r", "inf"),
    ("spectrum", "--potential", WELL, "--nu", "2", "--L", "3,inf", "--h", "0.25",
     "--k", "3"),
    ("spectrum", "--potential", WELL, "--nu", "2", "--L", "1e308,1.5e308",
     "--h", "0.1"),
    ("spectrum", "--potential", WELL, "--nu", "2", "--L", "3,4", "--h", "0.25",
     "--count-levels", "nan"),
    ("spectrum", "--potential", WELL, "--nu", "2", "--L", "3,4", "--h", "0.25",
     "--count-levels", "inf"),
    ("thinness", "--potential", "x1^2", "--nu", "2", "--radii", "10,20,nan",
     "--budget", "2000"),
    ("thinness", "--potential", "x1^2", "--nu", "2", "--radii", "10,20,inf",
     "--budget", "2000"),
    ("kernel-power", "--potential", "x1^2*x2^2", "--M", "1", "--R", "inf",
     "--L", "2", "--h", "0.25"),
    ("heat-diagnostics", "--potential", WELL, "--M", "1", "--L", "2",
     "--h", "0.25", "--s", "inf"),
    # an inertia count on a box whose sparse factor exceeds the point cap
    ("spectrum", "--potential", "x1^2+x2^2+x3^2", "--nu", "3", "--L", "1,2",
     "--h", "0.1", "--count-levels", "5"),
    # kernel powers above kernels.MAX_KERNEL_POWER, given or derived from r
    ("kernel-power", "--potential", "x1^2*x2^2", "--M", "1", "--R", "1",
     "--L", "2", "--h", "0.25", "--r", "1e7"),
    ("kernel-power", "--potential", "x1^2*x2^2", "--M", "1", "--R", "1",
     "--L", "2", "--h", "0.25", "--k", "2000"),
)


def flag(name):
    return "--" + name.replace("_", "-")


def run_cli(*args):
    return main(list(args))


def run_cli_process(*args, **env):
    """Run the CLI in a fresh interpreter with extra environment variables."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "spectralab.cli", *args],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=300)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestConfigFile:
    def test_parses_typed_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "\n"
            "potential = x1^2\n"
            "nu = 1\n"
            "radii = 10, 20, 40\n"
            "h = 0.25\n"
            "seed = 9\n"
        )
        values = parse_config_file(cfg)
        assert values == {"potential": "x1^2", "nu": 1,
                          "radii": (10.0, 20.0, 40.0), "h": 0.25, "seed": 9}

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = 2\nwavelength = 7\n")
        with pytest.raises(ValueError, match="line 2.*wavelength"):
            parse_config_file(cfg)

    def test_non_finite_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for line in ("M = nan", "radii = 10, 20, -inf"):
            cfg.write_text(line + "\n")
            with pytest.raises(ValueError, match="line 1: .*not a finite number"):
                parse_config_file(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(cfg)

    def test_bad_value_type_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu = two\n")
        with pytest.raises(ValueError, match="bad value for 'nu'"):
            parse_config_file(cfg)


class TestResolveConfig:
    def test_flags_override_file_values(self):
        config = resolve_config("sublevel",
                                {"potential": WELL, "seed": 4, "M": 2.0},
                                {"seed": 8, "output_dir": "out"})
        assert config.seed == 8
        assert config.M == 2.0
        assert config.potential == WELL

    def test_env_var_sets_default_output_dir(self, monkeypatch):
        monkeypatch.setenv("SPECTRALAB_OUTPUT_DIR", "/tmp/from-env")
        config = resolve_config("sublevel", {"potential": WELL}, {})
        assert config.output_dir == "/tmp/from-env"
        monkeypatch.delenv("SPECTRALAB_OUTPUT_DIR")
        config = resolve_config("sublevel", {"potential": WELL}, {})
        assert config.output_dir == "spectralab-output"

    def test_spectrum_defaults_k_to_five(self):
        config = resolve_config("spectrum",
                                {"potential": WELL, "L": (6.0, 8.0)}, {})
        assert config.k == 5

    def test_kernel_power_defaults_k_to_smallest_admissible(self):
        config = resolve_config("kernel-power",
                                {"potential": WELL, "r": 2.0}, {})
        assert config.k == 3
        assert 2 * config.k - 2 > config.r

    def test_smallest_admissible_power_values(self):
        for r, expected in ((1.0, 2), (2.0, 3), (3.0, 3), (4.0, 4), (5.5, 4)):
            k = smallest_admissible_power(r)
            assert k == expected
            assert 2 * k - 2 > r
            assert 2 * (k - 1) - 2 <= r

    def test_validation_failures(self):
        with pytest.raises(ValueError, match="two box sizes"):
            resolve_config("spectrum", {"potential": WELL, "L": (8.0,)}, {})
        with pytest.raises(ValueError, match="requires --potential"):
            resolve_config("thinness", {}, {})
        with pytest.raises(ValueError, match="nu"):
            resolve_config("sublevel", {"potential": WELL, "nu": 4}, {})
        with pytest.raises(ValueError, match="M must be"):
            resolve_config("sublevel", {"potential": WELL, "M": 0.0}, {})
        with pytest.raises(ValueError):
            resolve_config("sublevel", {"potential": "x9^2"}, {})
        with pytest.raises(ValueError, match="at least three"):
            resolve_config("thinness", {"potential": WELL, "radii": (10.0, 20.0)}, {})
        with pytest.raises(ValueError, match="seed must be"):
            resolve_config("sublevel", {"potential": WELL, "seed": -3}, {})


class TestExitCodes:
    def test_usage_error_is_two(self):
        assert run_cli() == 2
        assert run_cli("no-such-subcommand") == 2

    def test_config_error_is_two(self, tmp_path):
        assert run_cli("sublevel", "--output-dir", str(tmp_path)) == 2
        assert run_cli("spectrum", "--potential", "x1^2", "--nu", "1",
                       "--L", "8", "--output-dir", str(tmp_path)) == 2
        assert run_cli("sublevel", "--potential", "x1^(", "--nu", "1",
                       "--output-dir", str(tmp_path)) == 2

    def test_invalid_config_creates_no_output_dir(self, tmp_path, capsys):
        for i, args in enumerate(INVALID_CONFIGS):
            out = tmp_path / f"case-{i}"
            assert run_cli(*args, "--output-dir", str(out)) == 2, args
            assert "configuration error" in capsys.readouterr().err, args
            assert not out.exists(), args

    def test_non_finite_potential_is_two_without_traceback(self, tmp_path):
        proc = run_cli_process("spectrum", "--potential", "exp(x1^2)", "--nu", "1",
                               "--L", "30,40", "--h", "0.1",
                               "--output-dir", str(tmp_path))
        assert proc.returncode == 2
        assert "potential 'exp(x1^2)' is non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_mid_run_failure_is_labelled_and_leaves_no_directory(self, tmp_path,
                                                                 capsys):
        # the configuration is valid; the potential overflows on the grid
        out = tmp_path / "new" / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = run_cli("spectrum", "--potential", "exp(x1^2)", "--nu", "1",
                           "--L", "30,40", "--h", "0.1", "--output-dir", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: potential 'exp(x1^2)' is non-finite")
        assert "configuration error" not in err
        assert not (tmp_path / "new").exists()

    def test_failed_run_keeps_an_existing_directory(self, tmp_path):
        keep = tmp_path / "keep.txt"
        keep.write_text("x")
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run_cli("spectrum", "--potential", "exp(x1^2)", "--nu", "1",
                           "--L", "30,40", "--h", "0.1",
                           "--output-dir", str(tmp_path)) == 2
        assert sorted(tmp_path.iterdir()) == [keep]

    def test_overflowing_potential_runs_outside_the_spectrum(self, tmp_path):
        # exp(x1^2) overflows to +inf past |x1| ~ 26.6, inside the default
        # radii; such points lie outside every sublevel set.
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = run_cli("thinness", "--potential", "exp(x1^2) - 1", "--nu", "2",
                           "--M", "1", "--r", "1", "--budget", "2000",
                           "--output-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "thinness-report.json")
        assert report["radii"][-1] > 27.0

    def test_potential_may_start_with_unary_minus(self, tmp_path):
        args = ("--nu", "2", "--L", "3,4", "--h", "0.2")
        joined, spaced = tmp_path / "joined", tmp_path / "spaced"
        assert run_cli("spectrum", "--potential=-(-x1^2)+x2^2", *args,
                       "--output-dir", str(joined)) == 0
        assert run_cli("spectrum", "--potential", "-(-x1^2)+x2^2", *args,
                       "--output-dir", str(spaced)) == 0
        name = "spectrum-report.json"
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()
        # a flag after --potential is still a flag, not its value
        out = tmp_path / "missing"
        assert run_cli("spectrum", "--potential", "--nu", "2",
                       "--output-dir", str(out)) == 2
        assert not out.exists()

    def test_kernel_power_guard_is_two(self, tmp_path, capsys):
        code = run_cli("kernel-power", "--potential", WELL, "--M", "1",
                       "--R", "1", "--r", "2", "--k", "2",
                       "--L", "2", "--h", "0.5", "--output-dir", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "2k - 2 > r" in err and "3" in err

    def test_missing_config_file_is_two(self, tmp_path):
        assert run_cli("sublevel", "--config", str(tmp_path / "absent.cfg")) == 2

    def test_verdicts_exit_zero(self, tmp_path):
        code = run_cli("thinness", "--potential", "x1^2", "--nu", "2",
                       "--M", "1", "--r", "2", "--radii", "4,8,16",
                       "--budget", "8000", "--seed", "2",
                       "--output-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "thinness-report.json")
        assert report["verdict"] in ("convergent-evidence",
                                     "divergent-evidence", "inconclusive")


class TestFieldTable:
    @pytest.mark.parametrize("subcommand", sorted(USED_FIELDS))
    def test_help_lists_exactly_the_fields_read(self, subcommand, capsys):
        assert run_cli(subcommand, "--help") == 0
        text = capsys.readouterr().out
        listed = set(re.findall(r"^  (?:-h, )?(--[\w-]+)", text, re.M))
        expected = {flag(name) for name in USED_FIELDS[subcommand]}
        assert listed == expected | {"--help", "--config"}

    @pytest.mark.parametrize("subcommand", sorted(USED_FIELDS))
    def test_unused_flag_is_a_usage_error(self, subcommand, tmp_path, capsys):
        for name in sorted(ALL_FIELDS - USED_FIELDS[subcommand]):
            out = tmp_path / name
            assert run_cli(subcommand, flag(name), "1",
                           "--output-dir", str(out)) == 2, name
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists(), name

    @pytest.mark.parametrize("subcommand", sorted(USED_FIELDS))
    def test_unused_config_key_is_a_configuration_error(self, subcommand,
                                                        tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for name in sorted(ALL_FIELDS - USED_FIELDS[subcommand]):
            cfg.write_text(f"{name} = 1\n")
            out = tmp_path / name
            assert run_cli(subcommand, "--config", str(cfg),
                           "--output-dir", str(out)) == 2, name
            err = capsys.readouterr().err
            assert err == (f"configuration error: {name} is not used by "
                           f"{subcommand}\n")
            assert not out.exists(), name

    def test_flags_are_not_abbreviated(self, tmp_path):
        # "--s" would otherwise stand for --seed, which sublevel reads
        out = tmp_path / "out"
        assert run_cli("sublevel", "--potential", WELL, "--s", "3",
                       "--output-dir", str(out)) == 2
        assert not out.exists()

    def test_readme_commands_resolve(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
        lines = [line for line in block.split("```", 1)[0].splitlines()
                 if line.startswith("spectralab ")]
        seen = set()
        for line in lines:
            flags = vars(build_parser().parse_args(shlex.split(line)[1:]))
            subcommand = flags.pop("subcommand")
            flags.pop("config")
            resolve_config(subcommand, {}, flags)
            seen.add(subcommand)
        assert seen == set(USED_FIELDS)


class TestSublevelRun:
    def test_matches_library_call(self, tmp_path):
        code = run_cli("sublevel", "--potential", WELL, "--nu", "2",
                       "--M", "4", "--R", "3", "--budget", "20000",
                       "--seed", "11", "--output-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "sublevel-report.json")
        expected = measure(parse_potential(WELL, 2), 4.0,
                           Region((0.0, 0.0), 3.0),
                           method="monte-carlo", budget=20000, seed=11)
        assert report["estimate"]["value"] == expected.value
        assert report["estimate"]["std_error"] == expected.std_error
        assert report["M"] == 4.0

    def test_budget_minimum_is_a_configuration_error(self, tmp_path, capsys):
        args = ("sublevel", "--potential", WELL, "--nu", "2", "--R", "3")
        assert run_cli(*args, "--budget", "999",
                       "--output-dir", str(tmp_path / "low")) == 2
        assert "budget must be >= 1000" in capsys.readouterr().err
        assert run_cli(*args, "--budget", "1000",
                       "--output-dir", str(tmp_path / "min")) == 0


class TestThinnessRun:
    def test_outputs_and_manifest_inventory(self, tmp_path):
        code = run_cli("thinness", "--potential", WELL, "--nu", "2",
                       "--M", "2", "--r", "2", "--radii", "2,4,8,16",
                       "--budget", "10000", "--seed", "5",
                       "--output-dir", str(tmp_path))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["thinness-manifest.json",
                         "thinness-partial-integral.dat",
                         "thinness-partial-integrals.csv",
                         "thinness-report.json"]
        manifest = read_json(tmp_path / "thinness-manifest.json")
        listed = {f["name"] for f in manifest["files"]}
        assert listed == set(names) - {"thinness-manifest.json"}
        for entry in manifest["files"]:
            blob = (tmp_path / entry["name"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]

    def test_matches_library_call(self, tmp_path):
        run_cli("thinness", "--potential", WELL, "--nu", "2", "--M", "2",
                "--r", "2", "--radii", "2,4,8", "--budget", "10000",
                "--seed", "5", "--output-dir", str(tmp_path))
        report = read_json(tmp_path / "thinness-report.json")
        expected = thinness(parse_potential(WELL, 2), 2.0, 2.0, 1.0,
                            (2.0, 4.0, 8.0), budget=10000, seed=5)
        assert tuple(report["partial_integrals"]) == expected.partial_integrals
        assert report["verdict"] == expected.verdict


class TestInequalitiesRun:
    def test_pass_run_and_summary(self, tmp_path):
        code = run_cli("inequalities", "--trials", "25", "--dim", "5",
                       "--seed", "7", "--output-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "inequalities-report.json")
        assert report["trials"] == 25
        assert report["dimensions"] == [2, 3, 4, 5]
        assert report["failures"] == []
        assert all(row["pass_rate"] == 1.0 for row in report["summary"])
        manifest = read_json(tmp_path / "inequalities-manifest.json")
        assert all(c["passed"] for c in manifest["checks"])
        text = (tmp_path / "inequalities-summary.csv").read_text()
        assert text.splitlines()[0] == "name,trials,min_margin,pass_rate"


class TestSpectrumRun:
    def test_oscillator_stabilizes(self, tmp_path):
        code = run_cli("spectrum", "--potential", "x1^2", "--nu", "1",
                       "--L", "6,9", "--h", "0.05", "--k", "3",
                       "--count-levels", "2,6", "--seed", "0",
                       "--output-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "spectrum-report.json")
        assert report["stabilized"] is True
        assert report["verdict"] == "stabilized"
        final = report["eigenvalues"][-1]
        assert abs(final[0] - 1.0) < 0.01
        assert abs(final[1] - 3.0) < 0.01
        # counting below 2 sees only lambda_1; below 6 sees 1, 3, 5
        assert report["counting"] == [[1, 3], [1, 3]]
        names = {p.name for p in tmp_path.iterdir()}
        assert {"spectrum-report.json", "spectrum-eigenvalues.csv",
                "spectrum-manifest.json", "spectrum-eigenvalue-1.dat",
                "spectrum-eigenvalue-3.dat"} <= names

    def test_counting_is_exact_beyond_k(self, tmp_path):
        # the grid oscillator has 6 eigenvalues below 7 (2, 4, 4, 6, 6, 6
        # up to discretization); k = 3 computes only the first three
        code = run_cli("spectrum", "--potential", "x1^2+x2^2", "--nu", "2",
                       "--L", "4,5", "--h", "0.1", "--k", "3",
                       "--count-levels", "7", "--output-dir", str(tmp_path))
        assert code == 0
        assert read_json(tmp_path / "spectrum-report.json")["counting"] == [[6], [6]]

    def test_count_level_on_an_eigenvalue_is_a_run_failure(self, tmp_path, capsys):
        # the L = 1, h = 1 box is two points with eigenvalues 1 and 3 exactly
        out = tmp_path / "out"
        code = run_cli("spectrum", "--potential", "0", "--nu", "1", "--L", "1,2",
                       "--h", "1", "--k", "1", "--count-levels", "1",
                       "--output-dir", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: L=1: no inertia count at level 1")
        assert not out.exists()

    def test_eigenvalue_csv_consistent_with_json(self, tmp_path):
        run_cli("spectrum", "--potential", "x1^2", "--nu", "1",
                "--L", "5,7", "--h", "0.1", "--k", "2", "--seed", "0",
                "--output-dir", str(tmp_path))
        report = read_json(tmp_path / "spectrum-report.json")
        rows = (tmp_path / "spectrum-eigenvalues.csv").read_text().splitlines()
        assert rows[0] == "L,index,lambda,residual"
        first = rows[1].split(",")
        assert float(first[0]) == 5.0 and first[1] == "1"
        assert float(first[2]) == report["eigenvalues"][0][0]


class TestHeatDiagnosticsRun:
    def test_well_potential_passes(self, tmp_path):
        code = run_cli("heat-diagnostics", "--potential", WELL, "--nu", "2",
                       "--M", "1", "--L", "2", "--h", "0.25", "--s", "1",
                       "--output-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "heat-diagnostics-report.json")
        assert all(c["passed"] for c in report["checks"])
        assert report["hs_norm"] > 0
        lines = (tmp_path / "heat-diagnostics-singular-values.dat").read_text()
        assert lines.splitlines()[0] == "# n mu_n"

    def test_expm_mode_passes_its_domination_check(self, tmp_path):
        # near the diagonal the Dirichlet kernel exceeds the Gaussian; it is
        # checked against the infinite-lattice kernel instead
        code = run_cli("heat-diagnostics", "--potential", "x1^2*x2^2", "--nu", "2",
                       "--M", "1", "--L", "4", "--h", "0.1",
                       "--mode", "expm-of-laplacian", "--output-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "heat-diagnostics-report.json")
        domination = report["checks"][0]
        assert domination["name"] == "pointwise-domination"
        assert domination["lhs"] <= domination["tol"]


class TestKernelPowerRun:
    def test_well_potential_passes(self, tmp_path):
        code = run_cli("kernel-power", "--potential", WELL, "--nu", "2",
                       "--M", "1", "--R", "1", "--r", "2",
                       "--L", "2", "--h", "0.25",
                       "--output-dir", str(tmp_path))
        assert code == 0
        report = read_json(tmp_path / "kernel-power-report.json")
        check_names = [c["name"] for c in report["checks"]]
        assert "pointwise-power-bound" in check_names
        assert all(c["passed"] for c in report["checks"])


class TestReproducibility:
    def test_same_seed_same_bytes(self, tmp_path):
        args = ("thinness", "--potential", WELL, "--nu", "2", "--M", "2",
                "--r", "2", "--radii", "2,4,8", "--budget", "10000",
                "--seed", "5")
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--output-dir", str(dir_a)) == 0
        assert run_cli(*args, "--output-dir", str(dir_b)) == 0
        payloads = [p.name for p in dir_a.iterdir()
                    if p.name != "thinness-manifest.json"]
        assert payloads
        for name in payloads:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        man_a = read_json(dir_a / "thinness-manifest.json")
        man_b = read_json(dir_b / "thinness-manifest.json")
        man_a["config"].pop("output_dir")
        man_b["config"].pop("output_dir")
        differing = {k for k in man_a if man_a[k] != man_b[k]}
        assert differing <= {"wall_clock_seconds"}

    def test_spectrum_payload_same_bytes_across_blas_threads(self, tmp_path):
        runs = (
            ("spectrum", "--potential", "x1^2*x2^2", "--nu", "2",
             "--L", "3,4", "--h", "0.1", "--k", "5", "--seed", "0"),
            ("thinness", "--potential", "x1^2*x2^2", "--nu", "2", "--M", "1",
             "--r", "2", "--radii", "5,10,20", "--budget", "20000", "--seed", "0"),
            ("sublevel", "--potential", "x1^2+x2^2", "--nu", "2", "--M", "4",
             "--R", "3", "--budget", "20000", "--seed", "0"),
            ("inequalities", "--trials", "50", "--dim", "6", "--seed", "0"),
        )
        for args in runs:
            payloads = []
            for threads in ("1", "2"):
                out = tmp_path / f"{args[0]}-threads-{threads}"
                proc = run_cli_process(*args, "--output-dir", str(out),
                                       OPENBLAS_NUM_THREADS=threads)
                assert proc.returncode == 0, proc.stderr
                # every file but the manifest, which records timings
                payloads.append({p.name: p.read_bytes() for p in out.iterdir()
                                 if not p.name.endswith("-manifest.json")})
            assert payloads[0] and payloads[0] == payloads[1], args[0]

    def test_kernel_payloads_across_blas_threads(self, tmp_path):
        # Only the singular values differ between thread counts, at roundoff
        # (at most 2.0e-16 sigma_max on these runs); every other key and every
        # check outcome is identical.
        common = ("--potential", "x1^2*x2^2", "--nu", "2", "--M", "1",
                  "--L", "3", "--h", "0.2")
        runs = (("heat-diagnostics", "--mode", "gaussian-kernel", *common),
                ("heat-diagnostics", "--mode", "expm-of-laplacian", *common),
                ("kernel-power", *common))
        for i, args in enumerate(runs):
            results = []
            for threads in ("1", "2"):
                out = tmp_path / f"{i}-threads-{threads}"
                proc = run_cli_process(*args, "--output-dir", str(out),
                                       OPENBLAS_NUM_THREADS=threads)
                report = read_json(out / f"{args[0]}-report.json")
                manifest = read_json(out / f"{args[0]}-manifest.json")
                results.append((proc.returncode, manifest["checks"], report))
            (code_a, checks_a, a), (code_b, checks_b, b) = results
            assert code_a == code_b == 0 and checks_a == checks_b, args
            mu_a = np.asarray(a.pop("singular_values"))
            mu_b = np.asarray(b.pop("singular_values"))
            assert mu_a.size and mu_a.shape == mu_b.shape, args
            assert np.max(np.abs(mu_a - mu_b)) <= 1e-15 * mu_a[0], args
            assert a == b, args

    def test_manifest_config_reruns_to_same_results(self, tmp_path):
        runs = (
            ("sublevel", "--potential", WELL, "--nu", "2", "--M", "4",
             "--R", "3", "--budget", "15000", "--seed", "21"),
            ("thinness", "--potential", WELL, "--nu", "2", "--M", "2",
             "--r", "2", "--radii", "2,4,8", "--budget", "10000", "--seed", "5"),
        )
        for args in runs:
            sub = args[0]
            first, second = tmp_path / f"{sub}-first", tmp_path / f"{sub}-second"
            assert run_cli(*args, "--output-dir", str(first)) == 0
            config = read_json(first / f"{sub}-manifest.json")["config"]
            assert set(config) == USED_FIELDS[sub] | {"subcommand"}
            lines = []
            for key, value in config.items():
                if key in ("subcommand", "output_dir"):
                    continue
                if isinstance(value, list):
                    value = ",".join(str(v) for v in value)
                lines.append(f"{key} = {value}")
            cfg_path = tmp_path / f"{sub}-replay.cfg"
            cfg_path.write_text("\n".join(lines) + "\n")
            assert run_cli(config["subcommand"], "--config", str(cfg_path),
                           "--output-dir", str(second)) == 0
            assert (first / f"{sub}-report.json").read_bytes() == \
                (second / f"{sub}-report.json").read_bytes()
