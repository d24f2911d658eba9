"""Serialization and plot-data tests.

Oracle routes: the json and csv standard-library parsers read back every
file we write (round-trip equality is the contract); sha256 digests are
recomputed with hashlib on the raw bytes; float cells use repr, so
float(cell) must reproduce the original to the last bit.
"""

import hashlib
import json
import math
from csv import reader as csv_reader

import numpy as np

from spectralab.kernels import BoundCheck, CompactnessDiagnostics
from spectralab.operators import SpectrumReport
from spectralab.reports import (
    RunManifest,
    _format_cell,
    emit_plot_data,
    file_digest,
    to_jsonable,
    write_eigenvalue_csv,
    write_json,
    write_manifest,
    write_summary_csv,
    write_thinness_csv,
)
from spectralab.sublevel import ThinnessReport


def small_spectrum_report(ragged=False):
    eigs = [np.array([1.0, 3.0, 5.0]), np.array([1.000001, 3.0001, 5.001])]
    if ragged:
        eigs[1] = eigs[1][:2]
    res = [np.full(v.size, 1e-12) for v in eigs]
    drift = (np.abs(eigs[1][: eigs[0][: eigs[1].size].size] - eigs[0][: eigs[1].size]),)
    return SpectrumReport(
        potential="x1^2",
        schedule=(6.0, 9.0),
        spacing=0.05,
        k=3,
        eigenvalues=tuple(eigs),
        residuals=tuple(res),
        drift=drift,
        count_levels=(),
        counting=(),
        verdict="stabilized",
        notes=(),
    )


def small_thinness_report():
    return ThinnessReport(
        r=2.0,
        ell=1.0,
        radii=(10.0, 20.0, 40.0, 80.0),
        partial_integrals=(1.0, 1.5, 1.75, 1.875),
        tail_ratios=(0.5, 0.5),
        verdict="convergent-evidence",
    )


def small_diagnostics():
    return CompactnessDiagnostics(
        singular_values=np.array([0.5, 0.25, 0.125]),
        hs_norm=0.573,
        checks=(BoundCheck("toy-bound", 1.0, 2.0, 0.0, True),),
        constants={"c": 3.0},
        note="",
    )


class TestToJsonable:
    def test_dataclass_becomes_field_dict(self):
        out = to_jsonable(BoundCheck("toy", 1.0, 2.0, 0.0, True))
        assert out == {"name": "toy", "lhs": 1.0, "rhs": 2.0, "tol": 0.0,
                       "passed": True}

    def test_arrays_and_numpy_scalars_become_native(self):
        out = to_jsonable({"a": np.array([1.0, 2.0]), "b": np.float64(0.5),
                           "c": np.int64(3), "d": np.bool_(True)})
        assert out == {"a": [1.0, 2.0], "b": 0.5, "c": 3, "d": True}
        assert type(out["b"]) is float and type(out["c"]) is int
        assert type(out["d"]) is bool

    def test_tuples_become_lists_recursively(self):
        assert to_jsonable((1, (2, 3))) == [1, [2, 3]]

    def test_nested_report_is_json_serializable(self):
        payload = to_jsonable(small_spectrum_report())
        json.dumps(payload)  # must not raise
        assert payload["eigenvalues"][0] == [1.0, 3.0, 5.0]
        assert payload["verdict"] == "stabilized"

    def test_plain_values_pass_through(self):
        for value in ("text", 7, 1.25, None, True):
            assert to_jsonable(value) == value

    def test_non_finite_floats_become_their_csv_text(self):
        # JSON has no inf or NaN: json.dumps would write Infinity and NaN
        out = to_jsonable({"a": math.inf, "b": np.array([1.5, -np.inf, np.nan]),
                           "c": (np.float64(np.nan), np.float32(np.inf), 2.5)})
        assert out == {"a": "inf", "b": [1.5, "-inf", "nan"], "c": ["nan", "inf", 2.5]}
        assert [_format_cell(v) for v in (math.inf, -math.inf, math.nan)] == \
            ["inf", "-inf", "nan"]
        json.dumps(out, allow_nan=False)  # must not raise


class TestWriteJson:
    def test_round_trip_and_trailing_newline(self, tmp_path):
        payload = {"b": [1.0, 2.5], "a": {"z": 1, "y": None}}
        path = write_json(tmp_path / "out.json", payload)
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert json.loads(raw) == payload

    def test_keys_are_sorted(self, tmp_path):
        path = write_json(tmp_path / "out.json", {"zeta": 1, "alpha": 2})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_equal_payloads_give_identical_bytes(self, tmp_path):
        rep = small_diagnostics()
        p1 = write_json(tmp_path / "a.json", rep)
        p2 = write_json(tmp_path / "b.json", rep)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dataclass_payload_accepted(self, tmp_path):
        path = write_json(tmp_path / "d.json", small_thinness_report())
        data = json.loads(path.read_text())
        assert data["verdict"] == "convergent-evidence"
        assert data["radii"] == [10.0, 20.0, 40.0, 80.0]


class TestCsvWriters:
    def test_eigenvalue_csv_columns_and_exact_floats(self, tmp_path):
        report = small_spectrum_report()
        path = write_eigenvalue_csv(tmp_path / "eig.csv", report)
        rows = list(csv_reader(path.read_text().splitlines()))
        assert rows[0] == ["L", "index", "lambda", "residual"]
        assert len(rows) == 1 + 6  # two boxes, three eigenvalues each
        assert rows[1][:2] == ["6.0", "1"]
        # repr round-trips the float exactly
        assert float(rows[1][2]) == report.eigenvalues[0][0]
        assert float(rows[4][2]) == report.eigenvalues[1][0]

    def test_eigenvalue_csv_index_is_one_based(self, tmp_path):
        path = write_eigenvalue_csv(tmp_path / "eig.csv", small_spectrum_report())
        rows = list(csv_reader(path.read_text().splitlines()))[1:]
        assert [r[1] for r in rows[:3]] == ["1", "2", "3"]

    def test_summary_csv_matches_rows(self, tmp_path):
        rows = [
            {"name": "segal-plain", "trials": 40, "min_margin": 1e-4,
             "pass_rate": 1.0},
            {"name": "golden-thompson", "trials": 40, "min_margin": 2e-4,
             "pass_rate": 0.975},
        ]
        path = write_summary_csv(tmp_path / "sum.csv", rows)
        parsed = list(csv_reader(path.read_text().splitlines()))
        assert parsed[0] == ["name", "trials", "min_margin", "pass_rate"]
        assert parsed[1][0] == "segal-plain"
        assert float(parsed[2][3]) == 0.975

    def test_thinness_csv_has_one_row_per_radius(self, tmp_path):
        path = write_thinness_csv(tmp_path / "thin.csv", small_thinness_report())
        rows = list(csv_reader(path.read_text().splitlines()))
        assert rows[0] == ["R", "partial_integral", "tail_ratio"]
        assert len(rows) == 5
        # ratios compare increments ending at radii[i + 2]
        assert rows[1][2] == "" and rows[2][2] == ""
        assert float(rows[3][2]) == 0.5 and float(rows[4][2]) == 0.5

    def test_unix_line_endings(self, tmp_path):
        path = write_summary_csv(tmp_path / "sum.csv", [])
        assert b"\r" not in path.read_bytes()


class TestPlotData:
    def test_spectrum_emits_one_series_per_index(self, tmp_path):
        files = emit_plot_data("spectrum", small_spectrum_report(), tmp_path)
        names = sorted(p.name for p in files)
        assert names == [f"spectrum-eigenvalue-{i}.dat" for i in (1, 2, 3)]
        lines = files[0].read_text().splitlines()
        assert lines[0].startswith("#")
        xs = [float(line.split()[0]) for line in lines[1:]]
        ys = [float(line.split()[1]) for line in lines[1:]]
        assert xs == [6.0, 9.0] and ys[0] == 1.0

    def test_spectrum_series_skips_missing_indices(self, tmp_path):
        files = emit_plot_data("spectrum", small_spectrum_report(ragged=True),
                               tmp_path)
        third = next(p for p in files if p.name.endswith("-3.dat"))
        lines = third.read_text().splitlines()
        assert len(lines) == 2  # header + the single box that reached index 3
        assert lines[1].split()[0] == "6.0"

    def test_thinness_series(self, tmp_path):
        files = emit_plot_data("thinness", small_thinness_report(), tmp_path)
        assert [p.name for p in files] == ["thinness-partial-integral.dat"]
        lines = files[0].read_text().splitlines()
        assert lines[0] == "# R partial_integral"
        assert len(lines) == 5
        assert all(len(line.split()) == 2 for line in lines[1:])

    def test_singular_value_series_is_one_based(self, tmp_path):
        files = emit_plot_data("heat-diagnostics", small_diagnostics(), tmp_path)
        assert files[0].name == "heat-diagnostics-singular-values.dat"
        lines = files[0].read_text().splitlines()
        assert lines[1].split() == ["1", "0.5"]
        assert lines[3].split() == ["3", "0.125"]

    def test_reports_without_series_emit_nothing(self, tmp_path):
        assert emit_plot_data("sublevel", {"value": 1.0}, tmp_path) == []
        assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_file_digest_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"spectral data")
        assert file_digest(path) == hashlib.sha256(b"spectral data").hexdigest()

    def test_manifest_round_trip(self, tmp_path):
        manifest = RunManifest(
            version="0.1.0",
            config={"seed": 3, "h": 0.1},
            master_seed=3,
            wall_clock_seconds=1.25,
            checks=({"name": "toy-bound", "passed": True},),
            verdict="stabilized",
            files=({"name": "a.json", "sha256": "00", "bytes": 2},),
        )
        path = write_manifest(tmp_path / "manifest.json", manifest)
        data = json.loads(path.read_text())
        assert data["version"] == "0.1.0"
        assert data["config"] == {"seed": 3, "h": 0.1}
        assert data["checks"][0]["passed"] is True
        assert data["files"][0]["name"] == "a.json"
        assert data["verdict"] == "stabilized"
