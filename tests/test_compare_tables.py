"""Smoke test of ``tools/compare_tables.py``, the table byte-compare harness:
its low-temperature block must reach ok ``series`` rows, which the mode
matrix alone never produces, its frequency block must reach both ok rows
and the error rows of clamped points under both frequency modes, its spectral
correlator tables must mix error rows with ok rows, and its profile block
must hold the density and spectrum tables."""

import importlib.util
import json
import os
import re

from trapgas import PhysicalParams, derive_scales

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _harness():
    spec = importlib.util.spec_from_file_location("compare_tables", os.path.join(ROOT, "tools", "compare_tables.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_low_temperature_block_reaches_ok_series_rows(tmp_path, capsys):
    harness = _harness()
    r_c = derive_scales(PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)).R_c
    records = harness.run_invocations(harness.lowt_invocations(r_c), formats=("csv",))
    assert len(records) == 81
    ok_rows = {"correlator": 0, "green": 0}
    for name, rec in records.items():
        command = name.split("-")[1]
        if command in ok_rows:
            columns, rows = harness.parse_table(rec["stdout"])
            ok_rows[command] += sum(r[columns.index("status")] == "ok" for r in rows)
    assert ok_rows["correlator"] > 0 and ok_rows["green"] > 0

    # a run compared with itself is identical
    path = tmp_path / "a.json"
    path.write_text(json.dumps(records))
    assert harness.main(["diff", str(path), str(path)]) == 0
    assert capsys.readouterr().out.startswith("81 of 81 invocations identical")


def test_spectral_block_reaches_ok_and_error_rows():
    harness = _harness()
    r_c = derive_scales(PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)).R_c
    records = harness.run_invocations(harness.spectral_invocations(r_c), formats=("csv",))
    assert len(records) == 6
    statuses = []
    for rec in records.values():
        assert rec["code"] == 0
        columns, rows = harness.parse_table(rec["stdout"])
        statuses += [r[columns.index("status")] for r in rows]
    # the clamp grid: 8 ok rows a frequency under trapped-spectral, 7 under the oracle, which also
    # refuses the point beyond its coarse nodes' span; 16 and 15 of 17 at each of the mixed 7
    assert statuses.count("ok") == 2 * 5 * 81 + 16 + 14 + 7 * 16 + 7 * 15
    assert sum(s.startswith("DomainError") for s in statuses) == 2 + 4 + 7 + 7 * 2


def test_spectral_error_block_mixes_error_rows_with_ok_rows():
    harness = _harness()
    r_c = derive_scales(PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)).R_c
    records = harness.run_invocations(harness.spectral_error_invocations(r_c), formats=("csv",))
    assert len(records) == 6
    statuses = {}
    for name, rec in records.items():
        columns, rows = harness.parse_table(rec["stdout"])
        statuses[name.split("/")[0].removeprefix("spectral-errors-")] = [r[columns.index("status")] for r in rows]
    assert statuses["correlator-edge"][:8] == ["ok"] * 8
    assert statuses["correlator-edge"][8].startswith("DomainError: |x|/R_c = 1 exceeds the boundary clamp")
    # at tol = 1e-15 the first pair needs 330 frequencies, beyond the cap of 256, and every other
    # pair's first density bound is refused
    assert statuses["correlator-tol1e-15"][0].startswith("AccuracyError: matsubara_assemble needs 330 terms to bound")
    assert all(s.startswith("AccuracyError: spectral density at omega = ") for s in statuses["correlator-tol1e-15"][1:])
    assert len(statuses["correlator-tol1e-15"]) == 9
    assert statuses["correlator-beta1e-4"][:8] == ["ok"] * 8
    assert re.match(r"AccuracyError: Gamma = .* underflows", statuses["correlator-beta1e-4"][8])
    assert records["spectral-errors-exponent-edge/csv"]["stderr"].startswith(
        "exponent: 1 of 9 rows left out of the fit (first: DomainError")
    assert records["spectral-errors-exponent-tol1e-15/csv"]["code"] == 2


def test_profile_block_holds_density_and_spectrum_tables():
    harness = _harness()
    r_c = derive_scales(PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)).R_c
    records = harness.run_invocations(harness.profile_invocations(r_c))
    assert len(records) == 6
    tables = {}
    for name, rec in records.items():
        assert rec["code"] == 0 and rec["stderr"] == ""
        tables[name] = harness.parse_table(rec["stdout"])
    for fmt in harness.FORMATS:
        columns, rows = tables[f"profile-density-default/{fmt}"]
        assert columns == ["x", "rho_tf"] and len(rows) == 41 and all(r[1] > 0 for r in rows)
        columns, rows = tables[f"profile-density-wide/{fmt}"]
        assert len(rows) == 25 and rows[0][1] == rows[-1][1] == 0.0
        columns, rows = tables[f"profile-spectrum-levels30/{fmt}"]
        assert columns == ["n", "E_n", "dE", "dE_expansion", "status"] and len(rows) == 30
        assert [r[4] for r in rows].count("ok") == 28


def test_diff_reports_metadata_changes_of_csv_and_json_tables(tmp_path, capsys):
    # the same body under metadata that lost a line, in both formats, and one
    # json table whose body changed too: the first two differ in metadata
    # only, and every one of the three reports its metadata change
    harness = _harness()
    meta, fewer = ["trapgas 0.1.0", "truncation.n0 = 20", "truncation.tol = 1e-12"], ["trapgas 0.1.0",
                                                                                       "truncation.tol = 1e-12"]

    def record(fmt, lines, value):
        if fmt == "csv":
            stdout = "".join(f"# {line}\n" for line in lines) + f"x,G_re\n0.5,{value}\n"
        else:
            stdout = json.dumps({"meta": lines, "columns": ["x", "G_re"], "rows": [[0.5, value]]}, indent=1) + "\n"
        return {"code": 0, "stdout": stdout, "stderr": ""}

    parent = {"t/csv": record("csv", meta, 1.0), "t/json": record("json", meta, 1.0),
              "u/json": record("json", meta, 1.0)}
    change = {"t/csv": record("csv", fewer, 1.0), "t/json": record("json", fewer, 1.0),
              "u/json": record("json", fewer, 1.5)}
    paths = []
    for name, records in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(records))
    assert harness.main(["diff", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 of 3 invocations identical",
        "2 of 3 differing invocations differ in metadata only",
        "t/csv: metadata",
        "t/json: metadata",
        "u/json: G_re 0.33, metadata",
        "largest relative change per column: G_re 0.333",
    ]


def test_diff_prints_each_validate_figure(tmp_path, capsys):
    # the validate records of A and B: a figure bitwise equal, one moved by an ulp, and a check only
    # B holds, each with its passed on both sides, after the summary of the differing invocation
    harness = _harness()

    def record(checks):
        report = {"version": "0.1.0", "all_passed": True,
                  "checks": [{"name": name, "value": value, "tol": 1.0, "passed": passed, "detail": ""}
                             for name, value, passed in checks]}
        return {"validate": {"code": 0, "stdout": json.dumps(report, indent=1) + "\n", "stderr": ""}}

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(record([("01-a", 0.5, True), ("02-b", 1e-3, True)])))
    paths[1].write_text(json.dumps(record([("01-a", 0.5, True), ("02-b", 1.0000000000000002e-3, False),
                                           ("03-c", None, False)])))
    assert harness.main(["diff", *map(str, paths)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["0 of 1 invocations identical", "0 of 1 differing invocations differ in metadata only",
                       "validate: value 2.2e-16, passed text x1, rows 2 -> 3",
                       "largest relative change per column: value 2.17e-16"]
    assert [line.split() for line in out[4:]] == [
        ["check", "A", "figure", "B", "figure", "bitwise", "passed", "(A/B)"],
        ["01-a", "0.5", "0.5", "True", "True/True"],
        ["02-b", "0.001", "0.0010000000000000002", "False", "True/False"],
        ["03-c", "-", "None", "False", "-/False"],
    ]
