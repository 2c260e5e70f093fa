"""Byte-compare the CLI tables of two trapgas trees.

Usage, from anywhere:

    python3 tools/compare_tables.py run TREE OUT.json
    python3 tools/compare_tables.py diff A.json B.json

``run`` imports trapgas from TREE (a checkout root holding ``src/trapgas``,
or a directory holding ``trapgas``), drives ``trapgas.cli.main`` in-process
over a fixed matrix of invocations, and writes each invocation's exit code,
standard output and standard error to OUT.json.  Run it once per tree: each
run is a fresh interpreter, so the two trees never share imported modules.
The matrix is

* ``green`` (every mode), ``correlator`` and ``exponent`` (every mode) at
  beta in {0.05 sqrt2, 1, 100 sqrt2}, at the default and an off-centre
  geometry, and at dtau in {0, 0.3 beta}, all at the default cap l_max, so
  that the spectral rows stop at tol and are compared converged;
* the low-temperature block: ``correlator``/``exponent --mode series`` and
  ``green --mode trapped-series`` at beta in {20, 100, 1000} sqrt2, s_center
  in {0, 0.2, -0.5} R_c, dtau in {0.001, 0.005, 0.02} sqrt2 and 12
  separations from 0.001 to 0.04 R_c; at its smallest dtau, 0.001 alpha,
  the series route sums the most modes;
* the ``trapped-spectral`` block: ``green --mode trapped-spectral`` at
  omega in {0, 2, 20, 200, 2000} pi over 81 points within +-0.995 R_c, at the
  off-centre x_ref in {0.1, -0.35} R_c, which reaches the Thomas-Fermi edge
  and large degrees; and at omega in {0, 2} pi over 9 points from -R_c
  (beyond the boundary clamp) to 0.99999 R_c (next to the logarithmic
  singularity of P_nu(-u)), which gives error rows beside ok rows;
* the spectral error-row block: ``correlator``/``exponent --mode spectral``
  at s_center = 0.95 R_c, where the widest pair reaches beyond the boundary
  clamp (a DomainError row beside 8 ok rows), at tol = 1e-15 and
  l_max = 256, where the narrowest pair needs more frequencies than the cap
  and every other pair's first density bound is refused (9 AccuracyError
  rows), and at beta = 1e-4, where the widest pair's Gamma
  underflows (an AccuracyError row beside 8 ok rows);
* the fallback block: ``correlator``/``exponent --mode asymptotic-auto`` at
  beta = 0.05 sqrt2, l_max = 400, s_center = 0.995 R_c and 9 separations
  from 0.002 to 0.008 R_c, where the narrower pairs take the
  high-temperature form and the wider ones reach its edge layer and fall
  back to the spectral route (4 form rows beside 5 fallback rows; the
  ``exponent`` exits 2);
* the profile block: ``density`` on the default grid and on a grid out to
  +-1.2 R_c, where the clipped density reads 0, and ``spectrum --levels 30``;
* ``validate``, with its timings dropped;

each table in csv and json.

``diff`` prints how many invocations are identical, how many of the others
differ in their metadata alone (a csv table's ``#`` lines, a json table's
``meta`` list), and, for each one that differs, the largest relative change
per numeric column, the columns only one side has, the count of changed text
cells and whether its metadata changed.  It exits 0 when every invocation is
identical and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import tempfile

SQRT2 = math.sqrt(2.0)
MATRIX_BETAS = (0.05 * SQRT2, 1.0, 100.0 * SQRT2)
LOWT_BETAS = (20.0 * SQRT2, 100.0 * SQRT2, 1000.0 * SQRT2)
LOWT_CENTRES = (0.0, 0.2, -0.5)  # s_center / R_c
LOWT_DTAUS = (0.001 * SQRT2, 0.005 * SQRT2, 0.02 * SQRT2)
SPECTRAL_OMEGAS = tuple(f * math.pi for f in (0.0, 2.0, 20.0, 200.0, 2000.0))
SPECTRAL_X_REFS = (0.1, -0.35)  # x_ref / R_c
FORMATS = ("csv", "json")
_SECONDS = re.compile(r"\(\d+\.\d+s\)")


def _ini(sections: dict) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                                for key, value in keys.items())
        for name, keys in sections.items()
    )


def matrix_invocations(r_c: float) -> list:
    """(name, argv, config text) of the mode matrix; ``r_c`` is the default
    params' Thomas-Fermi radius, which the off-centre geometry is scaled by."""
    from trapgas.cli import CORRELATOR_MODES, GREEN_MODES

    geometries = {
        "default": {},
        "offcentre": {"x_ref": -0.35 * r_c, "x_min": -0.7 * r_c, "x_max": 0.2 * r_c, "s_center": -0.45 * r_c},
    }
    commands = [("green", m) for m in GREEN_MODES]
    commands += [(c, m) for c in ("correlator", "exponent") for m in CORRELATOR_MODES]
    out = []
    for beta in MATRIX_BETAS:
        for geo_name, geo in geometries.items():
            for dtau_frac in (0.0, 0.3):
                dtau = dtau_frac * beta
                grid = {"x_count": 5, "sep_count": 9, "dtau": dtau,
                        "omega_list": f"0, {2.0 * math.pi!r}, {20.0 * math.pi!r}", **geo}
                if dtau:
                    grid.update(tau_min=0.0, tau_max=dtau, tau_count=2)
                text = _ini({"params": {"beta": beta}, "grid": grid})
                for command, mode in commands:
                    name = f"{command}-{mode}-beta{beta:.6g}-{geo_name}-dtau{dtau_frac:g}"
                    out.append((name, [command, "--mode", mode], text))
    return out


def lowt_invocations(r_c: float) -> list:
    """(name, argv, config text) of the low-temperature ``series`` block; the
    ``green`` tables hold x_ref at the centre and x within 0.02 R_c of it."""
    out = []
    for beta in LOWT_BETAS:
        for centre in LOWT_CENTRES:
            for dtau in LOWT_DTAUS:
                s = centre * r_c
                grid = {"s_center": s, "dtau": dtau, "sep_min": 0.001 * r_c, "sep_max": 0.04 * r_c,
                        "sep_count": 12, "x_ref": s, "x_min": s - 0.02 * r_c, "x_max": s + 0.02 * r_c,
                        "x_count": 5, "tau_min": dtau, "tau_max": 2.0 * dtau, "tau_count": 2}
                text = _ini({"params": {"beta": beta}, "grid": grid})
                for command, mode in (("correlator", "series"), ("exponent", "series"), ("green", "trapped-series")):
                    name = f"lowT-{command}-{mode}-beta{beta:.6g}-s{centre:g}-dtau{dtau:.6g}"
                    out.append((name, [command, "--mode", mode], text))
    return out


def spectral_invocations(r_c: float) -> list:
    """(name, argv, config text) of the ``trapped-spectral`` block: the sweep
    over the condensate and the grid with a clamped point and one next to
    the edge."""
    argv = ["green", "--mode", "trapped-spectral"]
    out = []
    for x_ref in SPECTRAL_X_REFS:
        grid = {"omega_list": ", ".join(repr(w) for w in SPECTRAL_OMEGAS), "x_ref": x_ref * r_c,
                "x_min": -0.995 * r_c, "x_max": 0.995 * r_c, "x_count": 81}
        out.append((f"spectral-sweep-xref{x_ref:g}", argv, _ini({"grid": grid})))
    grid = {"omega_list": ", ".join(repr(w) for w in SPECTRAL_OMEGAS[:2]), "x_ref": 0.1 * r_c,
            "x_min": -r_c, "x_max": 0.99999 * r_c, "x_count": 9}
    out.append(("spectral-clamp-cap", argv, _ini({"grid": grid})))
    return out


def spectral_error_invocations(r_c: float) -> list:
    """(name, argv, config text) of the spectral correlator tables whose
    rows mix errors with ok rows."""
    configs = {
        "edge": {"grid": {"s_center": 0.95 * r_c}},
        "tol1e-15": {"truncation": {"tol": 1e-15, "l_max": 256}},
        "beta1e-4": {"params": {"beta": 1e-4}},
    }
    return [(f"spectral-errors-{command}-{name}", [command, "--mode", "spectral"], _ini(sections))
            for name, sections in configs.items() for command in ("correlator", "exponent")]


def fallback_invocations(r_c: float) -> list:
    """(name, argv, config text) of the ``asymptotic-auto`` tables whose rows
    mix the high-temperature form's with the spectral fallback's."""
    text = _ini({"params": {"beta": 0.05 * SQRT2}, "truncation": {"l_max": 400},
                 "grid": {"s_center": 0.995 * r_c, "sep_min": 0.002 * r_c, "sep_max": 0.008 * r_c, "sep_count": 9}})
    return [(f"fallback-{command}-mixed", [command, "--mode", "asymptotic-auto"], text)
            for command in ("correlator", "exponent")]


def profile_invocations(r_c: float) -> list:
    """(name, argv, config text) of the ``density`` and ``spectrum`` tables."""
    wide = _ini({"grid": {"x_min": -1.2 * r_c, "x_max": 1.2 * r_c, "x_count": 25}})
    return [("profile-density-default", ["density"], ""), ("profile-density-wide", ["density"], wide),
            ("profile-spectrum-levels30", ["spectrum", "--levels", "30"], "")]


def run_invocations(invocations, formats=FORMATS) -> dict:
    """name/format -> {"code", "stdout", "stderr"} of each invocation, run
    in-process through ``trapgas.cli.main``."""
    from trapgas.cli import main

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n, (name, argv, text) in enumerate(invocations):
            path = os.path.join(tmp, f"{n}.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for fmt in formats:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv + ["--config", path, "--format", fmt])
                records[f"{name}/{fmt}"] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return records


def _validate_record() -> dict:
    from trapgas.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate"])
    report = json.loads(out.getvalue())
    for check in report["checks"]:
        del check["seconds"]
    return {"code": code, "stdout": json.dumps(report, indent=1) + "\n", "stderr": _SECONDS.sub("(-s)", err.getvalue())}


def _import_tree(tree: str):
    src = os.path.join(tree, "src")
    root = os.path.abspath(src if os.path.isdir(os.path.join(src, "trapgas")) else tree)
    if not os.path.isdir(os.path.join(root, "trapgas")):
        raise SystemExit(f"no trapgas package under {tree}")
    sys.path.insert(0, root)
    import trapgas

    if not os.path.abspath(trapgas.__file__).startswith(root + os.sep):
        raise SystemExit(f"trapgas was imported from {trapgas.__file__}, not from {root}")
    return trapgas


def cmd_run(tree: str, out_path: str) -> int:
    tg = _import_tree(tree)
    r_c = tg.derive_scales(tg.PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)).R_c
    records = run_invocations(matrix_invocations(r_c) + lowt_invocations(r_c) + spectral_invocations(r_c)
                              + spectral_error_invocations(r_c) + fallback_invocations(r_c) + profile_invocations(r_c))
    records["validate"] = _validate_record()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=0, sort_keys=True)
    print(f"{len(records)} invocations written to {out_path}")
    return 0


# ----------------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------------


def parse_table(stdout: str) -> tuple:
    """(columns, rows) of a csv or json table, or of a ``validate`` report
    (one row per check); rows are lists of cells, numbers as floats."""
    text = stdout.strip()
    if text.startswith("{"):
        doc = json.loads(text)
        if "checks" in doc:
            columns = sorted({key for check in doc["checks"] for key in check})
            return columns, [[check.get(key) for key in columns] for check in doc["checks"]]
        return doc["columns"], doc["rows"]
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not body:
        return [], []
    columns = body[0].split(",")
    # a cell that holds a comma is quoted, as RFC 4180 does
    return columns, [[_number(cell) for cell in row] for row in csv.reader(body[1:])]


def split_table(stdout: str) -> tuple:
    """(metadata, body) of a csv or json table, or of a ``validate`` report
    (no metadata); a json body keeps every number and constant as its text."""
    text = stdout.strip()
    if text.startswith("{"):
        doc = json.loads(text, **dict.fromkeys(("parse_float", "parse_int", "parse_constant"), str))
        return doc.pop("meta", []), doc
    lines = text.splitlines()
    return [line for line in lines if line.startswith("#")], [line for line in lines if not line.startswith("#")]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell if cell else None


def _is_number(cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), sys.float_info.min)


def compare_records(a: dict, b: dict) -> dict:
    """Per-column summary of how one invocation's output changed."""
    cols_a, rows_a = parse_table(a["stdout"])
    cols_b, rows_b = parse_table(b["stdout"])
    meta_a, body_a = split_table(a["stdout"])
    meta_b, body_b = split_table(b["stdout"])
    summary = {
        "code": (a["code"], b["code"]) if a["code"] != b["code"] else None,
        "stderr": a["stderr"] != b["stderr"],
        "meta": meta_a != meta_b,
        "body": body_a != body_b,
        "rows": (len(rows_a), len(rows_b)) if len(rows_a) != len(rows_b) else None,
        "only_a": [c for c in cols_a if c not in cols_b],
        "only_b": [c for c in cols_b if c not in cols_a],
        "rel": {},
        "text": {},
    }
    for col in (c for c in cols_a if c in cols_b):
        ia, ib = cols_a.index(col), cols_b.index(col)
        for ra, rb in zip(rows_a, rows_b):
            va, vb = ra[ia], rb[ib]
            if _is_number(va) and _is_number(vb):
                change = _rel_change(float(va), float(vb))
                if change:
                    summary["rel"][col] = max(summary["rel"].get(col, 0.0), change)
            elif va != vb:
                summary["text"][col] = summary["text"].get(col, 0) + 1
    return summary


def cmd_diff(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        recs_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        recs_b = json.load(fh)
    names = sorted(set(recs_a) | set(recs_b))
    missing = [n for n in names if n not in recs_a or n not in recs_b]
    common = [n for n in names if n in recs_a and n in recs_b]
    differing = [n for n in common if recs_a[n] != recs_b[n]]
    summaries = {n: compare_records(recs_a[n], recs_b[n]) for n in differing}
    meta_only = sum(s["meta"] and not (s["body"] or s["code"] or s["stderr"]) for s in summaries.values())
    print(f"{len(common) - len(differing)} of {len(common)} invocations identical")
    print(f"{meta_only} of {len(differing)} differing invocations differ in metadata only")
    for name in missing:
        print(f"{name}: present in only one file")
    overall = {}
    for name, s in summaries.items():
        parts = [f"{col} {change:.2g}" for col, change in sorted(s["rel"].items())]
        parts += [f"{col} text x{count}" for col, count in sorted(s["text"].items())]
        parts += [f"-{col}" for col in s["only_a"]] + [f"+{col}" for col in s["only_b"]]
        if s["rows"]:
            parts.append(f"rows {s['rows'][0]} -> {s['rows'][1]}")
        if s["code"]:
            parts.append(f"exit {s['code'][0]} -> {s['code'][1]}")
        if s["meta"]:
            parts.append("metadata")
        if s["stderr"]:
            parts.append("stderr")
        print(f"{name}: " + (", ".join(parts) or "formatting only"))
        for col, change in s["rel"].items():
            overall[col] = max(overall.get(col, 0.0), change)
    if overall:
        print("largest relative change per column: "
              + ", ".join(f"{col} {change:.3g}" for col, change in sorted(overall.items())))
    return 0 if not differing and not missing else 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "run":
        return cmd_run(args[1], args[2])
    if len(args) == 3 and args[0] == "diff":
        return cmd_diff(args[1], args[2])
    print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
