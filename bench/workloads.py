"""Workload definitions shared by the runner, the in-process child and the
reference generator.

A workload is one CLI invocation.  The benchmark ships a fixed set of input
variants per workload; ``--seed n`` selects variant ``n mod N_VARIANTS`` so
that every seed a caller can pass has a stored reference.  Variant 0 is the
configuration the workload is named for; variant ``HELD_OUT`` is kept out of
development runs and used only to confirm a claim.

This module imports nothing from ``trapgas``: the runner uses it before the
package is known to exist.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Thomas-Fermi radius R_c at the default (unit) parameters; make_refs checks
# it against trapgas.model.derive_scales.
R_C = math.sqrt(2.0)
N_VARIANTS = 4
HELD_OUT = 3
WORKLOADS = ("correlator-precise", "spectral-sweep", "validate")

_TWO_PI = 2.0 * math.pi
SWEEP_OMEGAS = (0.0, _TWO_PI, 10.0 * _TWO_PI, 100.0 * _TWO_PI, 1000.0 * _TWO_PI)
SWEEP_POINTS = 81

# workload -> (range of the moved midpoint as a fraction of R_c, seed-0 value)
_MOVED = {
    "correlator-precise": (0.15, 0.3, 0.2),
    "spectral-sweep": (0.05, 0.2, 0.1),
}

# A run times whole invocations: at least this many, and more until --seconds
# have passed.  correlator-precise takes about 12 s an invocation, so its count
# alone sets the length of its runs.
MIN_REPS = {"correlator-precise": 4, "spectral-sweep": 5, "validate": 5}

# Relative accuracy each table row must reach against its reference.
TARGETS = {"correlator-precise": 1e-10, "spectral-sweep": 1e-9}
VALUE_COLUMN = {"correlator-precise": "gamma", "spectral-sweep": "G_re"}
KEY_COLUMNS = ("x1", "x2")


def variant_of(workload: str, seed: int) -> int:
    if workload == "validate":
        return 0
    return seed % N_VARIANTS


def moved_fraction(workload: str, variant: int) -> float:
    lo, hi, seed0 = _MOVED[workload]
    if variant == 0:
        return seed0
    return round(random.Random(f"{workload}/{variant}").uniform(lo, hi), 4)


def config_sections(workload: str, variant: int) -> dict:
    """INI sections (section -> key -> text) of one workload variant."""
    if workload == "correlator-precise":
        s_center = moved_fraction(workload, variant) * R_C
        return {"truncation": {"l_max": "256"}, "grid": {"s_center": repr(s_center)}}
    if workload == "spectral-sweep":
        x_ref = moved_fraction(workload, variant) * R_C
        return {"grid": {
            "omega_list": ", ".join(repr(w) for w in SWEEP_OMEGAS),
            "x_min": repr(-0.995 * R_C),
            "x_max": repr(0.995 * R_C),
            "x_count": str(SWEEP_POINTS),
            "x_ref": repr(x_ref),
        }}
    if workload == "validate":
        return {}
    raise KeyError(workload)


def warmup_sections(workload: str) -> dict:
    """A reduced input of the same command, with points no variant uses, so the
    warm-up runs the same code paths without evaluating a timed input."""
    if workload == "correlator-precise":
        return {"truncation": {"l_max": "16"}, "grid": {"s_center": repr(0.5 * R_C), "sep_count": "2"}}
    if workload == "spectral-sweep":
        return {"grid": {"omega_list": "0, 6.283185307179586", "x_count": "5", "x_ref": repr(0.5 * R_C)}}
    return {}


def ini_text(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def cli_argv(workload: str, config_path: str | None) -> list:
    if workload == "correlator-precise":
        return ["correlator", "--mode", "spectral", "--config", config_path]
    if workload == "spectral-sweep":
        return ["green", "--mode", "trapped-spectral", "--config", config_path]
    return ["validate"]


def ref_path(workload: str, variant: int) -> str:
    return os.path.join(REFS_DIR, workload, f"variant-{variant}.json")


def load_ref(workload: str, variant: int) -> dict:
    with open(ref_path(workload, variant), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# output parsing and row checks
# ----------------------------------------------------------------------------


def parse_csv_table(text: str) -> tuple:
    """(columns, rows) of a trapgas CSV table; rows are lists of cell strings."""
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not body:
        return [], []
    return body[0].split(","), [line.split(",") for line in body[1:]]


def rel_err(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    # values below the smallest normal double carry no relative precision, so
    # they are held to the target as an absolute error at that scale
    return abs(value - ref) / max(abs(ref), sys.float_info.min)


def check_table(workload: str, text: str, ref: dict) -> dict:
    """Compare one table against its reference row by row.

    A row fails on a status other than ``ok``, an empty value, a key column that
    differs from the reference, or a value outside the workload's target.
    Missing rows fail too.
    """
    target = TARGETS[workload]
    columns, rows = parse_csv_table(text)
    ref_rows = ref["rows"]
    failed, worst = 0, 0.0
    try:
        i_val = columns.index(VALUE_COLUMN[workload])
        i_status = columns.index("status")
        i_keys = [columns.index(k) for k in KEY_COLUMNS]
    except ValueError:
        return {"attempted": len(ref_rows), "failed": len(ref_rows), "max_rel_err": math.inf}
    for n, ref_row in enumerate(ref_rows):
        row = rows[n] if n < len(rows) else None
        if (
            row is None
            or len(row) != len(columns)
            or row[i_status] != "ok"
            or row[i_val] == ""
            or [row[i] for i in i_keys] != [ref_row[k] for k in KEY_COLUMNS]
        ):
            failed += 1
            continue
        err = rel_err(float(row[i_val]), ref_row["ref"])
        worst = max(worst, err)
        if not err <= target:
            failed += 1
    failed += max(0, len(rows) - len(ref_rows))
    return {"attempted": len(ref_rows), "failed": failed, "max_rel_err": worst}


def check_validate(text: str, ref: dict) -> dict:
    """Each check of the report is a row; it fails when ``passed`` is false or
    when the check is missing.  ``max_rel_err`` compares the checks' figures of
    merit with the stored ones and is a diagnostic only."""
    ref_checks = ref["rows"]
    try:
        by_name = {c["name"]: c for c in json.loads(text)["checks"]}
    except (ValueError, KeyError, TypeError):
        return {"attempted": len(ref_checks), "failed": len(ref_checks), "max_rel_err": math.inf}
    failed, worst = 0, 0.0
    for ref_check in ref_checks:
        got = by_name.get(ref_check["name"])
        if got is None or got.get("passed") is not True:
            failed += 1
            continue
        worst = max(worst, rel_err(float(got["value"]), ref_check["value"]))
    return {"attempted": len(ref_checks), "failed": failed, "max_rel_err": worst}


def check_output(workload: str, text: str, ref: dict) -> dict:
    if workload == "validate":
        return check_validate(text, ref)
    return check_table(workload, text, ref)


def comparable(workload: str, text: str) -> str:
    """Output with its timing fields removed; ``validate`` reports how long each
    check took, which is the only part of any output that may vary by run."""
    if workload != "validate":
        return text
    try:
        report = json.loads(text)
        for check in report["checks"]:
            check.pop("seconds", None)
    except (ValueError, KeyError, TypeError):
        return text
    return json.dumps(report, sort_keys=True)
