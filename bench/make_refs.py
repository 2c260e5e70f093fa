"""Generate the stored references the benchmark checks every row against.

Usage (from the repository root):

    python3 bench/make_refs.py WORKLOAD [VARIANT ...]

writes ``bench/refs/WORKLOAD/variant-K.json`` for each variant (all of them by
default).  Each file holds the variant's exact config, one reference value per
output row with the route that produced it, and the margin of the current
code's output to the workload's accuracy target.

How a reference is made:

* Spectral densities at frequency omega > 0 use ``mpmath.legenp`` at 30
  digits, combined through the cancellation-free W-bracket product of the
  closed form, wherever mpmath converges (it does up to a conical degree of
  about 900 and raises ``NoConvergence`` well before 9000).  Elsewhere they use
  the package's own ``spectral_density`` at ``tol = 1e-15``.
* omega = 0 uses the elementary closed form K |artanh u - artanh u'| at 30
  digits.
* ``correlator-precise`` sums the Matsubara series to ``l_max = 1024``; the
  omitted tail is below exp(-90) of the leading term at the smallest
  separation.
* ``validate`` stores the figures of merit of the current code; its rows are
  judged by ``passed`` alone.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import mpmath as mp
from mpmath.libmp import NoConvergence

import workloads as wl

sys.path.insert(0, os.path.join(os.path.dirname(wl.BENCH_DIR), "src"))

from trapgas import cli  # noqa: E402
from trapgas.green_trapped import spectral_density  # noqa: E402
from trapgas.model import PhysicalParams, derive_scales, rho_tf  # noqa: E402

DPS = 30
REF_L_MAX = 1024
REF_TOL = 1e-15
# mpmath.legenp is attempted only up to this conical degree
MP_MU_MAX = 1000.0

mp.mp.dps = DPS
P = PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
D = derive_scales(P)
K = P.g * D.R_c / (2.0 * (P.hbar * D.v) ** 2)
if D.R_c != wl.R_C:
    raise SystemExit(f"R_c at unit parameters is {D.R_c!r}, workloads.py assumes {wl.R_C!r}")


class MpDensity:
    """Re G_omega(x, x') from mpmath Legendre functions, with P cached per
    (omega, u) so a point shared by many rows is evaluated once."""

    def __init__(self):
        self.cache = {}

    def p(self, omega: float, nu, t: float):
        key = (omega, t)
        if key not in self.cache:
            try:
                self.cache[key] = mp.legenp(nu, 0, mp.mpf(t), type=2)
            except NoConvergence:
                self.cache[key] = None
        return self.cache[key]

    def re_density(self, omega: float, u: float, up: float):
        """mpf value, or None where mpmath does not converge."""
        if omega == 0.0:
            return K * abs(mp.atanh(mp.mpf(u)) - mp.atanh(mp.mpf(up)))
        nu = -0.5 + mp.sqrt(mp.mpf(0.25) - (mp.mpf(D.alpha) * omega) ** 2)
        if abs(mp.im(nu)) > MP_MU_MAX:
            return None
        lo, hi = sorted((u, up))
        vals = [self.p(omega, nu, t) for t in (lo, -lo, hi, -hi)]
        if any(v is None for v in vals):
            return None
        p_lo, p_mlo, p_hi, p_mhi = vals
        sin_pi = mp.sin(mp.pi * nu)
        w_plus = (mp.pi / 2) * (mp.exp(1j * mp.pi * nu) * p_lo - p_mlo) / sin_pi
        w_minus = (mp.pi / 2) * (mp.exp(-1j * mp.pi * nu) * p_hi - p_mhi) / sin_pi
        return mp.re(-1j * (2 * K / mp.pi) * w_plus * w_minus)


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def current_output(workload: str, variant: int) -> str:
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    path = os.path.join(wl.OUT_DIR, f"refgen-{workload}-{variant}-{os.getpid()}.ini")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(wl.ini_text(wl.config_sections(workload, variant)))
        code, text = run_cli(wl.cli_argv(workload, path))
    finally:
        os.remove(path)
    if code != 0:
        raise SystemExit(f"{workload} variant {variant}: trapgas exited {code}")
    return text


def correlator_rows(text: str) -> list:
    columns, rows = wl.parse_csv_table(text)
    i1, i2 = columns.index("x1"), columns.index("x2")
    mpd = MpDensity()
    out = []
    for row in rows:
        x1, x2 = float(row[i1]), float(row[i2])
        u1, u2 = x1 / D.R_c, x2 / D.R_c
        total = mpd.re_density(0.0, u1, u2)
        seed_total = mp.mpf(spectral_density(0.0, x1, x2, P, D, REF_TOL).re_part)
        n_mp, worst_term, mp_ok = 0, 0.0, True
        for l in range(1, REF_L_MAX + 1):
            omega = 2.0 * math.pi * l / P.beta
            seed_term = spectral_density(omega, x1, x2, P, D, REF_TOL).re_part
            term = mpd.re_density(omega, u1, u2) if mp_ok else None
            if term is None:
                mp_ok = False  # larger degrees do not converge either
                term = mp.mpf(seed_term)
            else:
                n_mp += 1
                worst_term = max(worst_term, float(abs(term - seed_term) / abs(term)))
            total += 2 * term
            seed_total += 2 * mp.mpf(seed_term)
        amp = mp.sqrt(mp.mpf(rho_tf(x1, P, D)) * mp.mpf(rho_tf(x2, P, D)))
        gamma = amp * mp.exp(-total / P.beta)
        seed_gamma = amp * mp.exp(-seed_total / P.beta)
        out.append({
            "x1": row[i1],
            "x2": row[i2],
            "ref": float(gamma),
            "method": f"mpmath.legenp at {DPS} digits for l <= {n_mp}; "
                      f"spectral_density(tol={REF_TOL:g}) for {n_mp + 1} <= l <= {REF_L_MAX}",
            "mpmath_vs_route_max_term_rel_diff": worst_term,
            "route_only_rel_diff": float(abs(seed_gamma - gamma) / gamma),
        })
        print(f"  row x1={row[i1]} x2={row[i2]}: mpmath for l <= {n_mp}", file=sys.stderr, flush=True)
    return out


def sweep_rows(text: str) -> list:
    columns, rows = wl.parse_csv_table(text)
    i1, i2 = columns.index("x1"), columns.index("x2")
    mpd = MpDensity()
    out = []
    for n, row in enumerate(rows):
        omega = wl.SWEEP_OMEGAS[n // wl.SWEEP_POINTS]
        x1, x2 = float(row[i1]), float(row[i2])
        # the table evaluates spectral_density(omega, x2, x_ref)
        value = mpd.re_density(omega, x2 / D.R_c, x1 / D.R_c)
        seed_value = spectral_density(omega, x2, x1, P, D, REF_TOL).re_part
        entry = {"x1": row[i1], "x2": row[i2], "omega": omega}
        if value is None:
            entry.update(ref=seed_value, method=f"spectral_density(tol={REF_TOL:g})")
        else:
            entry.update(
                ref=float(value),
                method=f"mpmath.legenp at {DPS} digits" if omega else f"closed form at {DPS} digits",
                mpmath_vs_route_rel_diff=wl.rel_err(seed_value, float(value)),
            )
        out.append(entry)
    return out


def make(workload: str, variant: int) -> dict:
    t0 = time.perf_counter()
    text = current_output(workload, variant)
    if workload == "validate":
        report = json.loads(text)
        rows = [{"name": c["name"], "value": c["value"], "tol": c["tol"]} for c in report["checks"]]
        result = wl.check_validate(text, {"rows": rows})
        how = "figures of merit of the current code; a row passes when its check passes"
    else:
        rows = correlator_rows(text) if workload == "correlator-precise" else sweep_rows(text)
        result = wl.check_table(workload, text, {"rows": rows})
        how = __doc__.split("How a reference is made:")[1].strip()
    entry = {
        "workload": workload,
        "variant": variant,
        "held_out": variant == wl.HELD_OUT and workload != "validate",
        "config": wl.config_sections(workload, variant),
        "argv": wl.cli_argv(workload, "<config>"),
        "target_rel": wl.TARGETS.get(workload),
        "how_made": how,
        "current_code_max_rel_err": result["max_rel_err"],
        "current_code_failed_rows": result["failed"],
        "rows": rows,
        "generation_seconds": round(time.perf_counter() - t0, 1),
    }
    if workload in wl.TARGETS:
        err = result["max_rel_err"]
        entry["margin_to_target"] = (wl.TARGETS[workload] / err) if err > 0 else math.inf
    return entry


def main(argv: list) -> int:
    if not argv or argv[0] not in wl.WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    workload = argv[0]
    variants = [int(v) for v in argv[1:]] or (
        [0] if workload == "validate" else list(range(wl.N_VARIANTS)))
    for variant in variants:
        entry = make(workload, variant)
        path = wl.ref_path(workload, variant)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1)
            fh.write("\n")
        print(f"{path}: max_rel_err {entry['current_code_max_rel_err']:.3g}, "
              f"failed {entry['current_code_failed_rows']}, {entry['generation_seconds']} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
