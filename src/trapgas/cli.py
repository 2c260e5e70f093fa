"""Command-line front end: config ingestion, evaluator subcommands, the
validation suite, and CSV/JSON emission for plotting pipelines.

Config documents are flat INI text (``key = value`` under section headers);
unknown sections or keys are rejected.  Every run echoes the fully resolved
configuration (defaults included) into the output metadata.  Output is
deterministic: fixed column order, fixed row order, 17-significant-digit
numbers, no randomness anywhere.

Exit codes: 0 success, 2 config error, 3 validation failure, 4 numerical
accuracy failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .correlator import (
    MIN_FIT_SAMPLES,
    CorrelatorQuery,
    exponent_report,
    gamma_d1_exact,
    gamma_from_green,
    gamma_trapped_asymptotic,
    theta_at,
    xi_at,
)
from .errors import AccuracyError, ConfigError, DataError, DomainError, RegimeError, TrapGasError
from .green_homogeneous import HomogSeriesControl, homog_asymptotic_highT, homog_asymptotic_lowT, homog_series
from .green_trapped import (
    LowTControl,
    asympt_green_highT,
    asympt_green_lowT,
    closed_form_zero_mode,
    lowT_legendre_series,
    matsubara_assemble,
    spectral_densities,
)
from .model import (
    DEFAULT_R_HI,
    DEFAULT_R_LO,
    PhysicalParams,
    Regime,
    classify_regime,
    derive_scales,
    energy_level,
    level_spacing_expansion,
    rho_tf,
    zeta_of,
)

GREEN_MODES = ("homog-series", "homog-asympt", "trapped-spectral", "trapped-series", "trapped-asympt", "oracle")
CORRELATOR_MODES = ("closed-form", "series", "spectral", "asymptotic-auto")

# section -> key -> (parser, default). Defaults marked None are derived from
# the physical scales after the params section is resolved.
_SCHEMA = {
    "params": {
        "hbar": (float, 1.0),
        "m": (float, 1.0),
        "g": (float, 1.0),
        "Omega": (float, 1.0),
        "Lambda": (float, 1.0),
        "beta": (float, 1.0),
    },
    "truncation": {
        "l_max": (int, 64),
        "n_max": (int, 256),
        "n0": (int, 20),
        "tol": (float, 1e-12),
        "tail_mode": (str, "bernoulli"),
        "min_dtau": (float, 1e-3),
    },
    "regime": {
        "r_lo": (float, DEFAULT_R_LO),
        "r_hi": (float, DEFAULT_R_HI),
    },
    "grid": {
        "x_ref": (float, None),
        "tau_ref": (float, 0.0),
        "x_min": (float, None),
        "x_max": (float, None),
        "x_count": (int, 41),
        "tau_min": (float, 0.0),
        "tau_max": (float, None),
        "tau_count": (int, 1),
        "sep_min": (float, None),
        "sep_max": (float, None),
        "sep_count": (int, 9),
        "sep_spacing": (str, "log"),
        "s_center": (float, None),
        "dtau": (float, 0.0),
        "omega_list": (str, "0"),
    },
    "output": {
        "format": (str, "csv"),
        "path": (str, ""),
    },
}


# integer keys and their smallest admissible value
_INT_FLOORS = {"truncation.l_max": 0, "truncation.n_max": 1, "truncation.n0": 1,
               "grid.x_count": 0, "grid.tau_count": 0, "grid.sep_count": 0}


@dataclass
class RunConfig:
    params: PhysicalParams
    values: dict  # flat "section.key" -> resolved value

    def __getitem__(self, key):
        return self.values[key]

    @property
    def scales(self):
        return derive_scales(self.params)


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a config document; absent path means all defaults."""
    raw = {}
    if path:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.optionxform = str
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path!r}: {exc}") from exc
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, text in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                kind, _ = _SCHEMA[section][key]
                try:
                    raw[f"{section}.{key}"] = kind(text)
                except ValueError as exc:
                    raise ConfigError(f"config key {section}.{key}: cannot parse {text!r} as {kind.__name__}") from exc

    values = {}
    for section, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            values[f"{section}.{key}"] = raw.get(f"{section}.{key}", default)

    try:
        params = PhysicalParams(
            m=values["params.m"],
            g=values["params.g"],
            Omega=values["params.Omega"],
            Lambda=values["params.Lambda"],
            beta=values["params.beta"],
            hbar=values["params.hbar"],
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    d = derive_scales(params)

    # scale-dependent defaults
    defaults = {
        "grid.x_ref": 0.1 * d.R_c,
        "grid.x_min": -0.8 * d.R_c,
        "grid.x_max": 0.8 * d.R_c,
        "grid.tau_max": 0.5 * params.beta,
        "grid.sep_min": 0.01 * d.R_c,
        "grid.sep_max": 0.1 * d.R_c,
        "grid.s_center": 0.2 * d.R_c,
    }
    for key, val in defaults.items():
        if values[key] is None:
            values[key] = val

    for section in ("truncation", "regime", "grid"):
        for key, (kind, _) in _SCHEMA[section].items():
            name = f"{section}.{key}"
            if kind is float and not math.isfinite(values[name]):
                raise ConfigError(f"{name} must be finite, got {values[name]!r}")
    if values["truncation.tail_mode"] not in ("none", "bernoulli"):
        raise ConfigError(f"truncation.tail_mode must be 'none' or 'bernoulli', got {values['truncation.tail_mode']!r}")
    if values["grid.sep_spacing"] not in ("log", "linear"):
        raise ConfigError(f"grid.sep_spacing must be 'log' or 'linear', got {values['grid.sep_spacing']!r}")
    if values["output.format"] not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {values['output.format']!r}")
    if not (0 < values["regime.r_lo"] < values["regime.r_hi"]):
        raise ConfigError("regime thresholds must satisfy 0 < r_lo < r_hi")
    if not values["truncation.tol"] > 0:
        raise ConfigError(f"truncation.tol must be positive, got {values['truncation.tol']!r}")
    if not values["truncation.min_dtau"] >= 0:
        raise ConfigError(f"truncation.min_dtau must be >= 0, got {values['truncation.min_dtau']!r}")
    for key, least in _INT_FLOORS.items():
        if values[key] < least:
            raise ConfigError(f"{key} must be >= {least}, got {values[key]}")
    if values["grid.sep_spacing"] == "log" and not values["grid.sep_min"] > 0:
        raise ConfigError(f"grid.sep_min must be > 0 under grid.sep_spacing = log, got {values['grid.sep_min']!r}")
    try:
        values["grid.omegas"] = [float(s) for s in str(values["grid.omega_list"]).split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"grid.omega_list: cannot parse {values['grid.omega_list']!r}") from exc
    if not all(map(math.isfinite, values["grid.omegas"])):
        raise ConfigError(f"grid.omega_list entries must be finite, got {values['grid.omega_list']!r}")
    return RunConfig(params=params, values=values)


# ----------------------------------------------------------------------------
# table emission
# ----------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _meta_lines(cfg: RunConfig, extra: dict) -> list:
    lines = [f"trapgas {__version__}"]
    for key in sorted(cfg.values):
        if key == "grid.omegas":
            continue
        lines.append(f"{key} = {_fmt_cell(cfg.values[key])}")
    for key in sorted(extra):
        lines.append(f"{key} = {_fmt_cell(extra[key])}")
    return lines


def write_table(out, fmt: str, cfg: RunConfig, columns: list, rows: list, extra_meta: dict | None = None):
    """Emit one table as CSV (with '#' metadata header) or the JSON mirror."""
    meta = _meta_lines(cfg, extra_meta or {})
    if fmt == "csv":
        for line in meta:
            out.write(f"# {line}\n")
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt_cell(c) for c in row) + "\n")
    else:
        payload = {
            "meta": meta,
            "columns": columns,
            "rows": [[(None if c is None else (c if isinstance(c, (bool, str)) else float(c) if isinstance(c, (float, np.floating)) else int(c))) for c in row] for row in rows],
        }
        json.dump(payload, out, indent=1)
        out.write("\n")


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def cmd_density(cfg: RunConfig, args) -> tuple:
    d = cfg.scales
    xs = np.linspace(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.x_count"])
    rows = [(float(x), rho_tf(float(x), cfg.params, d)) for x in xs]
    return ["x", "rho_tf"], rows, {}


def cmd_spectrum(cfg: RunConfig, args) -> tuple:
    p, d = cfg.params, cfg.scales
    if args.levels < 0:
        raise ConfigError(f"--levels must be >= 0, got {args.levels}")
    rows = []
    for n in range(args.levels):
        e_n = energy_level(n, p, d)
        de = energy_level(n + 1, p, d) - e_n
        if n > 1:
            spacing = level_spacing_expansion(n, d)
            rows.append((n, e_n, de, spacing.expansion, "ok"))
        else:
            rows.append((n, e_n, de, None, "expansion-defined-for-n>1"))
    return ["n", "E_n", "dE", "dE_expansion", "status"], rows, {}


# evaluation failures reported in a row's status; anything else aborts the run
_ROW_ERRORS = (RegimeError, DomainError, AccuracyError)


def _green_row(x1, tau1, x2, tau2, gv, regime_tag, status="ok"):
    if gv is None:
        return (x1, tau1, x2, tau2, None, None, "", None, regime_tag, False, status)
    if gv.divergent:
        return (x1, tau1, x2, tau2, None, None, gv.method, gv.trunc_err, regime_tag, gv.const_free, "divergent")
    return (
        x1, tau1, x2, tau2,
        gv.value, 0.0,
        gv.method, gv.trunc_err, regime_tag, gv.const_free,
        status if gv.warning is None else f"warning: {gv.warning}",
    )


def _error_row(x1, tau1, x2, tau2, method, regime_tag, exc):
    return (x1, tau1, x2, tau2, None, None, method, None, regime_tag, False, f"{type(exc).__name__}: {exc}")


def _lowt_control(cfg: RunConfig) -> LowTControl:
    return LowTControl(n0=cfg["truncation.n0"], min_dtau=cfg["truncation.min_dtau"])


def _green_evaluator(mode, regime, cfg: RunConfig, p, d):
    """G(x1, tau1; x2, tau2) of one per-point mode, with its regime choice and
    controls resolved once per table; None where the regime has no asymptotic
    form."""
    if mode == "homog-series":
        ctl = HomogSeriesControl(cfg["truncation.l_max"], cfg["truncation.n_max"], cfg["truncation.tail_mode"])
        return partial(homog_series, p=p, d=d, ctl=ctl)
    if mode == "trapped-series":
        return partial(lowT_legendre_series, p=p, d=d, ctl=_lowt_control(cfg))
    if mode == "homog-asympt":
        form = {Regime.HIGH_T: homog_asymptotic_highT, Regime.LOW_T: homog_asymptotic_lowT}.get(regime)
        return form and partial(form, p=p, d=d)
    if mode == "trapped-asympt":
        if regime is Regime.HIGH_T:
            return partial(asympt_green_highT, p=p, d=d, r_lo=cfg["regime.r_lo"])
        if regime is Regime.LOW_T:
            return partial(asympt_green_lowT, p=p, d=d, ctl=_lowt_control(cfg), r_hi=cfg["regime.r_hi"])
        return None
    raise ConfigError(f"unknown green mode {mode!r}")


def cmd_green(cfg: RunConfig, args) -> tuple:
    p, d = cfg.params, cfg.scales
    mode = args.mode
    regime = classify_regime(d, cfg["regime.r_lo"], cfg["regime.r_hi"])
    regime_tag = regime.value
    columns = ["x1", "tau1", "x2", "tau2", "G_re", "G_im", "method", "trunc_err", "regime", "const_free", "status"]
    x1 = cfg["grid.x_ref"]
    tau1 = cfg["grid.tau_ref"]
    xs = [float(x) for x in np.linspace(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.x_count"])]
    extra = {"mode": mode}

    if mode == "oracle":
        from .oracle import FdmGrid, fdm_spectral_solve  # the only table that loads scipy

        rows = []
        for omega in cfg["grid.omegas"]:
            sol = fdm_spectral_solve(omega, x1, p, d, FdmGrid(N=10_000))
            shift = 0.0
            if omega == 0.0 and xs:
                # align the mean-zero gauge with the closed-form convention
                anchor = xs[0]
                shift = closed_form_zero_mode(anchor, sol.x_source, p, d) * p.beta - float(sol.interp(anchor))
            rows.extend(
                (x1, tau1, x2, tau1, float(sol.interp(x2)) + shift, 0.0, "oracle", sol.disc_error_est,
                 regime_tag, False, "ok")
                for x2 in xs
            )
        return columns, rows, extra

    if mode == "trapped-spectral":
        def spectral_row(x2, sd):
            if isinstance(sd, _ROW_ERRORS):
                return _error_row(x1, tau1, x2, tau1, mode, regime_tag, sd)
            return (x1, tau1, x2, tau1, sd.re_part, sd.im_part, mode, sd.err_bound, regime_tag, False, "ok")

        return columns, [
            spectral_row(x2, sd)
            for omega in cfg["grid.omegas"]
            for x2, sd in zip(xs, spectral_densities(omega, xs, x1, p, d, tol=cfg["truncation.tol"]))
        ], extra

    evaluate = _green_evaluator(mode, regime, cfg, p, d)

    def point_row(x2, tau2):
        if evaluate is None:
            return _green_row(x1, tau1, x2, tau2, None, regime_tag, "intermediate-regime: no asymptotic form")
        try:
            return _green_row(x1, tau1, x2, tau2, evaluate(x1, tau1, x2, tau2), regime_tag)
        except _ROW_ERRORS as exc:
            return _error_row(x1, tau1, x2, tau2, mode, regime_tag, exc)

    taus = (
        np.linspace(cfg["grid.tau_min"], cfg["grid.tau_max"], cfg["grid.tau_count"])
        if cfg["grid.tau_count"] > 1
        else [tau1]
    )
    return columns, [point_row(x2, float(tau2)) for tau2 in taus for x2 in xs], extra


def _correlator_value(mode, q: CorrelatorQuery, cfg: RunConfig, p, d):
    if mode == "closed-form":
        if q.tau1 != q.tau2:
            raise DomainError("closed-form correlator is equal-time; set grid.dtau = 0")
        return gamma_d1_exact(q.x1, q.x2, p, d), "closed-form"
    method = mode
    if mode == "asymptotic-auto":
        try:
            return gamma_trapped_asymptotic(q, p, d, cfg["regime.r_lo"], cfg["regime.r_hi"]), mode
        except RegimeError:
            method = "asymptotic-auto:fallback-spectral"
    if mode == "series":
        g = lowT_legendre_series(q.x1, q.tau1, q.x2, q.tau2, p, d, _lowt_control(cfg))
    elif mode in ("spectral", "asymptotic-auto"):
        g = matsubara_assemble(q.x1, q.tau1, q.x2, q.tau2, p, d, cfg["truncation.l_max"], cfg["truncation.tol"])
    else:
        raise ConfigError(f"unknown correlator mode {mode!r}")
    return gamma_from_green(q, g, p, d), method


def _sep_grid(cfg: RunConfig) -> np.ndarray:
    lo, hi, count = cfg["grid.sep_min"], cfg["grid.sep_max"], cfg["grid.sep_count"]
    if cfg["grid.sep_spacing"] == "log":
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _correlator_queries(cfg: RunConfig) -> list:
    """Pairs (S + sep/2, tau_ref + dtau; S - sep/2, tau_ref) over the separation grid."""
    s_center = cfg["grid.s_center"]
    tau_ref = cfg["grid.tau_ref"]
    dtau = cfg["grid.dtau"]
    return [
        CorrelatorQuery(s_center + sep / 2.0, tau_ref + dtau, s_center - sep / 2.0, tau_ref)
        for sep in map(float, _sep_grid(cfg))
    ]


def cmd_correlator(cfg: RunConfig, args) -> tuple:
    p, d = cfg.params, cfg.scales
    columns = ["x1", "tau1", "x2", "tau2", "S", "gamma", "theta_S", "xi_S", "method", "status"]

    def row(q):
        try:
            theta_s = theta_at(q.S, p, d)
            xi_s = xi_at(q.S, p, d)
            gamma, method = _correlator_value(args.mode, q, cfg, p, d)
            if math.isinf(gamma):
                return (q.x1, q.tau1, q.x2, q.tau2, q.S, None, theta_s, xi_s, method, "divergent")
            return (q.x1, q.tau1, q.x2, q.tau2, q.S, gamma, theta_s, xi_s, method, "ok")
        except _ROW_ERRORS as exc:
            return (q.x1, q.tau1, q.x2, q.tau2, q.S, None, None, None, args.mode, f"{type(exc).__name__}: {exc}")

    return columns, [row(q) for q in _correlator_queries(cfg)], {"mode": args.mode}


def cmd_exponent(cfg: RunConfig, args) -> tuple:
    p, d = cfg.params, cfg.scales
    s_center = cfg["grid.s_center"]
    seps, gammas, rhos = [], [], []
    skipped = []  # the reason each row left out of the fit was dropped
    for q in _correlator_queries(cfg):
        try:
            gamma, _ = _correlator_value(args.mode, q, cfg, p, d)
        except TrapGasError as exc:
            skipped.append(f"{type(exc).__name__}: {exc}")
            continue
        if not math.isfinite(gamma) or gamma <= 0:
            skipped.append(f"gamma = {gamma!r}")
            continue
        seps.append(abs(zeta_of(q.dx, q.dtau, p, d)))
        gammas.append(gamma)
        rhos.append(math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d)))
    if skipped and len(seps) < MIN_FIT_SAMPLES:
        raise DataError(
            f"need at least {MIN_FIT_SAMPLES} samples, got {len(seps)}; {len(skipped)} rows skipped "
            f"(first: {skipped[0]})"
        )
    report = exponent_report(s_center, seps, gammas, rhos, p, d)
    fit = report.fit
    rel_dev = abs(fit.inv_theta - 1.0 / report.theta_S) * report.theta_S
    columns = [
        "mode", "S", "n_samples", "sep_min", "sep_max",
        "inv_theta_fit", "inv_theta_stderr", "theta_fit",
        "theta_S", "xi_S", "theta_hom", "rel_dev_vs_theta_S", "status",
    ]
    rows = [(
        args.mode, s_center, fit.n_samples, fit.sep_range[0], fit.sep_range[1],
        fit.inv_theta, fit.inv_theta_stderr, fit.theta,
        report.theta_S, report.xi_S, report.theta_hom, rel_dev, "ok",
    )]
    return columns, rows, {"mode": args.mode}


def cmd_validate(cfg: RunConfig, args, out) -> int:
    from .checks import run_all  # the checks run the oracle, which loads scipy

    overrides = {}
    for item in args.override or []:
        if "=" not in item:
            raise ConfigError(f"--override needs NAME=TOL, got {item!r}")
        name, tol_text = item.split("=", 1)
        try:
            overrides[name.strip()] = float(tol_text)
        except ValueError as exc:
            raise ConfigError(f"--override {item!r}: tolerance is not a number") from exc
    results = run_all(tol_overrides=overrides)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: value={res.value:.6g} tol={res.tol:g} ({res.seconds:.2f}s) {res.detail}",
              file=sys.stderr)
    report = {
        "version": __version__,
        "all_passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "value": r.value,
                "tol": r.tol,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ],
    }
    json.dump(report, out, indent=1)
    out.write("\n")
    return 0 if report["all_passed"] else 3


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trapgas",
                                     description="Trapped 1D Bose-gas correlation functions")
    parser.add_argument("--version", action="version", version=f"trapgas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="INI config document")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", default=None, choices=("csv", "json"), help="override output.format")

    sp = sub.add_parser("density", help="Thomas-Fermi density table")
    common(sp)
    sp = sub.add_parser("spectrum", help="collective-mode energies and spacings")
    common(sp)
    sp.add_argument("--levels", type=int, default=20, help="number of levels n = 0..levels-1")
    sp = sub.add_parser("green", help="Green-function tables")
    common(sp)
    sp.add_argument("--mode", required=True, choices=GREEN_MODES)
    sp = sub.add_parser("correlator", help="two-point correlator tables")
    common(sp)
    sp.add_argument("--mode", required=True, choices=CORRELATOR_MODES)
    sp = sub.add_parser("exponent", help="fit the power-law exponent from a generated profile")
    common(sp)
    sp.add_argument("--mode", required=True, choices=CORRELATOR_MODES)
    sp = sub.add_parser("validate", help="run the cross-validation suite")
    common(sp)
    sp.add_argument("--override", action="append", metavar="NAME=TOL",
                    help="replace one check's tolerance (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        fmt = args.format or cfg["output.format"]
        out_path = args.out or (cfg["output.path"] or None)

        buffer = io.StringIO()
        if args.command == "validate":
            code = cmd_validate(cfg, args, buffer)
        else:
            if args.command == "density":
                columns, rows, extra = cmd_density(cfg, args)
            elif args.command == "spectrum":
                columns, rows, extra = cmd_spectrum(cfg, args)
            elif args.command == "green":
                columns, rows, extra = cmd_green(cfg, args)
            elif args.command == "correlator":
                columns, rows, extra = cmd_correlator(cfg, args)
            elif args.command == "exponent":
                columns, rows, extra = cmd_exponent(cfg, args)
            else:  # pragma: no cover
                raise ConfigError(f"unknown command {args.command!r}")
            write_table(buffer, fmt, cfg, columns, rows, extra)
            code = 0

        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(buffer.getvalue())
        else:
            sys.stdout.write(buffer.getvalue())
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"numerical accuracy failure: {exc}", file=sys.stderr)
        return 4
    except TrapGasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
