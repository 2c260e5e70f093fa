"""Command-line front end: config ingestion, evaluator subcommands, the
validation suite, and CSV/JSON emission for plotting pipelines.

``_COMMANDS`` declares the subcommands: the parser is built from it once, on
the first ``main`` call, and ``main`` runs ``cmd_<name>``, looked up at call
time.  ``_SCHEMA`` gives each config key its parser, default and admissible
range.  ``exponent`` fits the ok rows of the ``correlator`` table's own row
function that share the first ok row's route, and names on stderr the rows
it leaves out.

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
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import __version__
from .correlator import (
    MIN_FIT_SAMPLES,
    CorrelatorQuery,
    extract_exponent,
    gamma_from_green,
    theta_at,
    theta_homogeneous,
    xi_at,
)
from .errors import AccuracyError, ConfigError, DataError, DomainError, RegimeError, TrapGasError
from .green_homogeneous import GreenValue, HomogSeriesControl, homog_asymptotic_highT, homog_asymptotic_lowT, homog_series
from .green_trapped import (
    LowTControl,
    asympt_green_highT,
    asympt_green_lowT,
    closed_form_zero_mode,
    lowT_legendre_series,
    matsubara_assemble_many,
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


class _Key(NamedTuple):
    """One config key: its parser, its default and its admissible values; a
    float must also be finite."""

    kind: type
    default: object  # a value, or a function of the params and their derived scales
    choices: tuple = ()
    least: int | None = None  # smallest admissible value
    positive: bool = False


def _of_rc(fraction: float):
    return lambda p, d: fraction * d.R_c


_SCHEMA = {
    "params": {
        "hbar": _Key(float, 1.0),
        "m": _Key(float, 1.0),
        "g": _Key(float, 1.0),
        "Omega": _Key(float, 1.0),
        "Lambda": _Key(float, 1.0),
        "beta": _Key(float, 1.0),
    },
    "truncation": {
        "l_max": _Key(int, 64, least=0),
        "n_max": _Key(int, 256, least=1),
        "n0": _Key(int, 20, least=1),
        "tol": _Key(float, 1e-12, positive=True),
        "min_dtau": _Key(float, 1e-3, least=0),
    },
    "regime": {
        "r_lo": _Key(float, DEFAULT_R_LO),
        "r_hi": _Key(float, DEFAULT_R_HI),
    },
    "grid": {
        "x_ref": _Key(float, _of_rc(0.1)),
        "tau_ref": _Key(float, 0.0),
        "x_min": _Key(float, _of_rc(-0.8)),
        "x_max": _Key(float, _of_rc(0.8)),
        "x_count": _Key(int, 41, least=0),
        "tau_min": _Key(float, 0.0),
        "tau_max": _Key(float, lambda p, d: 0.5 * p.beta),
        "tau_count": _Key(int, 1, least=0),
        "sep_min": _Key(float, _of_rc(0.01)),
        "sep_max": _Key(float, _of_rc(0.1)),
        "sep_count": _Key(int, 9, least=0),
        "sep_spacing": _Key(str, "log", choices=("log", "linear")),
        "s_center": _Key(float, _of_rc(0.2)),
        "dtau": _Key(float, 0.0),
        "omega_list": _Key(str, "0"),
    },
    "output": {
        "format": _Key(str, "csv", choices=("csv", "json")),
        "path": _Key(str, ""),
    },
}


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
                kind = _SCHEMA[section][key].kind
                try:
                    raw[f"{section}.{key}"] = kind(text)
                except ValueError as exc:
                    raise ConfigError(f"config key {section}.{key}: cannot parse {text!r} as {kind.__name__}") from exc

    try:
        params = PhysicalParams(**{key: raw.get(f"params.{key}", rule.default)
                                   for key, rule in _SCHEMA["params"].items()})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        d = derive_scales(params)
    except ArithmeticError as exc:  # e.g. Omega**2 overflowing or underflowing to 0
        given = ", ".join(f"{key} = {getattr(params, key)!r}" for key in _SCHEMA["params"])
        raise ConfigError(f"[params] {given}: the trap scales leave the float range") from exc

    values = {}
    for section, keys in _SCHEMA.items():
        for key, rule in keys.items():
            name = f"{section}.{key}"
            default = rule.default(params, d) if callable(rule.default) else rule.default
            value = values[name] = raw.get(name, default)
            if rule.kind is float and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if rule.choices and value not in rule.choices:
                raise ConfigError(f"{name} must be {' or '.join(map(repr, rule.choices))}, got {value!r}")
            if rule.positive and not value > 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
            if rule.least is not None and not value >= rule.least:
                raise ConfigError(f"{name} must be >= {rule.least}, got {value!r}")
    if not (0 < values["regime.r_lo"] < values["regime.r_hi"]):
        raise ConfigError("regime thresholds must satisfy 0 < r_lo < r_hi")
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
    # the common cells by exact type first; np.float64 subclasses float and takes the chain
    if type(v) is float:
        return "%.17g" % v
    if type(v) is str:
        return v
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
            out.write(",".join(map(_fmt_cell, row)) + "\n")
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
            rows.append((n, e_n, de, level_spacing_expansion(n, d), "ok"))
        else:
            rows.append((n, e_n, de, None, "expansion-defined-for-n>1"))
    return ["n", "E_n", "dE", "dE_expansion", "status"], rows, {}


# evaluation failures reported in a row's status; anything else aborts the run
_ROW_ERRORS = (RegimeError, DomainError, AccuracyError)


def _route(mode, cfg: RunConfig, p, d):
    """G(x1, tau1, x2, tau2) -> GreenValue of one per-point green or
    correlator mode, its controls and regime resolved once per table; None
    where the regime has no asymptotic form."""
    if mode == "homog-series":
        return partial(homog_series, p=p, d=d, ctl=HomogSeriesControl(cfg["truncation.l_max"], cfg["truncation.n_max"]))
    if mode in ("trapped-series", "series"):
        ctl = LowTControl(n0=cfg["truncation.n0"], min_dtau=cfg["truncation.min_dtau"])
        return partial(lowT_legendre_series, p=p, d=d, ctl=ctl)
    if mode == "closed-form":
        def closed_form(x1, tau1, x2, tau2):
            if tau1 != tau2:
                raise DomainError("closed-form correlator is equal-time; set grid.dtau = 0")
            return GreenValue(closed_form_zero_mode(x1, x2, p, d), method=mode)
        return closed_form
    regime = classify_regime(d, cfg["regime.r_lo"], cfg["regime.r_hi"])
    if mode == "homog-asympt":
        form = {Regime.HIGH_T: homog_asymptotic_highT, Regime.LOW_T: homog_asymptotic_lowT}.get(regime)
        return form and partial(form, p=p, d=d)
    if mode in ("trapped-asympt", "asymptotic-auto"):
        if regime is Regime.HIGH_T:
            return partial(asympt_green_highT, p=p, d=d, r_lo=cfg["regime.r_lo"])
        if regime is Regime.LOW_T:
            return partial(asympt_green_lowT, p=p, d=d, r_hi=cfg["regime.r_hi"])
        return None
    raise ConfigError(f"unknown mode {mode!r}")


def _evaluate(evaluate, x1, tau1, x2, tau2):
    """The GreenValue of ``evaluate`` at the pair, the row error it raised,
    or None where there is no evaluator."""
    if evaluate is None:
        return None
    try:
        return evaluate(x1, tau1, x2, tau2)
    except _ROW_ERRORS as exc:
        return exc


def _green_row(x1, tau1, x2, tau2, g, mode, regime_tag) -> tuple:
    """One row of a green table from a GreenValue, the row error that
    refused it, or None where the regime has no asymptotic form."""
    if g is None:
        return (x1, tau1, x2, tau2, None, "", None, regime_tag, False, "intermediate-regime: no asymptotic form")
    if isinstance(g, TrapGasError):
        return (x1, tau1, x2, tau2, None, mode, None, regime_tag, False, f"{type(g).__name__}: {g}")
    if g.divergent:
        return (x1, tau1, x2, tau2, None, g.method, g.trunc_err, regime_tag, g.const_free, "divergent")
    status = "ok" if g.warning is None else f"warning: {g.warning}"
    return (x1, tau1, x2, tau2, g.value, g.method, g.trunc_err, regime_tag, g.const_free, status)


def cmd_green(cfg: RunConfig, args) -> tuple:
    p, d = cfg.params, cfg.scales
    mode = args.mode
    regime_tag = classify_regime(d, cfg["regime.r_lo"], cfg["regime.r_hi"]).value
    columns = ["x1", "tau1", "x2", "tau2", "G_re", "method", "trunc_err", "regime", "const_free", "status"]
    x1 = cfg["grid.x_ref"]
    tau1 = cfg["grid.tau_ref"]
    xs = [float(x) for x in np.linspace(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.x_count"])]
    extra = {"mode": mode}

    if mode == "oracle":
        from .oracle import FdmGrid, fdm_spectral_solve  # the only table that loads scipy

        anchor = next((x2 for x2 in xs if abs(x2) < d.R_c), None)
        rows = []
        for omega in cfg["grid.omegas"]:
            sol = fdm_spectral_solve(omega, x1, p, d, FdmGrid(N=10_000))
            shift = 0.0
            if omega == 0.0 and anchor is not None:
                # align the mean-zero gauge with the closed-form convention at
                # the first grid point inside the condensate
                shift = closed_form_zero_mode(anchor, sol.x_source, p, d) * p.beta - float(sol.interp(anchor))
            for x2 in xs:
                # the solve spans the condensate only
                g = (GreenValue(float(sol.interp(x2)) + shift, mode, sol.disc_error_est) if abs(x2) < d.R_c
                     else DomainError(f"x = {x2!r} is outside the condensate |x| < R_c = {d.R_c!r}"))
                rows.append(_green_row(x1, tau1, x2, tau1, g, mode, regime_tag))
        return columns, rows, extra

    if mode == "trapped-spectral":
        # ok rows are built straight from their SpectralDensity: a GreenValue a row is a measurable share of a sweep
        return columns, [
            _green_row(x1, tau1, x2, tau1, sd, mode, regime_tag) if isinstance(sd, _ROW_ERRORS)
            else (x1, tau1, x2, tau1, sd.re_part, mode, sd.err_bound, regime_tag, False, "ok")
            for omega in cfg["grid.omegas"]
            for x2, sd in zip(xs, spectral_densities(omega, xs, x1, p, d, tol=cfg["truncation.tol"]))
        ], extra

    evaluate = _route(mode, cfg, p, d)
    # tau_count = 0 gives no rows, 1 the row at tau_ref, from 2 on tau_min..tau_max
    count = cfg["grid.tau_count"]
    taus = ([tau1] * count if count <= 1
            else [float(t) for t in np.linspace(cfg["grid.tau_min"], cfg["grid.tau_max"], count)])
    return columns, [_green_row(x1, tau1, x2, tau2, _evaluate(evaluate, x1, tau1, x2, tau2), mode, regime_tag)
                     for tau2 in taus for x2 in xs], extra


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


def _correlator_rows(mode, cfg: RunConfig, p, d) -> list:
    """The correlator table's row of each pair of the separation grid; an
    evaluation failure is its row's status.  A row reads theta(S) and xi(S)
    before its Green value.  The spectral route serves every pair in
    ``spectral`` and, in ``asymptotic-auto``, each pair that has no
    asymptotic form or whose form raises RegimeError, all of them by one
    ``matsubara_assemble_many`` call."""
    queries = _correlator_queries(cfg)
    evaluate = None if mode == "spectral" else _route(mode, cfg, p, d)
    route = mode if mode == "spectral" else f"{mode}:fallback-spectral"
    rows = []
    spectral = []  # (row index, theta(S), xi(S)) of each pair the spectral route serves
    for q in queries:
        try:
            theta_s, xi_s = theta_at(q.S, p, d), xi_at(q.S, p, d)
        except _ROW_ERRORS as exc:
            rows.append(_correlator_error_row(q, mode, exc))
            continue
        g = _evaluate(evaluate, q.x1, q.tau1, q.x2, q.tau2)
        if g is None or (mode == "asymptotic-auto" and isinstance(g, RegimeError)):
            spectral.append((len(rows), theta_s, xi_s))
            rows.append(None)  # until the assembly is in
        else:
            rows.append(_correlator_row(q, theta_s, xi_s, g, mode, mode, p, d))
    assembled = matsubara_assemble_many([queries[i] for i, *_ in spectral], p, d,
                                        cfg["truncation.l_max"], cfg["truncation.tol"])
    for (i, theta_s, xi_s), g in zip(spectral, assembled):
        rows[i] = _correlator_row(queries[i], theta_s, xi_s, g, route, mode, p, d)
    return rows


def _correlator_error_row(q: CorrelatorQuery, mode, exc) -> tuple:
    """The correlator table's row of a pair whose evaluation raised ``exc``."""
    return (q.x1, q.tau1, q.x2, q.tau2, q.S, None, None, None, mode, f"{type(exc).__name__}: {exc}")


def _correlator_row(q: CorrelatorQuery, theta_s, xi_s, g, method, mode, p, d) -> tuple:
    """One row of the correlator table from the pair's Green value ``g``, or
    the error that refused it, which is then the row's status."""
    if isinstance(g, TrapGasError):
        return _correlator_error_row(q, mode, g)
    try:
        gamma = gamma_from_green(q, g, p, d)
    except _ROW_ERRORS as exc:
        return _correlator_error_row(q, mode, exc)
    if math.isinf(gamma):
        return (q.x1, q.tau1, q.x2, q.tau2, q.S, None, theta_s, xi_s, method, "divergent")
    return (q.x1, q.tau1, q.x2, q.tau2, q.S, gamma, theta_s, xi_s, method, "ok")


def cmd_correlator(cfg: RunConfig, args) -> tuple:
    p, d = cfg.params, cfg.scales
    columns = ["x1", "tau1", "x2", "tau2", "S", "gamma", "theta_S", "xi_S", "method", "status"]
    return columns, _correlator_rows(args.mode, cfg, p, d), {"mode": args.mode}


def cmd_exponent(cfg: RunConfig, args) -> tuple:
    """Fit the power law to the correlator table's ok rows from the route of
    the first, whose additive constant in G they share; the others are
    counted on stderr."""
    p, d = cfg.params, cfg.scales
    s_center = cfg["grid.s_center"]
    theta_s = theta_at(s_center, p, d)
    seps, gammas, rhos = [], [], []
    skipped = []  # the reason each row left out of the fit was dropped
    fitted_method = None
    for x1, tau1, x2, tau2, _, gamma, _, _, method, status in _correlator_rows(args.mode, cfg, p, d):
        if status != "ok":
            skipped.append(status)
            continue
        fitted_method = fitted_method or method
        if method != fitted_method:
            skipped.append(f"method {method}, not {fitted_method}")
            continue
        seps.append(abs(zeta_of(x1 - x2, tau1 - tau2, p, d)))
        gammas.append(gamma)
        rhos.append(math.sqrt(rho_tf(x1, p, d) * rho_tf(x2, p, d)))
    if skipped and len(seps) < MIN_FIT_SAMPLES:
        raise DataError(
            f"need at least {MIN_FIT_SAMPLES} samples, got {len(seps)}; {len(skipped)} rows skipped "
            f"(first: {skipped[0]})"
        )
    if skipped:
        print(f"exponent: {len(skipped)} of {len(skipped) + len(seps)} rows left out of the fit "
              f"(first: {skipped[0]})", file=sys.stderr)
    fit = extract_exponent(seps, gammas, rhos)
    columns = [
        "mode", "S", "n_samples", "sep_min", "sep_max",
        "inv_theta_fit", "inv_theta_stderr", "theta_fit",
        "theta_S", "xi_S", "theta_hom", "rel_dev_vs_theta_S", "status",
    ]
    rows = [(
        args.mode, s_center, fit.n_samples, fit.sep_range[0], fit.sep_range[1],
        fit.inv_theta, fit.inv_theta_stderr, fit.theta,
        theta_s, xi_at(s_center, p, d), theta_homogeneous(p, d),
        abs(fit.inv_theta - 1.0 / theta_s) * theta_s, "ok",
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


# name -> (help, the (flag, options) of its arguments besides --config, --out
# and --format); ``main`` runs the module function cmd_<name>
_CORRELATOR_MODE = ("--mode", {"required": True, "choices": CORRELATOR_MODES})
_COMMANDS = {
    "density": ("Thomas-Fermi density table", []),
    "spectrum": ("collective-mode energies and spacings",
                 [("--levels", {"type": int, "default": 20, "help": "number of levels n = 0..levels-1"})]),
    "green": ("Green-function tables", [("--mode", {"required": True, "choices": GREEN_MODES})]),
    "correlator": ("two-point correlator tables", [_CORRELATOR_MODE]),
    "exponent": ("fit the power-law exponent from a generated profile", [_CORRELATOR_MODE]),
    "validate": ("run the cross-validation suite",
                 [("--override", {"action": "append", "metavar": "NAME=TOL",
                                  "help": "replace one check's tolerance (repeatable)"})]),
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(prog="trapgas",
                                     description="Trapped 1D Bose-gas correlation functions")
    parser.add_argument("--version", action="version", version=f"trapgas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="INI config document")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", default=None, choices=_SCHEMA["output"]["format"].choices,
                        help="override output.format")
        for flag, options in arguments:
            sp.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        fmt = args.format or cfg["output.format"]
        out_path = args.out or (cfg["output.path"] or None)

        # looked up at call time, so a rebound cmd_<name> (as bench/tracer.py does) is the one run
        command = globals()[f"cmd_{args.command}"]
        buffer = io.StringIO()
        if args.command == "validate":
            code = command(cfg, args, buffer)
        else:
            write_table(buffer, fmt, cfg, *command(cfg, args))
            code = 0

        if out_path:
            try:
                with open(out_path, "w", encoding="utf-8") as fh:
                    fh.write(buffer.getvalue())
            except OSError as exc:
                raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc
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
