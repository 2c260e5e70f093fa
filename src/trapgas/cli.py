"""Command-line front end: config ingestion, evaluator subcommands, the
validation suite, and CSV/JSON emission for plotting pipelines.

``_COMMANDS`` declares the subcommands: the parser is built from it once, on
the first ``main`` call, and ``main`` runs ``cmd_<name>``, looked up at call
time.  ``_SCHEMA`` gives each config key its parser, default and admissible
range.  ``exponent`` fits the ok rows of the ``correlator`` table's own row
function and names on stderr the rows it leaves out.

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
    gamma_d1_exact,
    gamma_from_green,
    gamma_trapped_asymptotic,
    theta_at,
    theta_homogeneous,
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
        "tail_mode": _Key(str, "bernoulli", choices=("none", "bernoulli")),
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
    d = derive_scales(params)

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


def _correlator_row(q: CorrelatorQuery, mode, cfg: RunConfig, p, d) -> tuple:
    """One row of the correlator table; an evaluation failure is its status."""
    try:
        theta_s = theta_at(q.S, p, d)
        xi_s = xi_at(q.S, p, d)
        gamma, method = _correlator_value(mode, q, cfg, p, d)
        if math.isinf(gamma):
            return (q.x1, q.tau1, q.x2, q.tau2, q.S, None, theta_s, xi_s, method, "divergent")
        return (q.x1, q.tau1, q.x2, q.tau2, q.S, gamma, theta_s, xi_s, method, "ok")
    except _ROW_ERRORS as exc:
        return (q.x1, q.tau1, q.x2, q.tau2, q.S, None, None, None, mode, f"{type(exc).__name__}: {exc}")


def cmd_correlator(cfg: RunConfig, args) -> tuple:
    p, d = cfg.params, cfg.scales
    columns = ["x1", "tau1", "x2", "tau2", "S", "gamma", "theta_S", "xi_S", "method", "status"]
    rows = [_correlator_row(q, args.mode, cfg, p, d) for q in _correlator_queries(cfg)]
    return columns, rows, {"mode": args.mode}


def cmd_exponent(cfg: RunConfig, args) -> tuple:
    """Fit the power law to the correlator table's ok rows with a finite
    positive Gamma; the others are counted on stderr."""
    p, d = cfg.params, cfg.scales
    s_center = cfg["grid.s_center"]
    theta_s = theta_at(s_center, p, d)
    seps, gammas, rhos = [], [], []
    skipped = []  # the reason each row left out of the fit was dropped
    for q in _correlator_queries(cfg):
        x1, _, x2, _, _, gamma, _, _, _, status = _correlator_row(q, args.mode, cfg, p, d)
        if status != "ok" or not (math.isfinite(gamma) and gamma > 0):
            skipped.append(f"gamma = {gamma!r}" if status == "ok" else status)
            continue
        seps.append(abs(zeta_of(q.dx, q.dtau, p, d)))
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
