"""Command-line front end: config ingestion, evaluator subcommands, the
validation suite, and CSV/JSON emission for plotting pipelines.

``_COMMANDS`` declares the subcommands: the parser is built from it once, on
the first ``main`` call, and ``main`` runs ``cmd_<name>``, looked up at call
time.  ``_SCHEMA`` gives each config key its parser, default and admissible
range.  ``_route`` maps every spacetime mode, ``spectral`` and
``asymptotic-auto`` included, to one batch evaluator of a table's pairs;
``asymptotic-auto`` is a fallback of two.  ``exponent`` fits the ok rows of
the ``correlator`` table's own row function that share the first ok row's
route, and names on stderr the rows it leaves out.

Config documents are flat INI text (``key = value`` under section headers);
unknown sections or keys are rejected.  Every table echoes the fully
resolved configuration (defaults included) into its metadata; ``--format``
and ``--out`` choose how and where it is written.  ``validate`` reads no
config and always writes JSON.  Output is deterministic: fixed column order,
fixed row order, 17-significant-digit numbers, no randomness anywhere.

Exit codes: 0 success, 2 config error or refused evaluation, 3 failed check.
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
from .correlator import MIN_FIT_SAMPLES, _sqrt_rho_pair, extract_exponent, gamma_from_green
from .errors import AccuracyError, ConfigError, DataError, DomainError, RegimeError, TrapGasError
from .green_homogeneous import GreenValue, homog_asymptotic_highT, homog_asymptotic_lowT, homog_series
from .green_trapped import (
    _ROW_ERRORS,
    _evaluate,
    _k_coeff,
    asympt_green_highT,
    asympt_green_lowT,
    closed_form_green,
    lowT_legendre_series_many,
    matsubara_assemble_many,
    spectral_densities,
    spectral_density,
)
from .model import (
    CorrelatorQuery,
    DerivedScales,
    PhysicalParams,
    Regime,
    classify_regime,
    derive_scales,
    energy_level,
    level_spacing_expansion,
    rho_tf,
    theta_at,
    theta_homogeneous,
    xi_at,
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
        "l_max": _Key(int, 2**17, least=0),
        "tol": _Key(float, 1e-12, positive=True),
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
}


@dataclass
class RunConfig:
    params: PhysicalParams
    scales: DerivedScales
    values: dict  # flat "section.key" -> resolved value

    def __getitem__(self, key):
        return self.values[key]


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
        if not all(0.0 < s < math.inf for s in (d.v, d.R_c, d.alpha, d.lambda_T, _k_coeff(params, d))):
            raise ArithmeticError  # one rounded to 0 or inf, the trapped routes' coupling K among them
    except ArithmeticError as exc:  # e.g. Omega**2 overflowing, or (hbar v)^2 underflowing to 0 in K
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
    g = {key: values[f"grid.{key}"] for key in _SCHEMA["grid"]}
    if bad := [key for key in ("sep_min", "sep_max") if g["sep_spacing"] == "log" and not g[key] > 0]:
        raise ConfigError(f"grid.{bad[0]} must be > 0 under grid.sep_spacing = log, got {g[bad[0]]!r}")
    # each grid's span and each correlator point must be a finite float
    for name, value in (("x_max - x_min", g["x_max"] - g["x_min"]), ("tau_max - tau_min", g["tau_max"] - g["tau_min"]),
                        ("sep_max - sep_min", g["sep_max"] - g["sep_min"] if g["sep_spacing"] == "linear" else 0.0),
                        ("|s_center| + |sep|/2", abs(g["s_center"]) + max(abs(g["sep_min"]), abs(g["sep_max"])) / 2.0),
                        ("tau_ref + dtau", g["tau_ref"] + g["dtau"])):
        if not math.isfinite(value):
            raise ConfigError(f"grid: {name} = {value!r} leaves the float range")
    try:
        values["grid.omegas"] = [float(s) for s in str(values["grid.omega_list"]).split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"grid.omega_list: cannot parse {values['grid.omega_list']!r}") from exc
    if not all(map(math.isfinite, values["grid.omegas"])):
        raise ConfigError(f"grid.omega_list entries must be finite, got {values['grid.omega_list']!r}")
    return RunConfig(params=params, scales=d, values=values)


# ----------------------------------------------------------------------------
# table emission
# ----------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    # the common cells by exact type first; a numpy scalar is the Python scalar it holds,
    # as in the JSON mirror (np.float64 subclasses float and takes the chain)
    if type(v) is float:
        return "%.17g" % v
    if type(v) is str:
        return v
    v = v.item() if isinstance(v, np.generic) else v
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _json_cell(v):
    """The JSON value of a cell, the one its ``_fmt_cell`` text reads back as."""
    v = v.item() if isinstance(v, np.generic) else v
    return v if v is None or isinstance(v, (bool, str)) else float(v) if isinstance(v, float) else int(v)


def _fmt_column(cells: tuple):
    """``_fmt_cell`` of each of one column's cells.  A cell object that recurs is formatted
    once, keyed by identity (-0.0 == 0.0 and True == 1 == 1.0); a column of str is its own
    text, and one of distinct floats takes "%.17g" with no dispatch."""
    ids = list(map(id, cells))
    first = dict(zip(ids, cells))
    if len(first) < len(ids):
        text = {key: _fmt_cell(v) for key, v in first.items()}
        return [text[ids[0]]] * len(ids) if len(text) == 1 else list(map(text.__getitem__, ids))
    kinds = set(map(type, cells))
    return (cells if kinds == {str} else ["%.17g" % v for v in cells] if kinds == {float}
            else list(map(_fmt_cell, cells)))


def _csv_column(cells: tuple):
    """``_fmt_column`` with each cell that holds a comma, a double quote or a line break
    quoted as RFC 4180 does; one search of the joined column finds whether any does."""
    texts = _fmt_column(cells)
    joined = "".join(texts)
    if not any(c in joined for c in ',"\r\n'):
        return texts
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t for t in texts]


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
    """Emit one table as CSV (with '#' metadata header), column by column, or the JSON mirror."""
    meta = _meta_lines(cfg, extra_meta or {})
    if fmt == "csv":
        body = map(",".join, zip(*map(_csv_column, zip(*rows))))
        out.write("\n".join([*(f"# {line}" for line in meta), ",".join(columns), *body]) + "\n")
    else:
        payload = {
            "meta": meta,
            "columns": columns,
            "rows": [[_json_cell(c) for c in row] for row in rows],
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
    d = cfg.scales
    if args.levels < 0:
        raise ConfigError(f"--levels must be >= 0, got {args.levels}")
    e = energy_level(np.arange(args.levels + 1), d).tolist()
    rows = [(n, e[n], e[n + 1] - e[n], *((level_spacing_expansion(n, d), "ok") if n > 1
                                         else (None, "expansion-defined-for-n>1"))) for n in range(args.levels)]
    return ["n", "E_n", "dE", "dE_expansion", "status"], rows, {}


def _route(mode, cfg: RunConfig, p, d):
    """queries -> the GreenValue of each, the row error that refused it, or
    None where the regime has no asymptotic form, under one spacetime green
    or correlator mode, its controls and regime resolved once per table.
    The thermal mode sum and the Matsubara assembly take the whole table in
    one call, the other forms one pair at a time; ``asymptotic-auto`` is the
    ``trapped-asympt`` form falling back to ``spectral``."""
    if mode in ("trapped-series", "series"):
        return partial(lowT_legendre_series_many, p=p, d=d, tol=cfg["truncation.tol"])
    if mode == "spectral":
        return partial(matsubara_assemble_many, p=p, d=d, l_max=cfg["truncation.l_max"], tol=cfg["truncation.tol"])
    if mode == "asymptotic-auto":
        return _fallback(_route("trapped-asympt", cfg, p, d), _route("spectral", cfg, p, d))
    regime = classify_regime(d)
    if mode == "homog-series":
        form = partial(homog_series, tol=cfg["truncation.tol"])
    elif mode == "closed-form":
        form = closed_form_green
    elif mode == "homog-asympt":
        form = {Regime.HIGH_T: homog_asymptotic_highT, Regime.LOW_T: homog_asymptotic_lowT}.get(regime)
    elif mode == "trapped-asympt":
        form = {Regime.HIGH_T: asympt_green_highT, Regime.LOW_T: asympt_green_lowT}.get(regime)
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return partial(_evaluate, form and partial(form, p=p, d=d))


def _fallback(primary, secondary):
    """The evaluator that gives ``primary``'s entry of each query, but
    ``secondary``'s, from one call over them all, of each query that
    ``primary`` leaves None or refuses with RegimeError."""
    def evaluate(queries) -> list:
        out = primary(queries)
        refused = [i for i, g in enumerate(out) if g is None or isinstance(g, RegimeError)]
        for i, g in zip(refused, secondary([queries[i] for i in refused])):
            out[i] = g
        return out
    return evaluate


def _not_finite(source: str, **cells):
    """The AccuracyError naming the first of ``cells`` that is not finite, or None: no ok row holds nan or inf."""
    for name, value in cells.items():
        if not math.isfinite(value):
            return AccuracyError(f"{name} = {value!r} from {source} is not finite", achieved=math.inf)
    return None


def _green_row(x1, tau1, x2, tau2, g, mode, regime_tag) -> tuple:
    """One row of a green table from a GreenValue, the row error that
    refused it, or None where the regime has no asymptotic form."""
    if isinstance(g, GreenValue) and not g.divergent:
        g = _not_finite(g.method, G=g.value, trunc_err=g.trunc_err) or g
    if g is None:
        return (x1, tau1, x2, tau2, None, "", None, regime_tag, False, "intermediate-regime: no asymptotic form")
    if isinstance(g, TrapGasError):
        return (x1, tau1, x2, tau2, None, mode, None, regime_tag, False, f"{type(g).__name__}: {g}")
    if g.divergent:
        return (x1, tau1, x2, tau2, None, g.method, g.trunc_err, regime_tag, g.const_free, "divergent")
    return (x1, tau1, x2, tau2, g.value, g.method, g.trunc_err, regime_tag, g.const_free, "ok")


def cmd_green(cfg: RunConfig, args) -> tuple:
    p, d = cfg.params, cfg.scales
    mode = args.mode
    regime_tag = classify_regime(d).value
    columns = ["x1", "tau1", "x2", "tau2", "G_re", "method", "trunc_err", "regime", "const_free", "status"]
    x1, tau1 = cfg["grid.x_ref"], cfg["grid.tau_ref"]
    xs = [float(x) for x in np.linspace(cfg["grid.x_min"], cfg["grid.x_max"], cfg["grid.x_count"])]
    extra = {"mode": mode}

    if mode == "oracle":
        from .oracle import FdmGrid, fdm_spectral_solve  # the only table that loads scipy

        rows = []
        for omega in cfg["grid.omegas"]:
            sol = fdm_spectral_solve(omega, x1, p, d, FdmGrid(N=10_000))
            # at omega = 0, align the mean-zero gauge with the zero mode's convention at the first grid
            # point the error estimate covers, which lies inside the boundary clamp
            x0 = next((x for x in xs if sol.outside_estimate(x) is None), None) if omega == 0.0 else None
            shift = 0.0 if x0 is None else spectral_density(0.0, x0, sol.x_source, p, d).re_part - float(sol.interp(x0))
            for x2 in xs:
                # the solve spans the condensate, its error estimate the coarse nodes' span
                g = (sol.outside_estimate(x2) or GreenValue(float(sol.interp(x2)) + shift, mode, sol.disc_error_est)
                     if abs(x2) < d.R_c else DomainError(f"x = {x2!r} is outside the condensate |x| < R_c = {d.R_c!r}"))
                rows.append(_green_row(x1, tau1, x2, tau1, g, mode, regime_tag))
        return columns, rows, extra

    if mode == "trapped-spectral":
        # a finite density's ok row is built straight from it: a GreenValue a row is a measurable share of a sweep
        return columns, [
            (x1, tau1, x2, tau1, sd.re_part, mode, sd.err_bound, regime_tag, False, "ok")
            if not isinstance(sd, _ROW_ERRORS) and math.isfinite(sd.re_part) and math.isfinite(sd.err_bound)
            else _green_row(x1, tau1, x2, tau1, sd if isinstance(sd, _ROW_ERRORS)
                            else GreenValue(sd.re_part, mode, sd.err_bound), mode, regime_tag)
            for omega in cfg["grid.omegas"]
            for x2, sd in zip(xs, spectral_densities(omega, xs, x1, p, d, tol=cfg["truncation.tol"]))
        ], extra

    # tau_count = 0 gives no rows, 1 the row at tau_ref, from 2 on tau_min..tau_max
    count = cfg["grid.tau_count"]
    taus = ([tau1] * count if count <= 1
            else [float(t) for t in np.linspace(cfg["grid.tau_min"], cfg["grid.tau_max"], count)])
    queries = [CorrelatorQuery(x1, tau1, x2, tau2) for tau2 in taus for x2 in xs]
    return columns, [_green_row(q.x1, q.tau1, q.x2, q.tau2, g, mode, regime_tag)
                     for q, g in zip(queries, _route(mode, cfg, p, d)(queries))], extra


def _sep_grid(cfg: RunConfig) -> np.ndarray:
    spacing = np.geomspace if cfg["grid.sep_spacing"] == "log" else np.linspace
    return spacing(cfg["grid.sep_min"], cfg["grid.sep_max"], cfg["grid.sep_count"])


def _correlator_queries(cfg: RunConfig) -> list:
    """Pairs (S + sep/2, tau_ref + dtau; S - sep/2, tau_ref) over the separation grid."""
    s_center, tau_ref, dtau = cfg["grid.s_center"], cfg["grid.tau_ref"], cfg["grid.dtau"]
    return [CorrelatorQuery(s_center + sep / 2.0, tau_ref + dtau, s_center - sep / 2.0, tau_ref)
            for sep in map(float, _sep_grid(cfg))]


def _correlator_rows(mode, cfg: RunConfig, p, d) -> list:
    """The correlator table's row of each pair of the separation grid, from
    one ``_route`` call over them all; an evaluation failure is its row's
    status."""
    queries = _correlator_queries(cfg)
    return [_correlator_row(q, g, mode, p, d) for q, g in zip(queries, _route(mode, cfg, p, d)(queries))]


def _correlator_row(q: CorrelatorQuery, g, mode, p, d) -> tuple:
    """One row of the correlator table from the pair's Green value ``g``, or
    the error that refused it.  theta(S) and xi(S) are read first, so an
    error of theirs is the row's status before ``g``'s; a row of the
    spectral fallback names it in its method."""
    try:
        theta_s, xi_s = theta_at(q.S, p, d), xi_at(q.S, p, d)
        if isinstance(g, _ROW_ERRORS):
            raise g
        gamma = gamma_from_green(q, g, p, d)
        method = f"{mode}:fallback-spectral" if mode == "asymptotic-auto" and g.method == "trapped-assembled" else mode
        if g.divergent:
            return (q.x1, q.tau1, q.x2, q.tau2, q.S, None, theta_s, xi_s, method, "divergent")
        if bad := _not_finite(method, gamma=gamma, theta_S=theta_s, xi_S=xi_s, trunc_err=g.trunc_err):
            raise bad
    except _ROW_ERRORS as exc:
        return (q.x1, q.tau1, q.x2, q.tau2, q.S, None, None, None, mode, f"{type(exc).__name__}: {exc}")
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
        rhos.append(_sqrt_rho_pair(x1, x2, p, d))
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


def cmd_validate(args, out) -> int:
    from .checks import run_all  # the checks run the oracle, which loads scipy

    results = run_all()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: value={res.value:.6g} tol={res.tol:g} ({res.seconds:.4f}s) {res.detail}",
              file=sys.stderr)
    report = {
        "version": __version__,
        "all_passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "value": r.value if math.isfinite(r.value) else None,
                "tol": r.tol,
                "passed": r.passed,
                "seconds": round(r.seconds, 6),
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


# name -> (help, the (flag, options) of its arguments besides --out and, on a
# table, --config and --format); ``main`` runs the module function cmd_<name>
_CORRELATOR_MODE = ("--mode", {"required": True, "choices": CORRELATOR_MODES})
_COMMANDS = {
    "density": ("Thomas-Fermi density table", []),
    "spectrum": ("collective-mode energies and spacings",
                 [("--levels", {"type": int, "default": 20, "help": "number of levels n = 0..levels-1"})]),
    "green": ("Green-function tables", [("--mode", {"required": True, "choices": GREEN_MODES})]),
    "correlator": ("two-point correlator tables", [_CORRELATOR_MODE]),
    "exponent": ("fit the power-law exponent from a generated profile", [_CORRELATOR_MODE]),
    "validate": ("run the cross-validation suite", []),
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
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if name != "validate":
            sp.add_argument("--config", default=None, help="INI config document")
            sp.add_argument("--format", default="csv", choices=("csv", "json"), help="table format (default csv)")
        for flag, options in arguments:
            sp.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_<name> (as bench/tracer.py does) is the one run
        command = globals()[f"cmd_{args.command}"]
        buffer = io.StringIO()
        if args.command == "validate":
            code = command(args, buffer)
        else:
            cfg = load_config(args.config)
            write_table(buffer, args.format, cfg, *command(cfg, args))
            code = 0

        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(buffer.getvalue())
            except OSError as exc:
                raise ConfigError(f"cannot write output {args.out!r}: {exc}") from exc
        else:
            sys.stdout.write(buffer.getvalue())
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrapGasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
