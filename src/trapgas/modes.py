"""The mode map: ``_route`` takes each ``green`` and ``correlator`` mode to
its evaluator, the one that the tables of ``cli`` and checks 02, 03 and
06-10 of ``validate`` read.  The formula modules hold no map, and the FDM
oracle is loaded only when its columns run.
"""

from __future__ import annotations

from functools import partial

from .errors import AccuracyError, ConfigError, DomainError, RegimeError
from .green_homogeneous import GreenValue, homog_asymptotic_highT, homog_asymptotic_lowT, homog_series
from .green_trapped import (asympt_green_highT, asympt_green_lowT, closed_form_green, lowT_legendre_series_many,
                            matsubara_assemble_many, spectral_densities, spectral_density)
from .model import DerivedScales, PhysicalParams, Regime, classify_regime

# evaluation failures that a batched call returns as a pair's entry
_ROW_ERRORS = (RegimeError, DomainError, AccuracyError)


def _evaluate(evaluate, queries) -> list:
    """The entries of a batched call from the per-point form ``evaluate``: its GreenValue at each
    query, the row error it raised, or None where there is no form."""
    out = []
    for q in queries:
        try:
            out.append(evaluate and evaluate(q.x1, q.tau1, q.x2, q.tau2))
        except _ROW_ERRORS as exc:
            out.append(exc)
    return out


def _route(mode, p: PhysicalParams, d: DerivedScales, *, tol: float, l_max: int):
    """The evaluator of ``mode`` under its controls, its regime resolved once per table.  A
    spacetime mode's takes queries to the entry of each, the mode sum and the assembly in one call
    over them all; ``asymptotic-auto`` is ``trapped-asympt`` falling back to ``spectral``.  A
    frequency mode's, ``trapped-spectral`` or ``oracle``, takes (omegas, xs, xp) to a column for each
    omega, the entry at each x of ``xs``: its GreenValue or the row error that refused it."""
    if mode == "trapped-spectral":
        return partial(spectral_densities, p=p, d=d, tol=tol)
    if mode == "oracle":  # one solve a frequency
        return lambda omegas, xs, xp: [_oracle_column(omega, xs, xp, p, d) for omega in omegas]
    if mode in ("trapped-series", "series"):
        return partial(lowT_legendre_series_many, p=p, d=d, tol=tol)
    if mode == "spectral":
        return partial(matsubara_assemble_many, p=p, d=d, l_max=l_max, tol=tol)
    if mode == "asymptotic-auto":
        return _fallback(*(_route(form, p, d, tol=tol, l_max=l_max) for form in ("trapped-asympt", "spectral")))
    regime = classify_regime(d)
    if mode == "homog-series":
        form = partial(homog_series, tol=tol)
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


def _oracle_column(omega, xs, xp, p, d) -> list:
    """``spectral_densities(omega, xs, xp)`` from the FDM oracle, one solve
    for all points: the GreenValue at each x of ``xs``, or the DomainError
    that refuses it; a source outside the condensate refuses every point."""
    from .oracle import FdmGrid, fdm_spectral_solve  # the only table that runs the oracle

    try:
        sol = fdm_spectral_solve(omega, xp, p, d, FdmGrid(N=10_000))
    except DomainError as exc:
        if abs(xp) < d.R_c:  # the solve failed in floating point: the table's error, not a row's
            raise
        return [exc] * len(xs)
    # at omega = 0, align the mean-zero gauge with the zero mode's convention at the first grid
    # point the error estimate covers, which lies inside the boundary clamp
    x0 = next((x for x in xs if sol.outside_estimate(x) is None), None) if omega == 0.0 else None
    shift = 0.0 if x0 is None else spectral_density(0.0, x0, sol.x_source, p, d).value - float(sol.interp(x0))
    # the solve spans the condensate, its error estimate the coarse nodes' span
    return [sol.outside_estimate(x) or GreenValue(float(sol.interp(x)) + shift, "oracle", sol.disc_error_est)
            if abs(x) < d.R_c else DomainError(f"x = {x!r} is outside the condensate |x| < R_c = {d.R_c!r}")
            for x in xs]
