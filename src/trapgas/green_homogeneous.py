"""Phase-correlation Green function of the homogeneous (untrapped) gas.

The V=0 problem on the periodic box [-R_c, R_c] x [0, beta] has the
regularized double Fourier representation

    G(x,tau; x',tau') = (-g / (2 beta R_c)) * sum_{omega,k}'
                        e^{i omega (tau-tau') + i k (x-x')} / (omega^2 + E_k^2),

with omega = (2 pi / beta) l, k = (pi / R_c) n, E_k = hbar v k, and the
(omega, k) = (0, 0) term removed.  ``homog_series`` sums it over every
omega in closed form, which leaves one mode sum over k, cut at n_max.  Two
closed asymptotic forms exist, one per temperature regime; both carry an
undetermined additive constant, so every cross-method comparison in this
package goes through ``green_difference``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .model import CorrelatorQuery, DerivedScales, PhysicalParams, theta_homogeneous, zeta_of

__all__ = [
    "GreenValue",
    "homog_series",
    "homog_asymptotic_highT",
    "homog_asymptotic_lowT",
    "green_difference",
    "log_2sinh_abs",
    "log_2sin_abs",
]

# rounding of the series' sum, per unit of the sum of its terms' magnitudes
_ROUNDING = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class GreenValue:
    """A Green-function value, or the difference of two, plus evaluation
    metadata.

    ``value`` is the real phase correlator G(1;2).  Every route returns it
    symmetric under swapping its two spacetime points, so it also stands for
    G(2;1).  From ``green_difference`` it is G(pair_a) - G(pair_b), in which
    the undetermined additive constant cancels.
    """

    value: float
    method: str
    trunc_err: float = 0.0
    divergent: bool = False
    const_free: bool = False
    warning: str | None = None
    meta: dict = field(default_factory=dict)


def log_2sinh_abs(z: complex) -> float:
    """ln(2 |sinh z|), stable for large |Re z|; -inf at the zeros of sinh."""
    a = abs(z.real)
    w = complex(a, z.imag)
    mag = abs(1.0 - cmath.exp(-2.0 * w))
    if mag == 0.0 and a == 0.0:
        return -math.inf
    return a + math.log(mag) if mag > 0.0 else -math.inf


def log_2sin_abs(z: complex) -> float:
    """ln(2 |sin z|) via |sin(a+ib)| = |sinh(b+ia)|."""
    return log_2sinh_abs(complex(z.imag, z.real))


def _bernoulli_b2(theta: float) -> float:
    """The Bernoulli polynomial B_2(theta) = theta^2 - theta + 1/6, with
    sum_{l>=1} cos(2 pi l theta)/l^2 = pi^2 B_2(theta) for 0 <= theta <= 1."""
    return theta * theta - theta + 1.0 / 6.0


def _thermal_factor(e, t: float, beta: float):
    """phi(E) = (1/beta) sum_omega e^{i omega dtau}/(omega^2 + E^2) = [e^{-E t} + e^{-E (beta - t)}]/(2 E
    (1 - e^{-beta E})) of each mode energy E > 0 of ``e``, t = |dtau| mod beta folded into [0, beta/2].
    phi(E) e^{E t} falls in E, so phi(E') <= e^{-(E' - E) t} phi(E) for E' >= E."""
    return (np.exp(-e * t) + np.exp(-e * (beta - t))) / (-np.expm1(-beta * e) * 2.0 * e)


def homog_series(
    x: float, tau: float, xp: float, taup: float, p: PhysicalParams, d: DerivedScales, *, n_max: int = 256
) -> GreenValue:
    """The series with every Matsubara frequency summed in closed form, cut
    at the wavenumber n_max: G = -(g/(2 R_c)) [(beta/2) B_2(dtau/beta mod 1)
    + sum_{n=1}^{n_max} 2 cos(k_n dx) phi(E_n)], the k=0 line in its
    Bernoulli form and each other wavenumber's frequency sum the thermal mode
    factor of ``_thermal_factor``, folded over +-n.  phi(E_n) falls in n, so
    the omitted tail is at most
    2 phi(E_{n_max+1}) / max(1 - e^{-E_1 u}, |sin(pi dx / 2 R_c)|), u = min(t, beta - t):
    each phi(E_{n+1}) <= e^{-E_1 u} phi(E_n), and no partial sum of
    cos(pi n dx / R_c) exceeds 1/|sin(pi dx / 2 R_c)| (Abel summation).
    ``trunc_err`` is that bound plus a rounding allowance; it is infinite
    where both vanish, at coincident arguments.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    dx = x - xp
    dtau = tau - taup
    pref = -p.g / (2.0 * d.R_c)
    line_k0 = (p.beta / 2.0) * _bernoulli_b2((dtau / p.beta) % 1.0)

    # u = min(t, beta - t), exact, so that the sum is even in dtau bit for bit;
    # phi runs to n_max + 1, the tail bound's term
    u = abs(math.remainder(dtau, p.beta))
    n_arr = np.arange(1, n_max + 2, dtype=float)
    e_k = p.hbar * d.v * (math.pi / d.R_c) * n_arr
    phi = _thermal_factor(e_k, u, p.beta)
    modes = float(np.sum(2.0 * np.cos((math.pi / d.R_c) * n_arr[:-1] * dx) * phi[:-1]))

    gap = max(-math.expm1(-float(e_k[0]) * u), abs(math.sin(math.pi * dx / (2.0 * d.R_c))))
    if gap == 0.0:  # coincident arguments
        warning, tail = "coincident arguments: series is log-divergent, value is cutoff-dependent", math.inf
    else:
        warning, tail = None, 2.0 * float(phi[-1]) / gap
    rounding = _ROUNDING * (abs(line_k0) + 2.0 * float(np.sum(phi[:-1])))
    return GreenValue(
        value=pref * (line_k0 + modes),
        method="homog-series",
        trunc_err=abs(pref) * (tail + rounding),
        divergent=(warning is not None),
        warning=warning,
        meta={"n_max": n_max},
    )


def _log_divergence(method: str) -> GreenValue:
    """Marker returned by a closed form at coincident arguments, where its
    logarithm diverges."""
    return GreenValue(
        value=-math.inf,
        method=method,
        divergent=True,
        const_free=True,
        warning="log divergence at coincident arguments",
    )


def _check_window(dx: float, dtau: float, p: PhysicalParams, d: DerivedScales):
    if abs(dx) > 2.0 * d.R_c:
        raise DomainError(f"|x - x'| = {abs(dx)} exceeds the asymptotic window bound 2 R_c = {2 * d.R_c}")
    if abs(dtau) > p.beta:
        raise DomainError(f"|tau - tau'| = {abs(dtau)} exceeds the asymptotic window bound beta = {p.beta}")


def homog_asymptotic_highT(
    x: float, tau: float, xp: float, taup: float, p: PhysicalParams, d: DerivedScales
) -> GreenValue:
    """Closed form for k_B T >> hbar v / R_c, up to an additive constant.

    G = (g / 2 pi hbar v) ln{2 |sinh( pi/(hbar beta v) (|dx| + i hbar v dtau) )|}
        - (g / 4 beta R_c) dx^2 / (hbar v)^2 + const.
    """
    dx = x - xp
    dtau = tau - taup
    _check_window(dx, dtau, p, d)
    hv = p.hbar * d.v
    log_term = log_2sinh_abs((math.pi / (p.hbar * p.beta * d.v)) * zeta_of(dx, dtau, p, d))
    if math.isinf(log_term):
        return _log_divergence("homog-asympt-highT")
    value = log_term / theta_homogeneous(p, d) - (p.g / (4.0 * p.beta * d.R_c)) * dx**2 / hv**2
    return GreenValue(value=value, method="homog-asympt-highT", const_free=True)


def homog_asymptotic_lowT(
    x: float, tau: float, xp: float, taup: float, p: PhysicalParams, d: DerivedScales
) -> GreenValue:
    """Closed form for k_B T << hbar v / R_c, up to an additive constant.

    Space and imaginary time swap roles with the high-temperature form:
    G = (g / 2 pi hbar v) ln{2 |sin( pi/(2 R_c) (|dx| + i hbar v dtau) )|}
        - (g / 4 beta R_c) dtau^2 + const.
    """
    dx = x - xp
    dtau = tau - taup
    _check_window(dx, dtau, p, d)
    log_term = log_2sin_abs((math.pi / (2.0 * d.R_c)) * zeta_of(dx, dtau, p, d))
    if math.isinf(log_term):
        return _log_divergence("homog-asympt-lowT")
    value = log_term / theta_homogeneous(p, d) - (p.g / (4.0 * p.beta * d.R_c)) * dtau**2
    return GreenValue(value=value, method="homog-asympt-lowT", const_free=True)


def green_difference(evaluate, pair_a: CorrelatorQuery, pair_b: CorrelatorQuery) -> GreenValue:
    """G(pair_a) - G(pair_b) under one evaluator; additive constants cancel.

    The difference of two real Green values is real; its truncation error is
    the sum of the two endpoints' estimates.

    ``evaluate(x, tau, xp, taup)`` returns a :class:`GreenValue`, like the
    Green functions themselves with their remaining arguments bound (e.g.
    ``partial(homog_series, p=p, d=d, n_max=n_max)``); it is called at
    (x1, tau1, x2, tau2) of each pair.  Both evaluations must come back
    tagged with the same method, otherwise the difference would silently
    mix conventions.
    """
    ga = evaluate(pair_a.x1, pair_a.tau1, pair_a.x2, pair_a.tau2)
    gb = evaluate(pair_b.x1, pair_b.tau1, pair_b.x2, pair_b.tau2)
    if ga.method != gb.method:
        raise UsageError(f"green_difference mixes methods {ga.method!r} and {gb.method!r}")
    if ga.divergent or gb.divergent:
        raise UsageError("green_difference got a divergent endpoint; pick separated arguments")
    return GreenValue(value=ga.value - gb.value, method=ga.method, trunc_err=ga.trunc_err + gb.trunc_err)
