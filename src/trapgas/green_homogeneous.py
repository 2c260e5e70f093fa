"""Phase-correlation Green function of the homogeneous (untrapped) gas.

The V=0 problem on the periodic box [-R_c, R_c] x [0, beta] has the
regularized double Fourier representation

    G(x,tau; x',tau') = (-g / (2 beta R_c)) * sum_{omega,k}'
                        e^{i omega (tau-tau') + i k (x-x')} / (omega^2 + E_k^2),

with omega = (2 pi / beta) l, k = (pi / R_c) n, E_k = hbar v k, and the
(omega, k) = (0, 0) term removed.  ``homog_series`` sums it over every
omega and its zero-temperature part over k in closed form, and stops the
rest at ``tol`` by pieces that the trapped mode sum shares.  Two closed
asymptotic forms exist, one per temperature regime; both carry an
undetermined additive constant, so every cross-method comparison in this
package differences two values of one route through ``green_difference``.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError, UsageError
from .model import DerivedScales, PhysicalParams, theta_homogeneous, zeta_of

__all__ = [
    "GreenValue",
    "homog_series",
    "homog_asymptotic_highT",
    "homog_asymptotic_lowT",
    "green_difference",
    "log_2sinh_abs",
    "log_2sin_abs",
]

# rounding of a mode or frequency sum, per unit of the sum of its terms'
# magnitudes: each term's products, the exactly rounded fsum, line and prefactor
_ROUNDING = 4.0 * sys.float_info.epsilon

# largest |x| whose square is a finite float
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)

# the most modes a mode sum adds, about 0.5 s a pair for the trapped one; a
# pair whose tail bound needs more is an AccuracyError
_MODE_CAP = 2**20


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
    meta: dict = field(default_factory=dict)


def _log_abs_1_minus_exp(z: complex) -> float:
    """ln|1 - e^{-z}| for Re z >= 0, as ln hypot(1 - e^{-b}, 2 e^{-b/2} sin(a/2)),
    z = b + ia, which does not cancel where z is small; -inf at z = 0."""
    h = math.hypot(-math.expm1(-z.real), 2.0 * math.exp(-0.5 * z.real) * math.sin(0.5 * z.imag))
    return math.log(h) if h > 0.0 else -math.inf


def log_2sinh_abs(z: complex) -> float:
    """ln(2 |sinh z|) = |Re z| + ln|1 - e^{-2 (|Re z| + i Im z)}|; -inf at the zeros of sinh."""
    a = abs(z.real)
    return a + _log_abs_1_minus_exp(complex(2.0 * a, 2.0 * z.imag))


def log_2sin_abs(z: complex) -> float:
    """ln(2 |sin z|) via |sin(a+ib)| = |sinh(b+ia)|."""
    return log_2sinh_abs(complex(z.imag, z.real))


def _bad_tol(tol: float):
    """The DomainError of a tolerance that is not positive and finite, or None."""
    return None if 0.0 < tol < math.inf else DomainError(f"tolerance must be positive and finite, got {tol}")


def _bernoulli_b2(theta: float) -> float:
    """The Bernoulli polynomial B_2(theta) = theta^2 - theta + 1/6, with
    sum_{l>=1} cos(2 pi l theta)/l^2 = pi^2 B_2(theta) for 0 <= theta <= 1."""
    return theta * theta - theta + 1.0 / 6.0


def _thermal_factor(e, t: float, beta: float):
    """phi(E) = (1/beta) sum_omega e^{i omega dtau}/(omega^2 + E^2) = [e^{-E t} + e^{-E (beta - t)}]/(2 E
    (1 - e^{-beta E})) of each mode energy E > 0 of ``e``, t = |dtau| mod beta folded into [0, beta/2].
    phi(E) e^{E t} falls in E, so phi(E') <= e^{-(E' - E) t} phi(E) for E' >= E."""
    return (np.exp(-e * t) + np.exp(-e * (beta - t))) / (-np.expm1(-beta * e) * 2.0 * e)


def _mode_stop(tail, tol: float, route: str, at: str, cap: int = _MODE_CAP, bounded: bool = False) -> int:
    """The first term count N whose bound ``tail(N)`` on the terms after the first N is at most ``tol``,
    bisected as the bound falls with N; DomainError at a bad ``tol``, AccuracyError where a bound ``bounded``
    in exact arithmetic overflows a float at the cap, and past ``cap`` one that names the count, ``tol``,
    the cap and the bound there."""
    if bad := _bad_tol(tol):
        raise bad
    at_cap = tail(cap)
    if bounded and not at_cap < math.inf:
        raise AccuracyError(f"the tail bound of {route} overflows a float at {at}: it is {at_cap!r} at the cap of "
                            f"{cap} terms", achieved=math.inf)
    last = bisect.bisect_left(range(cap if at_cap <= tol else 2**62), True, key=lambda n: tail(n) <= tol)
    if last > cap:
        raise AccuracyError(f"{route} needs {'more than ' * (tail(last) > tol)}{last} terms to bound its tail "
                            f"by tol = {tol:g} at {at}: the bound at the cap of {cap} terms is {at_cap:.3e}",
                            achieved=at_cap)
    return last


def _line_plus_modes(beta: float, theta: float, terms) -> tuple:
    """(beta/2) B_2(theta) plus the exactly rounded sum of ``terms``, and its rounding allowance:
    ``_ROUNDING`` times the magnitudes summed, B_2's parts before they cancel.  AccuracyError where
    those magnitudes overflow a float or a term is nan."""
    magnitudes = (beta / 2.0) * (theta * theta + theta + 1.0 / 6.0) + float(np.sum(np.abs(terms)))
    if not magnitudes < math.inf:
        raise AccuracyError(f"the mode sum overflows a float: its magnitudes sum to {magnitudes!r}", achieved=math.inf)
    return (beta / 2.0) * _bernoulli_b2(theta) + math.fsum(terms), _ROUNDING * magnitudes


@np.errstate(all="ignore")  # an overflow is _mode_stop's or _line_plus_modes' AccuracyError
def homog_series(
    x: float, tau: float, xp: float, taup: float, p: PhysicalParams, d: DerivedScales, *, tol: float = 1e-12
) -> GreenValue:
    """The series summed over every Matsubara frequency, exact at every dtau:

        G = -(g/(2 R_c)) [(beta/2) B_2(t/beta) - ln|1 - e^{-(b - ia)}| / E_1 + sum_{n=1}^{N} 2 cos(n a) r(E_n)],

    t = |dtau| mod beta folded into [0, beta/2], a = pi dx / R_c, E_n = n E_1
    = hbar v pi n / R_c, b = E_1 t.  Each wavenumber's thermal factor, folded
    over +-n, is phi(E) = e^{-E t}/(2E) + r(E), r(E) = [e^{-E (beta - t)} +
    e^{-E (beta + t)}] / (2E (1 - e^{-beta E})); the e^{-E t}/(2E) sum to the
    logarithm.  r(E) e^{E (beta - t)} falls in E, so the modes after N add at
    most 2 r(E_{N+1}) / (1 - e^{-E_1 (beta - t)}); N is the first count whose
    bound meets ``tol`` (absolute in G).  ``trunc_err`` adds 4 eps of the
    magnitudes summed and 4 eps / E_1, the logarithm's argument's relative
    rounding.  At coincident arguments G is -inf, divergent, with an infinite
    bound.  DomainError at a dx or dtau not finite; ``_mode_stop`` raises at a
    bad ``tol``, on overflow and past its cap; ``_line_plus_modes`` on overflow.
    """
    if not math.isfinite(x - xp) or not math.isfinite(tau - taup):
        raise DomainError(f"homog_series needs finite x - x' and tau - tau', got {x - xp!r} and {tau - taup!r}")
    # dx folded into [-R_c, R_c] and dtau into [-beta/2, beta/2], both exact, so
    # that the sum is periodic and even in each bit for bit
    a = math.pi * math.remainder(x - xp, 2.0 * d.R_c) / d.R_c
    t = abs(math.remainder(tau - taup, p.beta))
    e_1 = p.hbar * d.v * math.pi / d.R_c
    pref = p.g / (2.0 * d.R_c)
    gap = -math.expm1(-e_1 * (p.beta - t))  # 0 only where E_1 beta underflows

    def remainder_factor(e):  # r(E), written out: phi(E) - e^{-E t}/(2E) would cancel
        return (np.exp(-e * (p.beta - t)) + np.exp(-e * (p.beta + t))) / (-np.expm1(-p.beta * e) * 2.0 * e)

    def tail(n: int) -> float:  # the bound on the modes after the first n
        return pref * 2.0 * float(remainder_factor((n + 1.0) * e_1)) / gap if gap else math.inf

    last = _mode_stop(tail, tol, "homog_series", f"t = {t!r}", bounded=gap != 0.0)
    log_zero_t = _log_abs_1_minus_exp(complex(e_1 * t, a))
    if log_zero_t == -math.inf:
        return _log_divergence("homog-series", math.inf, const_free=False)
    n = np.arange(1.0, last + 1)
    terms = np.append(-log_zero_t / e_1, 2.0 * np.cos(n * a) * remainder_factor(n * e_1))
    total, rounding = _line_plus_modes(p.beta, t / p.beta, terms)
    trunc_err = tail(last) + pref * (rounding + _ROUNDING / e_1)
    return GreenValue(-pref * total, "homog-series", trunc_err, meta={"modes": last})


def _log_divergence(method: str, trunc_err: float = 0.0, const_free: bool = True) -> GreenValue:
    """Marker returned at coincident arguments, where a logarithm diverges."""
    return GreenValue(-math.inf, method, trunc_err, True, const_free)


def _check_window(dx: float, dtau: float, p: PhysicalParams, d: DerivedScales):
    if not abs(dx) <= 2.0 * d.R_c:  # NaN too
        raise DomainError(f"|x - x'| = {abs(dx)} exceeds the asymptotic window bound 2 R_c = {2 * d.R_c}")
    if not abs(dtau) <= p.beta:
        raise DomainError(f"|tau - tau'| = {abs(dtau)} exceeds the asymptotic window bound beta = {p.beta}")
    if 4.0 * p.beta * d.R_c == 0.0:  # the homogeneous forms' curvature term divides by it
        raise DomainError(f"4 beta R_c underflows to 0 at beta = {p.beta!r}, R_c = {d.R_c!r}")


def homog_asymptotic_highT(
    x: float, tau: float, xp: float, taup: float, p: PhysicalParams, d: DerivedScales
) -> GreenValue:
    """Closed form for k_B T >> hbar v / R_c, up to an additive constant.

    G = (g / 2 pi hbar v) ln{2 |sinh( pi/(hbar beta v) (|dx| + i hbar v dtau) )|}
        - (g / 4 beta R_c) dx^2 / (hbar v)^2 + const.
    """
    dx, dtau = x - xp, tau - taup
    _check_window(dx, dtau, p, d)
    hv = p.hbar * d.v
    log_term = log_2sinh_abs((math.pi / (p.hbar * p.beta * d.v)) * zeta_of(dx, dtau, p, d))
    if log_term == -math.inf:  # an overflowed +inf is no divergence: the caller's finite check reports it
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
    dx, dtau = x - xp, tau - taup
    _check_window(dx, dtau, p, d)
    if not abs(dtau) <= _SQRT_FLOAT_MAX:
        raise DomainError(f"|tau - tau'| = {abs(dtau)!r}: its square in the curvature term overflows a float")
    log_term = log_2sin_abs((math.pi / (2.0 * d.R_c)) * zeta_of(dx, dtau, p, d))
    if log_term == -math.inf:
        return _log_divergence("homog-asympt-lowT")
    value = log_term / theta_homogeneous(p, d) - (p.g / (4.0 * p.beta * d.R_c)) * dtau**2
    return GreenValue(value=value, method="homog-asympt-lowT", const_free=True)


def green_difference(ga: GreenValue, gb: GreenValue) -> GreenValue:
    """G(pair_a) - G(pair_b) from the values ``ga`` and ``gb`` of one route
    at two pairs, in which additive constants cancel; its truncation error
    is the sum of the two endpoints' estimates.  Raises UsageError where the
    two come from different methods, which would silently mix conventions,
    or where either is divergent.
    """
    if ga.method != gb.method:
        raise UsageError(f"green_difference mixes methods {ga.method!r} and {gb.method!r}")
    if ga.divergent or gb.divergent:
        raise UsageError("green_difference got a divergent endpoint; pick separated arguments")
    return GreenValue(value=ga.value - gb.value, method=ga.method, trunc_err=ga.trunc_err + gb.trunc_err)
