"""Green function of the trapped (non-homogeneous) phase-correlation problem.

For each bosonic Matsubara frequency omega = 2 pi l / beta the spectral
density G_omega(x, x') solves

    -(omega^2/(hbar v)^2) G + d/dx[(1 - x^2/R_c^2) dG/dx] = (g/(hbar v)^2) delta(x - x')

on (-R_c, R_c).  Its closed form combines Legendre functions of degree
nu(omega) = -1/2 + sqrt(1/4 - alpha^2 omega^2):

    jump component    K eps(x-x') [ Q_nu(u) P_nu(u') - Q_nu(u') P_nu(u) ]
    smooth component  -K [ (2/pi) Q_nu(u) Q_nu(u') + (pi/2) P_nu(u) P_nu(u') ]

with u = x/R_c, K = g R_c / (2 hbar^2 v^2), the full density being
(jump) + i*(smooth) = -i (2K/pi) W_plus(u_<) W_minus(u_>), W_pm(u) = Q_nu(u)
+- i (pi/2) P_nu(u).  For conical degrees the two components are complex
individually and cancel almost completely in the sum, so they are never
formed: through the connection formula and the real closed-form phases
sin(pi nu) = -cosh(pi mu), e^{+-i pi nu} = -+i e^{-+pi mu} of the conical
line nu = -1/2 + i mu, the real and imaginary parts of the full value are
cancellation-free real combinations of the positive P_nu(+-u_<),
P_nu(+-u_>), from the fixed-cost Mehler-Dirichlet quadrature of
``legendre._p_quad`` with their exponents combined before one exp; on the
real branch they come as (P_nu - 1)/nu, so that the O(nu) differences of the
closed form do not cancel.  The real part is the physical (real, symmetric)
spectral density that enters the Matsubara assembly, which evaluates all its
frequencies in one pass of the kernel; the imaginary part is reported but
excluded from correlators.

Two frequency-summed forms stand beside the assembly.  At low temperature
``lowT_legendre_series`` sums the discrete modes, exact up to a crossover
index n0 and resummed beyond it, and reports as its error how far the value
moves when the exact part runs on to 2 n0.  At high temperature
``asympt_green_highT`` adds to the exact zero mode the Liouville-Green (WKB)
density of every other frequency, written in the optical distance
X = R_c |arcsin u - arcsin u'|, and sums them in closed form; it holds at
any pair of points outside the edge layer of the condensate, where the lowest
frequency's WKB phase mu_1 arccos|u| is large.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, RegimeError, TrapGasError
from .green_homogeneous import GreenValue, _log_divergence
from .legendre import _NODES, _nu_real, _p_quad, _q_real, nu_from_omega, p_poly_table
from .model import DEFAULT_R_HI, DEFAULT_R_LO, WINDOW_FACTOR, DerivedScales, PhysicalParams, rho_tf, zeta_of

__all__ = [
    "BOUNDARY_EPS",
    "SpectralDensity",
    "LowTControl",
    "spectral_density",
    "spectral_densities",
    "closed_form_zero_mode",
    "matsubara_assemble",
    "lowT_legendre_series",
    "asympt_green_highT",
    "asympt_green_lowT",
]

# Evaluations are clamped away from the Thomas-Fermi boundary, where Q_nu has
# its logarithmic singularity.
BOUNDARY_EPS = 1e-6

# rounding of an assembled frequency sum, per unit of the sum of its terms'
# magnitudes: cos and the product in each term, the exactly rounded fsum, the
# zero mode's addition and the division by beta
_ASSEMBLY_ROUNDING = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class SpectralDensity:
    """G_omega(x, x') at one Matsubara frequency.

    ``re_part``/``im_part`` are the real and imaginary parts of the full
    density; ``err_bound`` bounds the quadrature error of ``re_part``, not
    the rounding of its conical exponent (a few eps times the exponent);
    ``terms`` counts the integrand evaluations of its four P_nu.
    """

    omega: float
    nu: complex
    x: float
    xp: float
    re_part: float
    im_part: float
    err_bound: float
    terms: int = 0

    @property
    def value(self) -> complex:
        return complex(self.re_part, self.im_part)


@dataclass(frozen=True)
class LowTControl:
    """Controls for the low-temperature Legendre series.

    n0        crossover index below which exact polynomials are used
    min_dtau  minimum |tau - tau'| / beta before an accuracy warning
    """

    n0: int = 20
    min_dtau: float = 1e-3

    def __post_init__(self):
        if self.n0 < 1:
            raise DomainError("n0 must be >= 1")


def _clamped_u(x: float, d: DerivedScales) -> float:
    u = x / d.R_c
    if abs(u) > 1.0 - BOUNDARY_EPS:
        raise DomainError(
            f"|x|/R_c = {abs(u):.9g} exceeds the boundary clamp 1 - {BOUNDARY_EPS:g}; "
            "trapped evaluations require interior points"
        )
    return u


def _k_coeff(p: PhysicalParams, d: DerivedScales) -> float:
    return p.g * d.R_c / (2.0 * (p.hbar * d.v) ** 2)


def _zero_mode_parts(u: float, up: float, k: float) -> tuple:
    """(re_part, im_part) of G_0, whose degree nu = 0 has closed elementary forms."""
    au, aup = math.atanh(u), math.atanh(up)
    return k * abs(au - aup), -k * ((2.0 / math.pi) * au * aup + math.pi / 2.0)


def _angle_difference(lo, hi):
    """arccos(lo) - arccos(hi), lo <= hi, to a few ulps relative: one atan2
    of its sine, taken as (hi - lo)(hi + lo) / (sin(theta_<) hi + lo
    sin(theta_>)) where sin(theta_<) hi - lo sin(theta_>) would cancel."""
    s_lo, s_hi = (np.sqrt((1.0 - v) * (1.0 + v)) for v in (lo, hi))
    sin_d = s_lo * hi - lo * s_hi
    np.divide((hi - lo) * (hi + lo), s_lo * hi + lo * s_hi, out=sin_d, where=lo * hi > 0.0)
    return np.arctan2(sin_d, lo * hi + s_lo * s_hi)


def _density_parts(omegas, us, ups, d: DerivedScales, k: float, tol: float) -> tuple:
    """re_part, im_part and absolute error bound of re_part of G_omega(x, x')
    for each row (omega, u, u') of the broadcast 1-D arrays ``omegas``,
    ``us``, ``ups``, with omega nonzero, by the real closed form, from one
    call of the quadrature kernel for all four P_nu(+-u_<), P_nu(+-u_>) of
    every row.

    With lambda = (alpha omega)^2, P_<(+-) = P_nu(+-u_<), P_>(+-) =
    P_nu(+-u_>) and C = (2K/pi)(pi/2)^2:

      conical line, lambda > 1/4 and nu = -1/2 + i mu:
        re = C [e^{-pi mu} P_<(+) P_>(-) - e^{pi mu} P_<(-) P_>(+)] / cosh^2(pi mu)
        im = -C [P_<(-) P_>(-) + P_<(+) P_>(+)] / cosh^2(pi mu)
      real branch, lambda <= 1/4:
        re = C [P_>(+) P_<(-) - P_<(+) P_>(-)] / sin(pi nu)
        im = -C [q_< q_> + P_<(+) P_>(+)],  q = (2/pi) Q_nu(u) = [cos(pi nu) P_nu(u) - P_nu(-u)] / sin(pi nu)

    On the conical line the kernel returns P_nu(u) = I(u) e^{mu theta},
    theta = arccos u, and each product combines its exponents before one
    exp: the dominant e^{pi mu} P_<(-) P_>(+)/cosh^2(pi mu) is
    4 I_<(-) I_>(+) e^{-mu (theta_< - theta_>)}/(1 + e^{-2 pi mu})^2, so
    nothing overflows and its rounding, a few eps times mu (theta_< -
    theta_>), scales with the value's own log-magnitude.  On the real branch
    the kernel returns D = (P_nu - 1)/nu, and re = C nu/sin(pi nu) [P_>(+)
    (D_<(-) - D_>(-)) + P_>(-) (D_>(+) - D_<(+))] has no O(1) cancellation.
    The bound weights each kernel row's relative estimate by the magnitude
    of the term it enters.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    omegas, us, ups = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (omegas, us, ups)))
    lam = (d.alpha * omegas) ** 2
    lo, hi = np.minimum(us, ups), np.maximum(us, ups)
    n = lam.size
    value, exponent, rel = (a.reshape(4, n) for a in _p_quad(np.tile(lam, 4), np.concatenate([lo, -lo, hi, -hi])))
    re, im, err = np.empty(n), np.empty(n), np.empty(n)
    c, con = k * math.pi / 2.0, lam > 0.25
    if con.any():
        re[con], im[con], err[con] = _conical_parts(lam[con], lo[con], hi[con], value[:, con], exponent[:, con],
                                                    rel[:, con], c)
    real = ~con
    if real.any():
        re[real], im[real], err[real] = _real_parts(lam[real], value[:, real], rel[:, real], c)
    return re, im, err


def _conical_parts(lam, lo, hi, value, exponent, rel, c: float) -> tuple:
    """re, im and the bound on re of ``_density_parts`` on the conical line."""
    (v1, v2, v3, v4), (e1, e2, e3, e4), (r1, r2, r3, r4) = value, exponent, rel
    mu = np.sqrt(lam - 0.25)
    d_theta = _angle_difference(lo, hi)
    w = 4.0 * c / (1.0 + np.exp(-2.0 * np.pi * mu)) ** 2
    a = w * v1 * v4 * np.exp(-mu * (2.0 * np.pi - d_theta))
    b = w * v2 * v3 * np.exp(-mu * d_theta)
    im = -w * (v2 * v4 * np.exp(-e1 - e3) + v1 * v3 * np.exp(-e2 - e4))
    return a - b, im, np.abs(a) * (r1 + r4) + np.abs(b) * (r2 + r3)


def _real_parts(lam, value, rel, c: float) -> tuple:
    """re, im and the bound on re of ``_density_parts`` on the real branch,
    where ``value`` holds D = (P_nu - 1)/nu."""
    (d1, d2, d3, d4), (r1, r2, r3, r4) = value, rel
    nu = _nu_real(lam)
    p_lo, p_hi, p_mhi = 1.0 + nu * d1, 1.0 + nu * d3, 1.0 + nu * d4
    ratio = c * nu / np.sin(np.pi * nu)
    re = ratio * (p_hi * (d2 - d4) + p_mhi * (d3 - d1))
    im = -c * (_q_real(nu, nu, d1, d2) * _q_real(nu, nu, d3, d4) + p_lo * p_hi)
    err = np.abs(ratio) * (np.abs(p_hi) * (np.abs(d2) * r2 + np.abs(d4) * r4)
                           + np.abs(p_mhi) * (np.abs(d3) * r3 + np.abs(d1) * r1))
    return re, im, err


def _bound_error(omega: float, x: float, xp: float, re: float, im: float, err: float, tol: float) -> AccuracyError:
    """The AccuracyError of a density whose bound ``err`` exceeds ``tol``
    times its magnitude |re + i im|."""
    size = math.hypot(re, im)
    return AccuracyError(
        f"spectral density at omega = {omega:.6g}, x = {x!r}, x' = {xp!r}: quadrature bound {err:.3e} "
        f"> tol = {tol:g} times |G_omega| = {size:.3e}",
        achieved=err / size if size else math.inf,
    )


def spectral_density(
    omega: float,
    x: float,
    xp: float,
    p: PhysicalParams,
    d: DerivedScales,
    tol: float = 1e-13,
) -> SpectralDensity:
    """Evaluate the closed-form spectral density at one Matsubara frequency."""
    (sd,) = spectral_densities(omega, [x], xp, p, d, tol)
    if isinstance(sd, TrapGasError):
        raise sd
    return sd


def spectral_densities(
    omega: float,
    xs,
    xp: float,
    p: PhysicalParams,
    d: DerivedScales,
    tol: float = 1e-13,
) -> list:
    """``spectral_density(omega, x, xp)`` at every x of ``xs``, the P_nu of
    all points evaluated in one pass of the kernel.

    Entry i is the SpectralDensity at xs[i], or the DomainError or
    AccuracyError that ``spectral_density`` raises there; each is the one the
    single point gives, bitwise and word for word.  A point beyond the
    boundary clamp is set aside before the pass.  A point whose error bound
    exceeds ``tol`` times its magnitude gets its own AccuracyError, and the
    other points keep their values from the same pass; a bad ``tol`` gives
    every point inside the clamp the same DomainError.
    """
    nu = nu_from_omega(omega, d)
    k = _k_coeff(p, d)
    out, points = [], []
    for i, x in enumerate(xs):
        try:
            out.append((_clamped_u(x, d), _clamped_u(xp, d)))
            points.append(i)
        except DomainError as exc:
            out.append(exc)
    if nu == 0:  # omega = 0: integer degree, closed elementary forms
        for i in points:
            out[i] = SpectralDensity(float(omega), nu, xs[i], xp, *_zero_mode_parts(*out[i], k), err_bound=0.0)
        return out
    if not points:
        return out
    us, ups = np.array([out[i] for i in points]).T
    try:
        re, im, err = _density_parts(float(omega), us, ups, d, k, tol)
    except DomainError as exc:  # a bad tol, rejected before the pass
        for i in points:
            out[i] = exc
        return out
    beyond = err > tol * np.hypot(re, im)
    for row, i in enumerate(points):
        parts = float(re[row]), float(im[row]), float(err[row])
        out[i] = (_bound_error(float(omega), xs[i], xp, *parts, tol) if beyond[row]
                  else SpectralDensity(float(omega), nu, xs[i], xp, *parts, terms=4 * _NODES.size))
    return out


def closed_form_zero_mode(x: float, xp: float, p: PhysicalParams, d: DerivedScales) -> float:
    """Equal-time zero-mode Green function in closed form.

    (g R_c / (beta (2 hbar v)^2)) * ln[ ((1 + |dx|/2R_c)^2 - s^2)
                                       / ((1 - |dx|/2R_c)^2 - s^2) ],
    with s = (x + x')/(2 R_c).  Algebraically identical to beta^{-1} times the
    real spectral density at omega = 0.
    """
    half_d = abs(x - xp) / (2.0 * d.R_c)
    half_s = (x + xp) / (2.0 * d.R_c)
    num = (1.0 + half_d) ** 2 - half_s**2
    den = (1.0 - half_d) ** 2 - half_s**2
    if num <= 0.0 or den <= 0.0:
        raise DomainError(
            f"zero-mode log argument non-positive (num={num:.6g}, den={den:.6g}); "
            "points too near the condensate boundary"
        )
    hv = p.hbar * d.v
    return p.g * d.R_c / (p.beta * (2.0 * hv) ** 2) * math.log(num / den)


def matsubara_assemble(
    x: float,
    tau: float,
    xp: float,
    taup: float,
    p: PhysicalParams,
    d: DerivedScales,
    l_max: int,
    tol: float = 1e-13,
) -> GreenValue:
    """Assemble G(x,tau;x',tau') = (1/beta) sum_l e^{i omega dtau} G_omega.

    The zero mode is kept (finite for the trap).  The physical real spectral
    densities are even in omega, so folding +-l gives an exactly real value:
    (1/beta) [G_0 + 2 sum_{l=1}^{L} cos(omega_l dtau) Re G_omega].  The sum
    stops at the first L <= ``l_max`` whose truncation estimate is at most
    ``tol``: the first omitted term of the large-omega envelope
    exp(-|omega||dx|/hbar v)/|omega|, over 1 - e^{-2 pi |dx|/(hbar v beta)}
    for the geometric decay of the terms after it.  G is dimensionless and
    Gamma goes as e^{-G}, so ``tol`` bounds the relative error of Gamma.  At
    dx = 0 the envelope does not decay and the sum runs to ``l_max``.  The L
    frequencies are evaluated in one pass of the quadrature kernel; the
    first whose density bound exceeds ``tol`` times its magnitude raises its
    AccuracyError.  ``trunc_err`` adds the truncation estimate at L to the
    densities' own absolute error bounds and to the rounding of the assembled
    sum, a few eps times (|G_0| + 2 sum |cos(omega dtau) Re G_omega|)/beta.
    ``meta`` carries the cap ``l_max``, the integrand evaluations and the
    frequencies summed, the zero mode included.
    """
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    dx = x - xp
    dtau = tau - taup
    if dx == 0.0 and (dtau % p.beta) == 0.0:
        raise AccuracyError(
            "matsubara_assemble at coincident points: frequency series is log-divergent",
            achieved=math.inf,
        )
    u = _clamped_u(x, d)
    up = _clamped_u(xp, d)
    k = _k_coeff(p, d)

    hv = p.hbar * d.v
    s_half = 0.5 * (x + xp)
    envelope_amp = p.Lambda / (2.0 * hv * rho_tf(s_half, p, d))
    decay = math.exp(-2.0 * math.pi * abs(dx) / (hv * p.beta))

    def truncation(last: int) -> float:
        omega_next = 2.0 * math.pi * (last + 1) / p.beta
        first_omitted = (2.0 / p.beta) * envelope_amp * math.exp(-omega_next * abs(dx) / hv) / omega_next
        return first_omitted / (1.0 - decay) if decay < 1.0 else first_omitted

    # the estimate falls with L: bisect for the first L that meets tol
    lo, last = 0, l_max
    while decay < 1.0 and lo < last:
        mid = (lo + last) // 2
        if truncation(mid) <= tol:
            last = mid
        else:
            lo = mid + 1

    omegas = 2.0 * math.pi * np.arange(1, last + 1) / p.beta
    re, im, errs = _density_parts(omegas, u, up, d, k, tol)
    beyond = np.flatnonzero(errs > tol * np.hypot(re, im))
    if beyond.size:
        row = beyond[0]
        raise _bound_error(float(omegas[row]), x, xp, float(re[row]), float(im[row]), float(errs[row]), tol)
    # cos is even: |dtau| and the exactly rounded fsum keep the value bitwise
    # symmetric under swapping the two points
    zero = _zero_mode_parts(u, up, k)[0]
    terms = np.cos(omegas * abs(dtau)) * re
    total = zero + 2.0 * math.fsum(terms)
    rounding = _ASSEMBLY_ROUNDING * (abs(zero) + 2.0 * float(np.sum(np.abs(terms))))
    err = (2.0 * float(np.sum(errs)) + rounding) / p.beta
    warning = None
    if decay == 1.0:
        warning = "dx = 0: oscillatory frequency tail, truncation estimate is first omitted term"
    return GreenValue(
        value=total / p.beta,
        method="trapped-assembled",
        trunc_err=truncation(last) + err,
        warning=warning,
        meta={"l_max": l_max, "S": s_half, "terms": 4 * _NODES.size * last, "frequencies": last + 1},
    )


# ----------------------------------------------------------------------------
# low-temperature Legendre series
# ----------------------------------------------------------------------------


def _u_star(dx: float, dtau: float, p: PhysicalParams, d: DerivedScales) -> float:
    return abs(zeta_of(dx, dtau, p, d)) / d.R_c


def _gate_lowT(n0: int, u_star: float):
    failures = []
    if n0 < 5:
        failures.append(f"n0 >= 5 violated (n0 = {n0})")
    if n0 * u_star >= 1.0:
        failures.append(f"n0 * u_* < 1 violated (n0 * u_* = {n0 * u_star:.4g})")
    if failures:
        raise RegimeError("low-temperature validity gate failed: " + "; ".join(failures))


def _p_poly_integer_phase(n: int, theta: float) -> float:
    """Pbar_n(cos theta) = sqrt(2 / (pi n sin theta)) cos(n theta - pi/4):
    the large-n form of P_n(cos theta), whose phase (n + 1/2) theta - pi/4
    is replaced by n theta - pi/4, which ``_geometric_tail`` resums in
    closed form."""
    amp = math.sqrt(2.0 / (math.pi * n * math.sin(theta)))
    phase = float(n) * theta - math.pi / 4.0
    return amp * math.cos(phase)


def _geometric_tail(t: float, theta: float, theta_p: float) -> float:
    """sum_{n>=1} t^n Pbar_n(cos theta) Pbar_n(cos theta') in closed form.

    Pbar is ``_p_poly_integer_phase``; the products reduce to
    cos(n dtheta) and sin(n (theta+theta')) series, each summable through
    ln(1 - t e^{i phi}).
    """
    d_th = theta - theta_p
    s_th = theta + theta_p
    amp = 1.0 / (math.pi * math.sqrt(math.sin(theta) * math.sin(theta_p)))
    cos_sum = -cmath.log(1.0 - t * cmath.exp(1j * d_th)).real
    sin_sum = -cmath.log(1.0 - t * cmath.exp(1j * s_th)).imag
    return amp * (cos_sum + sin_sum)


def lowT_legendre_series(
    x: float,
    tau: float,
    xp: float,
    taup: float,
    p: PhysicalParams,
    d: DerivedScales,
    ctl: LowTControl = LowTControl(),
) -> GreenValue:
    """Frequency-summed Green function for beta E_n >> 1 (low temperature).

    Value = Bernoulli bracket (the n = 0 frequency line) + exact-minus-
    asymptotic corrections for n <= n0 + closed geometric tail with the
    asymptotic polynomial form; the (omega, n) = (0, 0) term is omitted as
    the series regularization.  Requires tau != tau' for convergence.  The
    same pass carries the corrections on to 2 n0: ``trunc_err`` is
    |v(2 n0) - v(n0)|, the value's sensitivity to the crossover index, which
    the validity gate only brackets.
    """
    u = _clamped_u(x, d)
    up = _clamped_u(xp, d)
    dtau = abs(tau - taup)
    if dtau == 0.0:
        raise DomainError("lowT_legendre_series requires tau != tau'")
    if dtau > p.beta:
        raise DomainError(f"|tau - tau'| = {dtau} exceeds beta = {p.beta}")

    beta_e1 = p.beta * math.sqrt(2.0) / d.alpha
    if beta_e1 < 10.0:
        raise RegimeError(
            f"low-temperature series requires beta E_1 >> 1; got beta E_1 = {beta_e1:.3g} "
            f"(regime_ratio = {d.regime_ratio:.3g})"
        )
    u_star = _u_star(x - xp, dtau, p, d)
    _gate_lowT(ctl.n0, u_star)

    warning = None
    if dtau < ctl.min_dtau * p.beta:
        warning = (
            f"dtau/beta = {dtau / p.beta:.3g} below min_dtau = {ctl.min_dtau:g}; "
            "omitted-term estimate degrades near coincident times"
        )

    hv = p.hbar * d.v
    theta = math.acos(u)
    theta_p = math.acos(up)
    t = math.exp(-dtau / d.alpha)

    tau_hat = dtau / p.beta
    bracket = -(p.g * p.beta / (4.0 * d.R_c)) * ((0.5 - tau_hat) ** 2 - 1.0 / 12.0)

    pn_u = p_poly_table(2 * ctl.n0, u)
    pn_up = p_poly_table(2 * ctl.n0, up)
    corr = corr_n0 = 0.0
    for n in range(1, 2 * ctl.n0 + 1):
        root = math.sqrt(n * (n + 1.0))
        w_n = (n + 0.5) / root
        # P_n(u) P_n(u') first, so that the value is bitwise symmetric in u, u'
        exact = w_n * (pn_u[n] * pn_up[n]) * math.exp(-root * dtau / d.alpha)
        approx = (
            _p_poly_integer_phase(n, theta)
            * _p_poly_integer_phase(n, theta_p)
            * math.exp(-(n + 0.5) * dtau / d.alpha)
        )
        corr += exact - approx
        if n == ctl.n0:
            corr_n0 = corr

    weight = -p.g / (2.0 * hv)
    tail = weight * math.exp(-dtau / (2.0 * d.alpha)) * _geometric_tail(t, theta, theta_p)
    value = float(bracket + corr_n0 * weight + tail)
    doubled = float(bracket + corr * weight + tail)

    return GreenValue(
        value=value,
        method="trapped-lowT-series",
        trunc_err=abs(doubled - value),
        warning=warning,
        meta={"n0": ctl.n0, "u_star": u_star, "t": t},
    )


# ----------------------------------------------------------------------------
# closed-form asymptotics
# ----------------------------------------------------------------------------


def asympt_green_highT(
    x: float,
    tau: float,
    xp: float,
    taup: float,
    p: PhysicalParams,
    d: DerivedScales,
    r_lo: float = DEFAULT_R_LO,
) -> GreenValue:
    """High-temperature Green function: the exact zero mode plus the
    Liouville-Green (WKB) densities of every other frequency, summed in
    closed form.

    At large |omega| the spectral ODE has the solution
    G_LG(omega) = -(g / (2 hbar v |omega|)) ((1 - u^2)(1 - u'^2))^(-1/4)
    exp(-|omega| X / (hbar v)) in the optical distance
    X = R_c |arcsin u - arcsin u'|, and (1/beta) sum_{l != 0} e^{i omega_l dtau}
    G_LG(omega_l) sums in closed form to

        G = G_0 / beta + A ln|1 - e^{-2z}|,
        z = (pi / lambda_T) (X + i hbar v dtau),
        A = (g / (2 pi hbar v)) ((1 - u^2)(1 - u'^2))^(-1/4),

    an absolute value.  Its small-|z| power law has the local exponent
    theta(S) / sqrt(1 - S^2/R_c^2), the curved-metric picture of Dubail,
    Stephan, Viti & Calabrese, SciPost Phys. 2, 002 (2017).

    The WKB form needs mu arccos|u| >> 1 at the lowest frequency,
    mu_1 ~ 2 pi alpha / beta; in the edge layer below that its amplitude grows
    without bound while the exact density stays finite.  Raises RegimeError
    unless beta/alpha < ``r_lo`` and mu_1 arccos(max(|u|, |u'|)) >= 1 /
    WINDOW_FACTOR, where |G - G_exact| measured at most 3e-3 at beta/alpha =
    0.05 and 0.099 (1e-5 for |u| <= 0.8 at 0.05).  Returns the divergence
    marker at coincident points.
    """
    if d.regime_ratio >= r_lo:
        raise RegimeError(f"beta/alpha < {r_lo:g} violated (beta/alpha = {d.regime_ratio:.3g})")
    u = _clamped_u(x, d)
    up = _clamped_u(xp, d)
    edge = 2.0 * math.pi * d.alpha / p.beta * math.acos(max(abs(u), abs(up)))
    if edge < 1.0 / WINDOW_FACTOR:
        raise RegimeError(f"Liouville-Green gate mu_1 arccos|u| >> 1 failed in the edge layer of the "
                          f"condensate (got {edge:.3g} < {1.0 / WINDOW_FACTOR:g})")
    hv = p.hbar * d.v
    z = (math.pi / d.lambda_T) * complex(d.R_c * abs(math.asin(u) - math.asin(up)), hv * (tau - taup))
    mag = abs(1.0 - cmath.exp(-2.0 * z))
    if mag == 0.0:
        return _log_divergence("trapped-asympt-highT")
    amp = p.g / (2.0 * math.pi * hv) * ((1.0 - u * u) * (1.0 - up * up)) ** -0.25
    value = _zero_mode_parts(u, up, _k_coeff(p, d))[0] / p.beta + amp * math.log(mag)
    return GreenValue(value=value, method="trapped-asympt-highT", meta={"S": 0.5 * (x + xp)})


def asympt_green_lowT(
    x: float,
    tau: float,
    xp: float,
    taup: float,
    p: PhysicalParams,
    d: DerivedScales,
    ctl: LowTControl = LowTControl(),
    r_hi: float = DEFAULT_R_HI,
) -> GreenValue:
    """Low-temperature leading logarithm, up to an additive constant.

    -(Lambda / (2 pi hbar v rho_TF(S))) * ln(R_c / |dx + i hbar v dtau|),
    valid for u_* << 1 under the crossover gate n0 < 1/u_*.
    """
    if d.regime_ratio <= r_hi:
        raise RegimeError(f"beta/alpha > {r_hi:g} violated (beta/alpha = {d.regime_ratio:.3g})")
    dx = x - xp
    dtau = abs(tau - taup)
    u_star = _u_star(dx, dtau, p, d)
    if u_star == 0.0:
        return _log_divergence("trapped-asympt-lowT")
    _gate_lowT(ctl.n0, u_star)
    s_half = 0.5 * (x + xp)
    hv = p.hbar * d.v
    value = -(p.Lambda / (2.0 * math.pi * hv * rho_tf(s_half, p, d))) * math.log(1.0 / u_star)
    return GreenValue(
        value=value,
        method="trapped-asympt-lowT",
        const_free=True,
        meta={"u_star": u_star, "S": s_half, "n0": ctl.n0},
    )
