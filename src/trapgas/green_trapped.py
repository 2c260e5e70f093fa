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
P_nu(+-u_>).  The real part is the physical (real, symmetric) spectral
density that enters the Matsubara assembly, which sums all its frequencies
in one batched pass of the series kernel; the imaginary part is reported but
excluded from correlators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AccuracyError, DomainError, RegimeError, TrapGasError
from .green_homogeneous import GreenValue, _log_divergence, log_2sinh_abs
from .legendre import _exp_split, _log_cosh_pi, _p_series, _series_cap_error, nu_from_omega, p_poly_table
from .model import DEFAULT_R_HI, DEFAULT_R_LO, DerivedScales, PhysicalParams, rho_tf, zeta_of

__all__ = [
    "BOUNDARY_EPS",
    "SpectralDensity",
    "LowTControl",
    "spectral_density",
    "spectral_densities",
    "closed_form_zero_mode",
    "matsubara_assemble",
    "lowT_legendre_series",
    "lowT_n0_drift",
    "asympt_spectral_highT",
    "asympt_green_highT",
    "asympt_green_lowT",
]

# Evaluations are clamped away from the Thomas-Fermi boundary, where Q_nu has
# its logarithmic singularity.
BOUNDARY_EPS = 1e-6
# factor of the quasi-homogeneous window of the high-temperature asymptotics
HIGHT_WINDOW_FACTOR = 0.5


@dataclass(frozen=True)
class SpectralDensity:
    """G_omega(x, x') at one Matsubara frequency.

    ``re_part``/``im_part`` are the real and imaginary parts of the full
    density; ``err_bound`` is an absolute bound on the series error of
    ``re_part``; ``terms`` counts the hypergeometric series terms it summed.
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


def _distinct_pairs(lam, u) -> tuple:
    """The positions of the distinct (lambda, u) pairs among the pairs
    ``lam``, ``u``, ordered by u and then by lambda, each the first of its
    equals, and for every pair the index of its distinct pair in that order."""
    order = np.lexsort((lam, u))
    sorted_lam, sorted_u = lam[order], u[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (sorted_lam[1:] != sorted_lam[:-1]) | (sorted_u[1:] != sorted_u[:-1])
    which = np.empty(order.size, dtype=np.int64)
    which[order] = np.cumsum(first) - 1
    return order[first], which


def _density_parts(omegas, us, ups, d: DerivedScales, k: float, tol: float) -> tuple:
    """re_part, im_part, series terms and absolute error bound of re_part of
    G_omega(x, x') for each row (omega, u, u') of the broadcast 1-D arrays
    ``omegas``, ``us``, ``ups``, with omega nonzero, by the real closed form,
    and ``cap_error``: None if every series converged, else a function that
    gives, for a list of rows, the AccuracyError of their series still open
    at the term cap, or None if all of theirs converged.

    With lambda = (alpha omega)^2, P_<(+-) = P_nu(+-u_<), P_>(+-) =
    P_nu(+-u_>) and C = (2K/pi)(pi/2)^2:

      conical line, lambda > 1/4 and nu = -1/2 + i mu:
        re = C [e^{-pi mu} P_<(+) P_>(-) - e^{pi mu} P_<(-) P_>(+)] / cosh^2(pi mu)
        im = -C [P_<(-) P_>(-) + P_<(+) P_>(+)] / cosh^2(pi mu)
      real branch, lambda <= 1/4:
        re = C [P_>(+) P_<(-) - P_<(+) P_>(-)] / sin(pi nu)
        im = -C [q_< q_> + P_<(+) P_>(+)],  q = (2/pi) Q_nu(u) = [cos(pi nu) P_nu(u) - P_nu(-u)] / sin(pi nu)

    The rows ask for 4 series each; the distinct (lambda, u) pairs among
    them, ordered by u and then by lambda, are summed in one call of the
    kernel, so a P_nu(+-u) that several rows share is summed once.
    ``cap_error(rows)`` takes the open series among the distinct pairs of
    those rows alone, in the order a call for them alone sums them, so a row
    gets the error it raises on its own.  Conical
    products are formed from mantissas and powers of two, so neither the
    exp(pi mu) growth of P nor cosh(pi mu) overflows.  Each P series carries
    a relative bound r; the bound on re weights the two relative bounds of
    each product by that product's magnitude, e.g. on the conical line
    C [|A| (r(u_<) + r(-u_>)) + |B| (r(-u_<) + r(u_>))] for re = C (A - B).
    """
    omegas, us, ups = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (omegas, us, ups)))
    lam = (d.alpha * omegas) ** 2
    lo, hi = np.minimum(us, ups), np.maximum(us, ups)
    pair_lam, pair_u = np.tile(lam, 4), np.concatenate([lo, -lo, hi, -hi])
    distinct, which = _distinct_pairs(pair_lam, pair_u)
    series = _p_series(pair_lam[distinct], pair_u[distinct], tol)
    n = lam.size

    def cap_error(rows):
        asked = (np.arange(4)[:, None] * n + np.asarray(rows)).ravel()  # the rows' pairs, in the order above
        own = asked[_distinct_pairs(pair_lam[asked], pair_u[asked])[0]]
        return _series_cap_error(pair_lam[own], pair_u[own], tuple(a[which[own]] for a in series), tol)

    (m_lo, e_lo, t1, r1), (m_mlo, e_mlo, t2, r2), (m_hi, e_hi, t3, r3), (m_mhi, e_mhi, t4, r4) = (
        tuple(a[which[i * n:(i + 1) * n]] for a in series) for i in range(4)
    )
    c = k * math.pi / 2.0
    re, im, err = np.empty(n), np.empty(n), np.empty(n)
    con = lam > 0.25
    mu = np.sqrt(lam[con] - 0.25)
    log_cosh2 = 2.0 * _log_cosh_pi(mu)
    (ma, ea), (mb, eb), (m0, e0) = (_exp_split(x) for x in (-np.pi * mu - log_cosh2, np.pi * mu - log_cosh2, -log_cosh2))
    a = np.ldexp(ma * m_lo[con] * m_mhi[con], ea + e_lo[con] + e_mhi[con])
    b = np.ldexp(mb * m_mlo[con] * m_hi[con], eb + e_mlo[con] + e_hi[con])
    re[con] = c * (a - b)
    err[con] = c * (np.abs(a) * (r1[con] + r4[con]) + np.abs(b) * (r2[con] + r3[con]))
    im[con] = -c * (np.ldexp(m0 * m_mlo[con] * m_mhi[con], e0 + e_mlo[con] + e_mhi[con])
                    + np.ldexp(m0 * m_lo[con] * m_hi[con], e0 + e_lo[con] + e_hi[con]))
    real = ~con
    lam_r = lam[real]
    neg_nu = lam_r / (0.5 + np.sqrt(0.25 - lam_r))  # -nu, free of the cancellation in -1/2 + sqrt(1/4 - lambda)
    sin_pi_nu, cos_pi_nu = -np.sin(np.pi * neg_nu), np.cos(np.pi * neg_nu)
    p_lo, p_mlo, p_hi, p_mhi = (np.ldexp(m[real], e[real]) for m, e in
                                ((m_lo, e_lo), (m_mlo, e_mlo), (m_hi, e_hi), (m_mhi, e_mhi)))
    q_lo = (cos_pi_nu * p_lo - p_mlo) / sin_pi_nu
    q_hi = (cos_pi_nu * p_hi - p_mhi) / sin_pi_nu
    re[real] = c * (p_hi * p_mlo - p_lo * p_mhi) / sin_pi_nu
    im[real] = -c * (q_lo * q_hi + p_lo * p_hi)
    err[real] = c * (np.abs(p_hi * p_mlo) * (r3[real] + r2[real])
                     + np.abs(p_lo * p_mhi) * (r1[real] + r4[real])) / np.abs(sin_pi_nu)
    return re, im, t1 + t2 + t3 + t4, err, cap_error if np.isnan(series[0]).any() else None


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
    """``spectral_density(omega, x, xp)`` at every x of ``xs``, the series of
    all points summed in one pass of the kernel.

    Entry i is the SpectralDensity at xs[i], or the DomainError or
    AccuracyError that ``spectral_density`` raises there; each is the one the
    single point gives, bitwise and word for word.  A point beyond the
    boundary clamp is set aside before the pass.  A point whose series
    reaches the term cap gets the AccuracyError built from its own distinct
    (lambda, +-u) pairs, in the order a single-point call sums them, and the
    other points keep their values from the same pass; a bad ``tol`` gives
    every point inside the clamp the kernel's DomainError.
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
        re, im, terms, err, cap_error = _density_parts(float(omega), us, ups, d, k, tol)
    except DomainError as exc:  # a bad tol, which the kernel rejects before any term
        for i in points:
            out[i] = exc
        return out
    for row, i in enumerate(points):
        capped = cap_error([row]) if cap_error else None
        out[i] = capped or SpectralDensity(float(omega), nu, xs[i], xp, float(re[row]), float(im[row]),
                                           float(err[row]), int(terms[row]))
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
    (1/beta) [G_0 + 2 sum_{l>=1} cos(omega_l dtau) Re G_omega].  All l_max
    frequencies are evaluated in one batched pass of the series kernel; if
    any of its series reaches the term cap, the AccuracyError names the first
    open series of the pass and counts the open ones.  ``trunc_err`` adds the
    frequency cutoff, estimated from the large-omega envelope
    exp(-|omega||dx|/hbar v)/|omega|, to the densities' own absolute error
    bounds.  ``meta`` carries the series terms summed and the
    frequencies used, the zero mode included.
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
    omegas = 2.0 * math.pi * np.arange(1, l_max + 1) / p.beta
    re, _, terms, errs, cap_error = _density_parts(omegas, u, up, d, k, tol)
    if cap_error:
        raise cap_error(range(l_max))
    # cos is even: |dtau| and the exactly rounded fsum keep the value bitwise
    # symmetric under swapping the two points
    total = _zero_mode_parts(u, up, k)[0] + 2.0 * math.fsum(np.cos(omegas * abs(dtau)) * re)
    err = 2.0 * float(np.sum(errs)) / p.beta

    hv = p.hbar * d.v
    s_half = 0.5 * (x + xp)
    envelope_amp = p.Lambda / (2.0 * hv * rho_tf(s_half, p, d))
    omega_next = 2.0 * math.pi * (l_max + 1) / p.beta
    first_omitted = (2.0 / p.beta) * envelope_amp * math.exp(-omega_next * abs(dx) / hv) / omega_next
    decay = math.exp(-2.0 * math.pi * abs(dx) / (hv * p.beta))
    warning = None
    if decay < 1.0:
        trunc = first_omitted / (1.0 - decay)
    else:
        trunc = first_omitted
        warning = "dx = 0: oscillatory frequency tail, truncation estimate is first omitted term"
    return GreenValue(
        value=total / p.beta,
        method="trapped-assembled",
        trunc_err=trunc + err,
        warning=warning,
        meta={"l_max": l_max, "S": s_half, "terms": int(np.sum(terms)), "frequencies": l_max + 1},
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
    """Pbar_n(cos theta): the large-n form of P_n(cos theta) with the phase
    n theta - pi/4, i.e. ``p_poly_asymptotic`` with n + 1/2 replaced by n in
    the phase, which ``_geometric_tail`` resums in closed form."""
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
    the series regularization.  Requires tau != tau' for convergence.
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

    pn_u = p_poly_table(ctl.n0, u)
    pn_up = p_poly_table(ctl.n0, up)
    corr = 0.0
    for n in range(1, ctl.n0 + 1):
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
    corr *= -p.g / (2.0 * hv)

    tail = -(p.g / (2.0 * hv)) * math.exp(-dtau / (2.0 * d.alpha)) * _geometric_tail(t, theta, theta_p)

    return GreenValue(
        value=float(bracket + corr + tail),
        method="trapped-lowT-series",
        warning=warning,
        meta={"n0": ctl.n0, "u_star": u_star, "t": t},
    )


def lowT_n0_drift(
    x: float,
    tau: float,
    xp: float,
    taup: float,
    p: PhysicalParams,
    d: DerivedScales,
    ctl: LowTControl = LowTControl(),
):
    """Run the series at n0 and 2 n0; report both values and relative drift.

    The validity gate only brackets n0, so results are reported together with
    their sensitivity to doubling it.
    """
    g1 = lowT_legendre_series(x, tau, xp, taup, p, d, ctl)
    g2 = lowT_legendre_series(x, tau, xp, taup, p, d, replace(ctl, n0=2 * ctl.n0))
    v1, v2 = g1.value, g2.value
    drift = abs(v2 - v1) / max(abs(v1), abs(v2), 1e-300)
    return g1, g2, drift


# ----------------------------------------------------------------------------
# quasi-homogeneous asymptotics
# ----------------------------------------------------------------------------


def _window_quasihom(x: float, xp: float, p: PhysicalParams, d: DerivedScales, factor: float):
    """Quasi-homogeneity gate: the background density must be essentially
    constant across the pair, and the separation small against the trap.

    Expressed through the density variation (rather than |dx|/S directly) so
    that center-symmetric pairs, where S = 0 but the background is flattest,
    pass as they should.
    """
    dx = x - xp
    s_half = 0.5 * (x + xp)
    rho_s = rho_tf(s_half, p, d)
    if rho_s <= 0.0:
        raise RegimeError(f"quasi-homogeneous window failed: midpoint S = {s_half:.6g} outside the condensate")
    checks = {
        "|dx| << R_c": abs(dx) / d.R_c,
        "TF density variation across pair": abs(rho_tf(x, p, d) - rho_tf(xp, p, d)) / rho_s,
    }
    failed = [f"{name} violated (ratio {ratio:.3g} > {factor:g})" for name, ratio in checks.items() if ratio > factor]
    if failed:
        raise RegimeError("quasi-homogeneous window failed: " + "; ".join(failed))
    return max(ratio / factor for ratio in checks.values())


def asympt_spectral_highT(
    omega: float,
    x: float,
    xp: float,
    p: PhysicalParams,
    d: DerivedScales,
) -> float:
    """Large-|omega| spectral density in the quasi-homogeneous window.

    -(Lambda / (2 hbar v rho_TF(S))) * exp(-|omega||dx|/(hbar v)) / |omega|,
    with S the midpoint; requires alpha|omega| >= 5 and the window at
    ``HIGHT_WINDOW_FACTOR``.
    """
    if d.alpha * abs(omega) < 5.0:
        raise RegimeError(
            f"alpha|omega| >= 5 violated (alpha|omega| = {d.alpha * abs(omega):.3g})"
        )
    s_half = 0.5 * (x + xp)
    _window_quasihom(x, xp, p, d, HIGHT_WINDOW_FACTOR)
    hv = p.hbar * d.v
    return -(p.Lambda / (2.0 * hv * rho_tf(s_half, p, d))) * math.exp(-abs(omega) * abs(x - xp) / hv) / abs(omega)


def asympt_green_highT(
    x: float,
    tau: float,
    xp: float,
    taup: float,
    p: PhysicalParams,
    d: DerivedScales,
    r_lo: float = DEFAULT_R_LO,
) -> GreenValue:
    """High-temperature assembled Green function, up to an additive constant.

    (Lambda / (2 pi hbar v rho_TF(S))) * ln{2 |sinh(pi/(hbar beta v)
    (|dx| + i hbar v dtau))|}; the trap enters only through rho_TF at the
    midpoint S.  Raises RegimeError outside the quasi-homogeneous window at
    ``HIGHT_WINDOW_FACTOR``.
    """
    if d.regime_ratio >= r_lo:
        raise RegimeError(f"beta/alpha < {r_lo:g} violated (beta/alpha = {d.regime_ratio:.3g})")
    s_half = 0.5 * (x + xp)
    slack = _window_quasihom(x, xp, p, d, HIGHT_WINDOW_FACTOR)
    log_term = log_2sinh_abs((math.pi / (p.hbar * p.beta * d.v)) * zeta_of(x - xp, tau - taup, p, d))
    if math.isinf(log_term):
        return _log_divergence("trapped-asympt-highT")
    hv = p.hbar * d.v
    value = p.Lambda / (2.0 * math.pi * hv * rho_tf(s_half, p, d)) * log_term
    return GreenValue(
        value=value,
        method="trapped-asympt-highT",
        const_free=True,
        meta={"window_slack": slack, "S": s_half},
    )


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
