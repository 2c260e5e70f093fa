"""Green function of the trapped (non-homogeneous) phase-correlation problem.

For each bosonic Matsubara frequency omega = 2 pi l / beta the spectral
density G_omega(x, x') solves

    -(omega^2/(hbar v)^2) G + d/dx[(1 - x^2/R_c^2) dG/dx] = (g/(hbar v)^2) delta(x - x')

on (-R_c, R_c).  With u = x/R_c and K = g R_c / (2 hbar^2 v^2), it is the
real part of -i (2K/pi) W_plus(u_<) W_minus(u_>), W_pm(u) = Q_nu(u) +-
i (pi/2) P_nu(u), whose Legendre functions have the degree
nu(omega) = -1/2 + sqrt(1/4 - alpha^2 omega^2), which enters only through
lambda = (alpha omega)^2 = -nu(nu+1), admitted by ``_checked_lambda`` alone,
and on the conical line mu = sqrt(lambda - 1/4); on the real branch that
real part is K eps(x-x') [Q_nu(u) P_nu(u') - Q_nu(u') P_nu(u)], the term
with the source's slope jump.  The imaginary part, the smooth
-K [(2/pi) Q_nu(u) Q_nu(u') + (pi/2) P_nu(u) P_nu(u')], solves the
homogeneous equation, enters no correlator and is not formed.  For conical
degrees Q_nu is complex and the terms of the product cancel almost
completely, so they are never formed either: through the connection formula
and the real closed-form phases sin(pi nu) = -cosh(pi mu), e^{+-i pi nu} =
-+i e^{-+pi mu} of the conical line nu = -1/2 + i mu, the real part is a
cancellation-free real combination of the positive P_nu(+-u_<),
P_nu(+-u_>), from the fixed-cost Mehler-Dirichlet quadrature of
``legendre._p_quad`` with their exponents combined before one exp; on the
real branch they come as (P_nu - 1)/nu, so that the O(nu) differences of the
closed form do not cancel.  This real part is the physical spectral
density, a GreenValue of method "trapped-spectral" in the spectral tables,
and the term of the Matsubara assembly; both evaluate a table's densities
together, in passes of up to ``_PASS_ROWS``.  A pair's far frequencies past
mu = 9 read P_nu(-u_<) and P_nu(u_>) from a Chebyshev interpolant in 1/mu
(``_far_interp``).

Beside the assembly stand the equal-time closed form ``closed_form_green``,
the zero mode alone, G_0/beta, and two frequency-summed forms.
``lowT_legendre_series_many`` sums the discrete modes P_n(x/R_c), each over
every frequency in closed form, exact at any temperature where tau != tau',
and stops where a proven bound on the omitted modes meets its tolerance.  At
high temperature ``asympt_green_highT`` adds to the exact zero mode the
Liouville-Green (WKB) density of every other frequency, written in the
optical distance X = R_c |arcsin u - arcsin u'|, and sums them in closed
form; it holds at any pair of points outside the edge layer of the
condensate, where the lowest frequency's WKB phase mu_1 arccos|u| is large.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import AccuracyError, DomainError, RegimeError, TrapGasError
from .green_homogeneous import (_ROUNDING, _SQRT_FLOAT_MAX, GreenValue, _bad_tol, _check_window, _line_plus_modes,
                                _log_abs_1_minus_exp, _log_divergence, _mode_stop, _thermal_factor)
from .legendre import _NODES, _nu_real, _p_quad, p_poly_table
from .model import (
    WINDOW_FACTOR,
    CorrelatorQuery,
    DerivedScales,
    PhysicalParams,
    Regime,
    classify_regime,
    energy_level,
    theta_at,
    theta_homogeneous,
    zeta_of,
)

__all__ = [
    "BOUNDARY_EPS",
    "closed_form_green",
    "spectral_density",
    "spectral_densities",
    "matsubara_assemble",
    "matsubara_assemble_many",
    "lowT_legendre_series",
    "lowT_legendre_series_many",
    "asympt_green_highT",
    "asympt_green_lowT",
]

# Evaluations are clamped away from the Thomas-Fermi boundary, where Q_nu has
# its logarithmic singularity.
BOUNDARY_EPS = 1e-6

# rounding of ``_zero_mode``, per unit of its value: five roundings in the
# argument of log1p, which passes them on at most once (its condition number
# w/((1 + w) log1p w) is at most 1), log1p's own ulp and the product with K
_ZERO_MODE_ROUNDING = 5.0 * sys.float_info.epsilon

# the densities of one kernel pass: the pairs of a Matsubara assembly, one a
# frequency, and the columns of a spectral table, one a point, share passes of
# at most this many, or one pair's or column's own where it has more, so that
# a pass's arrays grow with the longest of them and not with the table's size
_PASS_ROWS = 4096


def _passes(sizes) -> list:
    """Runs of consecutive indices whose ``sizes`` add up to at most ``_PASS_ROWS``, or one alone past it."""
    runs, total = [], 0
    for i, size in enumerate(sizes):
        if not runs or total + size > _PASS_ROWS:
            runs.append([])
            total = 0
        runs[-1].append(i)
        total += size
    return runs


def _values(out) -> list:
    """``out``, the entries of one batched call, with its first error raised."""
    for entry in out:
        if isinstance(entry, TrapGasError):
            raise entry
    return out


def _clamped_u(x: float, d: DerivedScales) -> float:
    u = x / d.R_c
    if not abs(u) <= 1.0 - BOUNDARY_EPS:  # NaN too
        raise DomainError(
            f"|x|/R_c = {abs(u):.9g} exceeds the boundary clamp 1 - {BOUNDARY_EPS:g}; "
            "trapped evaluations require interior points"
        )
    return u


def _checked_lambda(omega: float, d: DerivedScales) -> float:
    """lambda = (alpha omega)^2 = -nu(nu+1), the one number through which the
    frequency omega enters its density.  Raises DomainError where alpha omega
    is NaN or its square overflows a float."""
    a_omega = d.alpha * omega
    if math.isnan(a_omega):
        raise DomainError(f"omega = {omega!r}: alpha omega is nan")
    if not abs(a_omega) <= _SQRT_FLOAT_MAX:
        raise DomainError(f"omega = {omega!r}: (alpha omega)^2 overflows a float (alpha omega = {a_omega!r})")
    return a_omega**2


def _k_coeff(p: PhysicalParams, d: DerivedScales) -> float:
    return p.g * d.R_c / (2.0 * (p.hbar * d.v) ** 2)


def _zero_mode(u: float, up: float, k: float) -> float:
    """G_0 = K |atanh u - atanh u'|, the density at degree nu = 0, to
    ``_ZERO_MODE_ROUNDING`` times its value.

    With the pair ordered and mirrored so that a >= |b|, it is (K/2)
    log1p(2 (a - b)/((1 - a)(1 + b))), whose argument takes five roundings
    and no cancellation, at any separation and at the boundary clamp.  The
    difference of two atanh cancels at small separations (1.9e-6 relative
    at u - u' = 1e-12), and atanh of its tanh, (a - b)/(1 - a b), loses
    digits where that tanh nears 1.  The order makes the value bitwise
    symmetric in u, u'.
    """
    a, b = (u, up) if abs(u) >= abs(up) else (up, u)
    if a < 0.0:
        a, b = -a, -b
    return 0.5 * k * math.log1p(2.0 * (a - b) / ((1.0 - a) * (1.0 + b)))


def _angle_difference(lo, hi):
    """arccos(lo) - arccos(hi), lo <= hi, to a few ulps relative: one atan2
    of its sine, taken as (hi - lo)(hi + lo) / (sin(theta_<) hi + lo
    sin(theta_>)) where sin(theta_<) hi - lo sin(theta_>) would cancel."""
    s_lo, s_hi = (np.sqrt((1.0 - v) * (1.0 + v)) for v in (lo, hi))
    sin_d = s_lo * hi - lo * s_hi
    np.divide((hi - lo) * (hi + lo), s_lo * hi + lo * s_hi, out=sin_d, where=lo * hi > 0.0)
    return np.arctan2(sin_d, lo * hi + s_lo * s_hi)


def _density_parts(omegas, us, ups, d: DerivedScales, k: float, tol: float, sizes=()) -> tuple:
    """G_omega(x, x'), the absolute error bound of it and its scale, the sum
    of the magnitudes of its terms, for each row (omega, u, u') of the
    broadcast 1-D arrays ``omegas``, ``us``, ``ups``, by the real closed
    form, its direct rows from one call of the quadrature kernel; and the
    number of kernel rows each row took, four or two, or none at a zero mode.

    With lambda = (alpha omega)^2, P_<(+-) = P_nu(+-u_<), P_>(+-) =
    P_nu(+-u_>) and C = (2K/pi)(pi/2)^2:

      conical line, lambda > 1/4 and nu = -1/2 + i mu:
        G = C [e^{-pi mu} P_<(+) P_>(-) - e^{pi mu} P_<(-) P_>(+)] / cosh^2(pi mu) = a - b
      real branch, lambda <= 1/4:
        G = C [P_>(+) P_<(-) - P_<(+) P_>(-)] / sin(pi nu)

    On the conical line the kernel returns P_nu(u) = I(u) e^{mu theta},
    theta = arccos u, and each product combines its exponents before one
    exp: the dominant e^{pi mu} P_<(-) P_>(+)/cosh^2(pi mu) is
    4 I_<(-) I_>(+) e^{-mu (theta_< - theta_>)}/(1 + e^{-2 pi mu})^2, so
    nothing overflows and its rounding, a few eps times mu (theta_< -
    theta_>), scales with the value's own log-magnitude.  On the real branch
    the kernel returns D = (P_nu - 1)/nu, and G = C nu/sin(pi nu) [P_>(+)
    (D_<(-) - D_>(-)) + P_>(-) (D_>(+) - D_<(+))] has no O(1) cancellation.
    The bound weights each kernel row's relative estimate by the magnitude
    of the term it enters, and the scale adds those magnitudes: |a| + |b|,
    or |C nu/sin(pi nu)| [|P_>(+)| (|D_<(-)| + |D_>(-)|) + |P_>(-)|
    (|D_>(+)| + |D_<(+)|)], which stays nonzero where G is exactly 0, as on
    the real branch at x = x'.  A row with 0.25 - lambda == 0.25 (lambda
    below 2^-56, where nu/sin(pi nu) is 0/0 once it underflows) is the zero
    mode's closed form, with no kernel row, its rounding as bound and its
    magnitude as scale.

    A conical row that ``_far_rows`` proves far integrates only P_<(-) and
    P_>(+), the rows of b, and takes G = -b: bitwise a - b, as |a| <
    e^-48 |b| is under half an ulp of b; its bound adds e^-48 |b| for a.
    Every other row integrates all four P_nu.  Given ``sizes``, the rows of
    each pair, ``_far_interp`` may take those two from interpolants instead.
    Each caller has checked ``tol`` with ``_bad_tol``.
    """
    # one float array of the broadcast rows: np.broadcast_arrays takes 10 us on one point
    args = np.empty((3,) + np.broadcast(omegas, us, ups).shape)
    args[0], args[1], args[2] = omegas, us, ups
    omegas, us, ups = args
    lam = (d.alpha * omegas) ** 2
    n = lam.size
    zero = 0.25 - lam == 0.25
    re, err, scale = np.empty((3, n))
    re[zero] = [_zero_mode(u, up, k) for u, up in zip(us[zero].tolist(), ups[zero].tolist())]
    scale[zero] = np.abs(re[zero])
    err[zero] = _ZERO_MODE_ROUNDING * scale[zero]
    if zero.all():  # as at omega = 0: no kernel row
        return re, err, scale, np.zeros(n, dtype=int)
    lo, hi = np.minimum(us, ups), np.maximum(us, ups)
    con = lam > 0.25
    mu = np.sqrt(lam[con] - 0.25)
    far = np.zeros(n, dtype=bool)
    far[con] = _far_rows(mu, lo[con], hi[con])
    # the rows P_<(+), P_<(-), P_>(+), P_>(-), in that order, less P_<(+) and P_>(-) of a far row;
    # an unread row stays 0, so that a = 0 and G = -b
    kept = np.ones((4, n), dtype=bool)
    kept[0] = kept[3] = ~far
    kept[:, zero] = False
    value, rel = np.zeros((2, 4, n))
    # an interpolated row's bound stays under tol/2 times b: tol refuses none that the direct rows would not
    charged = _far_interp(lam, lo, hi, far, sizes, min(_TERP_TOL, tol / 4.0), kept, value, rel) if len(sizes) else 0
    if kept.any():
        value[kept], rel[kept] = _p_quad(np.broadcast_to(lam, (4, n))[kept], np.stack([lo, -lo, hi, -hi])[kept])
    c = k * math.pi / 2.0
    if con.any():
        re[con], err[con], scale[con] = _conical_parts(mu, lo[con], hi[con], value[:, con], rel[:, con], c, far[con])
    real = ~con & ~zero
    if real.any():
        re[real], err[real], scale[real] = _real_parts(lam[real], value[:, real], rel[:, real], c)
    return re, err, scale, np.count_nonzero(kept, axis=0) + charged


# the far rows at mu >= _MU_S (mu_1 = 8.9 at the default config; lower mu converges slowly) of a
# pair with more than _TERP_MIN of them, two kernel rows each, take two interpolants, 2 (16 + 1)
# rows at degree 16.  _TERP_TOL keeps the tables' moves at rounding level.  _HELD_X: x = 2t - 1
# of the held-out row, off every node, |sin(n arccos x)| >= 0.7 at n = 16, 32, 64.  _CHEB_T: t at
# the Chebyshev points of the second kind of degree 64 (t = 1 first), then at the held-out row
_MU_S, _TERP_MIN, _TERP_TOL, _HELD_X = 9.0, 17, 1e-14, -math.sin(3.0 * math.pi / 128.0)
_CHEB_T = np.append(0.5 + 0.5 * np.cos(np.pi * np.arange(65) / 64), 0.5 + 0.5 * _HELD_X)


def _clenshaw(coef, j, x):
    """sum_k coef[k, j] T_k(x) by Clenshaw's recurrence at each entry of the
    arrays ``j`` and ``x``; trailing zero coefficients change no bit."""
    x2, b1, b2 = x + x, np.zeros_like(x), np.zeros_like(x)
    for c in coef[:0:-1]:
        b1, b2 = c[j] + x2 * b1 - b2, b1
    return coef[0, j] + x * b1 - b2


def _far_interp(lam, lo, hi, far, sizes, target: float, kept, value, rel):
    """Take P_<(-) and P_>(+) (rows 1 and 2 of ``kept``, ``value``, ``rel``)
    from Chebyshev interpolants at the far rows with mu >= _MU_S of each pair
    of ``sizes`` (its rows, in order) with more than ``_TERP_MIN`` of them;
    return their kernel rows, on each such pair's first row.

    At fixed u, h(t) = sqrt(2 pi mu sin theta) I(u; mu), I = P_nu(u)
    e^{-mu theta}, is analytic in t = _MU_S/mu on [0, 1] with h(0) = 1 (DLMF
    14.20(vii); Trefethen, ATAP, chs. 5 and 8).  A point takes h at degree
    16, 32, 64, one ``_p_quad`` call a doubling, until its estimate (the
    rows' ``rel``) is at most ``target``: its coefficients of degree 7n/8 and
    above, plus the Lebesgue constant times the largest node estimate, over
    the least node, plus 4 eps.  Else, or if its held-out row is off by more
    than both estimates, it keeps its direct rows.
    """
    pair = np.repeat(np.arange(len(sizes)), sizes)
    far = far & (lam >= _MU_S * _MU_S + 0.25)
    takes = np.bincount(pair, far, len(sizes)) > _TERP_MIN
    if not takes.any():
        return 0
    start = (np.cumsum(sizes) - sizes)[takes]
    us = np.concatenate([-lo[start], hi[start]])  # a column of the interpolants each
    sin_th = np.sqrt((1.0 - us) * (1.0 + us))
    hr, coef = np.zeros((2, us.size, 66)), np.zeros((65, us.size))  # h at the nodes and its estimate
    hr[0, :, 64] = 1.0
    est, spent, live = np.full(us.size, np.inf), np.zeros(us.size, dtype=int), np.arange(us.size)
    for n in (16, 32, 64):
        step = 64 // n
        new = np.append(np.arange(0, 64, step), 65) if n == 16 else np.arange(step, 64, 2 * step)
        mu = _MU_S / _CHEB_T[new]
        v, r = _p_quad(np.tile(mu * mu + 0.25, live.size), np.repeat(us[live], new.size))
        v *= np.sqrt(2.0 * math.pi * np.tile(mu, live.size) * np.repeat(sin_th[live], new.size))
        hr[:, live[:, None], new] = v.reshape(-1, new.size), r.reshape(-1, new.size)
        spent[live] += new.size
        (f, fr), k = hr[:, live, :65:step], np.arange(n + 1)
        c = (np.cos(np.outer(k, k) % (2 * n) * (math.pi / n)) * (f * np.where(k % n, 2.0, 1.0) / n)[:, None]).sum(-1)
        c[:, ::n] *= 0.5  # the Chebyshev coefficients, by the DCT-I of the nodes
        lebesgue = 1.0 + 2.0 / math.pi * math.log(n + 1.0)
        e = (np.abs(c[:, 7 * n // 8:]).sum(1) + lebesgue * (fr * np.abs(f)).max(1)) / np.abs(f).min(1)
        e += 4.0 * sys.float_info.epsilon
        done = e <= target
        coef[:n + 1, live[done]], est[live[done]] = c[done].T, e[done]
        live = live[~done]
        if not live.size:
            break
    coef = coef[:n + 1]
    held = _clenshaw(coef, np.arange(us.size), np.full(us.size, _HELD_X)) / hr[0, :, 65]
    est[np.abs(held - 1.0) > est + hr[1, :, 65]] = np.inf
    charged = np.zeros(lam.size, dtype=int)
    charged[start] = spent[:start.size] + spent[start.size:]
    rows = np.flatnonzero(far & takes[pair])
    slot = (np.cumsum(takes) - 1)[pair[rows]]
    side, r, j = np.broadcast_arrays(np.array([[1], [2]]), rows, np.stack([slot, slot + start.size]))
    good = np.isfinite(est[j])
    side, r, j = side[good], r[good], j[good]
    mu = np.sqrt(lam[r] - 0.25)
    value[side, r] = _clenshaw(coef, j, 2.0 * _MU_S / mu - 1.0) / np.sqrt(2.0 * math.pi * mu * sin_th[j])
    rel[side, r], kept[side, r] = est[j], False
    return charged


# a conical row is far when ``_far_rows`` puts a below e^-48 of b, by its
# bound C = _FAR_SCALE mu on a ratio of two I = P_nu e^{-mu theta}
_FAR_MARGIN = 48.0
_FAR_SCALE = 36.0 * 2.0 * math.pi / 0.84**2


def _far_rows(mu, lo, hi):
    """The conical rows of mu = sqrt(lambda - 1/4) where, by a proof, |a| < e^-48 |b|.

    With I = P_nu e^{-mu theta}, the Mehler-Dirichlet integral gives
    erf(sqrt(mu theta))/sqrt(2 pi mu) <= I <= P_{-1/2}(u), and inside the
    boundary clamp P_{-1/2}(u) <= 6 (5.50 at |u| = 1 - 1e-6).  Where
    mu theta >= 1 at both rows of b, u_> and -u_<, a ratio of two I is at
    most C = 36 (2 pi mu)/0.84^2 (erf(1) > 0.84), so that

        |a|/|b| <= C e^{-2 mu (pi - d_theta)},   pi - d_theta = theta(u_>) + theta(-u_<),

    below e^-48 where 2 mu (pi - d_theta) - ln C > 48.  mu > 0 here.
    """
    theta_hi, theta_mlo = np.arccos(hi), np.arccos(-lo)
    return ((mu * np.minimum(theta_hi, theta_mlo) >= 1.0)
            & (2.0 * mu * (theta_hi + theta_mlo) - np.log(_FAR_SCALE * mu) > _FAR_MARGIN))


def _conical_parts(mu, lo, hi, value, rel, c: float, far) -> tuple:
    """G, its bound and its scale of ``_density_parts`` on the conical line
    of mu = sqrt(lambda - 1/4).  A ``far`` row comes with P_<(+) = P_>(-) =
    0, so that a = 0 and G = -b; its bound adds e^-48 |b|, the bound on |a|
    of ``_far_rows``."""
    (v1, v2, v3, v4), (r1, r2, r3, r4) = value, rel
    d_theta = _angle_difference(lo, hi)
    w = 4.0 * c / (1.0 + np.exp(-2.0 * np.pi * mu)) ** 2
    a = w * v1 * v4 * np.exp(-mu * (2.0 * np.pi - d_theta))
    b = w * v2 * v3 * np.exp(-mu * d_theta)
    err = a * (r1 + r4) + b * (r2 + r3 + np.where(far, math.exp(-_FAR_MARGIN), 0.0))
    return a - b, err, a + b


def _real_parts(lam, value, rel, c: float) -> tuple:
    """G, its bound and its scale of ``_density_parts`` on the real branch,
    where ``value`` holds D = (P_nu - 1)/nu."""
    (d1, d2, d3, d4), (r1, r2, r3, r4) = value, rel
    nu = _nu_real(lam)
    p_hi, p_mhi = 1.0 + nu * d3, 1.0 + nu * d4
    ratio = c * nu / np.sin(np.pi * nu)
    re = ratio * (p_hi * (d2 - d4) + p_mhi * (d3 - d1))
    err = np.abs(ratio) * (np.abs(p_hi) * (np.abs(d2) * r2 + np.abs(d4) * r4)
                           + np.abs(p_mhi) * (np.abs(d3) * r3 + np.abs(d1) * r1))
    scale = np.abs(ratio) * (np.abs(p_hi) * (np.abs(d2) + np.abs(d4)) + np.abs(p_mhi) * (np.abs(d3) + np.abs(d1)))
    return re, err, scale


def _bound_error(omega: float, x: float, xp: float, err: float, scale: float, tol: float) -> AccuracyError:
    """The AccuracyError of a density whose bound ``err`` exceeds ``tol``
    times its ``scale``, the sum of the magnitudes of its terms."""
    return AccuracyError(
        f"spectral density at omega = {omega:.6g}, x = {x!r}, x' = {xp!r}: quadrature bound {err:.3e} "
        f"> tol = {tol:g} times the magnitude of its terms, {scale:.3e}",
        achieved=err / scale if scale else math.inf,
    )


def spectral_density(
    omega: float,
    x: float,
    xp: float,
    p: PhysicalParams,
    d: DerivedScales,
    tol: float = 1e-13,
) -> GreenValue:
    """Evaluate the closed-form spectral density at one Matsubara frequency."""
    return _values(spectral_densities([omega], [x], xp, p, d, tol)[0])[0]


def spectral_densities(
    omegas,
    xs,
    xp: float,
    p: PhysicalParams,
    d: DerivedScales,
    tol: float = 1e-13,
) -> list:
    """The column of each omega of ``omegas``, ``spectral_density(omega, x,
    xp)`` at every x of ``xs``, all from one pass of the kernel (or runs of
    whole columns, ``_passes``), which integrates each distinct (lambda, u)
    row once, so P_nu(+-u') once a frequency; nothing is kept across calls.

    Entry i of a column is the GreenValue of G_omega(xs[i], xp), method
    "trapped-spectral": its value is the density, the real part of the
    closed form, and its trunc_err bounds the quadrature error, not the
    rounding of the conical exponent (a few eps times the exponent), and at
    the zero mode the rounding of the elementary form, a few eps times its
    value.  Or it is the DomainError or AccuracyError that
    ``spectral_density`` raises there; each entry is the one the single
    frequency and point give, bitwise and word for word.  A point beyond the
    boundary clamp is set aside before the pass, with its own error ahead of
    that of an xp beyond it.  A point whose error bound exceeds ``tol`` times
    the magnitude of its terms gets its own AccuracyError, and the other
    points keep their values from the same pass; a bad ``tol`` gives every
    point inside the clamp the same DomainError.  A far point integrates two
    rows, as in the Matsubara assembly.  The first omega, in list order, that
    ``_checked_lambda`` refuses raises its DomainError before anything else.
    """
    omegas = [float(omega) for omega in omegas]
    for omega in omegas:
        _checked_lambda(omega, d)
    k = _k_coeff(p, d)
    try:  # a bad tol is read before the pass, so that each point gets it, not the call
        up, fill = _clamped_u(xp, d), _bad_tol(tol)
    except DomainError as exc:
        up, fill = None, exc
    # one compare clamps every point, by _clamped_u's division; a point beyond it takes that call's own error
    with np.errstate(over="ignore"):  # a u that overflows to inf lies beyond the clamp too
        us = np.asarray(xs, dtype=float) / d.R_c
    inside = np.abs(us) <= 1.0 - BOUNDARY_EPS  # NaN outside
    out = [fill] * len(us)  # None until a point's density is in
    for i in np.flatnonzero(~inside).tolist():
        try:
            _clamped_u(xs[i], d)
        except DomainError as exc:
            out[i] = exc
    points = np.flatnonzero(inside).tolist()
    columns = [list(out) for _ in omegas]
    if fill is not None or not points:
        return columns
    for run in _passes([len(points)] * len(omegas)):
        re, err, scale, _ = _density_parts(np.repeat([omegas[j] for j in run], len(points)),
                                           np.tile(us[inside], len(run)), up, d, k, tol)
        rows = zip(re.tolist(), err.tolist(), scale.tolist(), (err > tol * scale).tolist())
        for j in run:  # the column's rows, in the order of its points
            for i, (re_i, err_i, scale_i, refused) in zip(points, rows):
                columns[j][i] = (_bound_error(omegas[j], xs[i], xp, err_i, scale_i, tol) if refused
                                 else GreenValue(re_i, "trapped-spectral", err_i))
    return columns


def closed_form_green(x: float, tau: float, xp: float, taup: float, p: PhysicalParams, d: DerivedScales) -> GreenValue:
    """Equal-time G(x, tau; x', tau) = G_0/beta, the zero mode alone, which
    is ``spectral_density(0.0, x, x').value / beta`` bit for bit.  Raises
    DomainError at tau != tau', then the boundary clamp's at x, then at x'."""
    if tau != taup:
        raise DomainError(f"closed-form correlator is equal-time; got tau - tau' = {tau - taup!r}")
    u = _clamped_u(x, d)
    up = _clamped_u(xp, d)
    return GreenValue(_zero_mode(u, up, _k_coeff(p, d)) / p.beta, method="closed-form")


def _frequency_stop(q: CorrelatorQuery, p: PhysicalParams, d: DerivedScales, l_max: int, tol: float) -> tuple:
    """(L, the truncation estimate at L) of the pair ``q``'s frequency sum, or ``_mode_stop``'s error."""
    hv = p.hbar * d.v
    envelope_amp = math.pi / theta_at(q.S, p, d)
    decay = math.exp(-2.0 * math.pi * abs(q.dx) / (hv * p.beta))

    def truncation(last: int) -> float:  # inf at dx = 0, where the envelope does not decay
        omega_next = 2.0 * math.pi * (last + 1) / p.beta
        first_omitted = (2.0 / p.beta) * envelope_amp * math.exp(-omega_next * abs(q.dx) / hv) / omega_next
        return first_omitted / (1.0 - decay) if decay < 1.0 else math.inf

    last = _mode_stop(truncation, tol, "matsubara_assemble", f"dx = {q.dx!r}", l_max)
    return last, truncation(last)


def matsubara_assemble(
    x: float, tau: float, xp: float, taup: float, p: PhysicalParams, d: DerivedScales, l_max: int, tol: float = 1e-13
) -> GreenValue:
    """G(x,tau;x',tau') of one pair: ``matsubara_assemble_many`` of the
    query (x, tau; x', tau'), whose DomainError or AccuracyError it raises."""
    return _values(matsubara_assemble_many([CorrelatorQuery(x, tau, xp, taup)], p, d, l_max, tol))[0]


def matsubara_assemble_many(queries, p: PhysicalParams, d: DerivedScales, l_max: int, tol: float = 1e-13) -> list:
    """G(x1,tau1;x2,tau2) = (1/beta) sum_l e^{i omega dtau} G_omega of each
    CorrelatorQuery of ``queries``, the frequencies of the pairs evaluated
    together in passes of the quadrature kernel: one pass for a table whose
    stops L add up to at most ``_PASS_ROWS``, and otherwise runs of
    consecutive pairs within that many, or one pair alone where its own L
    exceeds it.

    The zero mode is kept (finite for the trap).  The physical real spectral
    densities are even in omega, so folding +-l gives an exactly real value:
    (1/beta) [G_0 + 2 sum_{l=1}^{L} cos(omega_l dtau) G_omega].  Each pair's
    sum stops, through ``_mode_stop`` with ``l_max`` as its cap, at the first
    L whose truncation estimate is at most ``tol``: the first omitted term of
    the large-omega envelope exp(-|omega||dx|/hbar v)/|omega|, over 1 -
    e^{-2 pi |dx|/(hbar v beta)} for the geometric decay of the terms after
    it, inf at dx = 0, where the envelope does not decay.  G is dimensionless
    and Gamma goes as e^{-G}, so ``tol`` bounds the relative error of Gamma.
    ``trunc_err`` adds the truncation estimate at L to the densities' own
    absolute error bounds (``_density_parts``), the zero mode's among them,
    and to the rounding of the assembled sum, a few eps times (|G_0| + 2 sum
    |cos(omega dtau) G_omega|)/beta.  ``meta`` carries the cap ``l_max``, the
    integrand evaluations of the kernel rows that ran (59 a row: four a
    frequency, two at a far one, and the interpolants' rows) and the
    frequencies summed, the zero mode included.

    Entry i is the GreenValue of queries[i], or its DomainError or
    AccuracyError; each is the one that pair alone gives, bitwise and word
    for word, as no kernel row or interpolant depends on the pairs beside
    it.  A pair's checks run in the order: ``l_max``, the boundary clamp, a
    tau - tau' not finite, ``tol`` and the cap (an AccuracyError naming the
    cap, the estimate there and ``tol``, as at every pair with dx = 0), its
    top frequency 2 pi L/beta (``_checked_lambda``; the pair's others lie
    below it), all before any pass, then the first frequency whose density
    bound exceeds ``tol`` times the magnitude of its terms.
    """
    if l_max < 0:
        return [DomainError("l_max must be >= 0")] * len(queries)
    k = _k_coeff(p, d)
    out, pairs = [], []  # pairs: (index of its entry, query, u, u', L, truncation estimate at L)
    for q in queries:
        try:
            u, up = _clamped_u(q.x1, d), _clamped_u(q.x2, d)
            if not math.isfinite(q.dtau):
                raise DomainError(f"tau - tau' = {q.dtau!r} is not finite")
            last, truncated = _frequency_stop(q, p, d, l_max, tol)
            _checked_lambda(2.0 * math.pi * last / p.beta, d)  # the top frequency bounds the others
        except (DomainError, AccuracyError) as exc:
            out.append(exc)
            continue
        pairs.append((len(out), q, u, up, last, truncated))
        out.append(None)  # until the pass is in
    for run in _passes([pair[4] for pair in pairs]):  # a pair's densities: one a frequency
        _assemble_pass([pairs[i] for i in run], out, p, d, k, l_max, tol)
    return out


def _assemble_pass(pairs, out, p: PhysicalParams, d: DerivedScales, k: float, l_max: int, tol: float) -> None:
    """Set the entry ``out[i]`` of each pair (i, query, u, u', L, truncation
    estimate at L) of ``pairs`` from one ``_density_parts`` call over all
    their frequencies."""
    _, _, us, ups, lasts, _ = zip(*pairs)
    omegas = np.concatenate([2.0 * math.pi * np.arange(1, last + 1) / p.beta for last in lasts])
    re, errs, scale, rows = _density_parts(omegas, np.repeat(us, lasts), np.repeat(ups, lasts), d, k, tol, lasts)
    beyond = errs > tol * scale
    end = 0
    for i, q, u, up, last, truncated in pairs:
        s = slice(end, end + last)
        end += last
        refused = np.flatnonzero(beyond[s])
        if refused.size:
            row = s.start + refused[0]
            out[i] = _bound_error(float(omegas[row]), q.x1, q.x2, float(errs[row]), float(scale[row]), tol)
            continue
        # cos is even: |dtau| and the exactly rounded fsum keep the value bitwise
        # symmetric under swapping the two points; cos and the product in each
        # term, the fsum, the zero mode's addition and the division by beta
        # round as a mode sum does
        zero = _zero_mode(u, up, k)
        terms = np.cos(omegas[s] * abs(q.dtau)) * re[s]
        total = zero + 2.0 * math.fsum(terms)
        rounding = _ROUNDING * (abs(zero) + 2.0 * float(np.sum(np.abs(terms))))
        err = (_ZERO_MODE_ROUNDING * zero + 2.0 * float(np.sum(errs[s])) + rounding) / p.beta
        out[i] = GreenValue(
            value=total / p.beta,
            method="trapped-assembled",
            trunc_err=truncated + err,
            meta={"l_max": l_max, "S": q.S, "terms": _NODES.size * int(rows[s].sum()), "frequencies": last + 1},
        )


# ----------------------------------------------------------------------------
# thermal Legendre mode sum
# ----------------------------------------------------------------------------


def lowT_legendre_series(
    x: float, tau: float, xp: float, taup: float, p: PhysicalParams, d: DerivedScales, *, tol: float = 1e-12
) -> GreenValue:
    """G(x,tau;x',tau') of one pair: ``lowT_legendre_series_many`` of the
    query (x, tau; x', tau'), whose DomainError or AccuracyError it raises."""
    return _values(lowT_legendre_series_many([CorrelatorQuery(x, tau, xp, taup)], p, d, tol=tol))[0]


@np.errstate(all="ignore")  # a pair whose terms overflow gets _line_plus_modes' AccuracyError
def lowT_legendre_series_many(queries, p: PhysicalParams, d: DerivedScales, *, tol: float = 1e-12) -> list:
    """The thermal Legendre mode sum of each CorrelatorQuery of ``queries``,
    exact at any temperature where t = min(|tau - tau'|, beta - |tau - tau'|) > 0:

        G = -(g/(2 R_c)) [(beta/2) B_2(t/beta) + sum_{n=1}^{N} (2n+1) P_n(u) P_n(u') phi(E_n)],

    over the zero-flux modes P_n(x/R_c), E_n = sqrt(n(n+1))/alpha, each
    summed over every frequency by ``_thermal_factor``; the (omega, n) =
    (0, 0) term is omitted.  P_n(u) P_n(u') is formed before it is weighted
    and fsum adds the terms, so that the value is bitwise symmetric in the
    two points.  ``p_poly_table`` runs once for each distinct point of the
    list, to the largest N any pair there needs, and each pair slices its
    P_n from those tables: as P_n depends only on the P_m before it, entry i
    is the GreenValue that pair alone gives, bitwise, or its DomainError or
    AccuracyError, word for word.

    By Bernstein's inequality |P_m(cos theta)| < e_m = sqrt(2/(pi m sin theta))
    (Szego, Orthogonal Polynomials, 7.3), term m is at most M_m = (g/(2 R_c))
    (2m+1) e_m e'_m phi(E_m), and E_{m+1} - E_m > 1/alpha gives M_{m+1} <=
    e^{-t/alpha} M_m: the modes after N add at most M_{N+1}/(1 - e^{-t/alpha}).
    N is the first count whose bound is at most ``tol`` (absolute in G, as in
    the assembly).  ``trunc_err`` adds 4 eps of the magnitudes summed, B_2's
    before they cancel, and the recurrence's error, which grows with n: n eps
    min(1, e_n)/sqrt(sin theta) for each factor P_n, at least 2.6 times what a
    40-digit recurrence finds to n = 20 000 at 12 |u| up to 1 - ``BOUNDARY_EPS``.
    A pair's checks run in the order: the boundary clamp, |tau - tau'| >
    beta and t = 0 (DomainErrors; at t = 0 the sum converges only
    conditionally), then ``_mode_stop``'s bad ``tol`` and its AccuracyError
    past ``_MODE_CAP`` modes, all before any recurrence runs, and last the
    AccuracyError of ``_line_plus_modes`` where its terms overflow a float.
    """
    pref = p.g / (2.0 * d.R_c)
    out, pairs = [], []  # pairs: (index of its entry, u, u', t, sin theta, sin theta', N, tail bound at N)
    for q in queries:
        try:
            pairs.append((len(out), *_series_stop(q, p, d, pref, tol)))
            out.append(None)  # until the tables are in
        except (DomainError, AccuracyError) as exc:
            out.append(exc)
    # each distinct point's largest N: sorted, the last (u, N) of a point sets its entry
    need = dict(sorted((u, pair[6]) for pair in pairs for u in pair[1:3]))
    tables = {u: p_poly_table(last, u) for u, last in need.items()}
    for i, u, up, t, sin_th, sin_thp, last, tail in pairs:
        n = np.arange(1.0, last + 1)
        weights = (2.0 * n + 1.0) * _thermal_factor(energy_level(n, d), t, p.beta)
        terms = (tables[u][1:last + 1] * tables[up][1:last + 1]) * weights
        try:
            total, rounding = _line_plus_modes(p.beta, t / p.beta, terms)
        except AccuracyError as exc:
            out[i] = exc
            continue
        env_u, env_up = (np.minimum(1.0, np.sqrt(2.0 / (math.pi * n * s))) for s in (sin_th, sin_thp))
        recurrence = (1.0 / math.sqrt(sin_th) + 1.0 / math.sqrt(sin_thp)) * float(np.sum(n * weights * env_u * env_up))
        rounding = pref * (rounding + sys.float_info.epsilon * recurrence)
        out[i] = GreenValue(-pref * total, "trapped-series", tail + rounding, meta={"modes": last})
    return out


def _series_stop(q: CorrelatorQuery, p: PhysicalParams, d: DerivedScales, pref: float, tol: float) -> tuple:
    """(u, u', t, sin theta, sin theta', N, the tail bound at N) of ``q``'s mode sum; raises its error."""
    u, up = _clamped_u(q.x1, d), _clamped_u(q.x2, d)
    dtau = abs(q.dtau)
    if not dtau <= p.beta:
        raise DomainError(f"|tau - tau'| = {dtau} exceeds beta = {p.beta}")
    t = min(dtau, p.beta - dtau)
    if t == 0.0:
        raise DomainError("lowT_legendre_series requires tau != tau'")
    sin_th, sin_thp = math.sqrt((1.0 - u) * (1.0 + u)), math.sqrt((1.0 - up) * (1.0 + up))
    amp = pref * 2.0 / (math.pi * math.sqrt(sin_th * sin_thp))
    gap = -math.expm1(-t / d.alpha)  # 0 only where t/alpha underflows

    def tail(n: int) -> float:  # the bound on the modes after the first n
        m = n + 1.0
        phi = float(_thermal_factor(energy_level(m, d), t, p.beta))
        return amp * (2.0 * m + 1.0) / m * phi / gap if gap else math.inf

    last = _mode_stop(tail, tol, "lowT_legendre_series", f"t = {t!r}", bounded=gap != 0.0)
    return u, up, t, sin_th, sin_thp, last, tail(last)


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
        A = ((1 - u^2)(1 - u'^2))^(-1/4) / theta,   theta = 2 pi hbar v / g,

    an absolute value, with G_0/beta from ``closed_form_green``.  Its
    small-|z| power law has the local exponent theta(S) / sqrt(1 - S^2/R_c^2),
    the curved-metric picture of Dubail, Stephan, Viti & Calabrese, SciPost
    Phys. 2, 002 (2017).

    The WKB form needs mu arccos|u| >> 1 at the lowest frequency,
    mu_1 ~ 2 pi alpha / beta; in the edge layer below that its amplitude grows
    without bound while the exact density stays finite.  Raises RegimeError
    unless beta/alpha < WINDOW_FACTOR and mu_1 arccos(max(|u|, |u'|)) >= 1 /
    WINDOW_FACTOR, where |G - G_exact| measured at most 3e-3 at beta/alpha =
    0.05 and 0.099 (1e-5 for |u| <= 0.8 at 0.05), and DomainError at
    |tau - tau'| > beta, as ``_check_window`` gives.  Returns the divergence
    marker at coincident points.
    """
    if classify_regime(d) is not Regime.HIGH_T:
        raise RegimeError(f"beta/alpha < {WINDOW_FACTOR:g} violated (beta/alpha = {d.regime_ratio:.3g})")
    u = _clamped_u(x, d)
    up = _clamped_u(xp, d)
    edge = 2.0 * math.pi * d.alpha / p.beta * math.acos(max(abs(u), abs(up)))
    if edge < 1.0 / WINDOW_FACTOR:
        raise RegimeError(f"Liouville-Green gate mu_1 arccos|u| >> 1 failed in the edge layer of the "
                          f"condensate (got {edge:.3g} < {1.0 / WINDOW_FACTOR:g})")
    _check_window(x - xp, tau - taup, p, d)
    z = (math.pi / d.lambda_T) * complex(d.R_c * abs(math.asin(u) - math.asin(up)), p.hbar * d.v * (tau - taup))
    log_mag = _log_abs_1_minus_exp(2.0 * z)
    if log_mag == -math.inf:
        return _log_divergence("trapped-asympt-highT")
    amp = ((1.0 - u * u) * (1.0 - up * up)) ** -0.25 / theta_homogeneous(p, d)
    value = closed_form_green(x, 0.0, xp, 0.0, p, d).value + amp * log_mag
    return GreenValue(value=value, method="trapped-asympt-highT", meta={"S": 0.5 * (x + xp)})


def asympt_green_lowT(
    x: float,
    tau: float,
    xp: float,
    taup: float,
    p: PhysicalParams,
    d: DerivedScales,
) -> GreenValue:
    """Low-temperature leading logarithm, up to an additive constant.

    -ln(R_c / |dx + i hbar v dtau|) / theta(S).  Valid for u_* = |zeta|/R_c
    << 1, read as u_* < WINDOW_FACTOR; raises RegimeError beyond, and unless
    beta/alpha > 1/WINDOW_FACTOR, and DomainError where u_* is not finite.
    """
    if classify_regime(d) is not Regime.LOW_T:
        raise RegimeError(f"beta/alpha > {1.0 / WINDOW_FACTOR:g} violated (beta/alpha = {d.regime_ratio:.3g})")
    _clamped_u(x, d)
    _clamped_u(xp, d)
    u_star = abs(zeta_of(x - xp, abs(tau - taup), p, d)) / d.R_c
    if not math.isfinite(u_star):
        raise DomainError(f"|zeta|/R_c = {u_star!r} at tau - tau' = {tau - taup!r} is not finite")
    if u_star == 0.0:
        return _log_divergence("trapped-asympt-lowT")
    if u_star >= WINDOW_FACTOR:
        raise RegimeError(f"low-temperature gate u_* = |zeta|/R_c < {WINDOW_FACTOR:g} failed (got {u_star:.3g})")
    s_half = 0.5 * (x + xp)
    value = -math.log(1.0 / u_star) / theta_at(s_half, p, d)
    return GreenValue(
        value=value,
        method="trapped-asympt-lowT",
        const_free=True,
        meta={"u_star": u_star, "S": s_half},
    )
