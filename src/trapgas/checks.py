"""Cross-validation suite: every check pits one evaluation route against an
independent one (closed form vs series vs finite differences vs brute sums).

``CHECKS`` maps each check's name to its function and pinned tolerance.  A
check function takes no arguments and returns ``(value, detail,
conditions_met)``: its figure of merit, a one-line description, and whether
its requirements other than ``value < tol`` hold.  ``run_check`` is the one
place that times a check and builds its :class:`CheckResult` against the
pinned tolerance; ``run_all`` runs the registry in order.  Checks 02, 03
and 06-10 take their routes from ``modes._route``, the mode map of the
tables, so a wrong dispatch there fails them.  No tolerance is a setting:
Tier-1 tests break the routes behind every check and see each of them fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import green_homogeneous, modes
from .correlator import extract_exponent, gamma_d1_exact, gamma_from_green, gamma_homog
from .errors import TrapGasError
from .green_homogeneous import green_difference
from .green_trapped import _density_parts, _k_coeff, _values
from .model import CorrelatorQuery, PhysicalParams, derive_scales, rho_tf, theta_at, theta_homogeneous
from .oracle import FdmGrid, brute_frequency_sum, fdm_eigensolve, fdm_spectral_solve

__all__ = ["CheckResult", "CHECKS", "run_check", "run_all"]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CheckResult:
    """One check's figure of merit against its tolerance.

    ``conditions_met`` holds the check's requirements other than
    ``value < tol``; ``passed`` needs both.
    """

    name: str
    value: float
    tol: float
    seconds: float
    detail: str
    conditions_met: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.value < self.tol and self.conditions_met)


def _unit_setup():
    p = PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
    return p, derive_scales(p)


def check_zero_mode_identity():
    """The real-branch Legendre kernel joins the zero mode G_0 = K |atanh u -
    atanh u'| as lambda = (alpha omega)^2 -> 0; all its rows are one
    ``_density_parts`` call.  The figure is the largest |G_lambda -
    G_0|/|G_0| at lambda = 2^-50, just above the switch to the zero mode at
    2^-56, where the true difference, lambda times the slope (G_lambda -
    G_0)/(lambda G_0), is below 2e-15, over 200 random interior pairs and the
    3 junction pairs.  The condition is the junction itself: at those pairs
    the slope at lambda = 1e-4 and 1e-6 agrees to 1e-3, which a real branch
    off by a constant factor or with a term in sqrt lambda breaks."""
    p, d = _unit_setup()
    x, xp = np.random.default_rng(20240611).uniform(-0.9 * d.R_c, 0.9 * d.R_c, size=(200, 2)).T
    xp = np.where(np.abs(x - xp) < 1e-6 * d.R_c, xp + 0.05 * d.R_c, xp)
    junction = np.array([(0.3, 0.1), (-0.6, 0.5), (0.95, -0.9)]).T  # the (u, u') of the slope condition
    us, ups = np.concatenate([[x / d.R_c, xp / d.R_c], junction], axis=1)
    n, m = us.size, junction.shape[1]
    # rows: every pair at lambda = 0 and 2^-50, then the junction's pairs at lambda = 1e-4 and 1e-6
    lams = np.concatenate([np.zeros(n), np.full(n, 2.0**-50), np.repeat([1e-4, 1e-6], m)])
    re = _density_parts(np.sqrt(lams) / d.alpha, np.concatenate([us, us, np.tile(us[-m:], 2)]),
                        np.concatenate([ups, ups, np.tile(ups[-m:], 2)]), d, _k_coeff(p, d), 1e-13)[0]
    g_0 = re[:n]
    worst = float(np.max(np.abs(re[n:2 * n] - g_0) / np.abs(g_0)))
    slopes = (re[2 * n:].reshape(2, m) - g_0[-m:]) / (lams[2 * n:].reshape(2, m) * g_0[-m:])
    spread = float(np.max(np.abs(slopes[0] - slopes[1]) / np.abs(slopes[1])))
    detail = (f"max |G_lambda - G_0|/|G_0| at lambda = 2^-50 over 203 interior pairs; slope "
              f"(G_lambda - G_0)/(lambda G_0) at lambda = 1e-4 and 1e-6 agrees to {spread:.1e} (< 1e-3 required) "
              "at 3 pairs")
    return worst, detail, spread < 1e-3


def _ode_residual_scale(omega, h, samples, gs, p, d):
    """Max |ODE residual| / max |G| for the spectral density along x, from
    ``gs``, the values G_omega(u0 + k h) for k = -2..2 at each u0 of
    ``samples``."""
    hv = p.hbar * d.v
    worst = 0.0
    scale = 0.0
    for u0, (gm2, gm1, g0, gp1, gp2) in zip(samples, gs):
        d1 = (-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * h)
        d2 = (-gp2 + 16.0 * gp1 - 30.0 * g0 + 16.0 * gm1 - gm2) / (12.0 * h * h)
        resid = ((1.0 - u0 * u0) * d2 - 2.0 * u0 * d1) / d.R_c**2 - (omega / hv) ** 2 * g0
        worst = max(worst, abs(resid))
        scale = max(scale, abs(g0))
    # residual reported relative to the value scale max |G_omega|
    return worst / max(scale, 1e-300)


def check_ode_residual_and_jump():
    """Closed-form spectral density satisfies the defining ODE away from the
    source, and its derivative jump matches the delta strength at first order
    in the probing step.  Each frequency's points go in one batched pass."""
    p, d = _unit_setup()
    hv2 = (p.hbar * d.v) ** 2
    xp = 0.1 * d.R_c
    up = xp / d.R_c
    samples = [-0.6, -0.35, 0.35, 0.5, 0.7]
    # derivative jump from one-sided slopes at shrinking step: error is O(step)
    omega_jump = 2.0 * math.pi / p.beta
    step = 1e-3 * d.R_c
    jump_xs = [xp, xp + step, xp - step, xp + step / 2.0, xp - step / 2.0]
    density = modes._route("trapped-spectral", p, d, tol=1e-13, l_max=None)

    worst_resid = 0.0
    for omega in (omega_jump, 10.0 * math.pi / p.beta, 0.0):
        mu_eff = max(1.0, d.alpha * abs(omega))
        h = min(2e-3, max(1e-6, (45.0 * _EPS / mu_eff**6) ** (1.0 / 6.0)))
        xs = [(u0 + k * h) * d.R_c for u0 in samples for k in (-2, -1, 0, 1, 2)]
        batch = xs + (jump_xs if omega == omega_jump else [])
        gs = [sd.value for sd in _values(density([omega], batch, xp)[0])]
        stencils = [gs[i:i + 5] for i in range(0, len(xs), 5)]
        worst_resid = max(worst_resid, _ode_residual_scale(omega, h, samples, stencils, p, d))
        if omega == omega_jump:
            g0, gp, gm, gp_half, gm_half = gs[len(xs):]

    target = p.g / hv2

    def jump(gp, gm, step):
        return (1.0 - up * up) * ((gp - g0) / step - (g0 - gm) / step)

    err_h = abs(jump(gp, gm, step) - target)
    err_h2 = abs(jump(gp_half, gm_half, step / 2.0) - target)
    ratio = err_h / max(err_h2, 1e-300)
    jump_ok = err_h < 0.05 * target and 1.4 < ratio < 2.8
    detail = (
        f"max residual/|G| over omega in {{0, 2pi, 10pi}}/beta; jump err(h)={err_h:.3e}, "
        f"err(h/2)={err_h2:.3e}, first-order ratio={ratio:.2f}"
    )
    return worst_resid, detail, jump_ok


def check_oracle_equivalence():
    """Finite-difference BVP solves agree with the Legendre closed form in
    difference mode at omega in {0, 2pi/beta, 10pi/beta}, on one grid, whose
    snapped points take the three closed-form columns in one call; both routes
    square omega first, so -omega would repeat +omega's bits (a Tier-1 test)."""
    p, d = _unit_setup()
    xp = 0.1 * d.R_c
    grid = FdmGrid(N=10_000)
    targets = [0.3 * d.R_c, 0.45 * d.R_c, -0.25 * d.R_c, 0.6 * d.R_c]
    omegas = (0.0, 2.0 * math.pi / p.beta, 10.0 * math.pi / p.beta)
    sols = [fdm_spectral_solve(omega, xp, p, d, grid) for omega in omegas]
    snapped = [sols[0].x_nodes[int(np.argmin(np.abs(sols[0].x_nodes - xt)))] for xt in targets]
    density = modes._route("trapped-spectral", p, d, tol=1e-13, l_max=None)
    worst = 0.0
    for sol, column in zip(sols, density(omegas, snapped, sols[0].x_source)):
        closed = [sd.value for sd in _values(column)]
        fdm = [float(sol.interp(xs)) for xs in snapped]
        for (ia, ib) in ((0, 1), (2, 3), (0, 3)):
            d_fdm = fdm[ia] - fdm[ib]
            d_closed = closed[ia] - closed[ib]
            worst = max(worst, abs(d_fdm - d_closed) / max(abs(d_closed), 1e-300))
    return worst, "max relative green_difference deviation, FDM (N=10^4) vs Legendre closed form", True


def check_eigenvalue_law():
    """The spectrum is n(n+1)/R_c^2 exactly at every N (see ``fdm_eigensolve``), so the figure is the
    dense eigensolver's rounding of the operator's two parity blocks at N = 256."""
    p, d = _unit_setup()
    n = np.arange(21)
    target = n * (n + 1) / d.R_c**2
    lam = fdm_eigensolve(p, d, FdmGrid(N=256), n_levels=21)
    worst = float(np.max(np.abs(lam - target) / np.maximum(target, 1.0 / d.R_c**2)))  # constant mode: |lambda_0| R_c^2
    return worst, "max relative eigenvalue error for n <= 20, N = 256", True


def check_frequency_sum():
    """Brute cosine sum matches pi^2 B_2(theta), the package's
    ``green_homogeneous._bernoulli_b2``, at l_max = 10^6.

    At theta = 0 the omitted tail sum_{l > L} 1/l^2 is ~1/L, so the
    Euler-Maclaurin tail 1/L - 1/(2L^2) + 1/(6L^3) is added there; at
    theta = 0.1 and 0.5 the cosines make the tail O(1/L^2) and none is added.
    """
    l_max = 1_000_000
    worst = 0.0
    thetas = (0.0, 0.1, 0.5)
    for theta, brute in zip(thetas, brute_frequency_sum(thetas, l_max)):
        if theta == 0.0:
            brute += 1.0 / l_max - 1.0 / (2.0 * l_max**2) + 1.0 / (6.0 * l_max**3)
        closed = math.pi**2 * green_homogeneous._bernoulli_b2(theta)  # looked up when the check runs
        worst = max(worst, abs(brute - closed))
    detail = (
        "max |partial sum - Bernoulli closed form| over theta in {0, 0.1, 0.5}; "
        "Euler-Maclaurin tail added at theta = 0"
    )
    return worst, detail, True


def _routes(names, queries, p, d, *, tol: float, l_max: int | None = None) -> list:
    """Each named mode's entries at ``queries`` from ``modes._route``, the
    map the tables read, looked up when the check runs, with its first error
    raised; ``l_max`` caps the ``spectral`` assembly alone."""
    return [_values(modes._route(mode, p, d, tol=tol, l_max=l_max)(queries)) for mode in names]


def _max_difference_deviation(got, want) -> tuple:
    """Max relative deviation of the route's values ``got`` from the
    reference's ``want`` in difference mode, G(a) - G(b), over consecutive
    queries a, b of both lists, and the largest trunc_err/|G(a) - G(b)| of
    the route."""
    worst = bound = 0.0
    for i in range(len(got) - 1):
        diff = green_difference(got[i], got[i + 1])
        ref = green_difference(want[i], want[i + 1]).value
        worst = max(worst, abs(diff.value - ref) / max(abs(ref), 1e-300))
        bound = max(bound, diff.trunc_err / max(abs(diff.value), 1e-300))
    return worst, bound


def check_homog_regime_match():
    """Homogeneous series vs high-temperature closed form, in difference
    mode, at beta hbar v / R_c = 0.05 and pi |dx| / (hbar beta v) >> 1.  The
    series is exact to 1e-12, so the figure is the closed form's error."""
    p = PhysicalParams(m=1.0, g=1.0, Omega=math.sqrt(2.0) / 20.0, Lambda=1.0, beta=1.0)
    d = derive_scales(p)  # R_c = 20, lambda_T = 1
    pairs = [CorrelatorQuery(dx / 2.0, 0.0, -dx / 2.0, 0.0) for dx in (1.5, 2.5, 3.5, 4.5)]
    pairs.append(CorrelatorQuery(1.0, 0.3 * p.beta, -1.0, 0.0))
    worst, bound = _max_difference_deviation(*_routes(("homog-series", "homog-asympt"), pairs, p, d, tol=1e-12))
    detail = (f"max relative difference-mode deviation, series (tol = 1e-12) vs closed form (lambda_T/R_c = 0.05); "
              f"series' trunc_err/|difference| up to {bound:.3e}")
    return worst, detail, True


def check_trapped_highT_match():
    """Matsubara assembly, one batched call, vs the summed Liouville-Green
    form at beta/alpha = 0.05."""
    alpha = math.sqrt(2.0)
    p = PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=0.05 * alpha)
    d = derive_scales(p)
    s_half = 0.2 * d.R_c
    lam_t = d.lambda_T
    l_max = 14
    pairs = [CorrelatorQuery(s_half + f * lam_t / 2.0, 0.0, s_half - f * lam_t / 2.0, 0.0)
             for f in (0.4, 0.8, 1.2, 1.6, 2.0)]
    pairs.append(CorrelatorQuery(s_half + 0.6 * lam_t, 0.25 * p.beta, s_half - 0.6 * lam_t, 0.0))
    worst, _ = _max_difference_deviation(*_routes(("spectral", "trapped-asympt"), pairs, p, d, tol=1e-13, l_max=l_max))
    return worst, f"max relative difference-mode deviation, assembly (l_max={l_max}) vs Liouville-Green form", True


def check_trapped_lowT_match():
    """Thermal Legendre mode sum vs the leading-log form at beta/alpha = 100,
    in difference mode; the series, one batched call, stops at tol = 1e-5,
    and its trunc_err must stay below 2% of each difference."""
    alpha = math.sqrt(2.0)
    p = PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=100.0 * alpha)
    d = derive_scales(p)
    s_half = 0.05 * d.R_c
    dtau = 0.005 * d.alpha
    pairs = [
        CorrelatorQuery(s_half + f * d.R_c / 2.0, dtau, s_half - f * d.R_c / 2.0, 0.0)
        for f in (0.01, 0.02, 0.03, 0.04)
    ]
    worst, bound = _max_difference_deviation(*_routes(("series", "trapped-asympt"), pairs, p, d, tol=1e-5))
    detail = (f"max relative difference-mode deviation, series (tol = 1e-5) vs leading log; "
              f"series' trunc_err/|difference| up to {bound:.3e} (< 0.02 required)")
    return worst, detail, bound < 0.02


def check_exponent_extraction():
    """Power-law fits recover 1/theta (homogeneous) and 1/theta(S) (trapped)."""
    # homogeneous: fit the high-T sinh form deep in its power-law window
    p = PhysicalParams(m=1.0, g=1.0, Omega=math.sqrt(2.0) / 20.0, Lambda=1.0, beta=1.0)
    d = derive_scales(p)
    rho0 = p.Lambda / p.g
    seps = np.geomspace(0.01 * d.lambda_T, 0.08 * d.lambda_T, 10)
    gammas = [gamma_homog(s / 2.0, 0.0, -s / 2.0, 0.0, p, d) for s in seps]
    fit_hom = extract_exponent(seps, gammas, rho_products=np.full(len(seps), rho0))
    inv_theta_true = 1.0 / theta_homogeneous(p, d)
    err_hom = abs(fit_hom.inv_theta - inv_theta_true) / inv_theta_true

    # trapped: equal-position, imaginary-time separations through the
    # low-temperature series at S = 0.5 (R_c = 2 here, so S/R_c = 0.25)
    p2 = PhysicalParams(m=1.0, g=1.0, Omega=math.sqrt(0.5), Lambda=1.0, beta=200.0 * math.sqrt(2.0))
    d2 = derive_scales(p2)
    s_point = 0.5
    hv = p2.hbar * d2.v
    dtaus = np.geomspace(0.004, 0.03, 10) * d2.R_c / hv
    rho_s = rho_tf(s_point, p2, d2)
    queries = [CorrelatorQuery(s_point, dt, s_point, 0.0) for dt in dtaus]  # one recurrence serves all ten
    (series,) = _routes(("series",), queries, p2, d2, tol=1e-5)
    gam2 = [gamma_from_green(q, gval, p2, d2) for q, gval in zip(queries, series)]
    fit_s = extract_exponent(hv * dtaus, gam2, rho_products=np.full(len(dtaus), rho_s))
    inv_theta_s_true = 1.0 / theta_at(s_point, p2, d2)
    err_s = abs(fit_s.inv_theta - inv_theta_s_true) / inv_theta_s_true

    detail = f"1/theta fit err = {err_hom:.3e}, 1/theta(S) fit err = {err_s:.3e}"
    return max(err_hom, err_s), detail, True


def check_symmetry_positivity():
    """Randomized symmetry/positivity battery over 12 random parameter sets.

    The figure is the number of broken conditions: rho_TF parity, support
    and normalization, symmetry and positivity of the closed-form Gamma,
    bitwise symmetry of the batched Matsubara assembly under swapping its
    two points (both orders from one ``matsubara_assemble_many`` call), and a
    positive Gamma from it.
    """
    rng = np.random.default_rng(777)
    failures = []
    for trial in range(12):
        p = PhysicalParams(
            m=float(rng.uniform(0.5, 2.0)),
            g=float(rng.uniform(0.5, 2.0)),
            Omega=float(rng.uniform(0.5, 2.0)),
            Lambda=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(0.5, 2.0)),
        )
        d = derive_scales(p)
        x1, x2 = rng.uniform(-0.6 * d.R_c, 0.6 * d.R_c, size=2)
        if abs(x1 - x2) < 0.05 * d.R_c:
            x2 = x1 + 0.1 * d.R_c
        tau = float(rng.uniform(0.05, 0.45)) * p.beta

        # rho_TF parity and support
        if rho_tf(x1, p, d) != rho_tf(-x1, p, d):
            failures.append(f"trial {trial}: rho_TF parity broken")
        if rho_tf(1.5 * d.R_c, p, d) != 0.0:
            failures.append(f"trial {trial}: rho_TF support leak")
        # the trapezoid rule on 20 000 cells, in 4 chunks: a temporary within 64 KiB reuses the heap
        h, k, target = 2.0 * d.R_c / 20_000, np.arange(5_001.0), (4.0 / 3.0) * (p.Lambda / p.g) * d.R_c
        integral = sum(float(np.trapezoid(rho_tf(-d.R_c + (k + s) * h, p, d), dx=h)) for s in range(0, 20_000, 5_000))
        if abs(integral - target) / target > 1e-6:
            failures.append(f"trial {trial}: rho_TF normalization off by {abs(integral-target)/target:.2e}")

        # Gamma symmetry and positivity (closed form route)
        ga = gamma_d1_exact(x1, x2, p, d)
        gb = gamma_d1_exact(x2, x1, p, d)
        if not (ga > 0.0) or ga != gb:
            failures.append(f"trial {trial}: closed-form Gamma symmetry/positivity broken")

        # assembled route: swap symmetry and positivity, to a tol that every trial meets below its cap
        ((g12, g21),) = _routes(("spectral",), [CorrelatorQuery(x1, tau, x2, 0.0), CorrelatorQuery(x2, 0.0, x1, tau)],
                                p, d, tol=1e-4, l_max=16)
        if g12.value != g21.value:
            failures.append(f"trial {trial}: assembly not symmetric under swapping its points")
        if not (gamma_from_green(CorrelatorQuery(x1, tau, x2, 0.0), g12, p, d) > 0.0):
            failures.append(f"trial {trial}: assembled-route Gamma not positive")
    detail = "broken conditions over 12 randomized trials: " + ("; ".join(failures) or "none")
    return len(failures), detail, not failures


def check_wronskian_conical():
    """The jump of the spectral density's slope across its source, which is
    the Wronskian W{P_nu, Q_nu}(u) = 1/(1 - u^2) (DLMF 14.2.3) in x:

        (1 - u'^2) [d_x Re G_omega(x'+, x') - d_x Re G_omega(x'-, x')] = g/(hbar v)^2,

    evaluated by ``_density_parts``, the path of the spectral tables and the
    Matsubara assembly.  Two real-branch degrees lambda = (alpha omega)^2 and
    three conical ones, mu = 40 of Matsubara size among them, at 17 sources;
    each side's slope is a one-sided 5-point derivative at step
    h = 1e-3 (1 - u'^2) R_c / max(1, mu), and the 9 points of every source
    at every degree go in one call.  The zero mode's junction is check 01's.
    """
    p, d = _unit_setup()
    k = _k_coeff(p, d)
    target = p.g / (p.hbar * d.v) ** 2
    xp = np.linspace(-0.94, 0.94, 17) * d.R_c
    up = xp / d.R_c
    ups = np.repeat(up, 9)
    # d/dx at the source from the right, on f(x' + j h), j = 0..4; from the left, minus the same at -h
    stencil = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
    lams = (0.05, 0.2, 0.25 + 0.8**2, 0.25 + 5.0**2, 0.25 + 40.0**2)
    hs = [1e-3 * (1.0 - up * up) * d.R_c / max(1.0, math.sqrt(max(lam - 0.25, 0.0))) for lam in lams]
    us = np.concatenate([(xp[:, None] + np.arange(-4, 5) * h[:, None]).ravel() / d.R_c for h in hs])
    omegas = np.repeat([math.sqrt(lam) / d.alpha for lam in lams], ups.size)
    res = _density_parts(omegas, us, np.tile(ups, len(lams)), d, k, 1e-13)[0].reshape(len(lams), xp.size, 9)
    worst = 0.0
    for h, re in zip(hs, res):
        jump = (re[:, 4:] + re[:, 4::-1]) @ stencil / (12.0 * h)
        worst = max(worst, float(np.max(np.abs((1.0 - up * up) * jump - target))) / target)
    detail = ("max relative deviation of (1 - u'^2) times the jump of d Re G_omega/dx from g/(hbar v)^2, "
              "(alpha omega)^2 in {0.05, 0.2, 1/4 + 0.8^2, 1/4 + 5^2, 1/4 + 40^2}, 17 sources")
    return worst, detail, True


# name -> (check, pinned tolerance), in report order
CHECKS = {
    "01-zero-mode-identity": (check_zero_mode_identity, 1e-10),
    "02-ode-residual-and-jump": (check_ode_residual_and_jump, 1e-6),
    "03-oracle-equivalence": (check_oracle_equivalence, 1e-3),
    "04-eigenvalue-law": (check_eigenvalue_law, 1e-4),
    "05-frequency-sum-identity": (check_frequency_sum, 1e-10),
    "06-homog-regime-match": (check_homog_regime_match, 0.02),
    "07-trapped-highT-match": (check_trapped_highT_match, 1e-4),
    "08-trapped-lowT-match": (check_trapped_lowT_match, 0.10),
    "09-exponent-extraction": (check_exponent_extraction, 0.05),
    "10-symmetry-positivity": (check_symmetry_positivity, 1e-9),
    "11-wronskian-conical-reality": (check_wronskian_conical, 1e-6),
}


def run_check(name: str) -> CheckResult:
    """Run the registered check ``name``, timed, against its pinned tolerance; failed where it raises."""
    check, tol = CHECKS[name]
    t0 = time.perf_counter()
    try:
        value, detail, conditions_met = check()
    except TrapGasError as exc:  # a route that refuses fails its check, and the checks after it still run
        value, detail, conditions_met = math.nan, f"{type(exc).__name__}: {exc}", False
    return CheckResult(
        name=name,
        value=float(value),
        tol=tol,
        seconds=time.perf_counter() - t0,
        detail=detail,
        conditions_met=bool(conditions_met),
    )


def run_all() -> list:
    """Run every check in registry order."""
    return [run_check(name) for name in CHECKS]
