"""Two-point correlators, closed forms, critical exponents and fits.

The correlator is assembled from Green values as

    Gamma = sqrt(rho_TF(x1) rho_TF(x2)) * exp(-G),

the paper's exp(-(G(1;2) + G(2;1))/2) with G = G(1;2) = G(2;1): every route
returns a real Green value that is symmetric in its two points by
construction.  The Thomas-Fermi density stands in for the renormalized
densities of the prefactor.  All power-law exponents derive from the single
stored quantity theta: homogeneous theta = 2 pi hbar v / g, trapped
theta(S) = 2 pi hbar rho_TF(S) / (m v), correlation length
xi(S) = (hbar beta v / pi) theta(S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, RegimeError
from .green_homogeneous import GreenValue, log_2sin_abs, log_2sinh_abs
from .green_trapped import _window_quasihom
from .model import (
    DEFAULT_R_HI,
    DEFAULT_R_LO,
    CorrelatorQuery,
    DerivedScales,
    PhysicalParams,
    Regime,
    classify_regime,
    rho_tf,
    zeta_of,
)

# the factor that turns each strong inequality "a << b" of an asymptotic
# window into a <= WINDOW_FACTOR * b
WINDOW_FACTOR = 0.1
# fewest Gamma samples a power-law fit accepts
MIN_FIT_SAMPLES = 8

__all__ = [
    "CorrelatorQuery",
    "FitResult",
    "ExponentReport",
    "CoherenceValue",
    "theta_homogeneous",
    "theta_at",
    "xi_at",
    "gamma_from_green",
    "gamma_d1_exact",
    "gamma_d1_quasihom",
    "gamma_homog",
    "gamma_trapped_asymptotic",
    "coherence_multidim",
    "extract_exponent",
    "exponent_report",
]


@dataclass(frozen=True)
class FitResult:
    inv_theta: float
    inv_theta_stderr: float
    intercept: float
    n_samples: int
    sep_range: tuple

    @property
    def theta(self) -> float:
        return 1.0 / self.inv_theta

    @property
    def theta_stderr(self) -> float:
        return self.inv_theta_stderr / self.inv_theta**2


@dataclass(frozen=True)
class ExponentReport:
    theta_hom: float
    theta_S: float
    xi_S: float
    fit: FitResult


@dataclass(frozen=True)
class CoherenceValue:
    gamma1: float
    phase_green: float
    dim: int
    separation: float


def theta_homogeneous(p: PhysicalParams, d: DerivedScales) -> float:
    """theta = 2 pi hbar v / g (equivalently 2 pi hbar rho / (m v), rho = Lambda/g)."""
    return 2.0 * math.pi * p.hbar * d.v / p.g


def theta_at(S: float, p: PhysicalParams, d: DerivedScales) -> float:
    """Position-dependent exponent theta(S) = 2 pi hbar rho_TF(S) / (m v)."""
    rho = rho_tf(S, p, d)
    if rho <= 0.0:
        raise DomainError(f"theta(S) undefined outside the condensate: rho_TF({S}) = 0")
    return 2.0 * math.pi * p.hbar * rho / (p.m * d.v)


def xi_at(S: float, p: PhysicalParams, d: DerivedScales) -> float:
    """Correlation length xi(S) = (hbar beta v / pi) theta(S) = 2 hbar^2 beta rho_TF(S)/m."""
    return (p.hbar * p.beta * d.v / math.pi) * theta_at(S, p, d)


def _sqrt_rho_pair(x1: float, x2: float, p: PhysicalParams, d: DerivedScales) -> float:
    r1 = rho_tf(x1, p, d)
    r2 = rho_tf(x2, p, d)
    if r1 <= 0.0 or r2 <= 0.0:
        raise DomainError(f"correlator prefactor needs interior points; rho_TF vanished at x1={x1} or x2={x2}")
    return math.sqrt(r1 * r2)


def gamma_from_green(q: CorrelatorQuery, g: GreenValue, p: PhysicalParams, d: DerivedScales) -> float:
    """Gamma = sqrt(rho_TF(x1) rho_TF(x2)) exp(-G) from the Green value
    ``g`` of the pair ``q``."""
    return _sqrt_rho_pair(q.x1, q.x2, p, d) * math.exp(-g.value)


def gamma_d1_exact(x1: float, x2: float, p: PhysicalParams, d: DerivedScales) -> float:
    """Equal-time trapped correlator in closed form.

    sqrt(rho rho') * [ (1 + |dx|/R_c - x1 x2/R_c^2) /
                       (1 - |dx|/R_c - x1 x2/R_c^2) ] ^ (-g R_c/(4 beta hbar^2 v^2))
    """
    du = abs(x1 - x2) / d.R_c
    uu = (x1 / d.R_c) * (x2 / d.R_c)
    num = 1.0 + du - uu
    den = 1.0 - du - uu
    if num <= 0.0 or den <= 0.0:
        raise DomainError(f"closed-form bracket non-positive (num={num:.6g}, den={den:.6g})")
    expo = -p.g * d.R_c / (4.0 * p.beta * (p.hbar * d.v) ** 2)
    return _sqrt_rho_pair(x1, x2, p, d) * (num / den) ** expo


def gamma_d1_quasihom(x1: float, x2: float, p: PhysicalParams, d: DerivedScales) -> float:
    """Quasi-homogeneous limit of the equal-time correlator.

    sqrt(rho rho') * exp(-|dx| / xi(S)), the exponential form at dtau = 0;
    since Lambda = m v^2 the decay rate 1/xi(S) equals
    Lambda / (2 beta hbar^2 v^2 rho_TF(S)).  Raises RegimeError outside the
    quasi-homogeneous window ``_window_quasihom`` at ``WINDOW_FACTOR``.
    """
    _window_quasihom(x1, x2, p, d, WINDOW_FACTOR)
    return _exponential_gamma(CorrelatorQuery(x1, 0.0, x2, 0.0), p, d)


def _power_law(pref: float, base: float, theta: float) -> float:
    """pref * base^(-1/theta), the power law of every homogeneous and trapped
    form; inf at base = 0 (divergence marker)."""
    if base == 0.0:
        return math.inf
    return pref * base ** (-1.0 / theta)


def _abs_sinh_thermal(zeta: complex, p: PhysicalParams, d: DerivedScales) -> float:
    """|sinh(pi zeta / lambda_T)|, the high-temperature base."""
    return 0.5 * math.exp(log_2sinh_abs((math.pi / (p.hbar * p.beta * d.v)) * zeta))


def _abs_sin_trap(zeta: complex, d: DerivedScales) -> float:
    """|sin(pi zeta / (2 R_c))|, the low-temperature base."""
    return 0.5 * math.exp(log_2sin_abs((math.pi / (2.0 * d.R_c)) * zeta))


def gamma_homog(
    x1: float,
    tau1: float,
    x2: float,
    tau2: float,
    p: PhysicalParams,
    d: DerivedScales,
    form: str,
) -> float:
    """Homogeneous-gas correlator in one of its three asymptotic forms.

    form = "highT"     |sinh(pi/(hbar beta v) zeta)|^(-1/theta)
    form = "lowT"      |sin(pi/(2 R_c) zeta)|^(-1/theta)
    form = "powerlaw"  |zeta|^(-1/theta)

    with zeta = |dx| + i hbar v dtau and theta = 2 pi hbar v / g.  The
    homogeneous density Lambda/g supplies the prefactor.  Returns inf at
    coincident arguments (divergence marker).
    """
    zeta = zeta_of(x1 - x2, tau1 - tau2, p, d)
    if form == "highT":
        base = _abs_sinh_thermal(zeta, p, d)
    elif form == "lowT":
        base = _abs_sin_trap(zeta, d)
    elif form == "powerlaw":
        base = abs(zeta)
    else:
        raise DomainError(f"unknown homogeneous form {form!r}")
    return _power_law(p.Lambda / p.g, base, theta_homogeneous(p, d))


def _power_law_gamma(q: CorrelatorQuery, p: PhysicalParams, d: DerivedScales) -> float:
    """Trapped power law |zeta|^(-1/theta(S)): both temperature limits
    dispatch here, so their values coincide bit-for-bit for identical
    inputs."""
    base = abs(zeta_of(q.dx, q.dtau, p, d))
    return _power_law(_sqrt_rho_pair(q.x1, q.x2, p, d), base, theta_at(q.S, p, d))


def _sinh_gamma(q: CorrelatorQuery, p: PhysicalParams, d: DerivedScales) -> float:
    """High-temperature sinh power law |sinh(pi zeta / lambda_T)|^(-1/theta(S))."""
    base = _abs_sinh_thermal(zeta_of(q.dx, q.dtau, p, d), p, d)
    return _power_law(_sqrt_rho_pair(q.x1, q.x2, p, d), base, theta_at(q.S, p, d))


def _exponential_green(q: CorrelatorQuery, p: PhysicalParams, d: DerivedScales) -> float:
    """Phase correlator |zeta| / xi(S) of the quasi-homogeneous exponential."""
    return abs(zeta_of(q.dx, q.dtau, p, d)) / xi_at(q.S, p, d)


def _exponential_gamma(q: CorrelatorQuery, p: PhysicalParams, d: DerivedScales) -> float:
    """Quasi-homogeneous exponential decay exp(-|zeta| / xi(S))."""
    return _sqrt_rho_pair(q.x1, q.x2, p, d) * math.exp(-_exponential_green(q, p, d))


def gamma_trapped_asymptotic(
    q: CorrelatorQuery,
    p: PhysicalParams,
    d: DerivedScales,
    r_lo: float = DEFAULT_R_LO,
    r_hi: float = DEFAULT_R_HI,
) -> float:
    """Trapped correlator from the first asymptotic closed form whose window
    holds, with "<<" read as a factor ``WINDOW_FACTOR``.

    high T   power law    |dx|/lambda_T, dtau/beta << 1 << R_c/lambda_T
             exponential  1 << |dx|/lambda_T, |dx| << R_c
             sinh         the quasi-homogeneous window ``_window_quasihom``
    low T    power law    |zeta|/R_c << 1

    Raises DomainError when the midpoint lies outside the condensate, and
    RegimeError naming the failed inequalities when no form applies.
    """
    theta_at(q.S, p, d)  # a midpoint outside the condensate is a domain error, not a regime one
    regime = classify_regime(d, r_lo, r_hi)
    if regime is Regime.HIGH_T:
        dx_over_lambda = abs(q.dx) / d.lambda_T
        if (
            dx_over_lambda <= WINDOW_FACTOR
            and abs(q.dtau) / p.beta <= WINDOW_FACTOR
            and d.R_c / d.lambda_T >= 1.0 / WINDOW_FACTOR
        ):
            return _power_law_gamma(q, p, d)
        if dx_over_lambda >= 1.0 / WINDOW_FACTOR and abs(q.dx) <= WINDOW_FACTOR * d.R_c:
            return _exponential_gamma(q, p, d)
        _window_quasihom(q.x1, q.x2, p, d, WINDOW_FACTOR)
        return _sinh_gamma(q, p, d)
    if regime is Regime.LOW_T:
        zeta_over_rc = abs(zeta_of(q.dx, q.dtau, p, d)) / d.R_c
        if zeta_over_rc < WINDOW_FACTOR:
            return _power_law_gamma(q, p, d)
        raise RegimeError(f"low-temperature gate |zeta|/R_c << 1 failed (got {zeta_over_rc:.3g})")
    raise RegimeError(
        f"intermediate regime (beta/alpha = {d.regime_ratio:.3g}): no asymptotic form applies"
    )


def coherence_multidim(x1, x2, dim: int, p: PhysicalParams, d: DerivedScales) -> CoherenceValue:
    """First-order coherence across dimensions, plus the raw phase correlator.

    d=3: Gamma^(1) = exp(+Lambda / (4 pi beta hbar^2 v^2 rho_TF(S) |dx|))
    d=2: Gamma^(1) = (lambda_T / |dx|) ^ (Lambda / (2 pi beta hbar^2 v^2 rho_TF(S)))
    d=1: the quasi-homogeneous exponential of ``gamma_d1_quasihom``,
         G = |dx| / xi(S), with the sqrt(rho rho') prefactor.

    The phase correlator G is returned alongside; S is the radial coordinate
    of the midpoint.  Zero separation is a divergence marker (inf) for
    d = 2, 3.
    """
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2 or 3, got {dim}")
    a = np.atleast_1d(np.asarray(x1, dtype=float))
    b = np.atleast_1d(np.asarray(x2, dtype=float))
    if a.shape != (dim,) or b.shape != (dim,):
        raise DomainError(f"arguments must be {dim}-vectors, got shapes {a.shape} and {b.shape}")
    sep = float(np.linalg.norm(a - b))
    s_rad = float(np.linalg.norm(0.5 * (a + b)))
    rho_s = rho_tf(s_rad, p, d)
    if rho_s <= 0.0:
        raise DomainError(f"midpoint |S| = {s_rad} lies outside the condensate")
    hv2 = (p.hbar * d.v) ** 2
    if dim == 3:
        if sep == 0.0:
            return CoherenceValue(math.inf, -math.inf, dim, sep)
        green = -p.Lambda / (4.0 * math.pi * p.beta * hv2 * rho_s * sep)
        return CoherenceValue(math.exp(-green), green, dim, sep)
    if dim == 2:
        if sep == 0.0:
            return CoherenceValue(math.inf, -math.inf, dim, sep)
        green = p.Lambda / (2.0 * math.pi * p.beta * hv2 * rho_s) * math.log(sep / d.lambda_T)
        return CoherenceValue(math.exp(-green), green, dim, sep)
    q = CorrelatorQuery(float(a[0]), 0.0, float(b[0]), 0.0)
    return CoherenceValue(_exponential_gamma(q, p, d), _exponential_green(q, p, d), dim, sep)


def extract_exponent(separations, gammas, rho_products=None) -> FitResult:
    """Least-squares power-law exponent from Gamma samples.

    Fits ln(Gamma / sqrt(rho rho')) = intercept - (1/theta) ln|dx| and returns
    -slope as the 1/theta estimate with its standard error.
    """
    sep = np.asarray(separations, dtype=float)
    gam = np.asarray(gammas, dtype=float)
    if rho_products is None:
        rho_products = np.ones_like(gam)
    rp = np.asarray(rho_products, dtype=float)
    if sep.shape != gam.shape or sep.shape != rp.shape:
        raise DataError("separations, gammas and rho_products must have matching shapes")
    for name, values in (("separations", sep), ("gammas", gam), ("rho_products", rp)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(f"{name} must be finite, got {values[bad[0]]} at index {bad[0]}")
    if sep.size < MIN_FIT_SAMPLES:
        raise DataError(f"need at least {MIN_FIT_SAMPLES} samples, got {sep.size}")
    if np.any(gam <= 0.0) or np.any(sep <= 0.0) or np.any(rp <= 0.0):
        raise DataError("all separations, Gamma samples and density products must be positive")
    xs = np.log(sep)
    ys = np.log(gam / rp)
    n = sep.size
    x_mean = xs.mean()
    sxx = float(np.sum((xs - x_mean) ** 2))
    if sxx == 0.0:
        raise DataError("separations are all identical; cannot fit a slope")
    slope = float(np.sum((xs - x_mean) * (ys - ys.mean())) / sxx)
    intercept = float(ys.mean() - slope * x_mean)
    resid = ys - (intercept + slope * xs)
    dof = max(n - 2, 1)
    slope_err = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return FitResult(
        inv_theta=-slope,
        inv_theta_stderr=slope_err,
        intercept=intercept,
        n_samples=n,
        sep_range=(float(sep.min()), float(sep.max())),
    )


def exponent_report(
    S: float,
    separations,
    gammas,
    rho_products,
    p: PhysicalParams,
    d: DerivedScales,
) -> ExponentReport:
    """Bundle the analytic exponents at midpoint S with a fitted exponent."""
    fit = extract_exponent(separations, gammas, rho_products)
    return ExponentReport(
        theta_hom=theta_homogeneous(p, d),
        theta_S=theta_at(S, p, d),
        xi_S=xi_at(S, p, d),
        fit=fit,
    )
