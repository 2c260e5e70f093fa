"""Two-point correlators of the 1D trapped gas, their exponents and fits.

The correlator is assembled from Green values as

    Gamma = sqrt(rho_TF(x1) rho_TF(x2)) * exp(-G),

the paper's exp(-(G(1;2) + G(2;1))/2) with G = G(1;2) = G(2;1): every route
returns a real Green value that is symmetric in its two points by
construction.  The Thomas-Fermi density stands in for the renormalized
densities of the prefactor.  All power-law exponents derive from theta,
which ``model`` defines: homogeneous theta = 2 pi hbar v / g, trapped
theta(S) = 2 pi hbar rho_TF(S) / (m v), correlation length
xi(S) = (hbar beta v / pi) theta(S).

Every route gives Gamma through ``gamma_from_green``, the one place a Green
value is exponentiated: the closed form ``gamma_d1_exact`` from the
equal-time zero mode of ``closed_form_green``, and the spectral, series and
asymptotic Green values.  ``green_trapped._route``, the route map of the
tables and of ``validate``'s checks 06-10, maps the regime to its
asymptotic form; a library caller passes ``asympt_green_highT`` or
``asympt_green_lowT`` itself.  The high-temperature form, the summed Liouville-Green form, needs
only points outside the edge layer of the condensate and carries its
additive constant.  Its power law at small separations has the local
exponent theta(S) / sqrt(1 - S^2/R_c^2), which the exact routes reproduce;
theta_at and xi_at keep the paper's theta(S), which agrees with it only near
the trap centre.  The low-temperature form, the leading logarithm, gives the
power law (R_c/|zeta|)^(1/theta(S)) up to its undetermined constant.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DataError, DomainError
from .green_homogeneous import GreenValue, log_2sinh_abs
from .green_trapped import closed_form_green
from .model import CorrelatorQuery, DerivedScales, PhysicalParams, rho_tf, theta_homogeneous, zeta_of

# fewest Gamma samples a power-law fit accepts
MIN_FIT_SAMPLES = 8

__all__ = [
    "FitResult",
    "gamma_from_green",
    "gamma_d1_exact",
    "gamma_homog",
    "extract_exponent",
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


def _sqrt_rho_pair(x1: float, x2: float, p: PhysicalParams, d: DerivedScales) -> float:
    r1 = rho_tf(x1, p, d)
    r2 = rho_tf(x2, p, d)
    if r1 <= 0.0 or r2 <= 0.0:
        raise DomainError(f"correlator prefactor needs interior points; rho_TF vanished at x1={x1} or x2={x2}")
    return math.sqrt(r1 * r2)


def _overflow(what: str) -> AccuracyError:
    return AccuracyError(f"Gamma overflows: {what} exceeds the largest float {sys.float_info.max!r}", achieved=math.inf)


def gamma_from_green(q: CorrelatorQuery, g: GreenValue, p: PhysicalParams, d: DerivedScales) -> float:
    """Gamma = sqrt(rho_TF(x1) rho_TF(x2)) exp(-G) from the Green value
    ``g`` of the pair ``q``.  Raises AccuracyError where exp(-G) overflows,
    or where Gamma underflows below the smallest normal float, whose
    subnormals keep few digits."""
    try:
        gamma = _sqrt_rho_pair(q.x1, q.x2, p, d) * math.exp(-g.value)
    except OverflowError:
        raise _overflow(f"exp(-G) at G = {g.value!r}") from None
    if gamma < sys.float_info.min:
        raise AccuracyError(
            f"Gamma = {gamma!r} underflows below the smallest normal float {sys.float_info.min!r} (G = {g.value!r})",
            achieved=math.ulp(gamma) / gamma if gamma else math.inf,
        )
    return gamma


def gamma_d1_exact(x1: float, x2: float, p: PhysicalParams, d: DerivedScales) -> float:
    """Equal-time trapped correlator in closed form, ``gamma_from_green`` of
    ``closed_form_green``:

    sqrt(rho rho') * [ (1 + |dx|/R_c - x1 x2/R_c^2) /
                       (1 - |dx|/R_c - x1 x2/R_c^2) ] ^ (-g R_c/(4 beta hbar^2 v^2))

    Raises the boundary clamp's DomainError at a point beyond it.
    """
    return gamma_from_green(CorrelatorQuery(x1, 0.0, x2, 0.0), closed_form_green(x1, 0.0, x2, 0.0, p, d), p, d)


def gamma_homog(x1: float, tau1: float, x2: float, tau2: float, p: PhysicalParams, d: DerivedScales) -> float:
    """Homogeneous-gas correlator in its high-temperature form

        (Lambda/g) |sinh(pi/(hbar beta v) zeta)|^(-1/theta)

    with zeta = |dx| + i hbar v dtau and theta = 2 pi hbar v / g; the
    homogeneous density Lambda/g is the prefactor.  Returns inf at
    coincident arguments (divergence marker), and raises AccuracyError where
    the power overflows.
    """
    zeta = zeta_of(x1 - x2, tau1 - tau2, p, d)
    base = 0.5 * math.exp(log_2sinh_abs((math.pi / (p.hbar * p.beta * d.v)) * zeta))
    if base == 0.0:
        return math.inf
    expo = -1.0 / theta_homogeneous(p, d)
    try:
        return p.Lambda / p.g * base**expo
    except OverflowError:
        raise _overflow(f"base {base!r} to the power -1/theta = {expo!r}") from None


def extract_exponent(separations, gammas, rho_products=None) -> FitResult:
    """Least-squares power-law exponent from Gamma samples.

    Fits ln(Gamma / sqrt(rho rho')) = intercept - (1/theta) ln|dx| and returns
    -slope as the 1/theta estimate with its standard error.  Raises
    DataError on inputs it cannot fit, a flat profile among them.
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
    if slope == 0.0:
        raise DataError("the profile is flat: ln(Gamma/sqrt(rho rho')) has slope 0 in ln|dx|, so theta is undefined")
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

