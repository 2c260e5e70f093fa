"""Physical parameters, derived scales, condensate profile, its exponents theta
and excitation spectrum.

The gas is a weakly repulsive 1D Bose gas in a harmonic trap, described by a
mass ``m``, a repulsive coupling ``g > 0``, a trap frequency ``Omega``, a
renormalized chemical potential ``Lambda`` (a direct input here) and an
inverse temperature ``beta``.  Boltzmann's constant is fixed to 1, so ``beta``
carries units of inverse energy.  ``hbar`` is kept as an explicit field
(default 1) so no hidden nondimensionalization happens anywhere downstream.

The collective modes have the energies ``energy_level``; the exact spacing
of two neighbours is the difference of two of them, and
``level_spacing_expansion`` gives only its 1/n expansion, as a float.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PhysicalParams",
    "DerivedScales",
    "CorrelatorQuery",
    "Regime",
    "derive_scales",
    "rho_tf",
    "theta_homogeneous",
    "theta_at",
    "xi_at",
    "energy_level",
    "level_spacing_expansion",
    "classify_regime",
    "zeta_of",
]

# the factor that turns each strong inequality "a << b", of the regime and of
# every asymptotic window, into a bound of a/b by WINDOW_FACTOR
WINDOW_FACTOR = 0.1


@dataclass(frozen=True)
class PhysicalParams:
    """Primary inputs. All fields must be strictly positive.

    ``Lambda`` is the renormalized chemical potential, taken as a direct
    input; the over-condensate correction that renormalizes the bare chemical
    potential is not computed here.
    """

    m: float
    g: float
    Omega: float
    Lambda: float
    beta: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("m", "g", "Omega", "Lambda", "beta", "hbar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"PhysicalParams.{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class DerivedScales:
    """Scales derived from :class:`PhysicalParams`.

    v            sound velocity at the trap center, v = sqrt(Lambda/m)
    R_c          condensate (Thomas-Fermi) radius, R_c^2 = 2 Lambda/(m Omega^2)
    alpha        R_c/(hbar v); same units as beta
    lambda_T     thermal length hbar*beta*v
    regime_ratio beta/alpha, the dimensionless temperature dial
    """

    v: float
    R_c: float
    alpha: float
    lambda_T: float
    regime_ratio: float


@dataclass(frozen=True)
class CorrelatorQuery:
    """Spacetime arguments (x1, tau1; x2, tau2) of one two-point evaluation.

    The midpoint S is always recomputed from x1 and x2.
    """

    x1: float
    tau1: float
    x2: float
    tau2: float

    @property
    def S(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @property
    def dx(self) -> float:
        return self.x1 - self.x2

    @property
    def dtau(self) -> float:
        return self.tau1 - self.tau2


class Regime(enum.Enum):
    HIGH_T = "HighT"
    LOW_T = "LowT"
    INTERMEDIATE = "Intermediate"


def derive_scales(p: PhysicalParams) -> DerivedScales:
    """Compute all derived scales from the primary parameters.

    The exact identities v^2 m = Lambda and R_c^2 m Omega^2 = 2 Lambda hold by
    construction.
    """
    v = math.sqrt(p.Lambda / p.m)
    r_c = math.sqrt(2.0 * p.Lambda / (p.m * p.Omega**2))
    alpha = r_c / (p.hbar * v)
    lambda_t = p.hbar * p.beta * v
    return DerivedScales(v=v, R_c=r_c, alpha=alpha, lambda_T=lambda_t, regime_ratio=p.beta / alpha)


def zeta_of(dx: float, dtau: float, p: PhysicalParams, d: DerivedScales) -> complex:
    """Complex separation zeta = |dx| + i hbar v dtau of a spacetime pair."""
    return complex(abs(dx), p.hbar * d.v * dtau)


def rho_tf(x, p: PhysicalParams, d: DerivedScales):
    """Thomas-Fermi condensate density (Lambda/g)(1 - x^2/R_c^2), clipped to 0.

    Accepts a scalar or an ndarray of positions; the profile is an inverted
    parabola supported on [-R_c, R_c] and continuous at the edges.
    """
    if type(x) in (float, int):  # plain float arithmetic, bitwise the numpy form's; NaN stays NaN
        w = 1.0 - (x / d.R_c) * (x / d.R_c)
        return (p.Lambda / p.g) * (0.0 if w < 0.0 else w)
    u2 = np.square(np.asarray(x, dtype=float) / d.R_c)
    out = (p.Lambda / p.g) * np.maximum(0.0, 1.0 - u2)
    if np.ndim(x) == 0:
        return float(out)
    return out


def theta_homogeneous(p: PhysicalParams, d: DerivedScales) -> float:
    """theta = 2 pi hbar v / g (equivalently 2 pi hbar rho / (m v), rho = Lambda/g)."""
    return 2.0 * math.pi * p.hbar * d.v / p.g


def theta_at(S: float, p: PhysicalParams, d: DerivedScales) -> float:
    """theta(S) = 2 pi hbar rho_TF(S) / (m v); DomainError outside the condensate or the float range."""
    rho = rho_tf(S, p, d)
    if rho <= 0.0:
        raise DomainError(f"theta(S) undefined outside the condensate: rho_TF({S}) = 0")
    theta = 2.0 * math.pi * p.hbar * rho / (p.m * d.v)
    if not 0.0 < theta < math.inf:
        raise DomainError(f"theta(S) = {theta!r} at S = {S!r} leaves the float range")
    return theta


def xi_at(S: float, p: PhysicalParams, d: DerivedScales) -> float:
    """Correlation length xi(S) = (hbar beta v / pi) theta(S) = 2 hbar^2 beta rho_TF(S)/m."""
    return (p.hbar * p.beta * d.v / math.pi) * theta_at(S, p, d)


def energy_level(n, d: DerivedScales):
    """Energy E_n = sqrt(n(n+1))/alpha = hbar Omega sqrt(n(n+1)/2) of the
    collective mode P_n(x/R_c), at a mode index n >= 0 or at each of an
    array of them."""
    if type(n) in (float, int):  # checked without numpy: a mode sum's tail bound calls this in a bisection
        m, ok = n, n >= 0 and n % 1 == 0
    else:
        m = np.asarray(n, dtype=float)
        ok = ((m >= 0.0) & (m == np.floor(m))).all()
    if not ok:
        raise DomainError(f"mode index must be an integer >= 0, got {n!r}")
    return np.sqrt(m * (m + 1.0)) / d.alpha


def level_spacing_expansion(n: int, d: DerivedScales) -> float:
    """The 1/n expansion (1/alpha) * (1 + 1/(8 n^2) - 1/(4 n^3)) of the
    spacing E_{n+1} - E_n next to n > 1.  The term proportional to 1/n is
    absent, so the spectrum is nearly equidistant already at moderate n.
    """
    if n != int(n) or n <= 1:
        raise DomainError(f"level_spacing_expansion requires integer n > 1, got {n!r}")
    n = int(n)
    return (1.0 + 1.0 / (8 * n**2) - 1.0 / (4 * n**3)) / d.alpha


def classify_regime(d: DerivedScales) -> Regime:
    """Classify beta/alpha by its two strong inequalities: beta/alpha << 1
    read as beta/alpha < WINDOW_FACTOR, beta/alpha >> 1 as beta/alpha >
    1/WINDOW_FACTOR."""
    ratio = d.regime_ratio
    if ratio < WINDOW_FACTOR:
        return Regime.HIGH_T
    if ratio > 1.0 / WINDOW_FACTOR:
        return Regime.LOW_T
    return Regime.INTERMEDIATE
