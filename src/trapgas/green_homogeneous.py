"""Phase-correlation Green function of the homogeneous (untrapped) gas.

The V=0 problem on the periodic box [-R_c, R_c] x [0, beta] has the
regularized double Fourier representation

    G(x,tau; x',tau') = (-g / (2 beta R_c)) * sum_{omega,k}'
                        e^{i omega (tau-tau') + i k (x-x')} / (omega^2 + E_k^2),

with omega = (2 pi / beta) l, k = (pi / R_c) n, E_k = hbar v k, and the
(omega, k) = (0, 0) term removed.  Two closed asymptotic forms exist, one per
temperature regime; both carry an undetermined additive constant, so every
cross-method comparison in this package goes through ``green_difference``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .model import CorrelatorQuery, DerivedScales, PhysicalParams, zeta_of

__all__ = [
    "HomogSeriesControl",
    "GreenValue",
    "GreenDifference",
    "homog_series",
    "homog_asymptotic_highT",
    "homog_asymptotic_lowT",
    "green_difference",
    "log_2sinh_abs",
    "log_2sin_abs",
]


@dataclass(frozen=True)
class HomogSeriesControl:
    """Cutoffs of the double Fourier series; its k=0 frequency line is summed
    in closed form (see ``homog_series``)."""

    l_max: int = 64
    n_max: int = 256

    def __post_init__(self):
        if self.l_max < 1 or self.n_max < 1:
            raise DomainError("series cutoffs l_max and n_max must be >= 1")


@dataclass(frozen=True)
class GreenValue:
    """A Green-function value plus evaluation metadata.

    ``value`` is the real phase correlator G(1;2).  Every route returns it
    symmetric under swapping its two spacetime points, so it also stands for
    G(2;1).
    """

    value: float
    method: str
    trunc_err: float = 0.0
    divergent: bool = False
    const_free: bool = False
    warning: str | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GreenDifference:
    """G(pair_a) - G(pair_b); the undetermined additive constant cancels."""

    value: float
    trunc_err: float
    method: str


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
    return theta * theta - theta + 1.0 / 6.0


def homog_series(
    x: float,
    tau: float,
    xp: float,
    taup: float,
    p: PhysicalParams,
    d: DerivedScales,
    ctl: HomogSeriesControl = HomogSeriesControl(),
) -> GreenValue:
    """Partial sum of the regularized double Fourier series.

    The summand depends on the separations only.  Terms are folded over
    +-l and +-n, so every partial sum is real; the summation order is fixed
    (k=0 line, omega=0 line, then the double block row-by-row in l) which
    makes repeated runs bit-identical, however many rows of the block are
    formed at a time.
    """
    dx = x - xp
    dtau = tau - taup
    pref = -p.g / (2.0 * p.beta * d.R_c)
    hv = p.hbar * d.v

    l_arr = np.arange(1, ctl.l_max + 1, dtype=float)
    n_arr = np.arange(1, ctl.n_max + 1, dtype=float)
    omega = (2.0 * math.pi / p.beta) * l_arr
    e_k = hv * (math.pi / d.R_c) * n_arr

    warning = None
    if dx == 0.0 and dtau % p.beta == 0.0:
        warning = "coincident arguments: series is log-divergent, value is cutoff-dependent"

    # k = 0 frequency line in its exact Bernoulli-polynomial closed form,
    # sum_{l>=1} cos(2 pi l theta)/l^2 = pi^2 (theta^2 - theta + 1/6)
    line_k0 = (p.beta**2 / 2.0) * _bernoulli_b2((dtau / p.beta) % 1.0)

    # omega = 0 line
    line_w0 = float(np.sum(2.0 * np.cos((math.pi / d.R_c) * n_arr * dx) / e_k**2))
    tail_w0 = 2.0 * (d.R_c / (math.pi * hv)) ** 2 / ctl.n_max

    # double block, folded to 4 cos cos / (omega^2 + E_k^2), in row blocks of
    # at most 8 192 elements: a 64 KiB temporary is under glibc's mmap and
    # trim threshold and reuses the heap (as legendre._ROWS)
    cos_t = np.cos(omega * dtau)
    cos_x = np.cos((math.pi / d.R_c) * n_arr * dx)
    e_k2 = e_k**2
    rows = max(1, 8192 // ctl.n_max)
    row_sums = np.empty(ctl.l_max)
    for i in range(0, ctl.l_max, rows):
        part = slice(i, i + rows)
        denom = omega[part, None] ** 2 + e_k2[None, :]
        row_sums[part] = (4.0 * cos_t[part, None] * cos_x[None, :] / denom).sum(axis=1)
    block = float(np.sum(row_sums))

    # heuristic truncation estimate: magnitude of the first omitted lines
    edge_l = float(np.sum(4.0 / ((2.0 * math.pi * (ctl.l_max + 1) / p.beta) ** 2 + e_k**2)))
    edge_n = float(np.sum(4.0 / (omega**2 + (hv * math.pi * (ctl.n_max + 1) / d.R_c) ** 2)))
    trunc = abs(pref) * (tail_w0 + edge_l + edge_n)

    value = pref * (line_k0 + line_w0 + block)
    return GreenValue(
        value=value,
        method="homog-series",
        trunc_err=trunc,
        divergent=(warning is not None),
        warning=warning,
        meta={"l_max": ctl.l_max, "n_max": ctl.n_max},
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
    value = (p.g / (2.0 * math.pi * hv)) * log_term - (p.g / (4.0 * p.beta * d.R_c)) * dx**2 / hv**2
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
    hv = p.hbar * d.v
    log_term = log_2sin_abs((math.pi / (2.0 * d.R_c)) * zeta_of(dx, dtau, p, d))
    if math.isinf(log_term):
        return _log_divergence("homog-asympt-lowT")
    value = (p.g / (2.0 * math.pi * hv)) * log_term - (p.g / (4.0 * p.beta * d.R_c)) * dtau**2
    return GreenValue(value=value, method="homog-asympt-lowT", const_free=True)


def green_difference(evaluate, pair_a: CorrelatorQuery, pair_b: CorrelatorQuery) -> GreenDifference:
    """G(pair_a) - G(pair_b) under one evaluator; additive constants cancel.

    The difference of two real Green values is real; its truncation error is
    the sum of the two endpoints' estimates.

    ``evaluate(x, tau, xp, taup)`` returns a :class:`GreenValue`, like the
    Green functions themselves with their remaining arguments bound (e.g.
    ``partial(homog_series, p=p, d=d, ctl=ctl)``); it is called at
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
    return GreenDifference(value=ga.value - gb.value, trunc_err=ga.trunc_err + gb.trunc_err, method=ga.method)
