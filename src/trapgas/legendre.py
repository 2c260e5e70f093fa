"""Legendre polynomials and Legendre functions of complex degree on (-1, 1).

The trapped-gas spectral problem needs P_nu and Q_nu on the cut for degrees

    nu = -1/2 + sqrt(1/4 - alpha^2 omega^2)    (principal branch),

which is a negative real in (-1/2, 0] for small |omega| and a conical degree
-1/2 + i*mu for alpha|omega| > 1/2.  P_nu is evaluated through the Gauss
hypergeometric series

    P_nu(u) = 2F1(-nu, nu+1; 1; (1-u)/2),

whose terms are nonnegative for the degrees above, so the summation is
cancellation-free.  Q_nu comes from the connection formula

    Q_nu(u) = pi/(2 sin(pi nu)) * [cos(pi nu) P_nu(u) - P_nu(-u)],

with the integer-degree limit handled by closed forms and the standard
three-term recurrence.

Conical P_nu grows like exp(mu * arccos u), which overflows float64 well
inside the Matsubara range, so the module keeps an internal scaled
representation (mantissa, log-scale).  The Green-function code combines
scaled ``p_scaled`` values through the private connection bracket and
converts only its final products; the public ``legendre_pair`` returns plain
complex values and is meant for moderate degrees.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .model import DerivedScales

__all__ = [
    "LegendrePair",
    "p_poly",
    "p_poly_table",
    "p_poly_asymptotic",
    "nu_from_omega",
    "legendre_pair",
    "wronskian_check",
    "legendre_ode_residual",
]

_MAX_TERMS_DEFAULT = 500_000
_CHUNK = 128
_RESCALE_THRESHOLD = 1e250


@dataclass(frozen=True)
class LegendrePair:
    """P_nu(u) and Q_nu(u) at one point, with convergence bookkeeping."""

    p: complex
    q: complex
    u: float
    nu: complex
    terms: int
    err_bound: float


# ----------------------------------------------------------------------------
# scaled-number helpers: value = mant * exp(log_scale)
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Scaled:
    mant: complex
    log_scale: float

    def to_complex(self) -> complex:
        # inf only when the represented number genuinely overflows; the
        # conversion goes through (phase, magnitude) so a huge log_scale with
        # a tiny mantissa stays exact
        if self.mant == 0:
            return 0j
        mag = self.log_scale + math.log(abs(self.mant))
        if mag > 709.0:
            return complex(math.inf, math.inf)
        return (self.mant / abs(self.mant)) * math.exp(mag)

    def mul(self, other: "Scaled") -> "Scaled":
        return Scaled(self.mant * other.mant, self.log_scale + other.log_scale)

    def times(self, c: complex) -> "Scaled":
        return Scaled(self.mant * c, self.log_scale)

    def add(self, other: "Scaled") -> "Scaled":
        if self.mant == 0:
            return other
        if other.mant == 0:
            return self
        top = max(self.log_scale, other.log_scale)
        return Scaled(
            self.mant * math.exp(self.log_scale - top) + other.mant * math.exp(other.log_scale - top),
            top,
        )

    def div(self, other: "Scaled") -> "Scaled":
        return Scaled(self.mant / other.mant, self.log_scale - other.log_scale)


def _sin_pi_scaled(nu: complex) -> Scaled:
    """sin(pi*nu) stable against overflow of cosh(pi*Im nu)."""
    a, b = nu.real, nu.imag
    if b == 0.0:
        return Scaled(complex(math.sin(math.pi * a)), 0.0)
    lb = math.pi * abs(b)
    sb = 1.0 if b > 0 else -1.0
    damp = math.exp(-2.0 * lb)
    mant = 0.5 * complex(math.sin(math.pi * a) * (1.0 + damp), math.cos(math.pi * a) * sb * (1.0 - damp))
    return Scaled(mant, lb)


def _cos_pi_scaled(nu: complex) -> Scaled:
    a, b = nu.real, nu.imag
    if b == 0.0:
        return Scaled(complex(math.cos(math.pi * a)), 0.0)
    lb = math.pi * abs(b)
    sb = 1.0 if b > 0 else -1.0
    damp = math.exp(-2.0 * lb)
    mant = 0.5 * complex(math.cos(math.pi * a) * (1.0 + damp), -math.sin(math.pi * a) * sb * (1.0 - damp))
    return Scaled(mant, lb)


def _exp_i_pi_nu_scaled(nu: complex, sign: int) -> Scaled:
    """exp(sign * i * pi * nu) as a scaled number."""
    a, b = nu.real, nu.imag
    return Scaled(cmath.exp(1j * sign * math.pi * a), -sign * math.pi * b)


# ----------------------------------------------------------------------------
# Legendre polynomials
# ----------------------------------------------------------------------------


def p_poly(n: int, u: float) -> float:
    """Legendre polynomial P_n(u) on [-1, 1] by the three-term recurrence."""
    if n != int(n) or n < 0:
        raise DomainError(f"polynomial degree must be an integer >= 0, got {n!r}")
    if abs(u) > 1.0:
        raise DomainError(f"p_poly argument must satisfy |u| <= 1, got {u}")
    n = int(n)
    if n == 0:
        return 1.0
    pm1, pm0 = 1.0, float(u)
    for k in range(1, n):
        pm1, pm0 = pm0, ((2 * k + 1) * u * pm0 - k * pm1) / (k + 1)
    return pm0


def p_poly_table(n_max: int, u: float) -> np.ndarray:
    """P_0(u) .. P_{n_max}(u) as one array (shared recurrence sweep)."""
    if n_max != int(n_max) or n_max < 0:
        raise DomainError(f"n_max must be an integer >= 0, got {n_max!r}")
    if abs(u) > 1.0:
        raise DomainError(f"p_poly_table argument must satisfy |u| <= 1, got {u}")
    n_max = int(n_max)
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = u
    for k in range(1, n_max):
        out[k + 1] = ((2 * k + 1) * u * out[k] - k * out[k - 1]) / (k + 1)
    return out


def p_poly_asymptotic(n: int, theta: float) -> float:
    """Large-n oscillatory form of P_n(cos theta) away from the poles, with
    the phase (n + 1/2)*theta - pi/4."""
    if n != int(n) or n < 1:
        raise DomainError(f"asymptotic form needs integer n >= 1, got {n!r}")
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie strictly inside (0, pi), got {theta}")
    n = int(n)
    amp = math.sqrt(2.0 / (math.pi * n * math.sin(theta)))
    phase = (n + 0.5) * theta - math.pi / 4.0
    return amp * math.cos(phase)


# ----------------------------------------------------------------------------
# hypergeometric evaluation of P_nu
# ----------------------------------------------------------------------------


def p_scaled(nu: complex, u: float, tol: float = 1e-15, max_terms: int = _MAX_TERMS_DEFAULT):
    """P_nu(u) as (Scaled, terms_used, err_bound) via the 2F1 series at (1-u)/2.

    Terms are accumulated as (log magnitude, unit phase) pairs, so the sweep
    never overflows even when the conical degree drives individual terms to
    exp(hundreds).  The series converges for u in (-1, 1]; convergence
    degenerates as u -> -1 where P_nu has its logarithmic singularity.
    Raises AccuracyError (carrying the reached bound) if max_terms runs out.
    """
    if not (-1.0 < u <= 1.0):
        raise DomainError(f"p_scaled argument must lie in (-1, 1], got {u}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    z = 0.5 * (1.0 - u)
    if z == 0.0:
        return Scaled(1.0 + 0j, 0.0), 1, 0.0
    acc_mant = 1.0 + 0j
    acc_log = 0.0
    term_log = 0.0
    term_phase = 1.0 + 0j
    s = 0
    while s < max_terms:
        block = min(_CHUNK, max_terms - s)
        j = np.arange(s, s + block, dtype=float)
        ratios = (j - nu) * (j + nu + 1.0) * (z / (j + 1.0) ** 2)
        mags = np.abs(ratios)
        with np.errstate(divide="ignore"):
            logs = np.log(np.where(mags > 0.0, mags, 1.0))
        logs[mags == 0.0] = -math.inf  # terminating (polynomial) series
        phases = np.where(mags > 0.0, ratios / np.where(mags > 0.0, mags, 1.0), 0.0)
        cum_logs = term_log + np.cumsum(logs)
        cum_phases = term_phase * np.cumprod(phases)
        top = max(acc_log, float(np.max(cum_logs)))
        with np.errstate(under="ignore"):
            acc_mant = acc_mant * math.exp(min(acc_log - top, 0.0)) + complex(
                np.sum(cum_phases * np.exp(cum_logs - top))
            )
        acc_log = top
        term_log = float(cum_logs[-1])
        term_phase = complex(cum_phases[-1])
        s += block
        last_ratio = float(mags[-1])
        acc_abs_log = acc_log + math.log(max(abs(acc_mant), 1e-300))
        if term_log < math.log(tol) + acc_abs_log and last_ratio < 0.9999:
            err = math.exp(term_log - acc_abs_log) * last_ratio / max(1e-300, 1.0 - last_ratio)
            return Scaled(acc_mant, acc_log), s, err
    achieved = math.exp(min(term_log - acc_log - math.log(max(abs(acc_mant), 1e-300)), 700.0))
    raise AccuracyError(
        f"hypergeometric series for P_nu(u) did not reach tol={tol} within "
        f"{max_terms} terms at nu={nu}, u={u} (argument too close to -1); "
        f"achieved relative bound {achieved:.3e}",
        achieved=achieved,
    )


def _connection_bracket(p_u: Scaled, p_mu: Scaled, phase: Scaled, sin_pi: Scaled) -> Scaled:
    """(pi/2) [phase * P_nu(u) - P_nu(-u)] / sin(pi nu) from P_nu(+-u).

    phase = cos(pi nu) gives Q_nu(u) by the connection formula; phase =
    e^{+-i pi nu} gives the bracket Q_nu(u) +- i (pi/2) P_nu(u), whose two
    terms carry orthogonal complex phases for conical nu, so it never suffers
    the exp(-2 pi mu) cancellation of the naive sum Q + i (pi/2) P at large mu.
    """
    return p_u.mul(phase).add(p_mu.times(-1.0)).div(sin_pi).times(math.pi / 2.0)


# ----------------------------------------------------------------------------
# integer-degree Q and the public pair evaluation
# ----------------------------------------------------------------------------


def _q_integer(n: int, u: float) -> float:
    """Q_n(u) on (-1, 1) from Q_0 = artanh and the shared recurrence."""
    q0 = math.atanh(u)
    if n == 0:
        return q0
    q1 = u * q0 - 1.0
    if n == 1:
        return q1
    qm1, qm0 = q0, q1
    for k in range(1, n):
        qm1, qm0 = qm0, ((2 * k + 1) * u * qm0 - k * qm1) / (k + 1)
    return qm0


def nu_from_omega(omega: float, d: DerivedScales) -> complex:
    """Degree nu = -1/2 + sqrt(1/4 - alpha^2 omega^2), principal branch.

    The branch is continuous from omega = 0 (where nu = 0); for
    alpha|omega| > 1/2 the square root is +i*sqrt(alpha^2 omega^2 - 1/4), so
    Re(nu) = -1/2 on the conical line.  On the real branch the degree comes
    back as a float, which the series in ``p_scaled`` sums in real arithmetic.
    """
    disc = 0.25 - (d.alpha * omega) ** 2
    root = math.sqrt(disc) if disc >= 0.0 else 1j * math.sqrt(-disc)
    return -0.5 + root


def _is_integer(nu: complex) -> bool:
    return nu.imag == 0.0 and nu.real == round(nu.real) and nu.real >= 0


def legendre_pair(nu: complex, u: float, tol: float = 1e-13, max_terms: int = _MAX_TERMS_DEFAULT) -> LegendrePair:
    """Evaluate P_nu(u) and Q_nu(u) for u strictly inside (-1, 1).

    Integer degrees take the closed-form/recurrence path; everything else
    goes through the hypergeometric series and the connection formula.
    """
    nu = complex(nu)
    if not (-1.0 < u < 1.0):
        raise DomainError(f"legendre_pair argument must lie strictly inside (-1, 1), got {u}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if _is_integer(nu):
        n = int(nu.real)
        return LegendrePair(
            p=complex(p_poly(n, u)),
            q=complex(_q_integer(n, u)),
            u=u,
            nu=nu,
            terms=n + 1,
            err_bound=0.0,
        )
    p_u, t1, e1 = p_scaled(nu, u, tol, max_terms)
    p_mu, t2, e2 = p_scaled(nu, -u, tol, max_terms)
    q_u = _connection_bracket(p_u, p_mu, _cos_pi_scaled(nu), _sin_pi_scaled(nu))
    return LegendrePair(
        p=p_u.to_complex(),
        q=q_u.to_complex(),
        u=u,
        nu=nu,
        terms=t1 + t2,
        err_bound=e1 + (e1 + e2),  # bound on P plus bound on Q, which uses both series
    )


def wronskian_check(nu, u: float, h: float | None = None, tol: float = 1e-13) -> float:
    """|P Q' - P' Q - 1/(1-u^2)| with derivatives by central differences.

    The analytic Wronskian of the pair is 1/(1-u^2) for every degree; the
    returned residual is a self-test of the evaluation routines.
    """
    if h is None:
        h = 1e-5 * (1.0 - u * u)
    if not (-1.0 < u - h and u + h < 1.0):
        raise DomainError(f"u +- h must stay inside (-1, 1); u={u}, h={h}")
    hi = legendre_pair(nu, u + h, tol=tol)
    lo = legendre_pair(nu, u - h, tol=tol)
    mid = legendre_pair(nu, u, tol=tol)
    dp = (hi.p - lo.p) / (2.0 * h)
    dq = (hi.q - lo.q) / (2.0 * h)
    wronskian = mid.p * dq - dp * mid.q
    return abs(wronskian - 1.0 / (1.0 - u * u))


def legendre_ode_residual(y, nu: complex, u: float, h: float = 1e-4) -> complex:
    """(1-u^2) y'' - 2u y' + nu(nu+1) y by central differences on callable y."""
    y0 = y(u)
    yp = (y(u + h) - y(u - h)) / (2.0 * h)
    ypp = (y(u + h) - 2.0 * y0 + y(u - h)) / (h * h)
    return (1.0 - u * u) * ypp - 2.0 * u * yp + nu * (nu + 1.0) * y0
