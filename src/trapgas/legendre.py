"""Legendre polynomials and Legendre functions of complex degree on (-1, 1).

The trapped-gas spectral problem needs P_nu and Q_nu on the cut for degrees

    nu = -1/2 + sqrt(1/4 - alpha^2 omega^2)    (principal branch),

which is a negative real in (-1/2, 0] for small |omega| and a conical degree
-1/2 + i*mu for alpha|omega| > 1/2.  Both have a real lambda = -nu(nu+1) =
alpha^2 omega^2 >= 0, and P_nu is the real Gauss hypergeometric series

    P_nu(u) = 2F1(-nu, nu+1; 1; z),   z = (1-u)/2,

whose term ratio (j(j+1) + lambda) z/(j+1)^2 is positive for every Matsubara
degree, so the summation is cancellation-free.  The kernel ``_p_series`` sums
it for a whole vector of (lambda, u) rows and returns P_nu as a mantissa and
a power of two: conical P_nu grows like exp(mu * arccos u), which overflows
float64 well inside the Matsubara range.  Q_nu comes from the connection
formula

    Q_nu(u) = pi/(2 sin(pi nu)) * [cos(pi nu) P_nu(u) - P_nu(-u)],

whose phases are real closed forms on the conical line, sin(pi nu) =
-cosh(pi mu) and cos(pi nu) = i sinh(pi mu).  Integer degrees use closed
forms and the standard three-term recurrence.
"""

from __future__ import annotations

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
# rows summed together, so that one [rows x _CHUNK] float64 temporary stays at
# 128 KiB: at 256 KiB the series ran no faster and peak memory rose by 0.5 MiB
_MAX_ROWS = 128 * 1024 // (8 * _CHUNK)
_LN2 = math.log(2.0)


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
# Legendre polynomials
# ----------------------------------------------------------------------------


def _recurrence(n_max: int, u: float, y0: float, y1: float) -> list:
    """y_0 .. y_{n_max} of the three-term recurrence
    (k+1) y_{k+1} = (2k+1) u y_k - k y_{k-1} from the seeds y_0, y_1; P_n
    and Q_n both obey it."""
    ys = [y0, y1]
    for k in range(1, n_max):
        ys.append(((2 * k + 1) * u * ys[k] - k * ys[k - 1]) / (k + 1))
    return ys[:n_max + 1]


def p_poly(n: int, u: float) -> float:
    """Legendre polynomial P_n(u) on [-1, 1] by the three-term recurrence."""
    if n != int(n) or n < 0:
        raise DomainError(f"polynomial degree must be an integer >= 0, got {n!r}")
    if abs(u) > 1.0:
        raise DomainError(f"p_poly argument must satisfy |u| <= 1, got {u}")
    return _recurrence(int(n), u, 1.0, float(u))[-1]


def p_poly_table(n_max: int, u: float) -> np.ndarray:
    """P_0(u) .. P_{n_max}(u) as one array (shared recurrence sweep)."""
    if n_max != int(n_max) or n_max < 0:
        raise DomainError(f"n_max must be an integer >= 0, got {n_max!r}")
    if abs(u) > 1.0:
        raise DomainError(f"p_poly_table argument must satisfy |u| <= 1, got {u}")
    return np.array(_recurrence(int(n_max), u, 1.0, u), dtype=float)


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


def _p_series(lam, u, tol: float, max_terms: int = _MAX_TERMS_DEFAULT):
    """P_nu(u) = mant * 2**exp2, the terms summed and the relative error
    bound, one row for each lambda = -nu(nu+1) of the 1-D array ``lam``, at
    the matching entry of ``u``: one argument for every row, or a 1-D array
    of one argument per row.

    Each term ratio (j(j+1) + lambda) z/(j+1)^2, z = (1-u)/2, is split by
    frexp: the running product of the mantissas carries a term's digits and
    sign, the running sum of the powers of two is exact, so no term overflows
    and none is rounded through a logarithm.  Groups of up to _MAX_ROWS rows
    are summed together in blocks of _CHUNK terms, every row on its own, so a
    row's result does not depend on the rows beside it; a row stops after the
    first block whose last term is below tol times the partial sum while the
    ratio is below 1, that term's geometric tail bounding the error.  A row
    still open after max_terms terms raises AccuracyError.
    """
    lam = np.asarray(lam, dtype=float)
    u = np.broadcast_to(np.asarray(u, dtype=float), lam.shape)
    outside = ~((-1.0 < u) & (u <= 1.0))
    if outside.any():
        raise DomainError(f"P_nu argument must lie in (-1, 1], got {float(u[outside][0])}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    n = lam.size
    mant, exp2 = np.ones(n), np.zeros(n, dtype=np.int64)
    terms, err = np.ones(n, dtype=np.int64), np.zeros(n)
    z = 0.5 * (1.0 - u)
    for first in range(0, n, _MAX_ROWS):
        rows = np.arange(first, min(n, first + _MAX_ROWS))
        lam_r, z_r = lam[rows, None], z[rows, None]
        # a z or lambda that the whole group shares is kept once, so that the
        # ratios form one [rows x block] temporary, not two
        if z_r.min() == z_r.max():
            z_r = z_r[:1]
        elif lam_r.min() == lam_r.max():
            lam_r = lam_r[:1]
        acc_m, acc_e = np.ones(rows.size), np.zeros(rows.size, dtype=np.int64)  # partial sum
        term_m, term_e = np.ones(rows.size), np.zeros(rows.size, dtype=np.int64)  # last term
        s = 0
        while s < max_terms:
            block = min(_CHUNK, max_terms - s)
            j = np.arange(s, s + block, dtype=float)
            shift = j * (j + 1.0) + lam_r
            scale = z_r / (j + 1.0) ** 2
            ratios = np.multiply(shift, scale, out=scale if shift.shape[0] == 1 else shift)
            last_ratio = np.abs(ratios[:, -1])
            # in place, so that only two [rows x block] temporaries are alive
            cum_m, cum_e = np.frexp(ratios, out=(ratios, None))
            np.cumprod(cum_m, axis=1, out=cum_m)
            cum_m *= term_m[:, None]
            np.cumsum(cum_e, axis=1, out=cum_e)  # int32: exponents stay far below 2**31
            cum_e += term_e[:, None]
            term_m, shift = np.frexp(cum_m[:, -1])
            term_e = cum_e[:, -1] + shift
            top = np.maximum(acc_e, cum_e.max(axis=1))
            cum_e -= top[:, None]
            acc_m, shift = np.frexp(np.ldexp(acc_m, acc_e - top) + np.ldexp(cum_m, cum_e, out=cum_m).sum(axis=1))
            acc_e = top + shift
            s += block
            term_abs = np.abs(np.ldexp(term_m, term_e - acc_e))  # |last term| / 2**acc_e
            done = (term_abs < tol * np.abs(acc_m)) & (last_ratio < 0.9999)
            if done.any():
                out = rows[done]
                mant[out] = acc_m[done]
                exp2[out] = acc_e[done]
                terms[out] = s
                rel_term, ratio = term_abs[done] / np.abs(acc_m[done]), last_ratio[done]
                err[out] = rel_term * ratio / np.maximum(1e-300, 1.0 - ratio)
                if done.all():
                    break
                keep = ~done
                rows, acc_m, acc_e = rows[keep], acc_m[keep], acc_e[keep]
                if lam_r.shape[0] > 1:
                    lam_r = lam_r[keep]
                if z_r.shape[0] > 1:
                    z_r = z_r[keep]
                term_m, term_e, term_abs, last_ratio = term_m[keep], term_e[keep], term_abs[keep], last_ratio[keep]
        else:  # max_terms reached with rows still open
            _raise_series_cap(lam[rows], u[rows], z[rows], tol, s, term_abs / np.abs(acc_m), last_ratio)
    return mant, exp2, terms, err


def _exp_split(log_x):
    """exp(log_x) as (mant, exp2) with mant in [1, 2), where exp(log_x) itself
    would overflow or underflow."""
    e = np.floor(np.asarray(log_x) / _LN2)
    return np.exp(log_x - e * _LN2), e.astype(np.int64)


def _raise_series_cap(lam_open, u_open, z_open, tol, used, rel_term, last_ratio):
    """AccuracyError for the first row still open at the term cap, naming its
    own lambda, u and z and the cause."""
    lam, ratio, achieved = float(lam_open[0]), float(last_ratio[0]), float(rel_term[0])
    u, z = float(u_open[0]), float(z_open[0])
    if ratio >= 1.0:
        cause = (f"the terms are still growing (ratio {ratio:.6g}): at this degree they peak near "
                 f"j = sqrt(lambda z/(1-z)) = {math.sqrt(max(lam, 0.0) * z / (1.0 - z)):.4g}")
    else:
        cause = f"the terms decay at ratio {ratio:.6g} per term, which tends to z as j grows"
        cause += "; u is close to -1, where P_nu has its logarithmic singularity" if z > 0.99 else ""
    raise AccuracyError(
        f"hypergeometric series for P_nu(u) reached the {used}-term cap at lambda = -nu(nu+1) = {lam:.6g}, "
        f"u = {u!r}, z = (1-u)/2 = {z:.6g} ({lam_open.size} open rows): relative bound {achieved:.3e} "
        f"> tol = {tol:g}; {cause}",
        achieved=achieved,
    )


# ----------------------------------------------------------------------------
# the public pair evaluation
# ----------------------------------------------------------------------------


def nu_from_omega(omega: float, d: DerivedScales) -> complex:
    """Degree nu = -1/2 + sqrt(1/4 - alpha^2 omega^2), principal branch.

    The branch is continuous from omega = 0 (where nu = 0); for
    alpha|omega| > 1/2 the square root is +i*sqrt(alpha^2 omega^2 - 1/4), so
    Re(nu) = -1/2 on the conical line.  On the real branch the degree comes
    back as a float.
    """
    disc = 0.25 - (d.alpha * omega) ** 2
    root = math.sqrt(disc) if disc >= 0.0 else 1j * math.sqrt(-disc)
    return -0.5 + root


def _is_integer(nu: complex) -> bool:
    return nu.imag == 0.0 and nu.real == round(nu.real) and nu.real >= 0


def _log_cosh_pi(mu):
    """log cosh(pi mu), finite where cosh(pi mu) itself overflows (mu > 226)."""
    a = np.pi * np.abs(mu)
    return a + np.log1p(np.exp(-2.0 * a)) - _LN2


def legendre_pair(nu: complex, u: float, tol: float = 1e-13, max_terms: int = _MAX_TERMS_DEFAULT) -> LegendrePair:
    """Evaluate P_nu(u) and Q_nu(u) for u strictly inside (-1, 1).

    Integer degrees take the recurrence, P from P_0 = 1 and Q from
    Q_0 = artanh u, Q_1 = u Q_0 - 1.  Real and conical
    degrees -1/2 + i mu, the ones with real nu(nu+1), go through the series
    and the connection formula, on the conical line

        Q_nu(u) = (pi/2) [P_nu(-u)/cosh(pi mu) - i tanh(pi mu) P_nu(u)]

    with 1/cosh(pi mu) as mantissa and power of two; other degrees raise
    DomainError.
    """
    nu = complex(nu)
    if not (-1.0 < u < 1.0):
        raise DomainError(f"legendre_pair argument must lie strictly inside (-1, 1), got {u}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if _is_integer(nu):
        n = int(nu.real)
        q0 = math.atanh(u)
        return LegendrePair(
            p=complex(p_poly(n, u)),
            q=complex(_recurrence(n, u, q0, u * q0 - 1.0)[-1]),
            u=u,
            nu=nu,
            terms=n + 1,
            err_bound=0.0,
        )
    conical = nu.imag != 0.0
    if conical and nu.real != -0.5:
        raise DomainError(
            f"degree nu = {nu} has non-real nu(nu+1); legendre_pair takes real degrees "
            "and conical degrees -1/2 + i mu"
        )
    mu = nu.imag
    lam = 0.25 + mu * mu if conical else -nu.real * (nu.real + 1.0)
    mant, exp2, terms, err = _p_series(np.array([lam, lam]), np.array([u, -u]), tol, max_terms)  # P_nu(u), P_nu(-u)
    p_u = float(np.ldexp(mant[0], exp2[0]))
    if conical:
        m_k, e_k = _exp_split(-_log_cosh_pi(mu))  # 1/cosh(pi mu)
        q = complex(
            (math.pi / 2.0) * float(np.ldexp(mant[1] * m_k, exp2[1] + e_k)),
            -(math.pi / 2.0) * math.tanh(math.pi * mu) * p_u,
        )
    else:
        p_mu, a = float(np.ldexp(mant[1], exp2[1])), math.pi * nu.real
        q = complex((math.pi / 2.0) * (math.cos(a) * p_u - p_mu) / math.sin(a))
    return LegendrePair(
        p=complex(p_u),
        q=q,
        u=u,
        nu=nu,
        terms=int(terms[0] + terms[1]),
        err_bound=float(err[0] + (err[0] + err[1])),  # bound on P plus bound on Q, which uses both series
    )


def wronskian_check(nu, u: float, h: float | None = None, tol: float = 1e-13) -> float:
    """|P Q' - P' Q - 1/(1-u^2)| / max(1, |P Q'|, |P' Q|), with derivatives
    by central differences.

    The analytic Wronskian of the pair is 1/(1-u^2) for every degree; the
    returned residual is a self-test of the evaluation routines.  It is
    normalized by the magnitude of the Wronskian's constituent products: at
    nu = -1/2 + 5i toward u -> -1 the products P Q' and P' Q reach ~1e12
    while their difference is O(1), so an absolute finite-difference residual
    is ill-conditioned there in double precision; the normalized residual
    measures the relative consistency of the pair.
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
    pdq, dpq = mid.p * dq, dp * mid.q
    return abs(pdq - dpq - 1.0 / (1.0 - u * u)) / max(1.0, abs(pdq), abs(dpq))


def legendre_ode_residual(y, nu: complex, u: float, h: float = 1e-4) -> complex:
    """(1-u^2) y'' - 2u y' + nu(nu+1) y by central differences on callable y."""
    y0 = y(u)
    yp = (y(u + h) - y(u - h)) / (2.0 * h)
    ypp = (y(u + h) - 2.0 * y0 + y(u - h)) / (h * h)
    return (1.0 - u * u) * ypp - 2.0 * u * yp + nu * (nu + 1.0) * y0
