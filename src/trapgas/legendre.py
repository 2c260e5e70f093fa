"""Legendre polynomials and Legendre functions of complex degree on (-1, 1).

The trapped-gas spectral problem needs P_nu and Q_nu on the cut for degrees

    nu = -1/2 + sqrt(1/4 - alpha^2 omega^2)    (principal branch),

which is a negative real in (-1/2, 0] for small |omega| and a conical degree
-1/2 + i*mu for alpha|omega| > 1/2.  Both have a real lambda = -nu(nu+1) =
alpha^2 omega^2 >= 0, all that the kernel takes of a degree.  The kernel
``_p_quad`` evaluates P_nu for a whole vector of (lambda, u) rows from the
Mehler-Dirichlet integral (DLMF 14.12.1)

    P_nu(cos theta) = (sqrt2/pi) int_0^theta cos((nu+1/2) phi) / sqrt(cos phi - cos theta) dphi

on one fixed Gauss-Kronrod rule, as Gil, Segura & Temme (SIAM J. Sci.
Comput. 31, 2009) compute conical functions from integral representations by
quadrature.  On the conical line the integrand cosh(mu phi)/sqrt(...) is
positive, so nothing cancels; P_nu grows like exp(mu theta), which overflows
float64 well inside the Matsubara range, so the kernel scales that exponent
out.  On the real branch it integrates (P_nu - 1)/nu instead, whose
integrand keeps one sign, so that P_nu(u) - P_nu(u') is not formed as the
difference of two numbers near 1.  Every row costs the same 59 integrand
evaluations at any degree and argument: the nodes of the Kronrod rule K_59,
29 of which carry the nested Gauss rule G_29, whose difference from it is the
error estimate (Laurie, Math. Comp. 66, 1997).  Each evaluation stays on
numpy's vectorized paths: the square root's trigonometry comes from one tangent
tan(h/2), not from sin h and cos h, which numpy takes to scalar libm for
float64, and the exponent of the conical integrand's vanishing term is held
above a floor, so that no exp underflows (numpy's exp is some 20 times slower
where its result underflows and over 100 times where it is subnormal).
Q_nu enters only the spectral densities of ``green_trapped``, through the
connection formula in P_nu(+-u), and is never formed on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["p_poly_table"]


# ----------------------------------------------------------------------------
# Legendre polynomials
# ----------------------------------------------------------------------------


def _recurrence(n_max: int, u) -> list:
    """P_0(u) .. P_{n_max}(u) by the three-term recurrence
    (k+1) P_{k+1} = (2k+1) u P_k - k P_{k-1}; k is a float, exact below
    2^52, so each step rounds as it would with integer coefficients."""
    ys, p0, p1, k = [1.0, u], 1.0, u, 1.0
    for _ in range(1, n_max):
        p0, p1 = p1, ((k + k + 1.0) * u * p1 - k * p0) / (k + 1.0)
        ys.append(p1)
        k += 1.0
    return ys[:n_max + 1]


def p_poly_table(n_max: int, u: float) -> np.ndarray:
    """P_0(u) .. P_{n_max}(u) as one array (shared recurrence sweep)."""
    if n_max != int(n_max) or n_max < 0:
        raise DomainError(f"n_max must be an integer >= 0, got {n_max!r}")
    if not abs(u) <= 1.0:
        raise DomainError(f"p_poly_table argument must satisfy |u| <= 1, got {u}")
    return np.array(_recurrence(int(n_max), u), dtype=float)


# ----------------------------------------------------------------------------
# Mehler-Dirichlet quadrature of P_nu
# ----------------------------------------------------------------------------


def _kronrod_coefficients(n: int, one=1.0) -> list:
    """b_0 .. b_2n of the Jacobi-Kronrod matrix of the Legendre weight on
    [-1, 1], by Laurie's algorithm (Math. Comp. 66, 1997) with its diagonal
    a_k = 0 by symmetry.  The monic polynomials p_{k+1} = x p_k - b_k p_{k-1}
    of these coefficients are Legendre's up to degree 3n/2, so p_n is P_n, and
    p_{2n+1} = P_n E_{n+1}: its zeros are the 2n+1 Kronrod nodes, the n Gauss
    nodes among them, and its Christoffel numbers the Kronrod weights.  Plain
    arithmetic on ``one``'s type, so that mpmath can run it too."""
    b = [2 * one] + [one * k * k / (4 * k * k - 1) for k in range(1, (3 * n + 1) // 2 + 1)]
    b += [0 * one] * (2 * n + 1 - len(b))
    s, t = [0 * one] * (n // 2 + 2), [0 * one] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0 * one
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        u = 0 * one
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


def _monic(x, b, m: int) -> tuple:
    """p_m(x) and p_m'(x) of the monic recurrence p_{k+1} = x p_k - b_k p_{k-1}."""
    p_prev, p, dp_prev, dp = 0, 1, 0, 0
    for k in range(m):
        p_prev, p = p, x * p - b[k] * p_prev
        dp_prev, dp = dp, p_prev + x * dp - b[k] * dp_prev
    return p, dp


def _christoffel(x, b, m: int):
    """Weights of the m-point Gauss rule of the recurrence at its nodes x,
    1/sum_{k<m} p_k(x)^2/(b_1 ... b_k), normalized to sum to 1."""
    p_prev, p, norm, total = 0, 1, 1, 1
    for k in range(1, m):
        p_prev, p = p, x * p - b[k - 1] * p_prev
        norm = norm * b[k]
        total = total + p * p / norm
    w = 1 / total
    return w / w.sum()


def _gauss_kronrod(n: int, one=1.0) -> tuple:
    """Nodes, Kronrod weights and Gauss weights of the Gauss-Kronrod rule
    G_n/K_{2n+1} on [0, 1], the n Gauss nodes first, so that the Gauss rule
    takes the first n of the 2n+1 terms of the Kronrod rule.  The nodes are
    Newton's method on p_{2n+1} of ``_kronrod_coefficients``, from the Gauss
    nodes' asymptotic angles and the angles halfway between them, which
    interlace with them; the weights are Christoffel numbers, normalized to
    sum to 1.  Nodes and weights are within 1.1e-16 of the same construction
    at 40 digits.  numpy's leggauss, or an eigensolver on the Jacobi-Kronrod
    matrix, costs 2 MiB of peak memory.  With ``one`` an mpmath number, the
    construction runs in mpmath."""
    theta = np.pi * (np.arange(n) + 0.75) / (n + 0.5)
    ends = np.concatenate(([0.0], theta, [np.pi]))
    x = np.cos(np.concatenate((theta, (ends[1:] + ends[:-1]) / 2))) * one
    b = _kronrod_coefficients(n, one)
    for _ in range(6):
        p, dp = _monic(x, b, 2 * n + 1)
        x = x - p / dp
    return (1 + x) / 2, _christoffel(x, b, 2 * n + 1), _christoffel(x[:n], b, n)


# the Kronrod rule on 2n+1 nodes, whose first n carry the nested Gauss rule:
# their difference estimates the Gauss rule's error, and so bounds the
# Kronrod value's, which is reported.  The estimate, not the accuracy, sets
# n.  It is largest at the clamp u = -(1 - 1e-6) at lambda of a few hundred:
# over the rows of a Matsubara sum to l_max = 256 at unit parameters it
# reaches 2.8e-14 relative at n = 29 and 1.7e-13 at n = 28, while the
# Kronrod value's own error stays under 1e-15
_GAUSS = 29
_NODES, _WEIGHTS, _GAUSS_WEIGHTS = _gauss_kronrod(_GAUSS)
# rows integrated together, 138 on the 59 nodes, so that one [rows x nodes]
# float64 temporary is at most 64 KiB.  A block has up to 4 of them alive.
# At 128 KiB each, glibc's default mmap and trim threshold, free() gives the
# heap back to the kernel and the next block faults it in again: about 570
# minor faults an assembly at l_max = 256, unless an earlier large free
# (importing scipy makes one) has raised glibc's dynamic threshold.  At 64 KiB
# the blocks reuse the heap.
_ROWS = 64 * 1024 // (8 * _NODES.size)
# exp(-mu s^2) is below e^-40 past s^2 = 40/mu, where the conical rows stop
_GAUSS_CUT = 40.0
# a block of conical rows that all have kappa (theta - s^2_max) above this
# skips the integrand's second term e^{-2 mu (theta - h)}.  Its first term is
# e^{-2 mu h} >= e^-40, a normal float, and as 2h <= s^2_max the second over
# the first, e^{-2 mu (theta - 2h)}, is at most e^{-2 mu (theta - s^2_max)}
# < e^-40 < 2^-57, under half an ulp, so their sum rounds to the first term:
# the cut changes no bit
_EXP_SKIP = 20.0
# floor of the exponent -2 mu (theta - h) of the conical integrand's second
# term.  As h = s^2/2 <= min(theta, 40/mu)/2, its first term e^{-2 mu h} is
# at least e^-40, and a second term below e^-78 is less than e^-38 < 2^-54
# times it, under half an ulp, so their sum rounds to the first term.  Any
# floor in (-708, -78) lies below that and above the exponent of exp's least
# normal result, so it changes no bit and keeps exp off its slow path.
_EXP_FLOOR = -700.0
# rounding allowance of a row, in units of eps times the sum of the absolute
# terms: the nested Gauss rule shares the prefactor and the end of the range,
# whose few roundings its difference cannot see
_ROUNDING = 4.0 * np.finfo(float).eps
# the constant factor of a conical row, sqrt(2)/pi, with the 4 under the
# root's tangent form folded in; written so that it rounds correctly
# (sqrt(2.0)/pi is an ulp high)
_PREFACTOR = 2.0 / math.pi / math.sqrt(2.0)


def _nu_real(lam):
    """The degree nu = -1/2 + sqrt(1/4 - lambda) of a real-branch lambda,
    free of the cancellation of that form at small lambda."""
    return -lam / (0.5 + np.sqrt(0.25 - lam))


def _quad_rows(lam, kappa, theta, u, conical: bool) -> tuple:
    """(integral, relative error estimate) of ``_p_quad`` for rows of one
    branch, with kappa = sqrt|lambda - 1/4|, theta = arccos u and -1 < u < 1.

    phi = theta - s^2 takes the inverse square root off the endpoint phi =
    theta, and s = sqrt(2 sin theta) sinh t spreads the logarithmic peak at
    s = 0 that P_nu develops as u -> -1, so that one rule on t serves every
    row.  With h = s^2/2 <= pi/2 and tau = tan(h/2) in [0, 1], the root is

        cos phi - cos theta = 2 sin(theta - h) sin h
                            = 4 tau [sin theta (1 - tau^2) - 2 u tau] / (1 + tau^2)^2,

    formed as tau [sin theta - tau (2u + tau sin theta)], with sin theta =
    sqrt((1-u)(1+u)), which stays accurate at both ends; the constant
    factors, its 4 among them, are in ``_PREFACTOR``.  The per-row factors
    are formed once for all rows, the [rows x nodes] terms in blocks of
    ``_ROWS`` rows.

    Two cuts on conical rows change no bit.  A block whose rows all have
    kappa (theta - s^2_max) > ``_EXP_SKIP`` evaluates only the first term
    e^{-2 mu h} of its integrand (see ``_EXP_SKIP`` for the bound); a block
    with any row below it evaluates both terms for all its rows.  And as the
    conical integrand is positive, its sum of absolute terms is ``main``.
    """
    sin_th = np.sqrt((1.0 - u) * (1.0 + u))
    s2_max = np.minimum(theta, _GAUSS_CUT / kappa) if conical else theta
    t_max = np.arcsinh(np.sqrt(s2_max / (2.0 * sin_th)))
    two_u = 2.0 * u
    if conical:
        rate = -2.0 * kappa
        one_term = kappa * (theta - s2_max) > _EXP_SKIP
    else:
        nu = _nu_real(lam)
        nu_1, nu_pi, half_th = nu + 1.0, nu / math.pi, 0.5 * theta
    main, alt = np.empty((2, lam.size))
    abs_sum = main if conical else np.empty(lam.size)
    for first in range(0, lam.size, _ROWS):
        b = slice(first, first + _ROWS)
        # in place where it can be, so that few [rows x nodes] temporaries are alive
        t = t_max[b, None] * _NODES
        f = np.sinh(t)
        h = sin_th[b, None] * f * f  # s^2/2
        f *= np.cosh(t, out=t)
        tau = np.tan(np.multiply(h, 0.5, out=t), out=t)
        root = sin_th[b, None] * tau
        root += two_u[b, None]
        root *= tau
        np.subtract(sin_th[b, None], root, out=root)
        root *= tau
        tau *= tau
        tau += 1.0
        f *= tau
        f /= np.sqrt(root, out=root)
        if conical:  # e^{-mu theta} cosh(mu phi), with theta - phi = 2h
            g = np.exp(np.multiply(h, rate[b, None], out=root), out=root)
            if not one_term[b].all():
                e = np.multiply(np.subtract(theta[b, None], h, out=h), rate[b, None], out=h)
                g += np.exp(np.maximum(e, _EXP_FLOOR, out=e), out=e)
        else:  # [cos((nu+1/2) phi) - cos(phi/2)]/nu = -2 sin((nu+1) psi) sin(nu psi)/nu, psi = phi/2
            psi = np.subtract(half_th[b, None], h, out=h)
            g = np.sin(np.multiply(nu_1[b, None], psi, out=root), out=root)
            g *= psi
            g *= np.sinc(np.multiply(psi, nu_pi[b, None], out=tau))
        f *= g
        alt[b] = np.multiply(f[:, :_GAUSS], _GAUSS_WEIGHTS, out=tau[:, :_GAUSS]).sum(axis=1)
        f *= _WEIGHTS
        main[b] = f.sum(axis=1)
        if not conical:
            abs_sum[b] = np.abs(f, out=f).sum(axis=1)
    err = np.abs(main - alt)
    err += _ROUNDING * abs_sum
    err /= np.abs(main)
    return (_PREFACTOR if conical else -4.0 * _PREFACTOR) * sin_th * t_max * main, err


def _p_quad(lam, u) -> tuple:
    """(value, err) of the Mehler-Dirichlet integral (DLMF 14.12.1) by
    quadrature (Gil, Segura & Temme, SIAM J. Sci. Comput. 31, 2009), one row
    for each lambda = -nu(nu+1) of the 1-D array ``lam``, at the matching
    entry of ``u``: one argument for every row, or one per row.

    On the conical line, lambda > 1/4 and nu = -1/2 + i mu, P_nu(u) = value *
    exp(mu arccos u), an exponent the caller combines with the others of its
    product; on the real branch value is (P_nu(u) - 1)/nu.  ``err`` bounds the
    relative error of value, the Kronrod rule's: its difference from the
    nested Gauss rule plus the rounding of the sum.  Every row takes the same
    ``_NODES.size`` = 59 integrand evaluations, in groups of up to ``_ROWS``
    rows of one branch, each row on its own, so that it does not depend on the
    rows beside it.  So a call whose rows share one lambda, as a spectral
    table's frequency does at every point, where P_nu(+-u') recurs, integrates
    each distinct u once and copies the result to the rows that repeat it;
    nothing is kept across calls.  Rows of several lambdas, as in a Matsubara
    sum, do not repeat, and four rows or fewer (one point's four P_nu, or two
    at a far frequency) seldom do, so those calls skip the sort, which costs
    more than it saves there.  u = -0.0 and u = 0.0 share a row: the integral
    sees u only through arccos u, 1 -+ u and u sin h beside a nonzero term, so
    both get the same bits.  u = 1 gives P_nu = 1 exactly.
    """
    lam = np.asarray(lam, dtype=float)
    u = np.broadcast_to(np.asarray(u, dtype=float), lam.shape)
    outside = ~((-1.0 < u) & (u <= 1.0))
    if outside.any():
        raise DomainError(f"P_nu argument must lie in (-1, 1], got {float(u[outside][0])}")
    row = slice(None)
    if lam.size > 4 and (lam == lam[0]).all():
        u, row = np.unique(u, return_inverse=True)
        lam = np.full(u.size, lam[0])
    conical = lam > 0.25
    kappa = np.sqrt(np.abs(lam - 0.25))  # mu on the conical line
    theta = np.arccos(u)
    value = conical.astype(float)  # u = 1: P_nu = 1, so (P_nu - 1)/nu = 0
    err = np.zeros(lam.size)
    for branch in (True, False):
        r = np.flatnonzero((conical == branch) & (u < 1.0))
        if r.size:
            value[r], err[r] = _quad_rows(lam[r], kappa[r], theta[r], u[r], branch)
    return value[row], err[row]
