"""Independent brute-force validators for the spectral machinery.

Everything here deliberately avoids the Legendre-function evaluation path:
the boundary-value solver discretizes the spectral ODE directly in flux form,
the eigensolver diagonalizes the discretized operator, and the summation
oracles add series terms head-on.  Agreement between these routes and the
closed forms is the package's primary correctness evidence.

The discretized operator is a symmetric tridiagonal matrix, built once by
``_flux_operator`` for both the solve (which adds (omega/hbar v)^2 to its
diagonal) and the eigensolve, in numpy alone.  At omega = 0 it annihilates
constants, and the solve is its exact first integral in the mean-zero gauge.
Its eigenvalues are n(n+1)/R_c^2 exactly at every N (see ``fdm_eigensolve``):
its discretization error lies in the eigenvectors alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import DerivedScales, PhysicalParams

__all__ = [
    "FdmGrid",
    "FdmSolution",
    "fdm_spectral_solve",
    "fdm_eigensolve",
    "brute_frequency_sum",
    "brute_legendre_tail",
]


@dataclass(frozen=True)
class FdmGrid:
    """Cell-centered uniform grid on (-R_c, R_c).

    Faces sit at -R_c + i*h with h = 2 R_c / N, so the outermost faces land
    exactly on the Thomas-Fermi boundary where the ODE coefficient vanishes.
    """

    N: int = 10_000

    def __post_init__(self):
        if self.N < 100:
            raise DomainError(f"grid needs N >= 100 interior cells, got {self.N}")


@dataclass(frozen=True)
class FdmSolution:
    x_nodes: np.ndarray
    g_values: np.ndarray
    x_source: float
    snap_offset: float
    disc_error_est: float
    estimate_span: tuple[float, float]
    meta: dict = field(default_factory=dict)

    def interp(self, x) -> np.ndarray:
        return np.interp(x, self.x_nodes, self.g_values)

    def outside_estimate(self, x: float) -> DomainError | None:
        """None within ``estimate_span``, else the DomainError of a point that ``disc_error_est`` does not cover."""
        lo, hi = self.estimate_span
        return None if lo <= x <= hi else DomainError(
            f"x = {x!r} is outside {lo!r} <= x <= {hi!r}: the coarse nodes' span where the FDM error is estimated")


def _flux_operator(d: DerivedScales, n_cells: int):
    """(h, nodes, diagonal, off-diagonal) of the flux-form operator
    -d/dx[(1 - x^2/R_c^2) d/dx] on ``n_cells`` cells: the coefficient is
    zeroed on the two end faces, which is the zero-flux condition."""
    h = 2.0 * d.R_c / n_cells
    xf = -d.R_c + np.arange(n_cells + 1) * h
    pf = 1.0 - (xf / d.R_c) ** 2
    pf[[0, -1]] = 0.0
    xc = -d.R_c + (np.arange(n_cells) + 0.5) * h
    return h, xc, (pf[1:] + pf[:-1]) / h**2, -pf[1:-1] / h**2


def _cyclic_reduction(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the positive definite tridiagonal system with diagonal ``diag`` and off-diagonal ``off`` for ``rhs``
    by cyclic reduction (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 627 (1970)): the odd unknowns' Schur
    complement is again such a system, of half the size.  Numpy ufuncs alone: a float failure raises under errstate."""
    n = diag.size
    if n == 1:
        return rhs / diag
    if n % 2 == 0:  # a decoupled unit row makes the size odd
        return _cyclic_reduction(np.append(diag, 1.0), np.append(off, 0.0), np.append(rhs, 0.0))[:n]
    de, fe, left, right = diag[::2], rhs[::2], off[::2], off[1::2]
    rl, rr = left / de[:-1], right / de[1:]  # an odd row's multipliers of its left and right even rows
    odd = _cyclic_reduction(diag[1::2] - rl * left - rr * right, -rr[:-1] * left[1:],
                            rhs[1::2] - rl * fe[:-1] - rr * fe[1:])
    x = np.empty(n)
    x[1::2] = odd
    x[::2] = (fe - np.append(left * odd, 0.0) - np.append(0.0, right * odd)) / de  # each even from its odd neighbours
    return x


def _assemble_and_solve(omega: float, xp: float, p: PhysicalParams, d: DerivedScales, n_cells: int):
    hv2 = (np.float64(p.hbar) * d.v) ** 2  # numpy scalars: a float failure raises under the caller's errstate
    h, xc, diag, off = _flux_operator(d, n_cells)
    j = int(np.argmin(np.abs(xc - xp)))
    s = np.zeros(n_cells)
    s[j] = (p.g / hv2) / h

    # K g = -s is the sign-flipped system, tridiagonal and symmetric; for
    # omega != 0 it is positive definite
    if omega != 0.0:
        shifted = diag + (np.float64(omega) / (p.hbar * d.v)) ** 2
        if shifted[0] == diag[0]:  # the system is omega = 0's, which is singular
            raise FloatingPointError("(omega/hbar v)^2 underflows below the rounding of the operator's diagonal")
        return xc, _cyclic_reduction(shifted, off, -s), xc[j], 0.0

    # omega = 0: the zero-flux operator annihilates constants (K 1 = 0) and
    # cannot carry the source mass; release it through equal and opposite
    # boundary fluxes p G' = -+ g/(2 hbar^2 v^2) (the parity-symmetric split of
    # the closed forms) and fix the remaining constant by the mean-zero gauge.
    # That is the bordered system -K g + mu e = rhs, e^T g = 0 with e = h 1.
    # Summing its rows gives mu = sum(rhs)/(N h), and the first k + 1 rows of
    # K g = mu e - rhs sum to off_k (g_{k+1} - g_k), the flux through face k + 1.
    flux = p.g / (2.0 * hv2)
    s[[0, -1]] -= flux / h
    mult = np.sum(s) / (n_cells * h)
    g = np.concatenate(([0.0], np.cumsum(np.cumsum(mult * h - s)[:-1] / off)))
    return xc, g - np.mean(g), xc[j], float(mult)


def fdm_spectral_solve(
    omega: float,
    xp: float,
    p: PhysicalParams,
    d: DerivedScales,
    grid: FdmGrid = FdmGrid(),
) -> FdmSolution:
    """Second-order flux-form solve of the spectral ODE with a delta source.

    The source point is snapped to the nearest node (offset recorded) and
    represented as a 1/h load there.  The discretization error is estimated
    by re-solving on a half-resolution grid and comparing, away from the
    source and within the span of the coarse nodes, outside which
    ``np.interp`` would hold the coarse end value flat; for the second-order
    scheme the true fine-grid error is about a third of the reported
    difference; that span, |x| <= R_c - h, is ``estimate_span``.  At omega = 0
    the solution is mean-zero, with the boundary flux of ``_assemble_and_solve``.
    A solve that overflows a float, or divides by zero, is a DomainError, as is
    an omega != 0 whose (omega/hbar v)^2 is lost in the diagonal's rounding.
    """
    if abs(xp) >= d.R_c:
        raise DomainError(f"source point must be interior, got x' = {xp} with R_c = {d.R_c}")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            xc, g, xs, mult = _assemble_and_solve(omega, xp, p, d, grid.N)
            xc2, g2, _, _ = _assemble_and_solve(omega, xp, p, d, grid.N // 2)
    except ArithmeticError as exc:  # FloatingPointError, OverflowError
        raise DomainError(f"the FDM solve at omega = {omega!r} fails in floating point: {exc}") from exc
    coarse = np.interp(xc, xc2, g2)
    h2 = 2.0 * d.R_c / (grid.N // 2)
    compared = (np.abs(xc - xs) > 4.0 * h2) & (xc >= xc2[0]) & (xc <= xc2[-1])  # never empty at N >= 100
    est = float(np.max(np.abs(g - coarse)[compared]))
    return FdmSolution(
        x_nodes=xc,
        g_values=g,
        x_source=xs,
        snap_offset=float(xp - xs),
        disc_error_est=est,
        estimate_span=(float(xc2[0]), float(xc2[-1])),
        meta={"gauge_multiplier": mult},
    )


def fdm_eigensolve(p: PhysicalParams, d: DerivedScales, grid: FdmGrid, n_levels: int) -> np.ndarray:
    """Lowest eigenvalues of -d/dx[(1 - x^2/R_c^2) d/dx], ascending.

    The discrete flux form has the continuum spectrum n(n+1)/R_c^2 exactly at
    every N: with p = 1 - x^2/R_c^2 on the faces and 0 on the end faces, it maps
    a polynomial of degree k on the nodes to one of degree <= k with x^k
    coefficient k(k+1)/R_c^2, end cells included.  Its even and odd parity
    blocks, on the left half of the nodes, are diagonalized densely from their
    lower triangles, and the levels carry only that rounding, about eps 4/h^2;
    the eigenvectors are discrete orthogonal polynomials, not the sampled P_n.
    """
    if n_levels > grid.N // 10:
        raise DomainError(f"n_levels = {n_levels} too large for N = {grid.N} (need n_levels <= N/10)")
    _, _, diag, off = _flux_operator(d, grid.N)
    m = grid.N // 2
    if grid.N % 2:  # odd N: odd vectors vanish at the centre node m; even ones couple it to m - 1 twice, made sqrt 2
        blocks = [(diag[:m + 1], np.append(off[:m - 1], math.sqrt(2.0) * off[m - 1])), (diag[:m], off[:m - 1])]
    else:  # even N: the nodes m - 1 and m are mirror images across the centre face
        blocks = [(np.append(diag[:m - 1], diag[m - 1] + sign * off[m - 1]), off[:m - 1]) for sign in (1.0, -1.0)]
    return np.sort(np.concatenate([np.linalg.eigvalsh(np.diag(a) + np.diag(b, -1)) for a, b in blocks]))[:n_levels]


def brute_frequency_sum(thetas, l_max: int) -> list:
    """Partial sums of sum_{l>=1} cos(2 pi l theta)/l^2 (compare pi^2 B_2(theta)), one for each theta of ``thetas``.

    Every term is added, 8 192 to a chunk (64 KiB temporaries reuse the heap):
    with a = 2 pi theta and w = 1/l^2, the chunk from s adds, by angle addition,
    cos(a s) C.w - sin(a s) S.w, C and S holding cos(a k) and sin(a k) at offsets k.
    A chunk's w serves every theta, and each sum is bitwise the one its theta gives alone.
    """
    if l_max < 1:
        raise DomainError("l_max must be >= 1")
    chunk, totals = 8_192, [0.0] * len(thetas)
    k = np.arange(min(chunk, l_max), dtype=float)
    tables = [(a, np.cos(a * k), np.sin(a * k)) for a in (2.0 * math.pi * theta for theta in thetas)]
    for start in range(1, l_max + 1, chunk):
        n = l_max + 1 - start  # the slices stop at the chunk
        w = 1.0 / (k[:n] + start) ** 2
        for j, (a, cos_k, sin_k) in enumerate(tables):
            totals[j] += math.cos(a * start) * float(cos_k[:n] @ w) - math.sin(a * start) * float(sin_k[:n] @ w)
    return totals


def brute_legendre_tail(
    x: float,
    xp: float,
    dtau: float,
    p: PhysicalParams,
    d: DerivedScales,
    n_max: int,
) -> float:
    """Direct sum over modes of the exponentially damped polynomial series.

    sum_{n=1}^{n_max} (n + 1/2)/sqrt(n(n+1)) P_n(x/R_c) P_n(x'/R_c)
                       exp(-sqrt(n(n+1)) dtau / alpha),

    using the exact polynomial recurrence, written out here so that the
    oracle shares no code with the series it checks: the zero-temperature
    limit of ``lowT_legendre_series`` is its Bernoulli line plus -(g/(2 hbar v)) times this.
    """
    if dtau <= 0.0:
        raise DomainError("brute_legendre_tail requires dtau > 0")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    u, up = x / d.R_c, xp / d.R_c
    n = np.arange(1, n_max + 1, dtype=float)
    root = np.sqrt(n * (n + 1.0))
    # exp underflows to 0 harmlessly once root*dtau/alpha > ~745
    weights = (n + 0.5) / root * np.exp(-root * dtau / d.alpha)
    # P_0 .. P_n_max at u and u' by (k+1) P_{k+1} = (2k+1) u P_k - k P_{k-1}
    args = np.array([u, up])
    pn = np.empty((2, n_max + 1))
    pn[:, 0], pn[:, 1] = 1.0, args
    for k in range(1, n_max):
        pn[:, k + 1] = ((2 * k + 1) * args * pn[:, k] - k * pn[:, k - 1]) / (k + 1)
    return float(np.sum(weights * pn[0, 1:] * pn[1, 1:]))
