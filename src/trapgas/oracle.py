"""Independent brute-force validators for the spectral machinery.

Everything here deliberately avoids the Legendre-function evaluation path:
the boundary-value solver discretizes the spectral ODE directly in flux form,
the eigensolver diagonalizes the discretized operator, and the summation
oracles add series terms head-on.  Agreement between these routes and the
closed forms is the package's primary correctness evidence.

The discretized operator is a symmetric tridiagonal matrix, built once by
``_flux_operator`` for both the solve (which adds (omega/hbar v)^2 to its
diagonal) and the eigensolve; scipy.linalg's banded LAPACK routines solve
and diagonalize it.  At omega = 0 it annihilates constants; the solver pins
one interior node, which makes the system positive definite, and fixes the
gauge afterwards.  Its eigenvalues are n(n+1)/R_c^2 exactly at every N (see
``fdm_eigensolve``): its discretization error lies in the eigenvectors alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solveh_banded

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


def _assemble_and_solve(omega: float, xp: float, p: PhysicalParams, d: DerivedScales, n_cells: int):
    hv2 = (np.float64(p.hbar) * d.v) ** 2  # numpy scalars: a float failure raises under the caller's errstate
    h, xc, diag, off = _flux_operator(d, n_cells)
    j = int(np.argmin(np.abs(xc - xp)))
    s = np.zeros(n_cells)
    s[j] = (p.g / hv2) / h

    # K g = -s is the sign-flipped system, tridiagonal and symmetric; for
    # omega != 0 it is positive definite
    ab = np.zeros((2, n_cells))
    ab[0, 1:] = off
    ab[1, :] = diag + (np.float64(omega) / (p.hbar * d.v)) ** 2
    if omega != 0.0:
        if ab[1, 0] == diag[0]:  # the system is omega = 0's, singular unless pinned
            raise FloatingPointError("(omega/hbar v)^2 underflows below the rounding of the operator's diagonal")
        return xc, solveh_banded(ab, -s), xc[j], 0.0

    # omega = 0: the zero-flux operator annihilates constants (K 1 = 0) and
    # cannot carry the source mass; release it through equal and opposite
    # boundary fluxes p G' = -+ g/(2 hbar^2 v^2) (the parity-symmetric split of
    # the closed forms) and fix the remaining constant by the mean-zero gauge.
    # That is the bordered system -K g + mu e = rhs, e^T g = 0 with e = h 1.
    # Summing its rows gives mu = sum(rhs)/(N h), so g is the mean-zero
    # solution of the singular but consistent K g = mu e - rhs.  Pinning the
    # centre node to 0 (its row and column become the identity) leaves two
    # positive definite chains; the pinned row holds by consistency, and the
    # mean is subtracted after.  The pin is interior because p -> 0 at the
    # ends: an end node hangs on its neighbour by a coupling of order 1/N, and
    # pinning it makes the error about 200 times larger (4.8e-9 against
    # 2.3e-11 at N = 10^4, with |g| up to 3).
    flux = p.g / (2.0 * hv2)
    rhs = s.copy()
    rhs[0] -= flux / h
    rhs[-1] -= flux / h
    mult = np.sum(rhs) / (n_cells * h)
    b = mult * h - rhs
    k = n_cells // 2
    ab[0, k : k + 2] = 0.0
    ab[1, k] = 1.0
    b[k] = 0.0
    g = solveh_banded(ab, b)
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
    A solve that overflows a float, or is singular in floating point, is a DomainError,
    as is an omega != 0 whose (omega/hbar v)^2 is lost in the diagonal's rounding.
    """
    if abs(xp) >= d.R_c:
        raise DomainError(f"source point must be interior, got x' = {xp} with R_c = {d.R_c}")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            xc, g, xs, mult = _assemble_and_solve(omega, xp, p, d, grid.N)
            xc2, g2, _, _ = _assemble_and_solve(omega, xp, p, d, grid.N // 2)
        if not (np.isfinite(g).all() and np.isfinite(g2).all()):  # LAPACK overflows without a flag
            raise FloatingPointError("the solution overflows a float")
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # FloatingPointError, OverflowError, a singular solve
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
    coefficient k(k+1)/R_c^2, end cells included.  The levels carry only the
    bisection's rounding, about eps 4/h^2; the eigenvectors are discrete
    orthogonal polynomials, not the sampled P_n.
    """
    if n_levels > grid.N // 10:
        raise DomainError(f"n_levels = {n_levels} too large for N = {grid.N} (need n_levels <= N/10)")
    _, _, diag, off = _flux_operator(d, grid.N)
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))


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
