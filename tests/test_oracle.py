import ast
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trapgas.oracle
from trapgas import (
    DomainError,
    FdmGrid,
    PhysicalParams,
    brute_frequency_sum,
    brute_legendre_tail,
    derive_scales,
    fdm_eigensolve,
    fdm_spectral_solve,
    p_poly_table,
    spectral_densities,
    spectral_density,
)


def setup_params(**over):
    base = dict(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
    base.update(over)
    p = PhysicalParams(**base)
    return p, derive_scales(p)


class TestBruteFrequencySum:
    def test_basel_value(self):
        (total,) = brute_frequency_sum([0.0], 200_000)
        assert_allclose(total, math.pi**2 / 6.0, atol=1e-5)

    def test_half_argument(self):
        (total,) = brute_frequency_sum([0.5], 1_000_000)
        assert_allclose(total, -(math.pi**2) / 12.0, atol=2e-6)

    def test_bernoulli_identity_generic_theta(self):
        theta = 0.3
        closed = math.pi**2 * (theta**2 - theta + 1.0 / 6.0)
        assert abs(brute_frequency_sum([theta], 1_000_000)[0] - closed) < 1e-6

    def test_l_max_validated(self):
        for thetas in ([0.1], [0.1, 0.5], []):
            with pytest.raises(DomainError, match=r"^l_max must be >= 1$"):
                brute_frequency_sum(thetas, 0)

    @pytest.mark.parametrize("l_max", [1, 8191, 8192, 8193, 100_003])
    def test_each_theta_sums_alone_as_beside_others(self, l_max):
        # a chunk's weights 1/l^2 are built once for every theta, and each theta keeps its own
        # dots and running sum: its sum is bitwise the same alone, beside others, repeated or reordered
        thetas = [0.0, 0.1, 0.5, 0.123456789, 0.1, 0.3]
        together = list(map(float.hex, brute_frequency_sum(thetas, l_max)))
        assert together == [float.hex(brute_frequency_sum([theta], l_max)[0]) for theta in thetas]
        assert together[::-1] == list(map(float.hex, brute_frequency_sum(thetas[::-1], l_max)))
        assert brute_frequency_sum([], l_max) == []

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.3, 0.5, 0.123456789])
    @pytest.mark.parametrize("l_max", [1, 8191, 8192, 8193, 100_003])
    def test_angle_addition_matches_head_on_cosines(self, theta, l_max):
        # one chunk short of, at and past the 8 192 offsets the cosine table
        # holds, and many chunks ending in a partial one
        l_arr = np.arange(1, l_max + 1, dtype=float)
        head_on = float(np.sum(np.cos(2.0 * math.pi * theta * l_arr) / l_arr**2))
        assert abs(brute_frequency_sum([theta], l_max)[0] - head_on) < 1e-14


class TestFdmSpectralSolve:
    def test_derivative_jump(self):
        p, d = setup_params()
        omega = 2.0 * math.pi / p.beta
        xp = 0.1 * d.R_c
        errs = []
        for n_cells in (4000, 8000):
            sol = fdm_spectral_solve(omega, xp, p, d, FdmGrid(N=n_cells))
            h = 2.0 * d.R_c / n_cells
            j = int(np.argmin(np.abs(sol.x_nodes - sol.x_source)))
            dp = (sol.g_values[j + 1] - sol.g_values[j]) / h
            dm = (sol.g_values[j] - sol.g_values[j - 1]) / h
            jump = (1.0 - (sol.x_source / d.R_c) ** 2) * (dp - dm)
            errs.append(abs(jump - p.g / (p.hbar * d.v) ** 2))
        assert errs[0] < 5e-3
        assert 1.5 < errs[0] / errs[1] < 2.6  # first-order jump convergence

    def test_zero_mode_matches_closed_form_differences(self):
        p, d = setup_params()
        sol = fdm_spectral_solve(0.0, 0.1 * d.R_c, p, d, FdmGrid(N=10_000))
        xs = [0.3 * d.R_c, 0.45 * d.R_c, -0.25 * d.R_c]
        snapped = [sol.x_nodes[int(np.argmin(np.abs(sol.x_nodes - x)))] for x in xs]
        fdm_diff = sol.interp(snapped[0]) - sol.interp(snapped[1])
        cf_diff = (spectral_density(0.0, snapped[0], sol.x_source, p, d).re_part
                   - spectral_density(0.0, snapped[1], sol.x_source, p, d).re_part)
        assert abs(fdm_diff - cf_diff) < 1e-3 * abs(cf_diff)

    def test_large_omega_exponential_envelope(self):
        p, d = setup_params()
        omega = 10.0 * math.pi / p.beta
        xp = 0.0
        sol = fdm_spectral_solve(omega, xp, p, d, FdmGrid(N=8000))
        hv = p.hbar * d.v
        xs = np.linspace(0.05 * d.R_c, 0.3 * d.R_c, 8)
        vals = np.abs(sol.interp(xs))
        slope = np.polyfit(xs, np.log(vals), 1)[0]
        assert abs(-slope - omega / hv) < 0.10 * omega / hv

    def test_doubling_error_estimate_shrinks(self):
        # the snapped single-node load moves by O(h) between grids, so its
        # estimate contracts ~2x
        p, d = setup_params()
        omega = 2.0 * math.pi / p.beta
        est_snap = {n: fdm_spectral_solve(omega, 0.1, p, d, FdmGrid(N=n)).disc_error_est for n in (2000, 4000)}
        assert 1.4 < est_snap[2000] / est_snap[4000] < 3.0

    def test_zero_mode_estimate_spans_the_coarse_nodes(self):
        # at omega = 0 the estimate compares only the fine cells within the
        # coarse nodes' span: outside it np.interp holds the coarse end value
        # flat beside the log singularity, which read 0.2451.  Inside it the
        # estimate, 0.0202, bounds the error against the zero mode at every
        # cell but the outermost, whose cell-centred value is off by 0.041 at
        # any N
        p, d = setup_params()
        sol = fdm_spectral_solve(0.0, 0.1 * d.R_c, p, d, FdmGrid(N=10_000))
        exact = np.array([sd.re_part for sd in spectral_densities(0.0, sol.x_nodes[1:-1], sol.x_source, p, d)])
        error = sol.g_values[1:-1] - exact
        error -= np.median(error)  # the gauges' constant
        assert np.max(np.abs(error)) <= sol.disc_error_est < 0.05

    @pytest.mark.parametrize("omega", [0.0, 2.0 * math.pi])
    def test_estimate_span_is_the_coarse_nodes(self, omega):
        # the estimate compares only fine cells within [-R_c + h, R_c - h],
        # h = 2 R_c / N: a point beyond it, such as 0.9999 R_c, has no estimate
        # and is a DomainError that names the span
        p, d = setup_params()
        sol = fdm_spectral_solve(omega, 0.1 * d.R_c, p, d, FdmGrid(N=10_000))
        h = 2.0 * d.R_c / 10_000
        assert sol.estimate_span == pytest.approx((-d.R_c + h, d.R_c - h), abs=1e-15)
        for x in (0.0, 0.8 * d.R_c, *sol.estimate_span):
            assert sol.outside_estimate(x) is None
        for x in (0.9999 * d.R_c, -0.9999 * d.R_c, 2.0 * d.R_c):
            err = sol.outside_estimate(x)
            assert isinstance(err, DomainError)
            assert str(err).startswith(f"x = {x!r} is outside {sol.estimate_span[0]!r} <= x <= {sol.estimate_span[1]!r}:")

    def test_snap_offset_bounded_by_half_cell(self):
        p, d = setup_params()
        grid = FdmGrid(N=1000)
        sol = fdm_spectral_solve(2.0 * math.pi, 0.1234567, p, d, grid)
        assert abs(sol.snap_offset) <= 0.5 * (2.0 * d.R_c / grid.N) + 1e-15

    def test_matches_legendre_route_at_nonzero_omega(self):
        p, d = setup_params()
        omega = 2.0 * math.pi / p.beta
        sol = fdm_spectral_solve(omega, 0.1 * d.R_c, p, d, FdmGrid(N=10_000))
        x_eval = sol.x_nodes[int(np.argmin(np.abs(sol.x_nodes - 0.35 * d.R_c)))]
        exact = spectral_density(omega, float(x_eval), sol.x_source, p, d).re_part
        assert abs(float(sol.interp(x_eval)) - exact) < 1e-3 * abs(exact)

    @pytest.mark.parametrize("turns", [1, 5])
    def test_both_routes_are_even_in_omega(self, turns):
        # omega = 2 pi turns / beta: both routes square omega first, so check
        # 03 solves only +omega
        p, d = setup_params()
        omega = 2.0 * math.pi * turns / p.beta
        plus, minus = (fdm_spectral_solve(w, 0.1 * d.R_c, p, d, FdmGrid(N=2000)) for w in (omega, -omega))
        assert plus.g_values.tobytes() == minus.g_values.tobytes()
        assert (plus.x_source, plus.disc_error_est) == (minus.x_source, minus.disc_error_est)
        xs = [0.3 * d.R_c, 0.45 * d.R_c, -0.25 * d.R_c, 0.6 * d.R_c]
        plus, minus = ([(sd.re_part, sd.err_bound) for sd in spectral_densities(w, xs, plus.x_source, p, d)]
                       for w in (omega, -omega))
        assert np.array(plus).tobytes() == np.array(minus).tobytes()

    def test_validation(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            fdm_spectral_solve(0.0, 2.0 * d.R_c, p, d, FdmGrid(N=1000))

    def test_a_frequency_whose_square_underflows_is_refused(self):
        # (omega/hbar v)^2 lost in the diagonal's rounding leaves the omega = 0 system, singular unless
        # pinned: a DomainError that names the underflow, where it once raised LinAlgError; the omega = 0
        # solve would be in the mean-zero gauge, not omega's
        p, d = setup_params()
        with pytest.raises(DomainError, match=r"at omega = 1e-300 fails in floating point: \(omega/hbar v\)\^2 "
                                              r"underflows below the rounding of the operator's diagonal"):
            fdm_spectral_solve(1e-300, 0.1 * d.R_c, p, d, FdmGrid(N=1000))
        with pytest.raises(DomainError):
            FdmGrid(N=50)

    def test_only_float_failures_become_domain_errors(self, monkeypatch):
        # LAPACK overflows without raising a numpy flag: a solution that is not finite is the DomainError;
        # a ValueError that is no float failure, as of a shape that does not fit, is not caught
        p, d = setup_params()
        monkeypatch.setattr(trapgas.oracle, "solveh_banded", lambda ab, b: np.full(len(b), np.inf))
        with pytest.raises(DomainError, match=r"^the FDM solve at omega = 1\.0 fails in floating point: the solution "
                                              r"overflows a float$"):
            fdm_spectral_solve(1.0, 0.1 * d.R_c, p, d, FdmGrid(N=1000))
        monkeypatch.setattr(trapgas.oracle, "solveh_banded", lambda ab, b: np.zeros(len(b) + 1))
        with pytest.raises(ValueError) as err:
            fdm_spectral_solve(1.0, 0.1 * d.R_c, p, d, FdmGrid(N=1000))
        assert not isinstance(err.value, DomainError)


class TestZeroModeSolve:
    """The omega = 0 solve against its own discrete system solved in long
    double.

    That system is -K g + mu h 1 = rhs with sum(g) = 0, where K is the
    flux-form operator with K 1 = 0 and rhs is the source load less the two
    boundary fluxes.  It is built here in float64 from its definition, as the
    oracle builds it, and only the solve differs.
    """

    N = 10_000

    def _system(self, xp_over_rc):
        p, d = setup_params()
        h = 2.0 * d.R_c / self.N
        xc = -d.R_c + (np.arange(self.N) + 0.5) * h
        pf = 1.0 - ((-d.R_c + np.arange(self.N + 1) * h) / d.R_c) ** 2
        pf[0] = pf[-1] = 0.0
        hv2 = (p.hbar * d.v) ** 2
        rhs = np.zeros(self.N)
        rhs[int(np.argmin(np.abs(xc - xp_over_rc * d.R_c)))] = (p.g / hv2) / h
        rhs[[0, -1]] -= p.g / (2.0 * hv2) / h
        return p, d, h, pf, rhs

    def _reference(self, h, pf, rhs):
        # Thomas elimination of K g = mu h 1 - rhs in long double, in closed
        # form.  On this K the forward sweep's multipliers are all -1: its
        # i-th pivot is p_{i+1}/h^2 and its i-th right-hand side is the
        # partial sum of the load, -1/h^2 times the flux F through face i+1.
        # The back sweep then steps g by F/p across each face.  The last
        # pivot is 0 (K 1 = 0), so the constant is free and the mean is taken
        # out, as the solver does.
        h, pf, rhs = np.longdouble(h), pf.astype(np.longdouble), rhs.astype(np.longdouble)
        load = np.sum(rhs) / (self.N * h) * h - rhs
        flux = -(h**2) * np.cumsum(load)[:-1]
        g = np.concatenate([[np.longdouble(0.0)], np.cumsum(flux / pf[1:-1])])
        return g - np.mean(g)

    # x' = R_c/N is the centre of cell N/2, the node the solver pins
    @pytest.mark.parametrize("xp_over_rc", [0.1, 1.0 / N])
    def test_matches_long_double_reference(self, xp_over_rc):
        p, d, h, pf, rhs = self._system(xp_over_rc)
        sol = fdm_spectral_solve(0.0, xp_over_rc * d.R_c, p, d, FdmGrid(N=self.N))
        g = sol.g_values
        assert float(np.max(np.abs(g - self._reference(h, pf, rhs)))) <= 1e-10
        assert abs(np.mean(g)) <= 1e-14 * np.max(np.abs(g))
        # mu = sum(rhs)/(N h), where the load and the boundary fluxes cancel
        eps = np.finfo(float).eps
        assert abs(sol.meta["gauge_multiplier"]) <= 4.0 * eps * np.sum(np.abs(rhs)) / (self.N * h)

    def test_pinning_an_end_node_fails_the_reference(self):
        # the same singular system pinned at node 0, not at an interior node:
        # p -> 0 at the ends, so node 0 hangs on node 1 by a coupling of order
        # 1/N and the banded solve loses two more orders of magnitude
        from scipy.linalg import solveh_banded

        _, _, h, pf, rhs = self._system(0.1)
        ab = np.zeros((2, self.N))
        ab[0, 1:] = -pf[1:-1] / h**2
        ab[1] = (pf[1:] + pf[:-1]) / h**2
        load = np.sum(rhs) / (self.N * h) * h - rhs
        ab[0, 1] = 0.0
        ab[1, 0] = 1.0
        load[0] = 0.0
        g = solveh_banded(ab, load)
        assert float(np.max(np.abs(g - np.mean(g) - self._reference(h, pf, rhs)))) > 1e-10


class TestEigensolve:
    def test_constant_mode_at_zero(self):
        p, d = setup_params()
        lam = fdm_eigensolve(p, d, FdmGrid(N=2000), n_levels=3)
        assert abs(lam[0]) < 1e-8

    @pytest.mark.parametrize("n_cells", [210, 211, 256, 1001, 4000])
    def test_spectrum_is_exact_at_every_grid(self, n_cells):
        # the flux form maps a polynomial of degree k on the nodes to one of
        # degree <= k with x^k coefficient k(k+1)/R_c^2, so the levels carry
        # no h^2 term: they are the continuum's to within the bisection's
        # default tolerance, eps times the matrix norm 4/h^2, at odd and even N
        p, d = setup_params()
        lam = fdm_eigensolve(p, d, FdmGrid(N=n_cells), n_levels=21)
        n = np.arange(21)
        norm = 4.0 / (2.0 * d.R_c / n_cells) ** 2
        assert float(np.max(np.abs(lam - n * (n + 1) / d.R_c**2))) <= 2.0 * np.finfo(float).eps * norm

    def test_spectrum_law_on_one_grid(self):
        p, d = setup_params()
        lam = fdm_eigensolve(p, d, FdmGrid(N=1000), n_levels=21)
        for n in range(1, 21):
            target = n * (n + 1) / d.R_c**2
            assert abs(lam[n] - target) < 1e-4 * target

    def test_spacing_trend_matches_expansion(self):
        p, d = setup_params()
        lam = fdm_eigensolve(p, d, FdmGrid(N=2000), n_levels=31)
        hv = p.hbar * d.v
        energies = hv * np.sqrt(np.maximum(lam, 0.0))
        n = 25
        spacing = energies[n + 1] - energies[n]
        expansion = (1.0 + 1.0 / (8 * n**2) - 1.0 / (4 * n**3)) / d.alpha
        assert_allclose(spacing, expansion, rtol=1e-4)

    @pytest.mark.parametrize("n_cells", [200, 201])
    @pytest.mark.parametrize("n_levels", [1, 19, 20])
    def test_parity_blocks_match_the_full_matrix(self, n_cells, n_levels):
        # the whole flux-form matrix, diagonalized densely: the bisection's
        # lowest levels are its own to within rounding, at odd and even N
        p, d = setup_params()
        h = 2.0 * d.R_c / n_cells
        pf = 1.0 - ((-d.R_c + np.arange(n_cells + 1) * h) / d.R_c) ** 2
        pf[0] = pf[-1] = 0.0
        diag = (pf[1:] + pf[:-1]) / h**2
        full = np.diag(diag) + np.diag(-pf[1:-1] / h**2, 1) + np.diag(-pf[1:-1] / h**2, -1)
        dense = np.linalg.eigvalsh(full)[:n_levels]
        lam = fdm_eigensolve(p, d, FdmGrid(N=n_cells), n_levels)
        assert lam.shape == (n_levels,)
        assert float(np.max(np.abs(lam - dense))) < 1e-15 * float(np.max(np.abs(diag)))

    def test_level_budget_enforced(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            fdm_eigensolve(p, d, FdmGrid(N=200), n_levels=50)


class TestBruteLegendreTail:
    def test_leading_mode_dominates_at_large_dtau(self):
        p, d = setup_params()
        u, up = 0.3, 0.2
        dtau = 30.0 * d.alpha
        total = brute_legendre_tail(u * d.R_c, up * d.R_c, dtau, p, d, 500)
        p1_u, p1_up = p_poly_table(1, u)[1], p_poly_table(1, up)[1]
        leading = (1.5 / math.sqrt(2.0)) * p1_u * p1_up * math.exp(-math.sqrt(2.0) * dtau / d.alpha)
        assert_allclose(total, leading, rtol=1e-10)

    def test_parity_kills_odd_modes_at_center(self):
        p, d = setup_params()
        dtau = 0.5 * d.alpha
        total = brute_legendre_tail(0.0, 0.0, dtau, p, d, 6)
        manual = 0.0
        for n in (2, 4, 6):  # odd-n polynomials vanish at the origin
            root = math.sqrt(n * (n + 1.0))
            manual += (n + 0.5) / root * p_poly_table(n, 0.0)[n] ** 2 * math.exp(-root * dtau / d.alpha)
        assert_allclose(total, manual, rtol=1e-13)

    def test_validation(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            brute_legendre_tail(0.1, 0.0, 0.0, p, d, 100)
        with pytest.raises(DomainError):
            brute_legendre_tail(0.1, 0.0, 0.5, p, d, 0)


PACKAGE = Path(trapgas.__file__).parent
ROUTES = ("legendre", "green_trapped", "green_homogeneous", "correlator")


def _imported_names(path: Path) -> set:
    """Every dotted name the module at ``path`` imports, relative imports
    resolved."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            package = "trapgas" if node.level else None
            names.update(".".join(filter(None, (package, node.module, alias.name))) for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def _imports(path: Path, module: str) -> bool:
    return any(n == module or n.startswith(module + ".") for n in _imported_names(path))


def test_oracle_imports_none_of_the_routes_it_checks():
    assert [r for r in ROUTES if _imports(PACKAGE / "oracle.py", f"trapgas.{r}")] == []


def test_oracle_is_the_only_module_that_imports_scipy():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if _imports(p, "scipy")) == ["oracle"]
    # nor does a route load the oracle, or the checks that run it
    for route in (*ROUTES, "model"):
        assert not _imports(PACKAGE / f"{route}.py", "trapgas.oracle")
        assert not _imports(PACKAGE / f"{route}.py", "trapgas.checks")


def test_no_module_calls_numpy_leggauss():
    # legendre._gauss_kronrod replaces it: leggauss runs an eigensolver, which
    # costs 2 MiB of peak memory; and legendre builds its rule without
    # numpy.linalg, so without an eigensolver on the Jacobi-Kronrod matrix
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= {part for alias in node.names for part in alias.name.split(".")}
                used |= set((getattr(node, "module", None) or "").split("."))
        assert "leggauss" not in used, path.name
        if path.stem == "legendre":
            assert "linalg" not in used


@pytest.mark.parametrize("module", ["trapgas", "trapgas.cli"])
def test_importing_the_package_loads_no_scipy(module, fresh_python):
    scipy_modules = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"
    assert fresh_python(f"import sys, {module}; print({scipy_modules})") == "[]\n"
    # the first oracle name loads it
    assert fresh_python(f"import sys, {module}, trapgas; trapgas.FdmGrid; print(bool({scipy_modules}))") == "True\n"


def test_importing_the_cli_loads_no_numpy_polynomial(fresh_python):
    # importing numpy.polynomial costs tens of ms of start-up; the far rows'
    # Chebyshev interpolants are evaluated by hand
    loaded = "[m for m in sys.modules if m.startswith('numpy.polynomial')]"
    assert fresh_python(f"import sys, trapgas.cli; print({loaded})") == "[]\n"


def test_validate_loads_no_scipy_sparse(fresh_python):
    # the oracle's solves are all banded LAPACK, scipy.linalg only
    assert fresh_python(
        "import contextlib, io, sys, trapgas.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = trapgas.cli.main(['validate'])\n"
        "print(code, 'scipy.linalg' in sys.modules, [m for m in sys.modules if m.startswith('scipy.sparse')])\n"
    ) == "0 True []\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_repeat_validate_sums_fault_in_no_memory(fresh_python):
    # check 06's series and the chunks of check 05's brute sum keep each
    # temporary within 64 KiB, so a repeat call reuses the heap.  Larger
    # ones are handed back to the kernel on free and
    # faulted in again on every call, unless an earlier large free (a sparse
    # LU factorization made one) has raised glibc's dynamic threshold
    faults = fresh_python(
        "import math, resource\n"
        "from trapgas import PhysicalParams, brute_frequency_sum, derive_scales, homog_series\n"
        "p = PhysicalParams(m=1.0, g=1.0, Omega=math.sqrt(2.0) / 20.0, Lambda=1.0, beta=1.0)\n"
        "d = derive_scales(p)\n"
        "for call in (lambda: homog_series(0.75, 0.0, -0.75, 0.0, p, d, tol=1e-12),\n"
        "             lambda: brute_frequency_sum([0.1], 10**6)):\n"
        "    call()\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    call()\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    ).split()
    assert [int(f) < 100 for f in faults] == [True, True], faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_repeat_brute_sum_faults_in_little_with_thresholds_pinned(fresh_python):
    # mallopt pins the trim and mmap thresholds at their 128 KiB defaults, as
    # MALLOC_TRIM_THRESHOLD_ would, so a large free no longer raises them.
    # The brute sum's cosine table is built once a call, and only the few
    # 64 KiB temporaries alive at once are faulted in again; check 06's
    # homog_series, with validate's modules loaded, reuses its 1.2 KiB
    # temporaries (149 modes) from the heap
    faults = fresh_python(
        "import ctypes, math, resource\n"
        "mallopt = ctypes.CDLL(None).mallopt\n"
        "mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int\n"
        "M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3\n"
        "assert mallopt(M_TRIM_THRESHOLD, 128 * 1024) == 1 and mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1\n"
        "import trapgas.checks\n"
        "from trapgas import PhysicalParams, brute_frequency_sum, derive_scales, homog_series\n"
        "p = PhysicalParams(m=1.0, g=1.0, Omega=math.sqrt(2.0) / 20.0, Lambda=1.0, beta=1.0)\n"
        "args = (0.75, 0.0, -0.75, 0.0, p, derive_scales(p))\n"
        "for call in (lambda: brute_frequency_sum([0.1], 10**6), lambda: homog_series(*args, tol=1e-12)):\n"
        "    call()\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    call()\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    ).split()
    assert [int(f) < 100 for f in faults] == [True, True], faults


@pytest.mark.parametrize("name", trapgas.oracle.__all__)
def test_oracle_names_resolve_through_the_package(name):
    assert getattr(trapgas, name) is getattr(trapgas.oracle, name)
    assert name in dir(trapgas)


def test_lazy_names_are_the_oracle_exports_and_unknown_names_raise():
    assert sorted(trapgas._ORACLE_NAMES) == sorted(trapgas.oracle.__all__)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        trapgas.no_such_name
