import cmath
import functools
import math
import sys
from math import comb

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from trapgas import (
    AccuracyError,
    DomainError,
    PhysicalParams,
    derive_scales,
    matsubara_assemble,
    p_poly_table,
    spectral_density,
)
from trapgas import green_trapped, legendre
from trapgas.green_trapped import _density_parts, _k_coeff
from trapgas.legendre import _NODES, _ROWS, _p_quad

mp.mp.dps = 30


def p_poly_bruteforce(n, u):
    """Recurrence-independent oracle: 2^-n sum_k C(n,k)^2 (u-1)^(n-k) (u+1)^k."""
    return sum(comb(n, k) ** 2 * (u - 1.0) ** (n - k) * (u + 1.0) ** k for k in range(n + 1)) / 2.0**n


def legendre_ode_residual(y, nu: complex, u: float, h: float = 1e-4) -> complex:
    """(1-u^2) y'' - 2u y' + nu(nu+1) y by central differences on callable y."""
    y0 = y(u)
    yp = (y(u + h) - y(u - h)) / (2.0 * h)
    ypp = (y(u + h) - 2.0 * y0 + y(u - h)) / (h * h)
    return (1.0 - u * u) * ypp - 2.0 * u * yp + nu * (nu + 1.0) * y0


def _lam(nu) -> float:
    """lambda = -nu(nu+1), real for a real or a conical degree."""
    nu = complex(nu)
    return 0.25 + nu.imag**2 if nu.imag else -nu.real * (nu.real + 1.0)


def kernel_rows(nu, u: float) -> tuple:
    """P_nu(u), P_nu(-u) and the kernel's values of those two rows, from one
    call; a conical row's value takes back the exponent mu arccos u that the
    kernel scales out."""
    value, _ = _p_quad(np.full(2, _lam(nu)), np.array([u, -u]))
    nu = complex(nu)
    p = value * np.exp(abs(nu.imag) * np.arccos([u, -u])) if nu.imag else 1.0 + nu.real * value
    return float(p[0]), float(p[1]), value


def kernel_p(nu, u: float) -> float:
    return kernel_rows(nu, u)[0]


def kernel_pair(nu, u: float) -> tuple:
    """(P_nu(u), Q_nu(u)) from the kernel's P_nu(+-u) by the connection formula
    (2/pi) Q_nu(u) = [cos(pi nu) P_nu(u) - P_nu(-u)] / sin(pi nu), which no
    route forms: on the real branch from D(+-u) = (P_nu(+-u) - 1)/nu, with its
    O(1) part (cos(pi nu) - 1)/sin(pi nu) = -tan(pi nu/2) taken out in closed
    form, so that nothing cancels; on the conical line in plain complex
    arithmetic."""
    p_u, p_mu, value = kernel_rows(nu, u)
    nu = complex(nu)
    if nu.imag:
        return p_u, math.pi / 2.0 * (cmath.cos(math.pi * nu) * p_u - p_mu) / cmath.sin(math.pi * nu)
    nu = nu.real
    q = nu * (math.cos(math.pi * nu) * value[0] - value[1]) / math.sin(math.pi * nu) - math.tan(0.5 * math.pi * nu)
    return p_u, math.pi / 2.0 * float(q)


def wronskian_residual(f, g, w: float, u: float, h: float | None = None) -> float:
    """|f g' - f' g - w/(1-u^2)| / max(1, |f g'|, |f' g|), with derivatives by
    central differences: the residual normalized by the Wronskian's
    constituent products, which reach ~1e12 toward u -> -1 at nu = -1/2 + 5i
    while their difference is O(1)."""
    if h is None:
        h = 1e-5 * (1.0 - u * u)
    df = (f(u + h) - f(u - h)) / (2.0 * h)
    dg = (g(u + h) - g(u - h)) / (2.0 * h)
    fdg, dfg = f(u) * dg, df * g(u)
    return abs(fdg - dfg - w / (1.0 - u * u)) / max(1.0, abs(fdg), abs(dfg))


class TestPolynomials:
    def test_p0_is_one(self):
        for u in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert p_poly_table(0, u)[0] == 1.0

    def test_p2_closed_form(self):
        assert_allclose(p_poly_table(2, 0.5)[2], -0.125, rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 7, 10, 25])
    def test_against_bruteforce_sum(self, n):
        # the explicit binomial sum is the oracle here and is itself
        # rounding-limited (~1e-10 relative by n = 25 near u = 1)
        for u in (-0.8, -0.3, 0.3, 0.9):
            assert_allclose(p_poly_table(n, u)[n], p_poly_bruteforce(n, u), rtol=1e-9, atol=1e-14)

    def test_parity(self):
        rng = np.random.default_rng(3)
        for n in range(9):
            for u in rng.uniform(0.0, 1.0, 4):
                assert_allclose(p_poly_table(n, -u)[n], (-1.0) ** n * p_poly_table(n, u)[n], rtol=1e-12, atol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            p_poly_table(3, 1.5)
        with pytest.raises(DomainError):
            p_poly_table(-1, 0.5)
        with pytest.raises(DomainError, match="got nan$"):
            p_poly_table(3, math.nan)

    def test_table_rows_do_not_depend_on_n_max(self):
        u = 0.37
        table = p_poly_table(12, u)
        for n in range(13):
            assert table[n] == pytest.approx(p_poly_table(n, u)[n], rel=1e-14)


class TestAsymptoticPolynomial:
    def test_amplitude_decreasing_in_n(self):
        theta = 0.8
        amps = [math.sqrt(2.0 / (math.pi * n * math.sin(theta))) for n in range(1, 40)]
        assert all(b < a for a, b in zip(amps, amps[1:]))


class TestLegendrePairValues:
    """P_nu and Q_nu as the routes form them: P from the kernel's rows, Q from
    P_nu(+-u), and the density's tolerance and domain checks ahead of the
    kernel."""

    def _unit(self):
        p = PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
        return p, derive_scales(p)

    def test_nu0_closed_forms(self):
        # at lambda = 0 the row holds dP_nu/dnu at nu = 0, which is log((1+u)/2),
        # and P_0 = 1 exactly; Q_nu reaches Q_0 = atanh u as lambda -> 0
        value, _ = _p_quad(np.array([0.0]), 0.5)
        assert 1.0 + 0.0 * value[0] == 1.0
        assert_allclose(value[0], math.log(0.75), rtol=1e-14)
        p, q = kernel_pair(-1e-12, 0.5)
        assert_allclose(p, 1.0, rtol=1e-11)
        assert_allclose(q, 0.5 * math.log(3.0), rtol=1e-11)

    def test_nu1_closed_forms(self):
        # lambda = -2: P_1(u) = u; Q at an integer degree has no route
        assert abs(kernel_p(1.0, 0.0)) < 1e-15
        assert_allclose(kernel_p(1.0, 0.6), 0.6, rtol=1e-14)

    @pytest.mark.parametrize("nu", [0.5, -0.3, 2.5, -0.5 + 0.8j, -0.5 - 0.8j, -0.5 + 5.0j, -0.5])
    @pytest.mark.parametrize("u", [-0.7, -0.2, 0.3, 0.85])
    def test_against_mpmath(self, nu, u):
        p, q = kernel_pair(nu, u)
        ref_p = complex(mp.legenp(nu, 0, u, type=2))
        ref_q = complex(mp.legenq(nu, 0, u, type=2))
        assert abs(p - ref_p) < 1e-11 * max(1.0, abs(ref_p))
        assert abs(q - ref_q) < 1e-11 * max(1.0, abs(ref_q))

    def test_conical_p_is_real(self):
        # P_{-1/2+i mu} is real on the cut, so the kernel's real, positive
        # conical rows lose no part of it
        for mu in (0.8, 2.0, 5.0):
            for u in np.linspace(-0.9, 0.9, 7):
                ref = complex(mp.legenp(-0.5 + 1j * mu, 0, float(u), type=2))
                p = kernel_p(-0.5 + 1j * mu, float(u))
                assert p.imag == 0.0 and p.real > 0.0
                assert abs(ref.imag) < 1e-8 * abs(ref) and abs(p - ref) < 1e-11 * abs(ref)

    def test_solves_legendre_ode(self):
        for nu in (0.5, -0.5 + 0.8j):
            pair_fn_p = lambda u: kernel_pair(nu, u)[0]
            pair_fn_q = lambda u: kernel_pair(nu, u)[1]
            for u0 in (-0.4, 0.2, 0.6):
                scale = abs(nu * (nu + 1)) * max(abs(pair_fn_p(u0)), 1.0) + 1.0
                assert abs(legendre_ode_residual(pair_fn_p, nu, u0)) < 1e-5 * scale
                scale_q = abs(nu * (nu + 1)) * max(abs(pair_fn_q(u0)), 1.0) + 1.0
                assert abs(legendre_ode_residual(pair_fn_q, nu, u0)) < 1e-5 * scale_q

    def test_domain_and_tolerance_validation(self):
        p, d = self._unit()
        with pytest.raises(DomainError):
            _p_quad(np.array([-0.75]), 1.0 + 1e-15)  # u = 1 itself gives P_nu = 1
        with pytest.raises(DomainError):
            _p_quad(np.array([-0.75]), -1.2)
        with pytest.raises(DomainError, match="tolerance"):
            spectral_density(0.2, 0.3, 0.1, p, d, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected_before_any_term(self, tol, monkeypatch):
        # each batched entry point checks tol before its kernel pass
        p, d = self._unit()
        calls = []
        monkeypatch.setattr(green_trapped, "_p_quad", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="tolerance"):
            spectral_density(20.0 / d.alpha, -0.9, 0.1, p, d, tol)
        with pytest.raises(DomainError, match="tolerance"):
            matsubara_assemble(-0.9, 0.0, 0.1, 0.0, p, d, 8, tol)
        assert calls == []

    def test_reports_terms_and_error_bound(self, monkeypatch):
        # P_nu(+-u) are two rows of one call, each of _NODES.size integrand
        # evaluations, with error estimates far below the density's tolerance
        rows = []
        quad_rows = legendre._quad_rows

        def counted(lam, *args):
            rows.extend(lam)
            return quad_rows(lam, *args)

        monkeypatch.setattr(legendre, "_quad_rows", counted)
        _, err = _p_quad(np.full(2, _lam(-0.5 + 0.8j)), np.array([0.3, -0.3]))
        assert len(rows) * _NODES.size == 2 * _NODES.size
        assert ((0.0 <= err) & (err < 1e-10)).all()

    def test_bound_beyond_tol_raises_accuracy_error(self):
        # the density's bound carries the rounding of the quadratures, well
        # above 1e-16 of the magnitude of its terms
        p, d = self._unit()
        args = (math.sqrt(_lam(-0.5 + 0.8j)) / d.alpha, 0.3 * d.R_c, 0.1 * d.R_c, p, d)
        sd = spectral_density(*args)
        _, err, scale, _ = _density_parts(args[0], np.array([0.3]), 0.1, d, _k_coeff(p, d), 1e-13)
        assert err[0] == sd.err_bound and scale[0] >= abs(sd.re_part)
        bound = sd.err_bound / scale[0]
        with pytest.raises(AccuracyError, match=r"quadrature bound .* > tol = 1e-16") as err:
            spectral_density(*args, tol=1e-16)
        assert err.value.achieved == bound > 1e-16


# the kernel's rule: the Kronrod nodes and weights, then the nested Gauss rule's
_RULE = (_NODES, legendre._WEIGHTS, _NODES[:legendre._GAUSS], legendre._GAUSS_WEIGHTS)


@functools.lru_cache(maxsize=None)
def _mp_rule(n: int) -> tuple:
    """``legendre._gauss_kronrod(n)`` run in mpmath at 40 digits."""
    with mp.workdps(40):
        return legendre._gauss_kronrod(n, mp.mpf(1))


def _check_nested(rule):
    # each Gauss node is a Kronrod node, bit for bit, so that both rules take
    # the same integrand evaluations; the other n + 1 interlace with them
    k_nodes, _, g_nodes, _ = rule
    assert k_nodes.size == 2 * g_nodes.size + 1 and np.isin(g_nodes, k_nodes).all()
    assert np.isin(np.sort(k_nodes)[1::2], g_nodes).all()


def _check_weights(rule):
    for weights in rule[1::2]:
        assert (weights > 0.0).all() and abs(math.fsum(weights) - 1.0) <= 1e-15


def _check_exactness(rule):
    # against the exact moments 1/(k + 1) of x^k on [0, 1]
    k_nodes, k_weights, g_nodes, g_weights = rule
    n = g_nodes.size
    for nodes, weights, degree in ((k_nodes, k_weights, 3 * n + 1), (g_nodes, g_weights, 2 * n - 1)):
        for k in range(degree + 1):
            assert abs(math.fsum(weights * nodes**k) * (k + 1) - 1.0) <= 1e-14, (degree, k)


def _check_against_mpmath(rule):
    nodes, k_weights, g_weights = _mp_rule(rule[2].size)
    refs = (nodes, k_weights, nodes[:rule[2].size], g_weights)
    for got, ref in zip(rule, refs):
        assert max(abs(mp.mpf(float(a)) - b) for a, b in zip(got, ref)) <= 1e-15


_RULE_CHECKS = [_check_nested, _check_weights, _check_exactness, _check_against_mpmath]


class TestGaussKronrodRule:
    """The kernel's G_n/K_{2n+1} rule on [0, 1], built at import by
    ``legendre._gauss_kronrod``."""

    @pytest.mark.parametrize("check", _RULE_CHECKS, ids=lambda c: c.__name__)
    def test_rule(self, check):
        check(_RULE)

    @pytest.mark.parametrize(
        "check, part",
        # a Gauss node moved off its Kronrod node; the smallest Kronrod or Gauss weight
        [(_check_nested, 2)] + [(c, part) for c in _RULE_CHECKS[1:] for part in (1, 3)],
        ids=lambda v: v.__name__ if callable(v) else ["k_weight", "g_node", "g_weight"][v - 1],
    )
    def test_check_fails_on_a_perturbed_rule(self, check, part):
        rule = [a.copy() for a in _RULE]
        rule[part][int(np.argmin(rule[part]))] += 1e-12
        with pytest.raises(AssertionError):
            check(rule)

    def test_a_row_takes_fewer_than_64_evaluations(self):
        # 2n + 1, against the 96 of a 64-node rule and a 32-node companion
        assert _NODES.size == 2 * legendre._GAUSS + 1 <= 63


class TestSeriesErrorBound:
    def test_partial_sums_bounded_by_first_omitted_term(self):
        # conical degrees have nonnegative series terms, so the truncation
        # error is bounded by term_{s+1}/(1 - ratio); check on small cases
        nu = -0.5 + 0.8j
        u = 0.2
        z = 0.5 * (1.0 - u)
        full = complex(mp.legenp(nu, 0, u, type=2))
        term = 1.0
        partial = 1.0
        for s in range(40):
            term *= abs((s - nu) * (s + nu + 1)) * z / (s + 1) ** 2
            partial += term
            if s >= 5:
                next_term = term * abs((s + 1 - nu) * (s + nu + 2)) * z / (s + 2) ** 2
                assert abs(full - partial) <= next_term / (1.0 - z) + 1e-15


class TestWronskian:
    """W{P_nu, Q_nu} = 1/(1 - u^2) (DLMF 14.2.3) and W{P_nu(u), P_nu(-u)} =
    -2 sin(pi nu)/(pi (1 - u^2)) on the kernel's values, by central
    differences; the densities' slope jump rests on both."""

    def test_analytic_value_nu0(self):
        # nu -> 0 from the real branch: Q_nu -> Q_0 = atanh u, whose
        # derivative is 1/(1-u^2), so the residual is pure FD error
        nu = -1e-12
        assert wronskian_residual(lambda u: kernel_pair(nu, u)[0], lambda u: kernel_pair(nu, u)[1], 1.0, 0.5) < 1e-8

    def test_conical_example(self):
        nu = -0.5 + 1.5j
        assert wronskian_residual(lambda u: kernel_pair(nu, u)[0], lambda u: kernel_pair(nu, u)[1], 1.0, -0.2) < 1e-6

    @pytest.mark.parametrize("nu", [0, 1, 3, -0.5 + 0.8j])
    def test_across_degrees(self, nu):
        # zero at an integer degree, where P_n(-u) = (-1)^n P_n(u)
        w = (-2.0 * cmath.sin(math.pi * nu) / math.pi).real
        for u in np.linspace(-0.9, 0.9, 7):
            assert wronskian_residual(lambda v: kernel_p(nu, v), lambda v: kernel_p(nu, -v), w, float(u)) < 1e-6


def _mp_scaled(lam, u):
    """The kernel's value for the row (lambda, u) at the working precision,
    from P = P_nu(u): P e^{-mu arccos u} on the conical line, (P - 1)/nu on
    the real branch.

    mpmath.legenp is the oracle.  From lambda near 1e5 on it does not
    converge on some conical rows, raising NoConvergence or, from hypercomb,
    ValueError; there the reference is ``_mp_mehler_dirichlet``.
    """
    nu = -0.5 + mp.sqrt(mp.mpf(0.25) - lam)
    try:
        p = mp.re(mp.legenp(nu, 0, u, type=2))
    except (mp.libmp.NoConvergence, ValueError):
        if lam <= 0.25:
            raise
        return _mp_mehler_dirichlet(lam, u)
    if lam > 0.25:
        return p * mp.exp(-mp.sqrt(mp.mpf(lam) - mp.mpf(0.25)) * mp.acos(u))
    return (p - 1) / nu


def _mp_mehler_dirichlet(lam, u):
    """P_nu(u) e^{-mu arccos u} on the conical line from the Mehler-Dirichlet
    integral itself, by mpmath quadrature in phi = theta - s^2; the reference
    where mpmath.legenp does not converge."""
    mu, theta = mp.sqrt(mp.mpf(lam) - mp.mpf(0.25)), mp.acos(u)

    def integrand(s):  # cos phi - cos theta = 2 sin(theta - s^2/2) sin(s^2/2)
        h = s * s / 2
        return (mp.exp(-2 * mu * h) + mp.exp(-2 * mu * (theta - h))) / mp.sqrt(
            2 * mp.sin(theta - h) * (mp.sin(h) / (s * s) if s else mp.mpf(0.5)))

    cut = min(mp.sqrt(theta), mp.sqrt(60 / mu))  # exp(-mu s^2) < e^-60 beyond
    return mp.sqrt(2) / mp.pi * mp.quad(integrand, mp.linspace(0, cut, 20))


class TestSeriesKernel:
    """The quadrature kernel ``_p_quad``: values, error estimates, fixed cost
    and row independence."""

    def _check(self, lam, u, ref, value, err):
        actual = abs((mp.mpf(value) - ref) / ref)
        assert actual <= 1e-13, (lam, u, actual)
        assert actual <= err, (lam, u, actual, err)  # the estimate bounds the error

    @pytest.mark.parametrize("lam", [1e-8, 1e-3, 0.1, 0.2499, 0.25, 0.25 + 1e-8, 0.2501, 0.89, 10.0, 300.0, 4e4])
    def test_grid_against_mpmath(self, lam):
        # both branches up to lambda = 4e4, lambda just above 1/4 (mu -> 0),
        # and u from the clamp 1 - 1e-6 at either end through 0
        us = [s * v for v in (1.0 - 1e-6, 0.99999, 0.995, 0.5) for s in (1.0, -1.0)] + [0.0]
        value, err = _p_quad(np.full(len(us), lam), np.array(us))
        with mp.workdps(50):
            for i, u in enumerate(us):
                self._check(lam, u, _mp_scaled(lam, u), value[i], err[i])

    def test_largest_sweep_degree_at_the_clamp(self):
        # mu = 2000 pi alpha ~ 8886 at unit parameters, u = -(1 - 1e-6):
        # mpmath.legenp does not converge, the reference is the integral itself
        d = derive_scales(PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0))
        lam = (d.alpha * 2000.0 * math.pi) ** 2
        us = [-(1.0 - 1e-6), -0.5, 1.0 - 1e-6]
        value, err = _p_quad(np.full(3, lam), np.array(us))
        with mp.workdps(40):
            for i, u in enumerate(us):
                self._check(lam, u, _mp_mehler_dirichlet(lam, u), value[i], err[i])

    def test_u_equal_one_gives_exactly_one(self):
        value, err = _p_quad(np.array([0.1, 0.89, 1e8]), 1.0)
        assert value.tolist() == [0.0, 1.0, 1.0]  # (P - 1)/nu = 0 and P = 1 = e^0
        assert err.tolist() == [0.0, 0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(log10_lam=st.floats(-3.0, 8.0), u=st.floats(-(1.0 - 1e-6), 1.0 - 1e-6))
    def test_matsubara_degrees_against_mpmath(self, log10_lam, u):
        # every Matsubara degree has lambda = (alpha omega)^2 >= 0, up to
        # mu = 1e4, past the largest sweep degree; u reaches the clamp, where
        # h nears pi/2 at u -> -1 and 1 - tan^2(h/2) is smallest
        lam = 10.0**log10_lam
        value, err = _p_quad(np.array([lam]), u)
        self._check(lam, u, _mp_scaled(lam, u), value[0], err[0])

    @pytest.mark.parametrize("u", [0.19, -0.21, 0.0, 1.0 - 1e-6, -(1.0 - 1e-6)])
    def test_matsubara_rows_raise_no_floating_point_error(self, u):
        # the rows of a Matsubara sum to l_max = 256 at unit parameters, the
        # largest sweep degree and two real-branch rows: no exp underflows
        # and nothing overflows or turns invalid
        d = derive_scales(PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0))
        omegas = [2.0 * math.pi * l for l in range(1, 257)] + [2000.0 * math.pi] * 3
        lam = np.array([(d.alpha * w) ** 2 for w in omegas] + [0.1, 1e-6])
        with np.errstate(all="raise"):
            value, err = _p_quad(lam, u)
        assert np.isfinite(value).all() and (err < 1e-13).all()

    @settings(max_examples=40, deadline=None)
    @given(nu=st.sampled_from([0.5, 2.5, -0.3]), u=st.floats(-0.95, 0.95))
    def test_real_degrees_track_the_term_sign(self, nu, u):
        # lambda = -0.75 and -8.75: integrands that change sign
        lam = -nu * (nu + 1.0)
        value, err = _p_quad(np.array([lam]), u)
        ref = mp.legenp(nu, 0, u, type=2)
        p = 1.0 + nu * value[0]
        assert abs(p - ref) <= 1e-13 * max(1.0, abs(ref)) + err[0] * abs(nu * value[0])

    def test_batch_rows_equal_single_rows(self):
        # 300 rows of both branches cross the row-block size; each row is
        # integrated on its own
        lam = np.geomspace(1e-3, 1e6, 300)
        batch = _p_quad(lam, -0.4)
        first_conical = int(np.argmax(lam > 0.25))
        for i in (0, 17, first_conical, first_conical + _ROWS - 1, first_conical + _ROWS, 299):
            single = _p_quad(lam[i:i + 1], -0.4)
            for b, s in zip(batch, single):
                assert b[i] == s[0]
        # three blocks of conical rows, every third of which keeps the second
        # exponential (theta = 0.01 < 40/kappa) between rows that skip it
        # (kappa theta - 40 > 20 at u = -0.4), as in a Matsubara sum over
        # several pairs: every block evaluates both terms, and each row keeps
        # the bits it has alone
        n = 2 * _ROWS + 7
        kappa = np.geomspace(40.0, 4000.0, n)
        u = np.where(np.arange(n) % 3 == 0, math.cos(0.01), -0.4)
        lam = 0.25 + kappa * kappa
        batch = _p_quad(lam, u)
        for i in range(n):
            single = _p_quad(lam[i:i + 1], u[i:i + 1])
            for b, s in zip(batch, single):
                assert b[i:i + 1].tobytes() == s.tobytes()

    def test_second_exponential_skip_changes_no_bit(self, monkeypatch):
        # conical rows with kappa (theta - s^2_max) on both sides of the skip
        # threshold 20, and rows with theta < 40/kappa where it is 0.  In one
        # block the mixed rows take both terms; alone, a row above 20 takes
        # one; a reference that never skips takes both everywhere.  All three
        # agree bitwise, and so does a block of rows that are all above 20.
        # The sum hides a second term that is not below half an ulp at every
        # node, so the threshold itself is tested at the worst node
        rows = [(kappa, (40.0 + margin) / kappa) for kappa in (100.0, 1000.0)
                for margin in (0.5, 5.0, 19.5, 20.5, 25.0, 100.0)]
        rows += [(100.0, 0.3), (1000.0, 0.01)]
        lam = np.array([0.25 + kappa * kappa for kappa, _ in rows])
        u = np.cos([theta for _, theta in rows])
        kappa, theta = np.sqrt(lam - 0.25), np.arccos(u)
        s2_max = np.minimum(theta, legendre._GAUSS_CUT / kappa)
        above = kappa * (theta - s2_max) > legendre._EXP_SKIP
        assert 0 < above.sum() < lam.size <= _ROWS
        # a row skips the term only where, at the node of largest h = s^2/2 <=
        # s^2_max/2, it adds nothing to the first; within 1 of theta = 40/kappa
        # it would add to it there
        h = s2_max / 2.0
        first, second = np.exp(-2.0 * kappa * h), np.exp(-2.0 * kappa * (theta - h))
        assert (first[above] + second[above] == first[above]).all()
        assert (first + second != first)[kappa * (theta - s2_max) < 1.0].all()
        batch = _p_quad(lam, u)
        singles = [_p_quad(lam[i:i + 1], u[i:i + 1]) for i in range(lam.size)]
        above_only = _p_quad(lam[above], u[above])
        monkeypatch.setattr(legendre, "_EXP_SKIP", math.inf)
        reference = _p_quad(lam, u)
        for got, ref in zip(batch, reference):
            assert got.tobytes() == ref.tobytes()
        for i, single in enumerate(singles):
            for got, ref in zip(single, reference):
                assert got[0] == ref[i]
        for got, ref in zip(above_only, reference):
            assert got.tobytes() == ref[above].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.floats(-3.0, 8.0), st.floats(-0.999, 0.999, exclude_min=True, exclude_max=True)
                      | st.sampled_from([0.0, -0.0, 1.0])),
            min_size=1, max_size=6,
        ),
        picks=st.lists(st.integers(0, 5), min_size=129, max_size=400),
    )
    @example(values=[(8.0, 0.0), (8.0, -0.0), (-3.0, 0.9), (5.0, -0.9)], picks=[0, 1, 2, 3, 2, 1] * 30)
    @example(values=[(8.0, -0.5), (1.0, 0.3)], picks=[1, 0] * 200)
    def test_rows_with_their_own_u_equal_single_rows(self, values, picks):
        # (lambda, u) rows with repeats, +-0.0, u = 1 and more rows than one
        # block holds: every row is its single-row result, bitwise
        rows = [values[i % len(values)] for i in picks]
        lam = np.array([10.0 ** a for a, _ in rows])
        u = np.array([b for _, b in rows])
        single = {(a, b): _p_quad(np.array([10.0 ** a]), b) for a, b in set(rows)}
        batch = _p_quad(lam, u)
        for i, key in enumerate(rows):
            for b, s in zip(batch, single[key]):
                assert b[i] == s[0]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
    def test_repeat_assembly_faults_in_no_memory(self, fresh_python):
        # a row block's temporaries are reused from the heap, not handed back
        # to the kernel and faulted in again block after block; without scipy,
        # whose import raises glibc's trim threshold and hides that
        faults, scipy_loaded = fresh_python(
            "import resource, sys\n"
            "from trapgas import PhysicalParams, derive_scales, matsubara_assemble\n"
            "p = PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)\n"
            "args = (0.3, 0.2, 0.1, 0.0, p, derive_scales(p), 256)\n"
            "matsubara_assemble(*args)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "matsubara_assemble(*args)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, 'scipy' in sys.modules)\n"
        ).split()
        assert scipy_loaded == "False"
        assert int(faults) < 100

    def test_domain_error_names_the_offending_u(self):
        with pytest.raises(DomainError, match=r"got -1\.5$"):
            _p_quad(np.ones(3), np.array([0.2, -1.5, 2.0]))

    def test_domain_error_names_the_first_bad_u_in_input_order(self):
        # the check runs before a lambda's rows are sorted into distinct u
        with pytest.raises(DomainError, match=r"got 2\.0$"):
            _p_quad(np.full(6, 5.0), np.array([0.2, 2.0, 0.2, -1.5, 0.2, 0.3]))

    ONE_LAMBDA_U = [0.3, -0.3, 0.3, 1.0, 0.0, -0.0, 0.3, -0.7, -0.3, 1.0]

    @pytest.mark.parametrize(
        "lam, u, integrated",
        [
            # one lambda on each branch, with repeats, u = 1 and u = +-0.0:
            # each distinct u < 1 (0.3, -0.3, 0, -0.7) is integrated once
            ([9.0] * 10, ONE_LAMBDA_U, 4),
            ([0.1] * 10, ONE_LAMBDA_U, 4),
            # several lambdas, one u at several lambdas and one lambda at
            # several u: every row is integrated
            ([9.0, 0.1, 9.0, 2.0, 9.0, 0.1], [0.3, 0.3, 0.3, 0.3, -0.3, 0.3], 6),
        ],
    )
    def test_repeated_rows_equal_single_rows(self, lam, u, integrated, monkeypatch):
        # every row is bitwise what it gives alone
        lam, u = np.array(lam), np.array(u)
        rows = []

        def counted(lam, *args):
            rows.extend(lam)
            return quad_rows(lam, *args)

        quad_rows = legendre._quad_rows
        monkeypatch.setattr(legendre, "_quad_rows", counted)
        batch = _p_quad(lam, u)
        assert len(rows) == integrated
        for i in range(lam.size):
            single = _p_quad(lam[i:i + 1], u[i:i + 1])
            for b, s in zip(batch, single):
                assert b[i].tobytes() == s[0].tobytes()

    @pytest.mark.parametrize("nu", [-0.3, 0.5, -0.5 + 0.8j, -0.5 + 40.0j])
    def test_pair_sums_both_series_in_one_call(self, nu, monkeypatch):
        # P_nu(u) and P_nu(-u), as a density asks for them, in one pass over
        # the rows, each equal to its own single-row quadrature
        calls = []
        quad_rows = legendre._quad_rows

        def counted(lam, *args):
            calls.append(lam.size)
            return quad_rows(lam, *args)

        monkeypatch.setattr(legendre, "_quad_rows", counted)
        u = -0.35
        lam = np.full(2, _lam(nu))
        pair = _p_quad(lam, np.array([u, -u]))
        assert calls == [2]
        for i, v in enumerate((u, -u)):
            single = _p_quad(lam[:1], v)
            for b, s in zip(pair, single):
                assert b[i] == s[0]

    def test_polynomial_degree_terminates(self):
        # lambda = -n(n+1): the integral reproduces the polynomial P_n
        value, err = _p_quad(np.array([-6.0, -12.0]), 0.3)
        assert_allclose(1.0 + np.array([2.0, 3.0]) * value, p_poly_table(3, 0.3)[2:], rtol=1e-14)
        assert (err < 1e-14).all()

    def test_large_degree_log_magnitude(self):
        # P_{-1/2+i mu}(cos theta) ~ exp(mu theta)/sqrt(2 pi mu sin theta)
        mu = 300.0
        theta = 1.1
        value, _ = _p_quad(np.array([0.25 + mu * mu]), math.cos(theta))
        log_p = math.log(value[0]) + mu * theta
        expected = mu * theta - 0.5 * math.log(2.0 * math.pi * mu * math.sin(theta))
        assert value[0] > 0.0
        assert abs(log_p - expected) < 0.01 * abs(expected)

    def test_pair_finite_where_cosh_pi_mu_overflows(self):
        # cosh(300 pi) overflows float64; the density, which divides P_nu(+-u)
        # products by cosh^2(pi mu), stays finite and accurate
        mu = 300.0
        theta = 1.1
        with pytest.raises(OverflowError):
            math.cosh(math.pi * mu)
        p = PhysicalParams(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
        d = derive_scales(p)
        k = _k_coeff(p, d)
        u, up = math.cos(theta), 0.9
        re, err = (a[0] for a in _density_parts(math.sqrt(0.25 + mu * mu) / d.alpha, np.array([up]), u, d, k, 1e-13)[:2])
        assert all(math.isfinite(v) for v in (re, err))
        lam = 0.25 + mu * mu
        with mp.workdps(40):
            # P_nu(v) = I(v) e^{mu arccos v}, I from the Mehler-Dirichlet integral
            big = {v: _mp_mehler_dirichlet(lam, v) * mp.exp(mu * mp.acos(v)) for v in (u, -u, up, -up)}
            ref_re = (k * mp.pi / 2) * (mp.exp(-mp.pi * mu) * big[u] * big[-up]
                                        - mp.exp(mp.pi * mu) * big[-u] * big[up]) / mp.cosh(mp.pi * mu) ** 2
            assert abs((mp.mpf(re) - ref_re) / ref_re) < 1e-10

    def test_p_matches_plain_at_moderate_degree(self):
        value, _ = _p_quad(np.array([0.25 + 25.0]), -0.7)
        ref = complex(mp.legenp(-0.5 + 5j, 0, -0.7, type=2))
        assert abs(value[0] * math.exp(5.0 * math.acos(-0.7)) - ref) < 1e-13 * abs(ref)
