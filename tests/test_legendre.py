import cmath
import math
import re
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
    legendre_pair,
    nu_from_omega,
    p_poly,
    p_poly_asymptotic,
    p_poly_table,
    wronskian_check,
)
from trapgas.green_trapped import _p_poly_integer_phase
from trapgas.legendre import _p_series, _series_cap_error, legendre_ode_residual

mp.mp.dps = 30


def p_poly_bruteforce(n, u):
    """Recurrence-independent oracle: 2^-n sum_k C(n,k)^2 (u-1)^(n-k) (u+1)^k."""
    return sum(comb(n, k) ** 2 * (u - 1.0) ** (n - k) * (u + 1.0) ** k for k in range(n + 1)) / 2.0**n


class TestPolynomials:
    def test_p0_is_one(self):
        for u in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert p_poly(0, u) == 1.0

    def test_p2_closed_form(self):
        assert_allclose(p_poly(2, 0.5), -0.125, rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 7, 10, 25])
    def test_against_bruteforce_sum(self, n):
        # the explicit binomial sum is the oracle here and is itself
        # rounding-limited (~1e-10 relative by n = 25 near u = 1)
        for u in (-0.8, -0.3, 0.3, 0.9):
            assert_allclose(p_poly(n, u), p_poly_bruteforce(n, u), rtol=1e-9, atol=1e-14)

    def test_parity(self):
        rng = np.random.default_rng(3)
        for n in range(9):
            for u in rng.uniform(0.0, 1.0, 4):
                assert_allclose(p_poly(n, -u), (-1.0) ** n * p_poly(n, u), rtol=1e-12, atol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            p_poly(3, 1.5)
        with pytest.raises(DomainError):
            p_poly(-1, 0.5)

    def test_table_matches_scalar(self):
        u = 0.37
        table = p_poly_table(12, u)
        for n in range(13):
            assert table[n] == pytest.approx(p_poly(n, u), rel=1e-14)


class TestAsymptoticPolynomial:
    def test_against_exact_at_equator(self):
        exact = p_poly(50, 0.0)
        approx = p_poly_asymptotic(50, math.pi / 2.0)
        amplitude = math.sqrt(2.0 / (math.pi * 50))
        assert abs(approx - exact) < 0.01 * amplitude

    def test_relative_error_large_n(self):
        theta = 1.0
        exact = p_poly(200, math.cos(theta))
        approx = p_poly_asymptotic(200, theta)
        assert abs(approx - exact) < 1e-2 * abs(exact)

    def test_amplitude_decreasing_in_n(self):
        theta = 0.8
        amps = [math.sqrt(2.0 / (math.pi * n * math.sin(theta))) for n in range(1, 40)]
        assert all(b < a for a, b in zip(amps, amps[1:]))

    def test_variants_differ_by_phase(self):
        half = p_poly_asymptotic(10, 0.7)
        integer = _p_poly_integer_phase(10, 0.7)
        assert half != integer

    def test_endpoints_rejected(self):
        for theta in (0.0, math.pi):
            with pytest.raises(DomainError):
                p_poly_asymptotic(5, theta)


class TestDegreeFromOmega:
    def _scales(self, alpha):
        # alpha = R_c/(hbar v); with m=Lambda=1 (v=1) choose Omega = sqrt(2)/alpha
        p = PhysicalParams(m=1.0, g=1.0, Omega=math.sqrt(2.0) / alpha, Lambda=1.0, beta=1.0)
        return derive_scales(p)

    def test_zero_frequency(self):
        assert nu_from_omega(0.0, self._scales(1.0)) == 0.0

    def test_branch_point(self):
        # the square root is infinitely sensitive at the branch point, so the
        # last-ulp rounding of alpha shows up amplified as sqrt(eps)
        nu = nu_from_omega(0.5, self._scales(1.0))
        assert abs(nu - (-0.5)) < 1e-7

    def test_conical_value(self):
        nu = nu_from_omega(1.0, self._scales(1.0))
        assert_allclose(nu, -0.5 + 0.5j * math.sqrt(3.0), rtol=1e-14)

    def test_even_in_omega(self):
        d = self._scales(1.3)
        assert nu_from_omega(2.0, d) == nu_from_omega(-2.0, d)


class TestLegendrePairValues:
    def test_nu0_closed_forms(self):
        pair = legendre_pair(0, 0.5)
        assert pair.p == 1.0
        assert_allclose(pair.q.real, 0.5 * math.log(3.0), rtol=1e-14)

    def test_nu1_closed_forms(self):
        pair = legendre_pair(1, 0.0)
        assert pair.p == 0.0
        assert_allclose(pair.q.real, -1.0, rtol=1e-14)
        pair2 = legendre_pair(1, 0.6)
        assert_allclose(pair2.p.real, 0.6, rtol=1e-14)

    @pytest.mark.parametrize("nu", [0.5, -0.3, 2.5, -0.5 + 0.8j, -0.5 + 5.0j, -0.5])
    @pytest.mark.parametrize("u", [-0.7, -0.2, 0.3, 0.85])
    def test_against_mpmath(self, nu, u):
        pair = legendre_pair(nu, u, tol=1e-14)
        ref_p = complex(mp.legenp(nu, 0, u, type=2))
        ref_q = complex(mp.legenq(nu, 0, u, type=2))
        assert abs(pair.p - ref_p) < 1e-11 * max(1.0, abs(ref_p))
        assert abs(pair.q - ref_q) < 1e-11 * max(1.0, abs(ref_q))

    def test_conical_p_is_real(self):
        for mu in (0.8, 2.0, 5.0):
            for u in np.linspace(-0.9, 0.9, 7):
                pair = legendre_pair(-0.5 + 1j * mu, float(u))
                assert abs(pair.p.imag) < 1e-8

    def test_solves_legendre_ode(self):
        for nu in (0.5, -0.5 + 0.8j):
            pair_fn_p = lambda u: legendre_pair(nu, u, tol=1e-14).p
            pair_fn_q = lambda u: legendre_pair(nu, u, tol=1e-14).q
            for u0 in (-0.4, 0.2, 0.6):
                scale = abs(nu * (nu + 1)) * max(abs(pair_fn_p(u0)), 1.0) + 1.0
                assert abs(legendre_ode_residual(pair_fn_p, nu, u0)) < 1e-5 * scale
                scale_q = abs(nu * (nu + 1)) * max(abs(pair_fn_q(u0)), 1.0) + 1.0
                assert abs(legendre_ode_residual(pair_fn_q, nu, u0)) < 1e-5 * scale_q

    def test_domain_and_tolerance_validation(self):
        with pytest.raises(DomainError):
            legendre_pair(0.5, 1.0)
        with pytest.raises(DomainError):
            legendre_pair(0.5, -1.2)
        with pytest.raises(DomainError):
            legendre_pair(0.5, 0.3, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected_before_any_term(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            legendre_pair(-0.5 + 20j, -0.9, tol=tol)

    def test_nonconvergence_raises_accuracy_error(self):
        # nu = -1/2 + 0.8i, lambda = 1/4 + 0.8^2
        lam, u = np.array([0.25 + 0.8 * 0.8]), -1.0 + 1e-12
        err = _series_cap_error(lam, u, _p_series(lam, u, tol=1e-15, max_terms=2000), 1e-15)
        assert isinstance(err, AccuracyError)
        assert math.isfinite(err.achieved) and err.achieved > 1e-15
        message = str(err)
        for part in ("2000-term cap", "lambda = -nu(nu+1) = 0.89", "z = (1-u)/2 = 1", "close to -1"):
            assert part in message
        # the pair's P_nu(-u) converges, so it raises the same error for its open P_nu(u)
        with pytest.raises(AccuracyError) as raised:
            legendre_pair(-0.5 + 0.8j, u, tol=1e-15, max_terms=2000)
        assert str(raised.value) == message and raised.value.achieved == err.achieved

    def test_large_degree_cap_names_growth_not_the_endpoint(self):
        # at u = 0.3 the terms of lambda = 1e8 peak near j = 7 338, past the cap
        lam = np.array([1e8])
        err = _series_cap_error(lam, 0.3, _p_series(lam, 0.3, tol=1e-13, max_terms=1000), 1e-13)
        assert isinstance(err, AccuracyError)
        message = str(err)
        for part in ("1000-term cap", "lambda = -nu(nu+1) = 1e+08", "u = 0.3", "z = (1-u)/2 = 0.35", "still growing",
                     "peak near j = sqrt(lambda z/(1-z)) = 7338"):
            assert part in message
        assert "close to -1" not in message
        assert err.achieved > 1e-13

    def test_non_real_lambda_rejected(self):
        with pytest.raises(DomainError, match=r"nu = \(0\.3\+0\.2j\) has non-real nu\(nu\+1\)"):
            legendre_pair(0.3 + 0.2j, 0.1)

    def test_reports_terms_and_error_bound(self):
        pair = legendre_pair(-0.5 + 0.8j, 0.3, tol=1e-13)
        assert pair.terms > 0
        assert 0.0 <= pair.err_bound < 1e-10


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
    def test_analytic_value_nu0(self):
        # Q_0' = 1/(1-u^2) exactly, so the residual is pure FD error
        assert wronskian_check(0, 0.5) < 1e-8

    def test_integer_example(self):
        # at h = 1e-4 the residual is the analytic FD truncation
        # (h^2/6)|P Q''' - Q P'''| = (h^2/6)*10 at u = 0, nu = 3
        assert wronskian_check(3, 0.0, h=1e-4) < 2e-8
        # the default step reaches well below 1e-8
        assert wronskian_check(3, 0.0) < 1e-8

    def test_conical_example(self):
        assert wronskian_check(-0.5 + 1.5j, -0.2) < 1e-6

    @pytest.mark.parametrize("nu", [0, 1, 3, -0.5 + 0.8j])
    def test_across_degrees(self, nu):
        for u in np.linspace(-0.9, 0.9, 7):
            assert wronskian_check(nu, float(u)) < 1e-6

    def test_step_validation(self):
        with pytest.raises(DomainError):
            wronskian_check(0, 0.999999, h=0.1)


def _mp_p(lam, u):
    """P_nu(u) at 30 digits for lambda = -nu(nu+1).

    mpmath.legenp is the oracle.  For lambda near 1e5 it raises NoConvergence
    for z = (1-u)/2 near 0.75; there the 2F1 series is summed term by term
    in 30-digit arithmetic instead.
    """
    nu = -0.5 + mp.sqrt(mp.mpf(0.25) - lam)
    try:
        return mp.re(mp.legenp(nu, 0, u, type=2))
    except mp.libmp.NoConvergence:
        z = (1 - mp.mpf(u)) / 2
        term = value = mp.mpf(1)
        j = 0
        while abs(term) > mp.mpf(10) ** -32 * abs(value) or j * j < lam * z / (1 - z):
            term *= (j * (j + 1) + mp.mpf(lam)) * z / (j + 1) ** 2
            value += term
            j += 1
        return value


def _p_value(mant, exp2, i=0):
    """Row i of the kernel's P = mant * 2**exp2, exactly, as an mpf."""
    return mp.ldexp(mp.mpf(float(mant[i])), int(exp2[i]))


class TestSeriesKernel:
    @settings(max_examples=60, deadline=None)
    @given(log10_lam=st.floats(-3.0, 5.0), u=st.floats(-0.95, 0.95))
    def test_matsubara_degrees_against_mpmath(self, log10_lam, u):
        # every Matsubara degree has lambda = (alpha omega)^2 >= 0
        lam = 10.0**log10_lam
        mant, exp2, terms, err = _p_series(np.array([lam]), u, tol=1e-15)
        ref = _mp_p(lam, u)
        # 1e-12 relative in P keeps a product of four well inside the 1e-10
        # the spectral route is held to
        assert abs(_p_value(mant, exp2) / ref - 1) <= 1e-12 + err[0]
        assert 0.5 <= mant[0] < 1.0
        assert terms[0] % 128 == 0

    @settings(max_examples=40, deadline=None)
    @given(nu=st.sampled_from([0.5, 2.5, -0.3]), u=st.floats(-0.95, 0.95))
    def test_real_degrees_track_the_term_sign(self, nu, u):
        # lambda = -0.75 and -8.75 give negative leading ratios
        lam = -nu * (nu + 1.0)
        mant, exp2, _, err = _p_series(np.array([lam]), u, tol=1e-15)
        ref = mp.legenp(nu, 0, u, type=2)
        assert abs(_p_value(mant, exp2) - ref) <= 1e-13 * max(1.0, abs(ref)) + err[0] * abs(ref)

    def test_batch_rows_equal_single_rows(self):
        # 300 rows cross the 256-row block cap; each row is summed on its own
        lam = np.geomspace(1e-3, 1e6, 300)
        batch = _p_series(lam, -0.4, tol=1e-13)
        for i in (0, 17, 255, 256, 299):
            single = _p_series(lam[i:i + 1], -0.4, tol=1e-13)
            for b, s in zip(batch, single):
                assert b[i] == s[0]

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.floats(-3.0, 8.0), st.floats(-0.999, 0.999, exclude_min=True, exclude_max=True)
                      | st.sampled_from([0.0, -0.0])),
            min_size=1, max_size=6,
        ),
        picks=st.lists(st.integers(0, 5), min_size=129, max_size=300),
    )
    @example(values=[(8.0, 0.0), (8.0, -0.0), (-3.0, 0.9), (5.0, -0.9)], picks=[0, 1, 2, 3, 2, 1] * 30)
    @example(values=[(8.0, -0.5), (1.0, 0.3)], picks=[1, 0] * 70)
    def test_rows_with_their_own_u_equal_single_rows(self, values, picks):
        # (lambda, u) rows with repeats, +-0.0 and more rows than one group
        # holds; the cap is low, so that large degrees reach it quickly
        tol, cap = 1e-13, 16_384
        rows = [values[i % len(values)] for i in picks]
        lam = np.array([10.0 ** a for a, _ in rows])
        u = np.array([b for _, b in rows])
        single = {(a, b): _p_series(np.array([10.0 ** a]), b, tol, cap) for a, b in set(rows)}
        batch = _p_series(lam, u, tol, cap)
        # every row, open or not, is its single-row result; an open row has a
        # NaN mantissa, the cap as its terms and its achieved relative bound
        for i, key in enumerate(rows):
            for b, s in zip(batch, single[key]):
                assert b[i] == s[0] or np.isnan(b[i]) and np.isnan(s[0])
        open_rows = np.flatnonzero(np.isnan(batch[0]))
        assert (batch[2][open_rows] == cap).all()
        assert (batch[3][open_rows] > 0.0).all()
        err = _series_cap_error(lam, u, batch, tol)
        if not open_rows.size:
            assert err is None
            return
        # the message names the first open row's own u and counts the open rows
        message = str(err)
        assert float(re.search(r"u = (\S+), z =", message).group(1)) == u[open_rows[0]]
        assert f"({open_rows.size} open rows)" in message
        assert err.achieved == batch[3][open_rows[0]]

    def test_domain_error_names_the_offending_u(self):
        with pytest.raises(DomainError, match=r"got -1\.5$"):
            _p_series(np.ones(3), np.array([0.2, -1.5, 2.0]), tol=1e-13)

    def test_cap_names_the_open_row_of_its_own_u(self):
        # the row at u = 0.3 converges; the one near u = -1 is still open at the cap
        lam, u = np.array([0.89, 0.89]), np.array([0.3, -1.0 + 1e-12])
        series = _p_series(lam, u, tol=1e-15, max_terms=2000)
        assert not np.isnan(series[0][0]) and np.isnan(series[0][1])
        message = str(_series_cap_error(lam, u, series, 1e-15))
        for part in ("2000-term cap", "u = -0.999999999999,", "z = (1-u)/2 = 1 ", "(1 open rows)"):
            assert part in message

    @pytest.mark.parametrize("nu", [-0.3, 0.5, -0.5 + 0.8j, -0.5 + 40.0j])
    def test_pair_sums_both_series_in_one_call(self, nu, monkeypatch):
        # P_nu(u) and P_nu(-u) from one two-row call, each equal to its own
        # single-row series, and the pair's bookkeeping built from the two
        from trapgas import legendre

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _p_series(*args, **kwargs)

        monkeypatch.setattr(legendre, "_p_series", counted)
        u = -0.35
        pair = legendre_pair(nu, u)
        assert len(calls) == 1
        nu = complex(nu)
        lam = np.array([0.25 + nu.imag**2 if nu.imag else -nu.real * (nu.real + 1.0)])
        (m_u, e_u, t_u, r_u), (m_mu, e_mu, t_mu, r_mu) = (_p_series(lam, v, 1e-13) for v in (u, -u))
        assert pair.p == complex(float(np.ldexp(m_u, e_u)[0]))
        assert pair.terms == t_u[0] + t_mu[0]
        assert pair.err_bound == r_u[0] + (r_u[0] + r_mu[0])
        if not nu.imag:
            a = math.pi * nu.real
            p_u, p_mu = float(np.ldexp(m_u, e_u)[0]), float(np.ldexp(m_mu, e_mu)[0])
            assert pair.q == complex((math.pi / 2.0) * (math.cos(a) * p_u - p_mu) / math.sin(a))

    def test_polynomial_degree_terminates(self):
        # lambda = -n(n+1): the series ends after n + 1 terms, P = P_n
        mant, exp2, terms, err = _p_series(np.array([-6.0, -12.0]), 0.3, tol=1e-15)
        assert_allclose(np.ldexp(mant, exp2), [p_poly(2, 0.3), p_poly(3, 0.3)], rtol=1e-14)
        assert err.tolist() == [0.0, 0.0]
        assert terms.tolist() == [128, 128]

    def test_conical_q_matches_connection_formula(self):
        # legendre_pair's closed-form phases against the connection formula
        # in plain complex arithmetic, from the kernel's P(+-u)
        nu = -0.5 + 1.5j
        lam = np.array([0.25 + 1.5**2])
        for u in (-0.5, 0.2, 0.7):
            pair = legendre_pair(nu, u, tol=1e-14)
            p_u, p_mu = (float(np.ldexp(*_p_series(lam, v, tol=1e-14)[:2])[0]) for v in (u, -u))
            naive_q = math.pi / (2.0 * cmath.sin(math.pi * nu)) * (cmath.cos(math.pi * nu) * p_u - p_mu)
            assert pair.p == p_u
            assert abs(pair.q - naive_q) < 1e-13 * abs(naive_q)

    def test_large_degree_log_magnitude(self):
        # P_{-1/2+i mu}(cos theta) ~ exp(mu theta)/sqrt(2 pi mu sin theta)
        mu = 300.0
        theta = 1.1
        mant, exp2, _, _ = _p_series(np.array([0.25 + mu * mu]), math.cos(theta), tol=1e-15)
        log_p = math.log(mant[0]) + exp2[0] * math.log(2.0)
        expected = mu * theta - 0.5 * math.log(2.0 * math.pi * mu * math.sin(theta))
        assert mant[0] > 0.0
        assert abs(log_p - expected) < 0.01 * abs(expected)

    def test_pair_finite_where_cosh_pi_mu_overflows(self):
        # cosh(300 pi) overflows float64; Re Q ~ exp(-mu theta) stays tiny and finite
        mu = 300.0
        theta = 1.1
        with pytest.raises(OverflowError):
            math.cosh(math.pi * mu)
        pair = legendre_pair(-0.5 + 1j * mu, math.cos(theta))
        assert all(math.isfinite(v) for v in (pair.p.real, pair.q.real, pair.q.imag))
        assert 0.0 < pair.q.real < 1e-100
        assert pair.q.imag == pytest.approx(-(math.pi / 2.0) * pair.p.real, rel=1e-15)

    def test_p_matches_plain_at_moderate_degree(self):
        mant, exp2, _, _ = _p_series(np.array([0.25 + 25.0]), -0.7, tol=1e-15)
        ref = complex(mp.legenp(-0.5 + 5j, 0, -0.7, type=2))
        assert abs(np.ldexp(mant[0], exp2[0]) - ref) < 1e-10 * abs(ref)
