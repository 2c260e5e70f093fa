import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapgas import (
    CorrelatorQuery,
    DomainError,
    PhysicalParams,
    UsageError,
    derive_scales,
    green_difference,
    homog_asymptotic_highT,
    homog_asymptotic_lowT,
    homog_series,
)
from trapgas.green_homogeneous import log_2sin_abs, log_2sinh_abs
from trapgas.oracle import brute_frequency_sum


def setup_params(**over):
    base = dict(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
    base.update(over)
    p = PhysicalParams(**base)
    return p, derive_scales(p)


class TestStableLogHelpers:
    def test_log_2sinh_small_and_large(self):
        for z in (0.3 + 0.2j, 2.0 - 1.1j, 400.0 + 0.5j):
            expected = 400.0 + math.log(abs(1 - np.exp(-2 * (400.0 + 0.5j)))) if z.real == 400.0 else math.log(2.0 * abs(np.sinh(z)))
            assert_allclose(log_2sinh_abs(z), expected, rtol=1e-12)

    def test_log_2sin_matches_identity(self):
        # |sin(a+ib)| = |sinh(b+ia)| (space/time swap structure, three spots)
        for a, b in ((0.4, 0.2), (1.1, -0.7), (2.5, 0.05)):
            z = complex(a, b)
            assert_allclose(log_2sin_abs(z), math.log(2.0 * abs(np.sin(z))), rtol=1e-12)
            assert_allclose(log_2sin_abs(z), log_2sinh_abs(complex(abs(b), a)), rtol=1e-12)

    def test_divergence_at_zero(self):
        assert log_2sinh_abs(0j) == -math.inf


class TestHomogSeries:
    def test_depends_only_on_separations_bit_identical(self):
        p, d = setup_params()
        a = homog_series(0.25, 0.25, -0.5, 0.125, p, d, n_max=32)
        shift_x, shift_t = 0.125, 0.0625  # dyadic: separations unchanged exactly
        b = homog_series(0.25 + shift_x, 0.25 + shift_t, -0.5 + shift_x, 0.125 + shift_t, p, d, n_max=32)
        assert a.value == b.value

    def test_value_is_real_and_tau_reflection_symmetric(self):
        p, d = setup_params()
        g1 = homog_series(0.3, 0.4, 0.1, 0.1, p, d, n_max=48)
        g2 = homog_series(0.3, 0.1, 0.1, 0.4, p, d, n_max=48)  # dtau -> -dtau
        assert g1.value.imag == 0.0
        assert g1.value == g2.value.conjugate() == g2.value

    def test_periodicity(self):
        p, d = setup_params()
        base = homog_series(0.3, 0.2, 0.1, 0.0, p, d, n_max=48)
        tau_shift = homog_series(0.3, 0.2 + p.beta, 0.1, 0.0, p, d, n_max=48)
        x_shift = homog_series(0.3 + 2.0 * d.R_c, 0.2, 0.1, 0.0, p, d, n_max=48)
        assert_allclose(tau_shift.value.real, base.value.real, rtol=1e-9)
        assert_allclose(x_shift.value.real, base.value.real, rtol=1e-9)

    def test_tiny_negative_dtau_is_dtau_zero(self):
        # (dtau/beta) % 1.0 rounds dtau = -1e-300 to t = beta; the mode factor
        # is even under t <-> beta - t, so the row is the dtau = 0 row
        p, d = setup_params()
        at_zero = homog_series(0.3, 0.0, 0.1, 0.0, p, d, n_max=48)
        below = homog_series(0.3, -1e-300, 0.1, 0.0, p, d, n_max=48)
        assert below.value == at_zero.value and below.trunc_err == at_zero.trunc_err

    def test_bernoulli_tail_reproduces_frequency_identity(self):
        # the accelerated k=0 line equals the closed Bernoulli form to < 1e-8
        p, d = setup_params(beta=1.3)
        theta = 0.27
        closed = (p.beta**2 / 2.0) * (theta**2 - theta + 1.0 / 6.0)
        brute = 2.0 * (p.beta / (2 * math.pi)) ** 2 * brute_frequency_sum(theta, 2_000_000)
        assert abs(closed - brute) < 1e-8 * max(1.0, abs(closed))

    @pytest.mark.parametrize("beta, dx, theta", [(1.0, 0.3, 0.0), (1.0, 0.3, 0.3), (0.05 * math.sqrt(2.0), 0.7, 0.27)])
    def test_each_wavenumber_is_its_whole_frequency_sum(self, beta, dx, theta):
        # every wavenumber's Matsubara sum, and the k=0 line, by mpmath.nsum
        # over all l: the partial sums over n <= n_max agree to 1e-13
        p, d = setup_params(beta=beta)
        with mp.workdps(30):
            b, th, r_c = mp.mpf(p.beta), mp.mpf(theta), mp.mpf(d.R_c)

            def frequency_sum(e, lo):
                return mp.nsum(lambda l: mp.cos(2 * mp.pi * l * th) / ((2 * mp.pi * l / b) ** 2 + e**2), [lo, mp.inf])

            pref = -mp.mpf(p.g) / (2 * b * r_c)
            acc = 2 * frequency_sum(0, 1)
            for n in range(1, 9):
                e = mp.mpf(p.hbar) * mp.mpf(d.v) * mp.pi * n / r_c
                acc += 2 * mp.cos(mp.pi * n * mp.mpf(dx) / r_c) * frequency_sum(e, -mp.inf)
                g = homog_series(dx, theta * p.beta, 0.0, 0.0, p, d, n_max=n)
                assert abs(g.value - float(pref * acc)) < 1e-13, n

    @pytest.mark.parametrize("beta_over_alpha", [0.05, 1.0, 100.0])
    @pytest.mark.parametrize("n_max", [1, 8, 256, 1600])
    def test_trunc_err_bounds_the_distance_to_a_far_cutoff(self, beta_over_alpha, n_max):
        # dtau = 0, dtau != 0, and dtau past beta and below 0; the first row
        # is the default green grid's x1 = 0.1 R_c, x2 = 0.08 R_c
        p, d = setup_params(beta=beta_over_alpha * math.sqrt(2.0))
        x2 = float(np.linspace(-0.8 * d.R_c, 0.8 * d.R_c, 41)[22])
        rows = [(0.1 * d.R_c, x2, 0.0), (0.3, 0.0, 0.0), (0.7, 0.0, 0.3 * p.beta), (0.2, 0.0, 1.4 * p.beta),
                (1.3 * d.R_c, 0.0, -0.1 * p.beta), (0.02, 0.0, 1e-3 * p.beta)]
        for x, xp, dtau in rows:
            g = homog_series(x, dtau, xp, 0.0, p, d, n_max=n_max)
            far = homog_series(x, dtau, xp, 0.0, p, d, n_max=400_000)
            assert abs(g.value - far.value) <= g.trunc_err, (x, xp, dtau)

    def test_coincident_arguments_flagged(self):
        # the Bernoulli form resums only the k=0 line; the mode sum still
        # diverges with n_max, so the value is flagged and its bound infinite
        p, d = setup_params()
        for tau in (0.5, 0.5 + p.beta):
            g = homog_series(0.2, tau, 0.2, 0.5, p, d, n_max=8)
            assert g.divergent and g.warning is not None and g.trunc_err == math.inf

    def test_truncation_estimate_shrinks_with_cutoffs(self):
        p, d = setup_params()
        small = homog_series(0.4, 0.2, -0.1, 0.0, p, d, n_max=16)
        large = homog_series(0.4, 0.2, -0.1, 0.0, p, d, n_max=128)
        assert 0.0 < large.trunc_err < small.trunc_err

    def test_n_max_validation(self):
        p, d = setup_params()
        with pytest.raises(DomainError, match="n_max must be >= 1, got 0"):
            homog_series(0.4, 0.2, -0.1, 0.0, p, d, n_max=0)

    @pytest.mark.parametrize("keyword", [{"ctl": None}, {"l_max": 64}])
    def test_takes_no_frequency_cutoff(self, keyword):
        p, d = setup_params()
        with pytest.raises(TypeError):
            homog_series(0.4, 0.2, -0.1, 0.0, p, d, **keyword)


class TestAsymptoticForms:
    def test_highT_pure_imaginary_time_value(self):
        p, d = setup_params()
        g = homog_asymptotic_highT(0.0, p.beta / 2.0, 0.0, 0.0, p, d)
        # sinh(i pi/2) = i, so the log term is ln 2 and the quadratic vanishes
        hv = p.hbar * d.v
        assert_allclose(g.value.real, p.g * math.log(2.0) / (2.0 * math.pi * hv), rtol=1e-12)
        assert g.const_free

    def test_highT_divergence_marker(self):
        p, d = setup_params()
        g = homog_asymptotic_highT(0.1, 0.2, 0.1, 0.2, p, d)
        assert g.divergent

    def test_lowT_divergence_marker(self):
        p, d = setup_params()
        assert homog_asymptotic_lowT(0.0, 0.0, 0.0, 0.0, p, d).divergent

    def test_quadratic_term_growth_dominates_at_large_separation(self):
        # growth-rate comparison: the increment of the quadratic term between
        # two large separations exceeds the increment of the log term
        p, d = setup_params(Omega=math.sqrt(2.0) / 20.0)  # R_c = 20
        hv = p.hbar * d.v

        def pieces(dx):
            log_term = (p.g / (2.0 * math.pi * hv)) * log_2sinh_abs(
                (math.pi / (p.hbar * p.beta * d.v)) * complex(dx, 0.0)
            )
            quad_term = -(p.g / (4.0 * p.beta * d.R_c)) * dx**2 / hv**2
            return log_term, quad_term

        l1, q1 = pieces(1.5 * d.R_c)
        l2, q2 = pieces(1.9 * d.R_c)
        assert abs(q2 - q1) > abs(l2 - l1)
        g = homog_asymptotic_highT(0.95 * d.R_c, 0.0, -0.95 * d.R_c, 0.0, p, d)
        assert_allclose(g.value.real, l2 + q2, rtol=1e-12)

    def test_window_enforced(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            homog_asymptotic_highT(2.5 * d.R_c, 0.0, 0.0, 0.0, p, d)
        with pytest.raises(DomainError):
            homog_asymptotic_lowT(0.0, 1.5 * p.beta, 0.0, 0.0, p, d)

    def test_space_time_swap_structure(self):
        # with hbar v = 1 the two log arguments coincide under the exchange
        # (|dx| + i dtau) -> (dtau + i |dx|), checked at three points
        p, d = setup_params()
        for dx, dtau in ((0.3, 0.1), (0.05, 0.4), (0.2, 0.2)):
            z_high = (math.pi / (p.hbar * p.beta * d.v)) * complex(dx, dtau)
            z_low = (math.pi / (2.0 * d.R_c)) * complex(dx, dtau)
            assert_allclose(log_2sin_abs(z_low), log_2sinh_abs(complex(z_low.imag, z_low.real)), rtol=1e-12)
            assert_allclose(log_2sinh_abs(z_high), log_2sin_abs(complex(z_high.imag, z_high.real)), rtol=1e-12)


class TestGreenDifference:
    def test_identical_pairs_cancel_exactly(self):
        p, d = setup_params()
        pair = CorrelatorQuery(0.3, 0.2, -0.1, 0.0)
        diff = green_difference(partial(homog_series, p=p, d=d, n_max=32), pair, pair)
        assert diff.value == 0.0

    def test_method_mismatch_rejected(self):
        p, d = setup_params()
        toggle = {"n": 0}

        def alternating(x, tau, xp, taup):
            toggle["n"] += 1
            if toggle["n"] % 2:
                return homog_series(x, tau, xp, taup, p, d, n_max=8)
            return homog_asymptotic_highT(x, tau, xp, taup, p, d)

        with pytest.raises(UsageError):
            green_difference(alternating, CorrelatorQuery(0.3, 0.2, -0.1, 0.0), CorrelatorQuery(0.4, 0.1, 0.0, 0.0))

    def test_divergent_endpoint_rejected(self):
        p, d = setup_params()
        f = partial(homog_asymptotic_highT, p=p, d=d)
        with pytest.raises(UsageError):
            green_difference(f, CorrelatorQuery(0.1, 0.0, 0.1, 0.0), CorrelatorQuery(0.3, 0.0, 0.0, 0.0))
