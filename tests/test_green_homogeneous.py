import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapgas import (
    CorrelatorQuery,
    DomainError,
    HomogSeriesControl,
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
        ctl = HomogSeriesControl(l_max=16, n_max=32)
        a = homog_series(0.25, 0.25, -0.5, 0.125, p, d, ctl)
        shift_x, shift_t = 0.125, 0.0625  # dyadic: separations unchanged exactly
        b = homog_series(0.25 + shift_x, 0.25 + shift_t, -0.5 + shift_x, 0.125 + shift_t, p, d, ctl)
        assert a.value == b.value

    def test_value_is_real_and_tau_reflection_symmetric(self):
        p, d = setup_params()
        ctl = HomogSeriesControl(l_max=24, n_max=48)
        g1 = homog_series(0.3, 0.4, 0.1, 0.1, p, d, ctl)
        g2 = homog_series(0.3, 0.1, 0.1, 0.4, p, d, ctl)  # dtau -> -dtau
        assert g1.value.imag == 0.0
        assert g1.value == g2.value.conjugate() == g2.value

    def test_periodicity(self):
        p, d = setup_params()
        ctl = HomogSeriesControl(l_max=24, n_max=48)
        base = homog_series(0.3, 0.2, 0.1, 0.0, p, d, ctl)
        tau_shift = homog_series(0.3, 0.2 + p.beta, 0.1, 0.0, p, d, ctl)
        x_shift = homog_series(0.3 + 2.0 * d.R_c, 0.2, 0.1, 0.0, p, d, ctl)
        assert_allclose(tau_shift.value.real, base.value.real, rtol=1e-9)
        assert_allclose(x_shift.value.real, base.value.real, rtol=1e-9)

    def test_bernoulli_tail_reproduces_frequency_identity(self):
        # the accelerated k=0 line equals the closed Bernoulli form to < 1e-8
        p, d = setup_params(beta=1.3)
        theta = 0.27
        closed = (p.beta**2 / 2.0) * (theta**2 - theta + 1.0 / 6.0)
        brute = 2.0 * (p.beta / (2 * math.pi)) ** 2 * brute_frequency_sum(theta, 2_000_000)
        assert abs(closed - brute) < 1e-8 * max(1.0, abs(closed))

    def test_coincident_arguments_flagged(self):
        # the Bernoulli form resums only the k=0 line; the double block still
        # diverges with the cutoffs, so the value is flagged
        p, d = setup_params()
        for tau in (0.5, 0.5 + p.beta):
            g = homog_series(0.2, tau, 0.2, 0.5, p, d, HomogSeriesControl(l_max=8, n_max=8))
            assert g.divergent and g.warning is not None

    def test_truncation_estimate_shrinks_with_cutoffs(self):
        p, d = setup_params()
        small = homog_series(0.4, 0.2, -0.1, 0.0, p, d, HomogSeriesControl(l_max=8, n_max=16))
        large = homog_series(0.4, 0.2, -0.1, 0.0, p, d, HomogSeriesControl(l_max=64, n_max=128))
        assert 0.0 < large.trunc_err < small.trunc_err

    @pytest.mark.parametrize("l_max, n_max", [(120, 1600), (7, 3000), (3, 9000), (64, 256)])
    def test_double_block_in_row_blocks_is_the_whole_block_sum_bitwise(self, l_max, n_max):
        # the double block formed whole, as one [l_max x n_max] array: row
        # sums over n, then one sum over them.  Row blocks that divide l_max,
        # that leave a remainder, and a row longer than one block
        p, d = setup_params(Omega=math.sqrt(2.0) / 20.0)
        dx, dtau = 1.3, 0.3
        g = homog_series(dx, dtau, 0.0, 0.0, p, d, HomogSeriesControl(l_max=l_max, n_max=n_max))
        omega = (2.0 * math.pi / p.beta) * np.arange(1, l_max + 1, dtype=float)
        n_arr = np.arange(1, n_max + 1, dtype=float)
        e_k = p.hbar * d.v * (math.pi / d.R_c) * n_arr
        cos_x = np.cos((math.pi / d.R_c) * n_arr * dx)
        whole = 4.0 * np.cos(omega * dtau)[:, None] * cos_x[None, :] / (omega[:, None] ** 2 + e_k[None, :] ** 2)
        line_k0 = (p.beta**2 / 2.0) * ((dtau / p.beta) ** 2 - dtau / p.beta + 1.0 / 6.0)
        line_w0 = float(np.sum(2.0 * cos_x / e_k**2))
        expected = -p.g / (2.0 * p.beta * d.R_c) * (line_k0 + line_w0 + float(np.sum(whole.sum(axis=1))))
        assert g.value == expected

    def test_control_validation(self):
        with pytest.raises(DomainError):
            HomogSeriesControl(l_max=0)
        with pytest.raises(DomainError):
            HomogSeriesControl(n_max=0)


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
        ctl = HomogSeriesControl(l_max=16, n_max=32)
        pair = CorrelatorQuery(0.3, 0.2, -0.1, 0.0)
        diff = green_difference(partial(homog_series, p=p, d=d, ctl=ctl), pair, pair)
        assert diff.value == 0.0

    def test_method_mismatch_rejected(self):
        p, d = setup_params()
        ctl = HomogSeriesControl(l_max=8, n_max=8)
        toggle = {"n": 0}

        def alternating(x, tau, xp, taup):
            toggle["n"] += 1
            if toggle["n"] % 2:
                return homog_series(x, tau, xp, taup, p, d, ctl)
            return homog_asymptotic_highT(x, tau, xp, taup, p, d)

        with pytest.raises(UsageError):
            green_difference(alternating, CorrelatorQuery(0.3, 0.2, -0.1, 0.0), CorrelatorQuery(0.4, 0.1, 0.0, 0.0))

    def test_divergent_endpoint_rejected(self):
        p, d = setup_params()
        f = partial(homog_asymptotic_highT, p=p, d=d)
        with pytest.raises(UsageError):
            green_difference(f, CorrelatorQuery(0.1, 0.0, 0.1, 0.0), CorrelatorQuery(0.3, 0.0, 0.0, 0.0))
