import functools
import math
import random

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapgas import (
    AccuracyError,
    DomainError,
    GreenValue,
    PhysicalParams,
    UsageError,
    derive_scales,
    green_difference,
    homog_asymptotic_highT,
    homog_asymptotic_lowT,
    homog_series,
)
from trapgas.green_homogeneous import (
    _MODE_CAP,
    _bernoulli_b2,
    _log_abs_1_minus_exp,
    _thermal_factor,
    log_2sin_abs,
    log_2sinh_abs,
)
from trapgas.green_trapped import lowT_legendre_series_many
from trapgas.model import CorrelatorQuery
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
        assert _log_abs_1_minus_exp(0j) == -math.inf

    def test_against_mpmath_at_small_and_large_z(self):
        # ln|1 - e^{-z}| and ln(2 |sinh z|) within 2 ulp of max(1, |reference|) of 40-digit mpmath:
        # at z = 1e-9 and 1e-12 (1 + i), where 1 - e^{-z} cancels, and at 400 random z with |Re z|
        # from 1e-14 to 100
        rng = random.Random(41)
        zs = [1e-9 + 0j, 1e-12 * (1 + 1j), 1e-300 + 0j, 0.5 + 3.0j, 700.0 - 2.0j]
        zs += [complex(10.0 ** rng.uniform(-14, 2), rng.uniform(-8.0, 8.0) * 10.0 ** rng.choice((-12, -4, 0)))
               for _ in range(400)]
        with mp.workdps(40):
            for z in zs:
                for got, want in ((_log_abs_1_minus_exp(z), mp.log(abs(mp.expm1(-mp.mpc(z))))),
                                  (log_2sinh_abs(z / 2.0), mp.log(2 * abs(mp.sinh(mp.mpc(z / 2.0)))))):
                    assert abs(got - want) <= 2.0 * np.spacing(max(1.0, abs(float(want)))), z


def _unsplit_reference(dx: float, t: float, p, d):
    """-(g/(2 R_c)) [(beta/2) B_2(t/beta) + sum_{n>=1} 2 cos(k_n dx) phi(E_n)] at 40 digits, 0 < t <=
    beta/2.  phi's Bose factor 1/(1 - e^{-beta E}) is expanded as a geometric series, so that each
    image s = t + j beta or (j + 1) beta - t contributes sum_n cos(k_n dx) e^{-E_n s}/E_n =
    -ln|1 - e^{-(E_1 s - i k_1 dx)}| / E_1; the images are added until they fall below 1e-30."""
    with mp.workdps(40):
        beta, t = mp.mpf(p.beta), mp.mpf(t)
        e_1 = mp.mpf(p.hbar) * mp.mpf(d.v) * mp.pi / mp.mpf(d.R_c)
        sin2 = mp.sin(mp.pi * mp.mpf(dx) / (2 * mp.mpf(d.R_c))) ** 2
        theta = t / beta
        acc = beta / 2 * (theta * theta - theta + mp.mpf(1) / 6)
        for j in range(10**6):
            add = 0
            for s in (t + j * beta, (j + 1) * beta - t):
                w = mp.exp(-e_1 * s)
                add -= mp.log((1 - w) ** 2 + 4 * w * sin2) / (2 * e_1)
            acc += add
            if abs(add) < mp.mpf(10) ** -30 * (1 + abs(acc)):
                break
        return -mp.mpf(p.g) / (2 * mp.mpf(d.R_c)) * acc


@functools.lru_cache(maxsize=None)
def _series_reference(beta_over_alpha: float, dx_over_rc: float, dtau_over_beta: float) -> float:
    """The unsplit series at (dx, dtau); at dtau = 0, where it converges only conditionally, its
    Richardson limit from dtau = h, h/2 and h/4, h = 1e-3 of the time scale of the nearest image's
    separation, with the h^2 and h^4 terms of the even, smooth G removed."""
    p, d = setup_params(beta=beta_over_alpha * math.sqrt(2.0))
    dx = dx_over_rc * d.R_c
    t = abs(math.remainder(dtau_over_beta * p.beta, p.beta))
    if t > 0.0:
        return float(_unsplit_reference(dx, t, p, d))
    h = 1e-3 * min(abs(math.remainder(dx, 2.0 * d.R_c)) / (p.hbar * d.v), p.beta)
    g1, g2, g4 = (_unsplit_reference(dx, h / k, p, d) for k in (1, 2, 4))
    with mp.workdps(40):
        return float((64 * g4 - 20 * g2 + g1) / 45)


_B2_ZERO = 0.5 - 0.5 / math.sqrt(3.0)


class TestHomogSeries:
    def test_depends_only_on_separations_bit_identical(self):
        p, d = setup_params()
        a = homog_series(0.25, 0.25, -0.5, 0.125, p, d)
        shift_x, shift_t = 0.125, 0.0625  # dyadic: separations unchanged exactly
        b = homog_series(0.25 + shift_x, 0.25 + shift_t, -0.5 + shift_x, 0.125 + shift_t, p, d)
        assert a.value == b.value

    def test_value_is_real_and_tau_reflection_symmetric(self):
        p, d = setup_params()
        g1 = homog_series(0.3, 0.4, 0.1, 0.1, p, d)
        g2 = homog_series(0.3, 0.1, 0.1, 0.4, p, d)  # dtau -> -dtau
        assert g1.value.imag == 0.0
        assert g1.value == g2.value.conjugate() == g2.value

    def test_periodicity(self):
        p, d = setup_params()
        base = homog_series(0.3, 0.2, 0.1, 0.0, p, d)
        tau_shift = homog_series(0.3, 0.2 + p.beta, 0.1, 0.0, p, d)
        x_shift = homog_series(0.3 + 2.0 * d.R_c, 0.2, 0.1, 0.0, p, d)
        assert_allclose(tau_shift.value.real, base.value.real, rtol=1e-9)
        assert_allclose(x_shift.value.real, base.value.real, rtol=1e-9)

    def test_tiny_negative_dtau_is_dtau_zero(self):
        # dtau = -1e-300 folds to t = 1e-300, which moves neither B_2 nor the
        # logarithm nor the thermal remainder: the row is the dtau = 0 row
        p, d = setup_params()
        at_zero = homog_series(0.3, 0.0, 0.1, 0.0, p, d)
        below = homog_series(0.3, -1e-300, 0.1, 0.0, p, d)
        assert below.value == at_zero.value and below.trunc_err == at_zero.trunc_err

    def test_bernoulli_tail_reproduces_frequency_identity(self):
        # the accelerated k=0 line equals the closed Bernoulli form to < 1e-8
        p, d = setup_params(beta=1.3)
        theta = 0.27
        closed = (p.beta**2 / 2.0) * (theta**2 - theta + 1.0 / 6.0)
        brute = 2.0 * (p.beta / (2 * math.pi)) ** 2 * brute_frequency_sum([theta], 2_000_000)[0]
        assert abs(closed - brute) < 1e-8 * max(1.0, abs(closed))

    @pytest.mark.parametrize("beta, theta", [(1.0, 0.0), (1.0, 0.3), (0.05 * math.sqrt(2.0), 0.27)])
    def test_each_wavenumber_is_its_whole_frequency_sum(self, beta, theta):
        # the k = 0 line, (beta/2) B_2, and each wavenumber's thermal factor
        # phi(E_n) are their Matsubara sums over all l, by mpmath.nsum, to 1e-13
        p, d = setup_params(beta=beta)
        with mp.workdps(30):
            b, th = mp.mpf(p.beta), mp.mpf(theta)

            def frequency_sum(e, lo):
                return mp.nsum(lambda l: mp.cos(2 * mp.pi * l * th) / ((2 * mp.pi * l / b) ** 2 + e**2), [lo, mp.inf])

            line = (p.beta / 2.0) * _bernoulli_b2(theta)
            assert abs(line - float(2 * frequency_sum(0, 1) / b)) < 1e-13 * max(1.0, abs(line))
            for n in range(1, 9):
                e = p.hbar * d.v * math.pi * n / d.R_c
                phi = float(_thermal_factor(e, theta * p.beta, p.beta))
                assert abs(phi - float(frequency_sum(mp.mpf(e), -mp.inf) / b)) < 1e-13 * phi, n

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    @pytest.mark.parametrize("beta_over_alpha", [0.05, 0.707, 1.0, 10.0, 100.0, 300.0])
    def test_trunc_err_bounds_the_unsplit_series(self, beta_over_alpha, tol):
        # against a 40-digit sum of the series as written, phi unsplit: at dtau = 0, at B_2's two zeros
        # to within 1e-10, at beta/2, beyond beta and below 0, from the folded dx = 1e-6 R_c to the
        # image-near 1.9 R_c.  Dropping the logarithm, summing phi for r, counting B_2's rounding as
        # |B_2| or leaving the tail bound's 1/(1 - e^{-E_1 (beta - t)}) out each fails a cell
        p, d = setup_params(beta=beta_over_alpha * math.sqrt(2.0))
        for dx_over_rc in (1e-6, 0.01, 0.1, 0.7, 1.9):
            for dtau_over_beta in (0.0, _B2_ZERO + 1e-10, 1.0 - _B2_ZERO - 1e-10, 0.5, 1.3, -0.3):
                g = homog_series(dx_over_rc * d.R_c, dtau_over_beta * p.beta, 0.0, 0.0, p, d, tol=tol)
                want = _series_reference(beta_over_alpha, dx_over_rc, dtau_over_beta)
                assert abs(g.value - want) <= g.trunc_err, (dx_over_rc, dtau_over_beta)
                assert 0.0 < g.trunc_err <= tol + 1e-13 * max(1.0, abs(want))

    def test_coincident_arguments_flagged(self):
        # at dx = 0 and dtau = 0 mod beta the logarithm diverges: the value is
        # -inf, flagged divergent, and its bound infinite
        p, d = setup_params()
        for tau in (0.5, 0.5 + p.beta):
            g = homog_series(0.2, tau, 0.2, 0.5, p, d)
            assert g.divergent and g.trunc_err == math.inf and g.value == -math.inf

    def test_modes_grow_as_tol_falls(self):
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        loose = homog_series(0.4, 0.02, -0.1, 0.0, p, d, tol=1e-4)
        tight = homog_series(0.4, 0.02, -0.1, 0.0, p, d, tol=1e-12)
        assert 0 < loose.meta["modes"] < tight.meta["modes"] and tight.trunc_err < loose.trunc_err

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_is_a_domain_error(self, tol):
        p, d = setup_params()
        with pytest.raises(DomainError, match="tolerance must be positive and finite"):
            homog_series(0.4, 0.2, -0.1, 0.0, p, d, tol=tol)

    def test_refuses_past_the_mode_cap(self):
        # at beta/alpha = 1e-6 the thermal remainder falls by e^{-pi 1e-6 / 2} a mode at dtau = 0.5 beta:
        # about 1.7e7 modes would meet tol, beyond the cap
        p, d = setup_params(beta=1e-6 * math.sqrt(2.0))
        with pytest.raises(AccuracyError, match=f"^homog_series needs .* terms .* at t = .*: the bound at the cap of "
                                                f"{_MODE_CAP} terms is " r"\d\.\d{3}e-\d\d$"):
            homog_series(0.4, 0.5 * p.beta, -0.1, 0.0, p, d, tol=1e-12)

    def test_refuses_where_its_tail_bound_overflows(self):
        # at beta = 1e-300 and R_c = 1.4e20, r(E) ~ 1/(2 beta E^2) overflows a float at every count to
        # the cap, E_1 beta does not underflow to 0, and the tail bound is inf: the AccuracyError names
        # the overflow, not a count of terms beyond the cap, and the same holds for the Legendre mode sum
        p, d = setup_params(g=8.922262808634506e-196, Omega=1e-20, beta=1e-300)
        with pytest.raises(AccuracyError, match=r"^the tail bound of homog_series overflows a float at t = 0\.0: "
                                                f"it is inf at the cap of {_MODE_CAP} terms$") as err:
            homog_series(0.4, 0.0, -0.1, 0.0, p, d)
        assert err.value.achieved == math.inf
        [got] = lowT_legendre_series_many([CorrelatorQuery(0.4, 5e-301, -0.1, 0.0)], p, d)
        assert isinstance(got, AccuracyError) and str(got) == (
            f"the tail bound of lowT_legendre_series overflows a float at t = 5e-301: it is inf at the cap of "
            f"{_MODE_CAP} terms")

    @pytest.mark.parametrize("keyword", [{"ctl": None}, {"l_max": 64}, {"n_max": 256}])
    def test_takes_no_cutoff(self, keyword):
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

    @pytest.mark.parametrize("form", [homog_asymptotic_highT, homog_asymptotic_lowT])
    def test_forms_refuse_where_4_beta_rc_underflows(self, form):
        # the curvature term g dx^2/(4 beta R_c) divided by 0 once 4 beta R_c underflowed
        p, d = setup_params(hbar=1e100, g=1e-20, Lambda=1e-160, beta=1e-300)
        with pytest.raises(DomainError, match=r"^4 beta R_c underflows to 0 at beta = 1e-300, R_c = "):
            form(0.5 * d.R_c, 0.0, 0.0, 0.0, p, d)

    def test_highT_refuses_where_the_log_argument_overflows(self):
        # pi/(hbar beta v) = 3.1e300 at beta = 1e-300: at |dx| = 0.5 R_c = 7e149 the log's argument is inf, where
        # it once made G = inf - inf; at |dx| = 1 it is finite, and so is G
        p, d = setup_params(Omega=1e-150, beta=1e-300)
        with pytest.raises(DomainError, match=r"^pi zeta/\(hbar beta v\) = \(inf\+0j\): the argument of the log "
                                              r"overflows a float$"):
            homog_asymptotic_highT(0.5 * d.R_c, 0.0, 0.0, 0.0, p, d)
        assert math.isfinite(homog_asymptotic_highT(1.0, 0.0, 0.0, 0.0, p, d).value)

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


class TestGreenValue:
    def test_is_immutable_and_shares_no_default(self):
        # a field cannot be assigned, and a value built without meta holds no mutable default
        # that another value built the same way could change under it
        a, b = GreenValue(1.0, "homog-series"), GreenValue(2.0, "homog-series")
        with pytest.raises(AttributeError):
            a.value = 3.0
        with pytest.raises(AttributeError):
            a.meta = {}
        assert a.meta is None and b.meta is None
        assert [v for v in (*a, *b) if not isinstance(v, (float, str, bool, type(None)))] == []


class TestGreenDifference:
    def test_identical_pairs_cancel_exactly(self):
        p, d = setup_params()
        g = homog_series(0.3, 0.2, -0.1, 0.0, p, d)
        diff = green_difference(g, g)
        assert diff.value == 0.0 and diff.trunc_err == 2.0 * g.trunc_err

    def test_method_mismatch_rejected(self):
        p, d = setup_params()
        with pytest.raises(UsageError):
            green_difference(homog_series(0.3, 0.2, -0.1, 0.0, p, d), homog_asymptotic_highT(0.4, 0.1, 0.0, 0.0, p, d))

    def test_divergent_endpoint_rejected(self):
        p, d = setup_params()
        coincident, separated = (homog_asymptotic_highT(*q, p, d) for q in ((0.1, 0.0, 0.1, 0.0), (0.3, 0.0, 0.0, 0.0)))
        assert coincident.divergent and coincident.method == separated.method
        for ga, gb in ((coincident, separated), (separated, coincident)):
            with pytest.raises(UsageError):
                green_difference(ga, gb)
