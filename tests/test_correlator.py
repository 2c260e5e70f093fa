import math
import sys

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapgas import (
    AccuracyError,
    CorrelatorQuery,
    DataError,
    DomainError,
    GreenValue,
    PhysicalParams,
    RegimeError,
    asympt_green_highT,
    asympt_green_lowT,
    derive_scales,
    extract_exponent,
    gamma_d1_exact,
    gamma_from_green,
    gamma_homog,
    matsubara_assemble,
    rho_tf,
    spectral_density,
    theta_at,
    theta_homogeneous,
    xi_at,
)


def setup_params(**over):
    base = dict(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
    base.update(over)
    p = PhysicalParams(**base)
    return p, derive_scales(p)


def unit_radius_params(**over):
    return setup_params(Omega=math.sqrt(2.0), **over)


def quasihom_gamma(x1, x2, p, d):
    """Quasi-homogeneous exponential sqrt(rho rho') exp(-|dx| / xi(S)) at equal times."""
    pref = math.sqrt(rho_tf(x1, p, d) * rho_tf(x2, p, d))
    return pref * math.exp(-abs(x1 - x2) / xi_at(0.5 * (x1 + x2), p, d))


class TestExponents:
    def test_theta_homogeneous_forms_agree(self):
        p, d = setup_params(Lambda=2.3, g=0.7, m=1.9)
        rho0 = p.Lambda / p.g
        assert_allclose(
            theta_homogeneous(p, d),
            2.0 * math.pi * p.hbar * rho0 / (p.m * d.v),
            rtol=1e-14,
        )

    def test_theta_at_reference_point(self):
        # hbar = m = v = 1, Lambda = g = 1, R_c = 1, S = 0.5: rho_TF = 0.75
        p, d = unit_radius_params()
        assert_allclose(theta_at(0.5, p, d), 2.0 * math.pi * 0.75, rtol=1e-14)

    def test_theta_center_matches_homogeneous(self):
        p, d = setup_params(Lambda=1.4)
        assert_allclose(theta_at(0.0, p, d), theta_homogeneous(p, d), rtol=1e-14)

    def test_xi_identity(self):
        p, d = setup_params(beta=2.1, Lambda=1.6)
        for s in (0.0, 0.3 * d.R_c, 0.7 * d.R_c):
            assert_allclose(xi_at(s, p, d), (p.hbar * p.beta * d.v / math.pi) * theta_at(s, p, d), rtol=1e-14)
            assert_allclose(xi_at(s, p, d), 2.0 * p.hbar**2 * p.beta * rho_tf(s, p, d) / p.m, rtol=1e-13)

    def test_theta_outside_support(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            theta_at(2.0 * d.R_c, p, d)

    def test_untrapped_limit_correlation_length(self):
        # 1/R_c -> 0: the decay length tends to 2 beta hbar^2 rho(0)/m
        p, d = setup_params(Omega=1e-4)
        xi0 = 2.0 * p.beta * p.hbar**2 * rho_tf(0.0, p, d) / p.m
        assert_allclose(xi_at(1e-3 * d.R_c, p, d), xi0, rtol=1e-5)


class TestGammaFromGreen:
    def test_zero_green_gives_density(self):
        p, d = setup_params()
        q = CorrelatorQuery(0.3, 0.1, 0.3, 0.1)
        assert_allclose(gamma_from_green(q, GreenValue(0.0, "test"), p, d), rho_tf(0.3, p, d), rtol=1e-14)

    def test_positive_and_bounded_by_density_product(self):
        p, d = setup_params()
        q = CorrelatorQuery(0.3, 0.0, -0.2, 0.0)
        bound = math.sqrt(rho_tf(0.3, p, d) * rho_tf(-0.2, p, d))
        for g_val in (0.1, 0.5, 2.0):
            gamma = gamma_from_green(q, GreenValue(g_val, "test"), p, d)
            assert 0.0 < gamma <= bound

    def test_boundary_points_rejected(self):
        p, d = setup_params()
        q = CorrelatorQuery(1.5 * d.R_c, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            gamma_from_green(q, GreenValue(0.0, "test"), p, d)

    def test_overflow_is_accuracy_error(self):
        p, d = setup_params()
        q = CorrelatorQuery(0.3, 0.0, -0.2, 0.0)
        with pytest.raises(AccuracyError, match=r"^Gamma overflows: exp\(-G\) at G = -710\.0 exceeds the largest") as info:
            gamma_from_green(q, GreenValue(-710.0, "test"), p, d)
        assert info.value.achieved == math.inf


class TestClosedFormCorrelator:
    def test_coincident_gives_density(self):
        p, d = setup_params()
        assert_allclose(gamma_d1_exact(0.4, 0.4, p, d), rho_tf(0.4, p, d), rtol=1e-14)

    def test_symmetry_and_positivity(self):
        p, d = setup_params(Lambda=1.3, beta=0.6)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x1, x2 = rng.uniform(-0.8 * d.R_c, 0.8 * d.R_c, size=2)
            g12 = gamma_d1_exact(x1, x2, p, d)
            assert g12 > 0.0
            assert g12 == gamma_d1_exact(x2, x1, p, d)

    def test_equals_zero_mode_green_route(self):
        # the closed form is gamma_from_green of the equal-time zero mode, bit for bit
        p, d = setup_params(beta=0.7)
        q = CorrelatorQuery(0.35, 0.0, 0.1, 0.0)
        g = spectral_density(0.0, q.x1, q.x2, p, d).value / p.beta
        via_green = gamma_from_green(q, GreenValue(g, "closed-form-zero-mode"), p, d)
        assert via_green == gamma_d1_exact(q.x1, q.x2, p, d)

    def test_matches_the_bracket_power_to_its_rounding(self):
        # against sqrt(rho rho') [(1+u)(1-u')/((1-u)(1+u'))]^(-c) at 40 digits,
        # c = g R_c/(4 beta hbar^2 v^2): the relative error stays within
        # 16 eps max(1, c) (11.9 at most here), and a Gamma below the smallest
        # normal float is an AccuracyError, not a subnormal or 0
        worst, underflows = 0.0, 0
        with mp.workdps(40):
            for beta in np.geomspace(1e-4, 100.0 * math.sqrt(2.0), 9):
                p, d = setup_params(beta=float(beta))
                r_c = mp.sqrt(2)  # exactly, for these params
                c = r_c / (4 * mp.mpf(p.beta))
                for s in (-0.9, -0.5, 0.0, 0.2, 0.6, 0.9):
                    for sep in np.geomspace(0.001, 0.1, 7):
                        x1, x2 = (s + sep / 2.0) * d.R_c, (s - sep / 2.0) * d.R_c
                        u1, u2 = mp.mpf(x1) / r_c, mp.mpf(x2) / r_c
                        bracket = ((1 + u1) * (1 - u2)) / ((1 - u1) * (1 + u2))
                        exact = mp.sqrt((1 - u1**2) * (1 - u2**2)) * bracket ** (-c)
                        if exact < sys.float_info.min:
                            underflows += 1
                            with pytest.raises(AccuracyError, match="underflows below the smallest normal float"):
                                gamma_d1_exact(x1, x2, p, d)
                            continue
                        rel = abs(mp.mpf(gamma_d1_exact(x1, x2, p, d)) / exact - 1)
                        worst = max(worst, float(rel) / (sys.float_info.epsilon * max(1.0, float(c))))
        assert underflows == 9
        assert worst < 16.0

    def test_bracket_domain_error(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            gamma_d1_exact(1.4 * d.R_c, -0.2, p, d)

    def test_quasihom_reduction_within_3_percent(self):
        # |dx| << R_c: the closed form tends to sqrt(rho rho') exp(-|dx|/xi(S))
        p, d = setup_params()
        s_half = 0.3 * d.R_c
        dx = 0.02 * d.R_c
        exact = gamma_d1_exact(s_half + dx / 2.0, s_half - dx / 2.0, p, d)
        approx = quasihom_gamma(s_half + dx / 2.0, s_half - dx / 2.0, p, d)
        assert abs(exact - approx) < 0.03 * exact

    def test_quasihom_reduction_at_trap_centre(self):
        # S = 0 is where the background is flattest and the exponential most accurate
        p, d = setup_params()
        dx = 0.02 * d.R_c
        assert_allclose(quasihom_gamma(dx / 2.0, -dx / 2.0, p, d), gamma_d1_exact(dx / 2.0, -dx / 2.0, p, d), rtol=1e-6)

    def test_underflow_is_accuracy_error(self):
        # beta = 1e-5: c = 3.5e4 and G = 7373 at |dx| = 0.1 R_c, where the bracket power used to return 0.0
        p, d = setup_params(beta=1e-5)
        with pytest.raises(AccuracyError, match=r"^Gamma = 0\.0 underflows .* \(G = 7373\.") as info:
            gamma_d1_exact(0.2 * d.R_c + 0.05 * d.R_c, 0.2 * d.R_c - 0.05 * d.R_c, p, d)
        assert info.value.achieved == math.inf


class TestHomogeneousCorrelator:
    def test_exponent_value(self):
        p, d = setup_params()
        theta = theta_homogeneous(p, d)
        assert_allclose(theta, 2.0 * math.pi, rtol=1e-14)  # g = hbar = v = 1

    def test_small_argument_power_law_slope(self):
        # the sinh form crosses over to the pure power law at small argument
        p, d = setup_params(Omega=math.sqrt(2.0) / 20.0)
        theta = theta_homogeneous(p, d)
        seps = np.geomspace(0.005 * d.lambda_T, 0.05 * d.lambda_T, 12)
        gam = [gamma_homog(s / 2, 0.0, -s / 2, 0.0, p, d) for s in seps]
        slope = np.polyfit(np.log(seps), np.log(gam), 1)[0]
        assert abs(-slope - 1.0 / theta) < 0.01 / theta

    def test_powerlaw_matches_forms_at_midpoint(self):
        p, d = setup_params()
        sep = 1e-4 * d.lambda_T
        theta = theta_homogeneous(p, d)
        g_sinh = gamma_homog(sep / 2, 0.0, -sep / 2, 0.0, p, d)
        g_pow = (p.Lambda / p.g) * sep ** (-1.0 / theta)
        # sinh(pi x) ~ pi x: the sinh form and the pure power law differ by the constant pi^(-1/theta)
        assert_allclose(g_sinh / g_pow, (math.pi / (p.hbar * p.beta * d.v)) ** (-1.0 / theta), rtol=1e-4)

    def test_divergence_marker(self):
        p, d = setup_params()
        assert math.isinf(gamma_homog(0.1, 0.2, 0.1, 0.2, p, d))


def lg_gamma(q, p, d):
    """Gamma from the summed Liouville-Green Green value of the pair ``q``."""
    return gamma_from_green(q, asympt_green_highT(q.x1, q.tau1, q.x2, q.tau2, p, d), p, d)


def leading_log_gamma(q, p, d):
    """Gamma from the low-temperature leading logarithm of the pair ``q``."""
    return gamma_from_green(q, asympt_green_lowT(q.x1, q.tau1, q.x2, q.tau2, p, d), p, d)


class TestTrappedAsymptoticCorrelator:
    def test_exponential_decay_beyond_lambda_T(self):
        # beyond lambda_T the zero mode dominates: ln Gamma = -|dx|/xi(S) up
        # to O((dx/R_c)^2), 6e-4 relative here
        p, d = setup_params(beta=0.005 * math.sqrt(2.0))
        s_half = 0.2 * d.R_c
        dx = 15.0 * d.lambda_T
        q = CorrelatorQuery(s_half + dx / 2, 0.0, s_half - dx / 2, 0.0)
        gamma = lg_gamma(q, p, d)
        pref = math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d))
        assert_allclose(math.log(gamma / pref), -dx / xi_at(s_half, p, d), rtol=1e-3)

    @pytest.mark.parametrize("s_over_rc", [0.0, 0.3, 0.5])
    def test_log_slope_is_inverse_xi(self, s_over_rc):
        # d ln(Gamma/sqrt(rho rho'))/d|dx| = -1/xi(S) at |dx| = 0.1 R_c, far
        # beyond lambda_T; slope * xi reads 1.0025, 1.0039 and 1.0079
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        s_half, h = s_over_rc * d.R_c, 1e-4 * d.R_c

        def log_reduced_gamma(dx):
            q = CorrelatorQuery(s_half + dx / 2, 0.0, s_half - dx / 2, 0.0)
            return math.log(lg_gamma(q, p, d) / math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d)))

        dx = 0.1 * d.R_c
        slope = (log_reduced_gamma(dx + h) - log_reduced_gamma(dx - h)) / (2.0 * h)
        assert_allclose(-slope * xi_at(s_half, p, d), 1.0, rtol=0.01)

    def test_low_t_power_law_overflow_is_accuracy_error(self):
        # g = 2000: 1/theta(S) = 318, so (R_c/|zeta|)^(1/theta(S)) overflows at |zeta| = 0.01
        p, d = setup_params(g=2000.0, beta=100.0 * math.sqrt(2.0))
        q = CorrelatorQuery(0.01, 0.0, 0.0, 0.0)
        with pytest.raises(AccuracyError, match=r"^Gamma overflows: exp\(-G\) at G = -") as info:
            leading_log_gamma(q, p, d)
        assert info.value.achieved == math.inf

    @pytest.mark.parametrize("s_over_rc", [0.2, -0.45])
    def test_low_t_power_law_is_unit_free(self, s_over_rc):
        # Gamma = sqrt(rho rho') (R_c/|zeta|)^(1/theta(S)): the ratio |zeta|/R_c,
        # not |zeta| in the unit of length, sets it
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        s_half, hv = s_over_rc * d.R_c, p.hbar * d.v
        for dx, dtau in ((0.01 * d.R_c, 0.0), (0.05 * d.R_c, 0.0), (0.02 * d.R_c, 0.03 * d.R_c / hv)):
            q = CorrelatorQuery(s_half + dx / 2, dtau, s_half - dx / 2, 0.0)
            pref = math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d))
            power = (d.R_c / math.hypot(dx, hv * dtau)) ** (1.0 / theta_at(s_half, p, d))
            assert_allclose(leading_log_gamma(q, p, d), pref * power, rtol=1e-13)

    @pytest.mark.parametrize(
        "x1_over_rc, x2_over_rc, hv_dtau_over_rc",
        [
            (0.3, 0.1, 0.0),  # |zeta|/R_c = 0.2 in space
            (0.2, 0.2, 0.2),  # |zeta|/R_c = 0.2 in imaginary time alone
        ],
    )
    def test_no_window_raises_regime_error(self, x1_over_rc, x2_over_rc, hv_dtau_over_rc):
        # only the low-temperature form keeps a window
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        dtau = hv_dtau_over_rc * d.R_c / (p.hbar * d.v)
        q = CorrelatorQuery(x1_over_rc * d.R_c, dtau, x2_over_rc * d.R_c, 0.0)
        with pytest.raises(RegimeError, match=r"low-temperature gate .* \(got 0\.2\)"):
            leading_log_gamma(q, p, d)

    def test_high_t_has_no_window(self):
        # the pair spans most of the condensate, far outside any quasi-homogeneous window
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        q = CorrelatorQuery(0.9 * d.R_c, 0.0, -0.9 * d.R_c, 0.0)
        assert 0.0 < lg_gamma(q, p, d) < math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d))

    def test_assembled_route_reproduces_the_asymptotic_gamma(self):
        # absolute, not in ratio mode: the Liouville-Green value carries its constant
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        s_half = 0.2 * d.R_c
        for dx in (0.8 * d.lambda_T, 1.6 * d.lambda_T):
            q = CorrelatorQuery(s_half + dx / 2, 0.0, s_half - dx / 2, 0.0)
            assembled = gamma_from_green(q, matsubara_assemble(q.x1, q.tau1, q.x2, q.tau2, p, d, l_max=14), p, d)
            assert_allclose(lg_gamma(q, p, d), assembled, rtol=1e-5)

    @pytest.mark.parametrize("s_over_rc", [0.5, 0.7])
    def test_fitted_exponent_is_the_exact_one_off_centre(self, s_over_rc):
        # the exact route's exponent is the local theta(S)/sqrt(1 - S^2/R_c^2),
        # 13% and 29% away from the paper's theta(S) here
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        s_half = s_over_rc * d.R_c
        seps = np.geomspace(1e-4, 1e-3, 10) * d.R_c
        queries = [CorrelatorQuery(s_half + sep / 2, 0.0, s_half - sep / 2, 0.0) for sep in seps]
        rhos = [math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d)) for q in queries]
        lg = extract_exponent(seps, [lg_gamma(q, p, d) for q in queries], rhos)
        exact = extract_exponent(
            seps,
            [gamma_from_green(q, matsubara_assemble(q.x1, q.tau1, q.x2, q.tau2, p, d, l_max=4096), p, d)
             for q in queries],
            rhos,
        )
        assert_allclose(lg.inv_theta, exact.inv_theta, rtol=1e-5)  # 1.8e-7 and 3.1e-7
        theta_s = theta_at(s_half, p, d)
        assert abs(lg.inv_theta * theta_s - 1.0) > 0.10
        assert_allclose(lg.inv_theta * theta_s, math.sqrt(1.0 - s_over_rc**2), rtol=1e-3)

    def test_fitted_exponent_at_the_centre_is_theta_hom(self):
        # at S = 0 the local exponent theta(S)/sqrt(1 - S^2/R_c^2) is the
        # homogeneous theta of the central density; the fit lands 2.4e-4 off
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        seps = np.geomspace(1e-4, 1e-3, 10) * d.R_c
        queries = [CorrelatorQuery(sep / 2, 0.0, -sep / 2, 0.0) for sep in seps]
        rhos = [math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d)) for q in queries]
        fit = extract_exponent(seps, [lg_gamma(q, p, d) for q in queries], rhos)
        assert_allclose(fit.inv_theta * theta_homogeneous(p, d), 1.0, rtol=1e-3)


class TestExtractExponent:
    def test_recovers_synthetic_power_law(self):
        seps = np.geomspace(0.01, 1.0, 12)
        gammas = seps ** (-0.25)
        fit = extract_exponent(seps, gammas)
        assert_allclose(fit.inv_theta, 0.25, atol=1e-12)
        assert fit.inv_theta_stderr < 1e-6

    def test_divides_out_density_prefactor(self):
        seps = np.geomspace(0.01, 1.0, 10)
        rho_products = np.linspace(1.0, 2.0, 10)
        gammas = rho_products * seps ** (-0.4)
        fit = extract_exponent(seps, gammas, rho_products)
        assert_allclose(fit.inv_theta, 0.4, atol=1e-12)

    def test_sample_count_enforced(self):
        with pytest.raises(DataError):
            extract_exponent([1, 2, 3], [1, 1, 1])

    def test_positivity_enforced(self):
        seps = np.geomspace(0.01, 1.0, 9)
        bad = seps**-0.2
        bad[3] = -1.0
        with pytest.raises(DataError):
            extract_exponent(seps, bad)

    def test_flat_profile_is_data_error(self):
        # slope 0 would make theta = 1/inv_theta divide by zero
        with pytest.raises(DataError, match="^the profile is flat"):
            extract_exponent([0.01 * i for i in range(1, 10)], [1.0] * 9)

    @pytest.mark.parametrize("which, index, value", [("gammas", 4, math.nan), ("separations", 8, math.inf),
                                                     ("rho_products", 0, -math.inf)])
    def test_non_finite_input_named(self, which, index, value):
        data = {"separations": np.geomspace(0.01, 1.0, 9), "rho_products": np.ones(9)}
        data["gammas"] = data["separations"] ** -0.2
        data[which][index] = value
        with pytest.raises(DataError, match=rf"^{which} must be finite, got {value} at index {index}$"):
            extract_exponent(data["separations"], data["gammas"], data["rho_products"])

    def test_fit_finds_the_local_exponent_near_the_centre(self):
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        s_half = 0.1 * d.R_c
        seps = np.geomspace(1e-4, 1e-3, 10) * d.R_c
        gammas, rhos = [], []
        for sep in seps:
            q = CorrelatorQuery(s_half + sep / 2, 0.0, s_half - sep / 2, 0.0)
            gammas.append(lg_gamma(q, p, d))
            rhos.append(math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d)))
        fit = extract_exponent(seps, gammas, rhos)
        # the fit finds the local exponent theta(S)/sqrt(1 - S^2/R_c^2)
        assert_allclose(fit.inv_theta * theta_at(s_half, p, d), math.sqrt(1.0 - 0.1**2), rtol=1e-3)
