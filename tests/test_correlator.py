import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapgas import (
    CorrelatorQuery,
    DataError,
    DomainError,
    GreenValue,
    PhysicalParams,
    RegimeError,
    asympt_green_highT,
    closed_form_zero_mode,
    coherence_multidim,
    derive_scales,
    extract_exponent,
    gamma_d1_exact,
    gamma_d1_quasihom,
    gamma_from_green,
    gamma_homog,
    gamma_trapped_asymptotic,
    matsubara_assemble,
    rho_tf,
    theta_at,
    theta_homogeneous,
    xi_at,
)
from trapgas.correlator import _exponential_gamma, _power_law_gamma


def setup_params(**over):
    base = dict(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
    base.update(over)
    p = PhysicalParams(**base)
    return p, derive_scales(p)


def unit_radius_params(**over):
    return setup_params(Omega=math.sqrt(2.0), **over)


def quasihom_draws(count, seed=20261018):
    """(p, d, x1, x2) with m, g, Omega, Lambda, beta in [0.5, 2] and a pair
    inside the quasi-homogeneous window: |S| <= 0.5 R_c, S = 0 in every
    fourth draw, |dx| <= 0.05 R_c."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p, d = setup_params(**{k: float(rng.uniform(0.5, 2.0)) for k in ("m", "g", "Omega", "Lambda", "beta")})
        s_half = 0.0 if i % 4 == 0 else float(rng.uniform(-0.5, 0.5)) * d.R_c
        dx = float(rng.uniform(-0.05, 0.05)) * d.R_c
        yield p, d, s_half + dx / 2.0, s_half - dx / 2.0


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
        # feeding the equal-time zero-mode Green value into the generic
        # assembler reproduces the closed form identically
        p, d = setup_params(beta=0.7)
        q = CorrelatorQuery(0.35, 0.0, 0.1, 0.0)
        g = closed_form_zero_mode(q.x1, q.x2, p, d)
        via_green = gamma_from_green(q, GreenValue(g, "closed-form-zero-mode"), p, d)
        assert_allclose(via_green, gamma_d1_exact(q.x1, q.x2, p, d), rtol=1e-12)

    def test_bracket_domain_error(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            gamma_d1_exact(1.4 * d.R_c, -0.2, p, d)

    def test_quasihom_reduction_within_3_percent(self):
        p, d = setup_params()
        s_half = 0.3 * d.R_c
        dx = 0.02 * d.R_c
        exact = gamma_d1_exact(s_half + dx / 2.0, s_half - dx / 2.0, p, d)
        approx = gamma_d1_quasihom(s_half + dx / 2.0, s_half - dx / 2.0, p, d)
        assert abs(exact - approx) < 0.03 * exact


class TestQuasihomCorrelator:
    def test_zero_separation(self):
        p, d = setup_params()
        s = 0.25 * d.R_c
        assert_allclose(gamma_d1_quasihom(s, s, p, d), rho_tf(s, p, d), rtol=1e-14)

    def test_log_slope_is_inverse_xi(self):
        p, d = setup_params()
        s_half = 0.3 * d.R_c
        dx1, dx2 = 0.005 * d.R_c, 0.01 * d.R_c
        g1 = gamma_d1_quasihom(s_half + dx1 / 2.0, s_half - dx1 / 2.0, p, d)
        g2 = gamma_d1_quasihom(s_half + dx2 / 2.0, s_half - dx2 / 2.0, p, d)
        pref = math.sqrt(rho_tf(s_half + dx1 / 2, p, d) * rho_tf(s_half - dx1 / 2, p, d))
        pref2 = math.sqrt(rho_tf(s_half + dx2 / 2, p, d) * rho_tf(s_half - dx2 / 2, p, d))
        slope = -(math.log(g2 / pref2) - math.log(g1 / pref)) / (dx2 - dx1)
        assert_allclose(slope, 1.0 / xi_at(s_half, p, d), rtol=1e-10)

    def test_untrapped_limit_correlation_length(self):
        # 1/R_c -> 0: the decay length tends to 2 beta hbar^2 rho(0)/m
        p, d = setup_params(Omega=1e-4)
        xi0 = 2.0 * p.beta * p.hbar**2 * rho_tf(0.0, p, d) / p.m
        assert_allclose(xi_at(1e-3 * d.R_c, p, d), xi0, rtol=1e-5)

    def test_window_enforced(self):
        p, d = setup_params()
        with pytest.raises(RegimeError):
            gamma_d1_quasihom(0.5 * d.R_c, -0.5 * d.R_c, p, d)

    @pytest.mark.parametrize(
        "x1_over_rc, x2_over_rc, violated",
        [
            (0.9, -0.9, ["|dx| << R_c"]),  # centre-symmetric: flat density, wide pair
            (0.95, 0.9, ["TF density variation across pair"]),  # narrow pair near the edge
            (0.96, 0.5, ["|dx| << R_c", "TF density variation across pair"]),
        ],
    )
    def test_window_violations_named(self, x1_over_rc, x2_over_rc, violated):
        p, d = setup_params()
        with pytest.raises(RegimeError, match="quasi-homogeneous window failed") as info:
            gamma_d1_quasihom(x1_over_rc * d.R_c, x2_over_rc * d.R_c, p, d)
        named = [part.split(" violated")[0] for part in str(info.value).split(": ", 1)[1].split("; ")]
        assert named == violated

    def test_is_the_exponential_form_at_equal_times(self):
        for p, d, x1, x2 in quasihom_draws(120):
            q = CorrelatorQuery(x1, 0.0, x2, 0.0)
            assert gamma_d1_quasihom(x1, x2, p, d) == _exponential_gamma(q, p, d)

    def test_accepted_at_trap_centre(self):
        # S = 0 is where the background is flattest and the form most accurate
        p, d = setup_params()
        dx = 0.02 * d.R_c
        approx = gamma_d1_quasihom(dx / 2.0, -dx / 2.0, p, d)
        assert_allclose(approx, gamma_d1_exact(dx / 2.0, -dx / 2.0, p, d), rtol=1e-6)


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
        gam = [gamma_homog(s / 2, 0.0, -s / 2, 0.0, p, d, "highT") for s in seps]
        slope = np.polyfit(np.log(seps), np.log(gam), 1)[0]
        assert abs(-slope - 1.0 / theta) < 0.01 / theta

    def test_lowT_form_periodicity_in_dx(self):
        p, d = setup_params()
        g1 = gamma_homog(0.3, 0.0, 0.1, 0.0, p, d, "lowT")
        g2 = gamma_homog(0.3 + 2.0 * d.R_c, 0.0, 0.1, 0.0, p, d, "lowT")
        assert_allclose(g1, g2, rtol=1e-10)

    def test_powerlaw_matches_forms_at_midpoint(self):
        p, d = setup_params()
        sep = 1e-4 * d.lambda_T
        g_sinh = gamma_homog(sep / 2, 0.0, -sep / 2, 0.0, p, d, "highT")
        g_pow = gamma_homog(sep / 2, 0.0, -sep / 2, 0.0, p, d, "powerlaw")
        # sinh(pi x) ~ pi x: forms differ by the constant pi^(-1/theta)
        ratio = g_sinh / g_pow
        assert_allclose(ratio, (math.pi / (p.hbar * p.beta * d.v)) ** (-1.0 / (2.0 * math.pi)), rtol=1e-4)

    def test_divergence_marker(self):
        p, d = setup_params()
        assert math.isinf(gamma_homog(0.1, 0.2, 0.1, 0.2, p, d, "highT"))

    def test_unknown_form_rejected(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            gamma_homog(0.1, 0.0, 0.0, 0.0, p, d, "weird")


def lg_gamma(q, p, d):
    """Gamma from the summed Liouville-Green Green value of the pair ``q``."""
    return gamma_from_green(q, asympt_green_highT(q.x1, q.tau1, q.x2, q.tau2, p, d), p, d)


class TestTrappedAsymptoticCorrelator:
    def test_exponential_decay_beyond_lambda_T(self):
        # beyond lambda_T the zero mode dominates: ln Gamma = -|dx|/xi(S) up
        # to O((dx/R_c)^2), 6e-4 relative here
        p, d = setup_params(beta=0.005 * math.sqrt(2.0))
        s_half = 0.2 * d.R_c
        dx = 15.0 * d.lambda_T
        q = CorrelatorQuery(s_half + dx / 2, 0.0, s_half - dx / 2, 0.0)
        gamma = gamma_trapped_asymptotic(q, p, d)
        pref = math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d))
        assert_allclose(math.log(gamma / pref), -dx / xi_at(s_half, p, d), rtol=1e-3)

    @pytest.mark.parametrize(
        "beta_over_alpha, dx_over_rc, dtau_over_beta, form",
        [
            (0.05, 0.6, 0.0, lg_gamma),  # high T: |dx| = 0.6 R_c, no quasi-homogeneous window
            (100.0, 0.01, 0.0, _power_law_gamma),  # low T: |zeta|/R_c = 0.01
        ],
    )
    def test_dispatch_branch_equals_its_form(self, beta_over_alpha, dx_over_rc, dtau_over_beta, form):
        p, d = setup_params(beta=beta_over_alpha * math.sqrt(2.0))
        s_half, dx = 0.2 * d.R_c, dx_over_rc * d.R_c
        q = CorrelatorQuery(s_half + dx / 2, dtau_over_beta * p.beta, s_half - dx / 2, 0.0)
        assert gamma_trapped_asymptotic(q, p, d) == form(q, p, d)

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
            gamma_trapped_asymptotic(q, p, d)

    def test_midpoint_outside_condensate_is_domain_error(self):
        p, d = setup_params()  # intermediate: no form applies either way
        q = CorrelatorQuery(1.2 * d.R_c, 0.0, 1.1 * d.R_c, 0.0)
        with pytest.raises(DomainError, match="outside the condensate"):
            gamma_trapped_asymptotic(q, p, d)

    def test_auto_dispatch_regime_errors(self):
        p, d = setup_params()  # intermediate regime
        q = CorrelatorQuery(0.3, 0.0, 0.1, 0.0)
        with pytest.raises(RegimeError, match="intermediate"):
            gamma_trapped_asymptotic(q, p, d)

    def test_high_t_has_no_window(self):
        # the pair spans most of the condensate, far outside any quasi-homogeneous window
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        q = CorrelatorQuery(0.9 * d.R_c, 0.0, -0.9 * d.R_c, 0.0)
        assert 0.0 < gamma_trapped_asymptotic(q, p, d) < math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d))

    def test_assembled_route_reproduces_the_asymptotic_gamma(self):
        # absolute, not in ratio mode: the Liouville-Green value carries its constant
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        s_half = 0.2 * d.R_c
        for dx in (0.8 * d.lambda_T, 1.6 * d.lambda_T):
            q = CorrelatorQuery(s_half + dx / 2, 0.0, s_half - dx / 2, 0.0)
            assembled = gamma_from_green(q, matsubara_assemble(q.x1, q.tau1, q.x2, q.tau2, p, d, l_max=14), p, d)
            assert_allclose(gamma_trapped_asymptotic(q, p, d), assembled, rtol=1e-5)

    @pytest.mark.parametrize("s_over_rc", [0.5, 0.7])
    def test_fitted_exponent_is_the_exact_one_off_centre(self, s_over_rc):
        # the exact route's exponent is the local theta(S)/sqrt(1 - S^2/R_c^2),
        # 13% and 29% away from the paper's theta(S) here
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        s_half = s_over_rc * d.R_c
        seps = np.geomspace(1e-4, 1e-3, 10) * d.R_c
        queries = [CorrelatorQuery(s_half + sep / 2, 0.0, s_half - sep / 2, 0.0) for sep in seps]
        rhos = [math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d)) for q in queries]
        lg = extract_exponent(seps, [gamma_trapped_asymptotic(q, p, d) for q in queries], rhos)
        exact = extract_exponent(
            seps,
            [gamma_from_green(q, matsubara_assemble(q.x1, q.tau1, q.x2, q.tau2, p, d, l_max=2000), p, d)
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
        fit = extract_exponent(seps, [gamma_trapped_asymptotic(q, p, d) for q in queries], rhos)
        assert_allclose(fit.inv_theta * theta_homogeneous(p, d), 1.0, rtol=1e-3)


class TestCoherence:
    def test_d3_long_range_expansion(self):
        p, d = setup_params(beta=0.4)
        s_vec = np.array([0.05, 0.05, 0.02])
        amp = p.Lambda / (4.0 * math.pi * p.beta * (p.hbar * d.v) ** 2 * rho_tf(float(np.linalg.norm(s_vec)), p, d))
        sep_dir = np.array([1.0, 0.0, 0.0])
        for sep in (50.0 * amp, 200.0 * amp):
            c = coherence_multidim(s_vec + sep * sep_dir / 2, s_vec - sep * sep_dir / 2, 3, p, d)
            assert_allclose(c.gamma1 - 1.0, amp / sep, rtol=0.05)
        assert c.gamma1 > 1.0  # long-range order marker

    def test_d2_exponent_proportional_to_temperature(self):
        p1, d1 = setup_params(beta=1.0)
        p2, d2 = setup_params(beta=2.0)
        x1 = np.array([0.05, 0.0])
        x2 = np.array([-0.05, 0.0])
        c1 = coherence_multidim(x1, x2, 2, p1, d1)
        c2 = coherence_multidim(x1, x2, 2, p2, d2)
        # exponent ~ 1/beta: ln Gamma ratios against the respective lambda_T
        e1 = math.log(c1.gamma1) / math.log(d1.lambda_T / c1.separation)
        e2 = math.log(c2.gamma1) / math.log(d2.lambda_T / c2.separation)
        assert_allclose(e1 / e2, 2.0, rtol=1e-10)

    def test_d1_phase_correlator_linear(self):
        p, d = setup_params()
        g1 = coherence_multidim([0.25], [0.15], 1, p, d).phase_green
        g2 = coherence_multidim([0.30], [0.10], 1, p, d).phase_green
        assert_allclose(g2 / g1, 2.0, rtol=1e-12)  # doubled separation, same S

    def test_d1_is_the_quasihom_exponential(self):
        for p, d, x1, x2 in quasihom_draws(120):
            c = coherence_multidim([x1], [x2], 1, p, d)
            assert c.gamma1 == _exponential_gamma(CorrelatorQuery(x1, 0.0, x2, 0.0), p, d)
            assert c.phase_green == abs(x1 - x2) / xi_at(0.5 * (x1 + x2), p, d)

    def test_divergence_markers(self):
        p, d = setup_params()
        assert math.isinf(coherence_multidim([0.1, 0.0], [0.1, 0.0], 2, p, d).gamma1)
        assert math.isinf(coherence_multidim([0.1, 0.0, 0.0], [0.1, 0.0, 0.0], 3, p, d).gamma1)
        assert math.isfinite(coherence_multidim([0.1], [0.1], 1, p, d).gamma1)

    def test_argument_validation(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            coherence_multidim([0.1, 0.2], [0.1], 2, p, d)
        with pytest.raises(DomainError):
            coherence_multidim([0.1], [0.0], 4, p, d)


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
            gammas.append(gamma_trapped_asymptotic(q, p, d))
            rhos.append(math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d)))
        fit = extract_exponent(seps, gammas, rhos)
        # the fit finds the local exponent theta(S)/sqrt(1 - S^2/R_c^2)
        assert_allclose(fit.inv_theta * theta_at(s_half, p, d), math.sqrt(1.0 - 0.1**2), rtol=1e-3)
