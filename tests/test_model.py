import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapgas import (
    DerivedScales,
    DomainError,
    PhysicalParams,
    Regime,
    classify_regime,
    derive_scales,
    energy_level,
    level_spacing_expansion,
    rho_tf,
    theta_at,
)


def unit_params(**over):
    base = dict(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
    base.update(over)
    return PhysicalParams(**base)


class TestDeriveScales:
    def test_unit_parameters(self):
        d = derive_scales(unit_params())
        assert d.v == 1.0
        assert_allclose(d.R_c, math.sqrt(2.0), rtol=1e-15)
        assert_allclose(d.alpha, math.sqrt(2.0), rtol=1e-15)
        assert d.lambda_T == 1.0

    def test_sound_velocity(self):
        d = derive_scales(unit_params(m=2.0, Lambda=8.0))
        assert d.v == 2.0

    def test_radius_and_alpha(self):
        d = derive_scales(unit_params(Omega=2.0, Lambda=2.0))
        assert_allclose(d.R_c, 1.0, rtol=1e-15)
        assert_allclose(d.v, math.sqrt(2.0), rtol=1e-15)
        assert_allclose(d.alpha, 1.0 / math.sqrt(2.0), rtol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_algebraic_identities(self, seed):
        rng = np.random.default_rng(seed)
        p = unit_params(
            m=rng.uniform(0.2, 3.0),
            Lambda=rng.uniform(0.2, 3.0),
            Omega=rng.uniform(0.2, 3.0),
            beta=rng.uniform(0.2, 3.0),
        )
        d = derive_scales(p)
        assert_allclose(d.v**2 * p.m, p.Lambda, rtol=1e-14)
        assert_allclose(d.R_c**2 * p.m * p.Omega**2, 2.0 * p.Lambda, rtol=1e-14)
        assert_allclose(d.lambda_T, p.hbar * p.beta * d.v, rtol=1e-15)
        assert d.regime_ratio > 0

    def test_scale_consistency(self):
        c = 1.7
        d1 = derive_scales(unit_params(Lambda=1.0))
        d2 = derive_scales(unit_params(Lambda=c**2))
        assert_allclose(d2.v, c * d1.v, rtol=1e-14)
        assert_allclose(d2.R_c, c * d1.R_c, rtol=1e-14)

    @pytest.mark.parametrize("field", ["m", "g", "Omega", "Lambda", "beta", "hbar"])
    def test_nonpositive_field_rejected(self, field):
        with pytest.raises(DomainError, match=field):
            unit_params(**{field: 0.0})
        with pytest.raises(DomainError, match=field):
            unit_params(**{field: -1.0})


class TestTheta:
    @pytest.mark.parametrize("over, text", [({"hbar": 1e-100, "m": 1e-300, "Lambda": 1e-300}, "0.0"),
                                            ({"hbar": 1e-160, "g": 1e-300, "Lambda": 1e20}, "inf")])
    def test_a_theta_that_leaves_the_float_range_is_a_domain_error(self, over, text):
        # 2 pi hbar rho/(m v) underflows to 0, or overflows, inside the condensate: every route that
        # divides by theta(S) or multiplies by it gets one DomainError where theta is made
        p = unit_params(**over)
        d = derive_scales(p)
        with pytest.raises(DomainError, match=rf"^theta\(S\) = {text} at S = .* leaves the float range$"):
            theta_at(0.2 * d.R_c, p, d)


class TestRhoTF:
    def test_center_value(self):
        p = unit_params(Lambda=3.0, g=2.0)
        d = derive_scales(p)
        assert rho_tf(0.0, p, d) == 1.5

    def test_interior_value(self):
        # R_c = 1 with Omega = sqrt(2): rho(0.5) = 1 - 0.25
        p = unit_params(Omega=math.sqrt(2.0))
        d = derive_scales(p)
        assert_allclose(d.R_c, 1.0, rtol=1e-15)
        assert_allclose(rho_tf(0.5, p, d), 0.75, rtol=1e-14)

    def test_support(self):
        p = unit_params()
        d = derive_scales(p)
        assert rho_tf(1.5 * d.R_c, p, d) == 0.0
        assert rho_tf(-d.R_c, p, d) == 0.0

    def test_parity_and_maximum(self):
        p = unit_params()
        d = derive_scales(p)
        xs = np.linspace(0.0, 1.2 * d.R_c, 50)
        assert_allclose(rho_tf(xs, p, d), rho_tf(-xs, p, d), rtol=0, atol=0)
        assert np.all(rho_tf(xs, p, d) <= rho_tf(0.0, p, d))

    def test_normalization_by_quadrature(self):
        p = unit_params(Lambda=2.0, g=0.7)
        d = derive_scales(p)
        xs = np.linspace(-d.R_c, d.R_c, 200001)
        integral = np.trapezoid(rho_tf(xs, p, d), xs)
        assert_allclose(integral, (4.0 / 3.0) * (p.Lambda / p.g) * d.R_c, rtol=1e-9)

    def test_array_input(self):
        p = unit_params()
        d = derive_scales(p)
        out = rho_tf(np.array([0.0, 10.0]), p, d)
        assert out.shape == (2,)
        assert out[1] == 0.0

    def test_python_scalars_give_the_array_form_bitwise(self):
        p = unit_params(Lambda=1.7, g=0.3)
        d = derive_scales(p)
        xs = [math.nan, math.inf, -math.inf, 0.0, -0.0, d.R_c, -d.R_c, math.nextafter(d.R_c, 2.0), 1.5, 1e-320,
              1e200, -1e200, 0, 1, -2, *(np.random.default_rng(3).uniform(-2.0, 2.0, 1000) * d.R_c).tolist()]
        with np.errstate(over="ignore"):  # the array form overflows in x^2 at |x| = 1e200; the scalar form does not warn
            expected = rho_tf(np.array(xs, dtype=float), p, d)
        got = [rho_tf(x, p, d) for x in xs]
        assert {type(v) for v in got} == {float}
        assert np.array(got).tobytes() == expected.tobytes()


class TestSpectrum:
    def test_zero_mode(self):
        p = unit_params()
        assert energy_level(0, derive_scales(p)) == 0.0

    def test_first_levels(self):
        p = unit_params()
        d = derive_scales(p)
        assert_allclose(energy_level(1, d), 1.0, rtol=1e-15)
        assert_allclose(energy_level(2, d), math.sqrt(3.0), rtol=1e-15)

    def test_negative_index_rejected(self):
        p = unit_params()
        with pytest.raises(DomainError):
            energy_level(-1, derive_scales(p))

    def test_array_of_levels_is_each_level(self):
        # one vectorized form serves the spectrum table and the thermal mode sum's weights and tail bound
        p = unit_params(Omega=1.3)
        d = derive_scales(p)
        n = np.arange(50)
        levels = energy_level(n, d)
        assert levels.tobytes() == np.array([energy_level(k, d) for k in n]).tobytes()
        assert levels.tobytes() == (np.sqrt(n * (n + 1.0)) / d.alpha).tobytes()
        assert_allclose(levels, p.hbar * p.Omega * np.sqrt(n * (n + 1) / 2.0), rtol=4e-16, atol=0.0)
        for bad in (2.5, [0, -1], math.nan):
            with pytest.raises(DomainError, match="mode index must be an integer >= 0"):
                energy_level(bad, d)

    def test_strictly_increasing_and_linear_limit(self):
        p = unit_params()
        d = derive_scales(p)
        levels = [energy_level(n, d) for n in range(200)]
        assert all(b > a for a, b in zip(levels, levels[1:]))
        n = 150
        assert_allclose(levels[n] / (n / d.alpha), 1.0, rtol=1e-2)

    def test_weight_expansion_remainder_is_fourth_order(self):
        # (n+1/2)/sqrt(n(n+1)) - [1 + 1/(8n^2) - 1/(8n^3)] = O(n^-4)
        for n in (10, 30, 100):
            w = (n + 0.5) / math.sqrt(n * (n + 1.0))
            approx = 1.0 + 1.0 / (8 * n**2) - 1.0 / (8 * n**3)
            assert abs(w - approx) < 0.2 / n**4


class TestSpacingExpansion:
    def test_exact_value_n2(self):
        # alpha = 1 via Omega = Lambda = 1, m = 0.5: R_c = 2, v = sqrt(2)
        p = unit_params(m=0.5)
        d = derive_scales(p)
        assert_allclose(d.alpha, math.sqrt(2.0), rtol=1e-15)
        exact = energy_level(3, d) - energy_level(2, d)
        assert_allclose(exact, (math.sqrt(12.0) - math.sqrt(6.0)) / d.alpha, rtol=1e-14)

    def test_large_n_limit(self):
        p = unit_params()
        d = derive_scales(p)
        exact = energy_level(10_001, d) - energy_level(10_000, d)
        assert_allclose(exact, 1.0 / d.alpha, rtol=1e-8)
        assert_allclose(level_spacing_expansion(10_000, d), 1.0 / d.alpha, rtol=1e-8)

    def test_expansion_accuracy_n10(self):
        p = unit_params(Omega=math.sqrt(2.0))  # alpha = 1
        d = derive_scales(p)
        exact = energy_level(11, d) - energy_level(10, d)
        assert abs(exact - level_spacing_expansion(10, d)) < 2e-4

    def test_small_n_rejected(self):
        d = derive_scales(unit_params())
        for bad in (0, 1, -3):
            with pytest.raises(DomainError):
                level_spacing_expansion(bad, d)


class TestRegime:
    def _scales_with_ratio(self, ratio):
        alpha = math.sqrt(2.0)
        return derive_scales(unit_params(beta=ratio * alpha))

    def test_high_t(self):
        assert classify_regime(self._scales_with_ratio(0.01)) is Regime.HIGH_T

    def test_low_t(self):
        assert classify_regime(self._scales_with_ratio(100.0)) is Regime.LOW_T

    def test_intermediate(self):
        assert classify_regime(self._scales_with_ratio(1.0)) is Regime.INTERMEDIATE

    @pytest.mark.parametrize(
        "ratio, regime",
        [
            (math.nextafter(0.1, 0.0), Regime.HIGH_T),
            (0.1, Regime.INTERMEDIATE),
            (10.0, Regime.INTERMEDIATE),
            (math.nextafter(10.0, math.inf), Regime.LOW_T),
        ],
    )
    def test_boundaries_are_the_window_factor(self, ratio, regime):
        # beta/alpha << 1 read as < WINDOW_FACTOR, >> 1 as > 1/WINDOW_FACTOR;
        # each boundary itself is intermediate
        d = DerivedScales(v=1.0, R_c=1.0, alpha=1.0, lambda_T=1.0, regime_ratio=ratio)
        assert classify_regime(d) is regime

    @pytest.mark.parametrize("keyword", ["r_lo", "r_hi"])
    def test_thresholds_are_not_keywords(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            classify_regime(self._scales_with_ratio(1.0), **{keyword: 0.1})

    def test_no_threshold_constant_exported(self):
        import trapgas
        from trapgas import model

        for name in ("DEFAULT_R_LO", "DEFAULT_R_HI"):
            assert not hasattr(trapgas, name) and not hasattr(model, name)
