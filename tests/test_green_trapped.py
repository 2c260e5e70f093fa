import math
from functools import partial
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from trapgas import (
    AccuracyError,
    CorrelatorQuery,
    DomainError,
    HomogSeriesControl,
    LowTControl,
    PhysicalParams,
    RegimeError,
    asympt_green_highT,
    asympt_green_lowT,
    classify_regime,
    closed_form_zero_mode,
    derive_scales,
    green_difference,
    homog_series,
    lowT_legendre_series,
    matsubara_assemble,
    rho_tf,
    spectral_densities,
    spectral_density,
)
from trapgas.cli import cmd_green, load_config
from trapgas.green_homogeneous import log_2sinh_abs
from trapgas.green_trapped import _density_parts, _k_coeff, _p_poly_integer_phase, _zero_mode_parts
from trapgas.oracle import brute_legendre_tail


def setup_params(**over):
    base = dict(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
    base.update(over)
    p = PhysicalParams(**base)
    return p, derive_scales(p)


def unit_radius_params(**over):
    # Omega = sqrt(2) gives R_c = 1 with m = Lambda = 1 (and v = 1)
    return setup_params(Omega=math.sqrt(2.0), **over)


class TestSpectralDensity:
    def test_zero_mode_reference_value(self):
        p, d = unit_radius_params()
        sd = spectral_density(0.0, 0.2, 0.1, p, d)
        assert_allclose(sd.re_part, 0.25 * math.log(27.0 / 22.0), rtol=1e-13)
        assert_allclose(sd.re_part / p.beta, closed_form_zero_mode(0.2, 0.1, p, d), rtol=1e-13)

    def test_zero_mode_identity_random_pairs(self):
        p, d = setup_params(Lambda=1.7, beta=0.8)
        rng = np.random.default_rng(5)
        for _ in range(40):
            x, xp = rng.uniform(-0.85 * d.R_c, 0.85 * d.R_c, size=2)
            sd = spectral_density(0.0, x, xp, p, d)
            assert_allclose(sd.re_part / p.beta, closed_form_zero_mode(x, xp, p, d), rtol=1e-10)

    def test_coincident_points_finite(self):
        p, d = setup_params()
        for omega in (0.0, 2.0 * math.pi):
            sd = spectral_density(omega, 0.3, 0.3, p, d)
            assert math.isfinite(sd.re_part)

    def test_symmetric_in_arguments(self):
        p, d = setup_params()
        for omega in (0.0, 0.3, 2.0 * math.pi):
            a = spectral_density(omega, 0.4, -0.2, p, d)
            b = spectral_density(omega, -0.2, 0.4, p, d)
            assert a.re_part == b.re_part
            assert a.im_part == b.im_part

    def test_derivative_jump_strength(self):
        p, d = setup_params()
        omega = 2.0 * math.pi
        xp = 0.1 * d.R_c
        up = xp / d.R_c
        step = 1e-4 * d.R_c
        g0 = spectral_density(omega, xp, xp, p, d).value
        gp = spectral_density(omega, xp + step, xp, p, d).value
        gm = spectral_density(omega, xp - step, xp, p, d).value
        jump = (1.0 - up * up) * ((gp - g0) / step - (g0 - gm) / step).real
        target = p.g / (p.hbar * d.v) ** 2
        assert abs(jump - target) < 5e-4 * target

    def test_real_nu_branch(self):
        # alpha|omega| < 1/2 gives a real degree in (-1/2, 0)
        p, d = setup_params()
        omega = 0.2 / d.alpha
        sd = spectral_density(omega, 0.3, 0.1, p, d)
        assert abs(sd.nu.imag) == 0.0
        assert -0.5 < sd.nu.real < 0.0
        assert math.isfinite(sd.re_part)

    def test_boundary_clamp_enforced(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            spectral_density(0.0, d.R_c * (1.0 - 1e-9), 0.0, p, d)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        p, d = unit_radius_params()
        with pytest.raises(DomainError, match="tolerance"):
            spectral_density(20.0 * math.pi, 0.3, -0.9, p, d, tol=tol)

    @staticmethod
    def _w_bracket(omega, x, xp, p, d):
        """Re and Im of G_omega(x, x') = -i (2K/pi) W_+(u_<) W_-(u_>), W_pm =
        Q_nu +- i (pi/2) P_nu, at 60 digits, at the arguments u = x/R_c the
        package rounds to."""
        k = p.g * d.R_c / (2.0 * (p.hbar * d.v) ** 2)
        with mp.workdps(60):
            nu = -0.5 + mp.sqrt(mp.mpf(0.25) - mp.mpf(d.alpha * omega) ** 2)

            def w(u, sign):
                return mp.legenq(nu, 0, u, type=2) + sign * 1j * (mp.pi / 2) * mp.legenp(nu, 0, u, type=2)

            lo, hi = sorted((x / d.R_c, xp / d.R_c))
            ref = -1j * (2 * k / mp.pi) * w(lo, +1) * w(hi, -1)
            return float(mp.re(ref)), float(mp.im(ref))

    @pytest.mark.parametrize("lam", [0.1, 0.25 + 0.8**2, 0.25 + 3.0**2, 0.25 + 9.0**2])
    def test_parts_match_mpmath_w_bracket_product(self, lam):
        # the real closed form against the product it replaces, on the real
        # branch (lambda = 0.1) and on the conical line
        p, d = unit_radius_params()
        omega = math.sqrt(lam) / d.alpha
        for x, xp in ((0.3, -0.2), (0.65, 0.7), (-0.5, -0.8)):
            sd = spectral_density(omega, x, xp, p, d)
            ref_re, ref_im = self._w_bracket(omega, x, xp, p, d)
            assert abs(sd.re_part - ref_re) < 1e-13 * abs(ref_re)
            assert abs(sd.im_part - ref_im) < 1e-12 * abs(ref_im)

    @pytest.mark.parametrize("beta", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("x, xp", [(0.3, 0.1), (-1.2, 0.5), (1.35, -1.38)])
    def test_real_branch_matches_w_bracket_product_at_low_temperature(self, beta, x, xp):
        # lambda = (2 pi alpha/beta)^2 down to 1e-15: the closed form's O(nu)
        # differences come from (P - 1)/nu, so nothing cancels to O(lambda)
        p, d = setup_params(beta=beta)
        omega = 2.0 * math.pi / beta
        sd = spectral_density(omega, x, xp, p, d)
        ref_re, ref_im = self._w_bracket(omega, x, xp, p, d)
        assert abs(sd.re_part - ref_re) <= 1e-13 * abs(ref_re)
        assert abs(sd.im_part - ref_im) <= 1e-13 * abs(ref_im)
        assert abs(sd.re_part - ref_re) <= sd.err_bound

    @pytest.mark.parametrize("omega", [2.0 * math.pi, 4.0 * math.pi])
    def test_next_to_the_clamp_matches_w_bracket_product(self, omega):
        # x = 0.99999 R_c: P_nu(-u) sits 1e-5 from its logarithmic singularity
        p, d = setup_params()
        x, xp = 0.99999 * d.R_c, 0.1 * d.R_c
        sd = spectral_density(omega, x, xp, p, d)
        ref_re, ref_im = self._w_bracket(omega, x, xp, p, d)
        assert abs(sd.re_part - ref_re) <= 1e-13 * abs(ref_re)
        assert abs(sd.im_part - ref_im) <= 1e-12 * abs(ref_im)

    def test_conical_im_part_is_the_true_value_at_large_degree(self):
        # at omega = 20 pi the true Im G sits some 80 decades below Re G, far
        # below its rounding; the closed form in 30-digit arithmetic is the reference
        p, d = unit_radius_params()
        omega = 20.0 * math.pi
        sd = spectral_density(omega, 0.3, -0.4, p, d)
        k = p.g * d.R_c / (2.0 * (p.hbar * d.v) ** 2)
        mu = mp.sqrt(mp.mpf(d.alpha * omega) ** 2 - mp.mpf(0.25))
        nu = -0.5 + 1j * mu

        def pp(u):
            return mp.re(mp.legenp(nu, 0, u, type=2))

        lo, hi = -0.4 / d.R_c, 0.3 / d.R_c
        ref = -(2 * k / mp.pi) * (mp.pi / 2) ** 2 * (pp(-lo) * pp(-hi) + pp(lo) * pp(hi)) / mp.cosh(mp.pi * mu) ** 2
        assert abs(float(ref)) < 1e-50 * abs(sd.re_part)
        assert abs(sd.im_part - float(ref)) < 1e-11 * abs(float(ref))

    def test_terms_are_counted(self):
        # four P_nu rows of 96 integrand evaluations each, at any degree
        p, d = setup_params()
        assert spectral_density(0.0, 0.3, 0.1, p, d).terms == 0
        terms = {spectral_density(omega, 0.3, 0.1, p, d).terms for omega in (2.0 * math.pi, 2000.0 * math.pi)}
        assert terms == {4 * 96}

    def test_value_stays_finite_at_large_degree(self):
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        omega = 10.0 * math.pi / p.beta  # alpha*omega ~ 2800
        sd = spectral_density(omega, 0.31, 0.3, p, d)
        assert math.isfinite(sd.re_part)


def test_angle_difference_is_relatively_accurate():
    # theta_< - theta_> sets the exponent mu (theta_< - theta_>) of the
    # dominant conical product, so its relative error is the density's
    from trapgas.green_trapped import _angle_difference

    rng = np.random.default_rng(7)
    a, b = rng.uniform(-0.999999, 0.999999, (2, 400))
    b[::2] = a[::2] + 1e-6 * np.abs(b[::2] - a[::2])  # close pairs, on one side of 0 or across it
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    got = _angle_difference(lo, hi)
    with mp.workdps(30):
        for g, x, y in zip(got, lo, hi):
            ref = mp.acos(x) - mp.acos(y)
            assert abs(g - ref) <= 4.0 * np.finfo(float).eps * ref


def _per_point(omega, xs, xp, p, d, tol):
    """spectral_density at each x, or the exception it raises there."""
    out = []
    for x in xs:
        try:
            out.append(spectral_density(omega, x, xp, p, d, tol))
        except (AccuracyError, DomainError) as exc:
            out.append(exc)
    return out


class TestSpectralDensities:
    """The batched table route against one spectral_density call per point."""

    @staticmethod
    def assert_same(batch, single):
        assert len(batch) == len(single)
        for b, s in zip(batch, single):
            if isinstance(s, Exception):
                assert type(b) is type(s) and str(b) == str(s)
            else:
                assert (b.re_part, b.im_part, b.err_bound, b.terms) == (s.re_part, s.im_part, s.err_bound, s.terms)
                assert (b.omega, b.nu, b.x, b.xp) == (s.omega, s.nu, s.x, s.xp)

    @pytest.mark.parametrize("omega", [0.0, 2.0 * math.pi, 20.0 * math.pi, 200.0 * math.pi])
    def test_sweep_geometry_equals_single_points(self, omega):
        # 81 points over +-0.995 R_c with x_ref = 0.1 R_c: the symmetric grid
        # makes +u of one point the -u of its mirror
        p, d = setup_params()
        xs = [float(x) for x in np.linspace(-0.995 * d.R_c, 0.995 * d.R_c, 81)]
        xp = 0.1 * d.R_c
        self.assert_same(spectral_densities(omega, xs, xp, p, d, 1e-12), _per_point(omega, xs, xp, p, d, 1e-12))

    def test_large_degree_subgrid_equals_single_points(self):
        p, d = setup_params()
        xs = [float(x) for x in np.linspace(-0.995 * d.R_c, 0.995 * d.R_c, 81)[::10]]
        assert xs[0] == -0.995 * d.R_c and xs[-1] == 0.995 * d.R_c and len(xs) == 9
        args = (2000.0 * math.pi, xs, 0.1 * d.R_c, p, d, 1e-12)
        self.assert_same(spectral_densities(*args), _per_point(*args))

    def test_clamped_and_capped_points_keep_their_own_errors(self):
        # x = R_c lies beyond the clamp; at tol = 1e-15, below the rounding
        # allowance of a product of two P_nu, every point inside the clamp
        # gets the AccuracyError of its own bound at omega = 2 pi, and none
        # at omega = 0, whose closed form has no bound
        p, d = setup_params()
        xs = [-0.6 * d.R_c, d.R_c, 0.3 * d.R_c, 0.99999 * d.R_c, 0.9 * d.R_c]
        for omega in (0.0, 2.0 * math.pi):
            batch = spectral_densities(omega, xs, 0.1 * d.R_c, p, d, 1e-15)
            self.assert_same(batch, _per_point(omega, xs, 0.1 * d.R_c, p, d, 1e-15))
            assert isinstance(batch[1], DomainError)
            inside = batch[:1] + batch[2:]
            assert all(isinstance(b, AccuracyError) for b in inside) if omega else not any(
                isinstance(b, Exception) for b in inside)
        assert f"x = {0.99999 * d.R_c!r}," in str(batch[3]) and "> tol = 1e-15 times |G_omega|" in str(batch[3])
        assert batch[3].achieved > 1e-15

    @pytest.mark.parametrize("grid", ["edge", "sweep"])
    def test_capped_grid_is_one_kernel_call(self, grid, monkeypatch):
        # a grid out to 0.99999 R_c, whose P_nu(-u) sits next to its
        # logarithmic singularity, takes one kernel call for all points
        from trapgas import green_trapped

        p, d = setup_params()
        if grid == "edge":  # -R_c lies beyond the boundary clamp
            xs = [float(x) for x in np.linspace(-d.R_c, 0.99999 * d.R_c, 9)]
        else:
            xs = [float(x) for x in np.linspace(-0.995 * d.R_c, 0.995 * d.R_c, 81)] + [0.99999 * d.R_c]
        args = (2.0 * math.pi, xs, 0.1 * d.R_c, p, d, 1e-12)
        kernel, calls = green_trapped._p_quad, []

        def counted(*a, **kw):
            calls.append(a)
            return kernel(*a, **kw)

        monkeypatch.setattr(green_trapped, "_p_quad", counted)
        batch = spectral_densities(*args)
        assert len(calls) == 1
        monkeypatch.undo()
        self.assert_same(batch, _per_point(*args))
        assert not any(isinstance(b, AccuracyError) for b in batch)

    def test_bad_tol_gives_every_point_the_kernel_error(self):
        p, d = setup_params()
        xs = [-0.6 * d.R_c, d.R_c, 0.3 * d.R_c]
        batch = spectral_densities(2.0 * math.pi, xs, 0.1 * d.R_c, p, d, math.nan)
        self.assert_same(batch, _per_point(2.0 * math.pi, xs, 0.1 * d.R_c, p, d, math.nan))
        assert "tolerance must be positive and finite, got nan" in str(batch[0])
        assert "boundary clamp" in str(batch[1])

    def test_green_table_rows_equal_the_per_point_path(self, tmp_path):
        # the rows trapped-spectral printed from one spectral_density call per point
        p, d = setup_params()
        ini = tmp_path / "grid.ini"
        ini.write_text(f"[grid]\nomega_list = 0, {2.0 * math.pi!r}\nx_ref = {0.1 * d.R_c!r}\n"
                       f"x_min = {-d.R_c!r}\nx_max = {0.99999 * d.R_c!r}\nx_count = 9\n")
        cfg = load_config(str(ini))
        _, rows, _ = cmd_green(cfg, SimpleNamespace(mode="trapped-spectral"))
        xs = [float(x) for x in np.linspace(-d.R_c, 0.99999 * d.R_c, 9)]
        x1, tau1, tol = cfg["grid.x_ref"], cfg["grid.tau_ref"], cfg["truncation.tol"]
        regime = classify_regime(d, cfg["regime.r_lo"], cfg["regime.r_hi"]).value
        expected = []
        for omega in cfg["grid.omegas"]:
            for x2, sd in zip(xs, _per_point(omega, xs, x1, p, d, tol)):
                if isinstance(sd, Exception):
                    expected.append((x1, tau1, x2, tau1, None, None, "trapped-spectral", None, regime, False,
                                     f"{type(sd).__name__}: {sd}"))
                else:
                    expected.append((x1, tau1, x2, tau1, sd.re_part, sd.im_part, "trapped-spectral", sd.err_bound,
                                     regime, False, "ok"))
        assert rows == expected
        assert sum(r[-1].startswith("DomainError") for r in rows) == 2
        assert sum(r[-1] == "ok" for r in rows) == 16


class TestClosedFormZeroMode:
    def test_equal_points(self):
        p, d = setup_params()
        assert closed_form_zero_mode(0.3, 0.3, p, d) == 0.0

    def test_reference_value(self):
        p, d = unit_radius_params()
        assert_allclose(closed_form_zero_mode(0.2, 0.1, p, d), 0.25 * math.log(27.0 / 22.0), rtol=1e-13)

    def test_quasi_homogeneous_linear_reduction(self):
        p, d = setup_params()
        s_half = 0.3 * d.R_c
        dx = 0.01 * d.R_c
        value = closed_form_zero_mode(s_half + dx / 2.0, s_half - dx / 2.0, p, d)
        linear = p.Lambda * dx / (2.0 * p.beta * (p.hbar * d.v) ** 2 * rho_tf(s_half, p, d))
        assert abs(value - linear) < 0.03 * abs(linear)

    def test_outside_support_rejected(self):
        # the log argument only turns non-positive once a point leaves the
        # condensate (interior pairs always give a positive ratio)
        p, d = setup_params()
        with pytest.raises(DomainError):
            closed_form_zero_mode(1.2 * d.R_c, 0.5 * d.R_c, p, d)


class TestMatsubaraAssemble:
    def test_single_term_is_zero_mode(self):
        p, d = setup_params()
        g = matsubara_assemble(0.3, 0.2, 0.1, 0.0, p, d, l_max=0)
        assert_allclose(g.value.real, closed_form_zero_mode(0.3, 0.1, p, d), rtol=1e-12)
        assert g.value.imag == 0.0

    def test_tau_reflection_conjugation(self):
        p, d = setup_params()
        g1 = matsubara_assemble(0.3, 0.35, 0.1, 0.0, p, d, l_max=6)
        g2 = matsubara_assemble(0.3, 0.0, 0.1, 0.35, p, d, l_max=6)
        assert g1.value == g2.value.conjugate()

    def test_depends_on_dtau_mod_beta(self):
        p, d = setup_params()
        g1 = matsubara_assemble(0.3, 0.25, 0.1, 0.0, p, d, l_max=5)
        g2 = matsubara_assemble(0.3, 0.25 + p.beta, 0.1, 0.0, p, d, l_max=5)
        assert_allclose(g1.value.real, g2.value.real, rtol=1e-10)

    def test_coincident_point_accuracy_error(self):
        p, d = setup_params()
        with pytest.raises(AccuracyError):
            matsubara_assemble(0.3, 0.2, 0.3, 0.2, p, d, l_max=4)

    def test_bound_beyond_tol_names_its_first_frequency(self):
        # at tol = 1e-15 every frequency's bound is beyond tol; the error
        # names the first, omega = 2 pi/beta
        p, d = setup_params()
        with pytest.raises(AccuracyError) as err:
            matsubara_assemble(0.45, 0.2, 0.31, 0.0, p, d, l_max=8, tol=1e-15)
        omega = 2.0 * math.pi / p.beta
        sd = spectral_density(omega, 0.45, 0.31, p, d)
        assert str(err.value).startswith(f"spectral density at omega = {omega:.6g}, x = 0.45, x' = 0.31:")
        assert err.value.achieved == sd.err_bound / abs(sd.value) > 1e-15

    @pytest.mark.parametrize("beta", [0.05 * math.sqrt(2.0), 1.0, 100.0 * math.sqrt(2.0)])
    def test_bitwise_symmetric_under_argument_swap(self, beta):
        # correlator tables evaluate one assembly for both G(1;2) and G(2;1)
        p, d = setup_params(beta=beta)
        for x, xp in ((0.45, 0.31), (-0.2, 0.6), (0.9, -0.05)):  # off-centre midpoints
            for dtau in (0.0, 0.13 * beta, -0.4 * beta):
                if x == xp and dtau == 0.0:
                    continue
                g12 = matsubara_assemble(x, 0.07 + dtau, xp, 0.07, p, d, l_max=12)
                g21 = matsubara_assemble(xp, 0.07, x, 0.07 + dtau, p, d, l_max=12)
                assert g12.value == g21.value

    @pytest.mark.parametrize("beta", [0.05 * math.sqrt(2.0), 1.0, 100.0 * math.sqrt(2.0)])
    def test_matches_fold_of_spectral_densities(self, beta):
        # the batched pass against one spectral_density call per frequency;
        # at beta = 100 sqrt(2) the first frequencies lie on the real branch
        p, d = setup_params(beta=beta)
        l_max = 40
        for x, xp, dtau in ((0.45, 0.31, 0.0), (-0.2, 0.6, 0.13 * beta), (0.3, 0.1, -0.4 * beta)):
            g = matsubara_assemble(x, dtau, xp, 0.0, p, d, l_max=l_max)
            # the fold runs over the frequencies the assembly summed
            sds = [spectral_density(2.0 * math.pi * l / beta, x, xp, p, d) for l in range(g.meta["frequencies"])]
            fold = sds[0].re_part + sum(2.0 * math.cos(sd.omega * dtau) * sd.re_part for sd in sds[1:])
            assert abs(g.value.real - fold / beta) <= 1e-14 * abs(fold / beta)
            assert g.meta["terms"] == sum(sd.terms for sd in sds)
            assert g.meta["frequencies"] <= l_max + 1

    def test_truncation_estimate_decays(self):
        p, d = setup_params()
        est = [matsubara_assemble(0.4, 0.1, 0.1, 0.0, p, d, l_max=l).trunc_err for l in (2, 6, 12)]
        assert est[0] > est[1] > est[2] > 0.0

    @settings(max_examples=25, deadline=None)
    @example(beta=0.1, s=0.0, sep=0.125, dtau=0.0, tol=1e-12)  # the two sums round one ulp apart, within trunc_err
    @given(
        beta=st.floats(math.log10(0.05), 1.0).map(lambda e: 10.0**e),
        s=st.floats(-0.9, 0.9),
        sep=st.floats(0.003, 0.3),
        dtau=st.just(0.0) | st.floats(-1.0, 1.0),
        tol=st.sampled_from([1e-12, 1e-10, 1e-8]),
    )
    def test_frequency_stop_leaves_out_at_most_its_estimate(self, beta, s, sep, dtau, tol):
        # the frequencies past the stop L, to the cap l_max = 3000, add up to
        # no more than the reported trunc_err and tol; the reference folds all
        # 3000 densities without the stop.  trunc_err counts the rounding of
        # both sums
        p, d = setup_params(beta=beta)
        x, xp = (s + sep / 2.0) * d.R_c, (s - sep / 2.0) * d.R_c
        assume(max(abs(x), abs(xp)) < 0.999 * d.R_c)
        l_max = 3000
        g = matsubara_assemble(x, dtau * beta, xp, 0.0, p, d, l_max=l_max, tol=tol)
        u, up, k = x / d.R_c, xp / d.R_c, _k_coeff(p, d)
        omegas = 2.0 * math.pi * np.arange(1, l_max + 1) / beta
        re = _density_parts(omegas, u, up, d, k, tol)[0]
        fold = (_zero_mode_parts(u, up, k)[0] + 2.0 * math.fsum(np.cos(omegas * abs(dtau * beta)) * re)) / beta
        assert abs(g.value - fold) <= min(g.trunc_err, tol)
        swapped = matsubara_assemble(xp, 0.0, x, dtau * beta, p, d, l_max=l_max, tol=tol)
        assert swapped.meta["frequencies"] == g.meta["frequencies"]

    def test_frequency_stop_counts_the_work_that_ran(self):
        # correlator-precise's widest pair: the envelope meets tol = 1e-12 at
        # L = 26 of the cap 256
        p, d = setup_params()
        s, sep = 0.2 * d.R_c, 0.1 * d.R_c
        g = matsubara_assemble(s + sep / 2.0, 0.0, s - sep / 2.0, 0.0, p, d, l_max=256, tol=1e-12)
        assert g.meta["l_max"] == 256 and g.meta["frequencies"] == 27
        assert g.meta["terms"] == 4 * 96 * 26
        assert g.trunc_err <= 1e-12

    def test_frequency_stop_at_equal_positions_runs_to_the_cap(self):
        p, d = setup_params()
        g = matsubara_assemble(0.3, 0.2, 0.3, 0.0, p, d, l_max=40, tol=1e-8)
        assert g.meta["frequencies"] == 41
        assert g.warning.startswith("dx = 0")

    def test_homogeneous_limit_degenerates_to_flat_series(self):
        # 1/R_c -> 0 at fixed separations: trapped differences approach the
        # homogeneous-series differences within 2%
        p, d = setup_params(Omega=math.sqrt(2.0) / 25.0, beta=0.5)  # R_c = 25
        ctl = HomogSeriesControl(l_max=160, n_max=3000)
        pair_a = CorrelatorQuery(0.175, 0.1 * p.beta, -0.175, 0.0)
        pair_b = CorrelatorQuery(0.1, 0.0, -0.1, 0.0)
        d_trap = green_difference(partial(matsubara_assemble, p=p, d=d, l_max=8), pair_a, pair_b)
        d_hom = green_difference(partial(homog_series, p=p, d=d, ctl=ctl), pair_a, pair_b)
        assert abs(d_trap.value - d_hom.value) < 0.02 * abs(d_hom.value)


class TestLowTSeries:
    def _lowT(self, ratio=100.0, **over):
        alpha = math.sqrt(2.0)
        return setup_params(beta=ratio * alpha, **over)

    def test_tail_treatment_matches_brute_mode_sum(self):
        # reconstruct the split-and-resummed representation with a large
        # crossover index (oracle comparison, no validity gate involved) and
        # compare against the direct mode sum with exact polynomials
        from trapgas.green_trapped import _geometric_tail
        from trapgas.legendre import p_poly_table

        p, d = self._lowT()
        x, xp = 0.006 * d.R_c, -0.004 * d.R_c
        dtau = 0.05 * d.alpha
        n0 = 150
        hv = p.hbar * d.v
        theta, theta_p = math.acos(x / d.R_c), math.acos(xp / d.R_c)
        t = math.exp(-dtau / d.alpha)
        tau_hat = dtau / p.beta
        bracket = -(p.g * p.beta / (4.0 * d.R_c)) * ((0.5 - tau_hat) ** 2 - 1.0 / 12.0)
        pn_u = p_poly_table(n0, x / d.R_c)
        pn_up = p_poly_table(n0, xp / d.R_c)
        corr = 0.0
        for n in range(1, n0 + 1):
            root = math.sqrt(n * (n + 1.0))
            corr += (n + 0.5) / root * pn_u[n] * pn_up[n] * math.exp(-root * dtau / d.alpha)
            corr -= (
                _p_poly_integer_phase(n, theta)
                * _p_poly_integer_phase(n, theta_p)
                * math.exp(-(n + 0.5) * dtau / d.alpha)
            )
        resummed = (
            bracket
            - (p.g / (2.0 * hv)) * corr
            - (p.g / (2.0 * hv)) * math.exp(-dtau / (2.0 * d.alpha)) * _geometric_tail(t, theta, theta_p)
        )
        brute = bracket - (p.g / (2.0 * hv)) * brute_legendre_tail(x, xp, dtau, p, d, 200_000)
        assert abs(resummed - brute) < 1e-4 * abs(brute)

    def test_geometric_tail_closed_form_vs_direct_sum(self):
        p, d = self._lowT()
        theta, theta_p = math.acos(0.05), math.acos(-0.02)
        dtau = 0.02 * d.alpha
        t = math.exp(-dtau / d.alpha)
        direct = 0.0
        for n in range(1, 20_000):
            direct += t**n * _p_poly_integer_phase(n, theta) * _p_poly_integer_phase(n, theta_p)
        from trapgas.green_trapped import _geometric_tail

        closed = _geometric_tail(t, theta, theta_p)
        assert abs(closed - direct) < 1e-6 * max(1.0, abs(direct))

    def test_gate_violations_named(self):
        p, d = self._lowT()
        with pytest.raises(RegimeError, match="n0"):
            lowT_legendre_series(0.3 * d.R_c, 0.3 * d.alpha, -0.3 * d.R_c, 0.0, p, d, LowTControl(n0=20))
        with pytest.raises(RegimeError, match="n0 >= 5"):
            lowT_legendre_series(0.01, 0.001 * d.alpha, 0.0, 0.0, p, d, LowTControl(n0=2))

    def test_wrong_regime_rejected(self):
        p, d = setup_params()  # beta/alpha ~ 0.7
        with pytest.raises(RegimeError, match="beta E_1"):
            lowT_legendre_series(0.1, 0.2, 0.0, 0.0, p, d)

    def test_equal_times_rejected(self):
        p, d = self._lowT()
        with pytest.raises(DomainError):
            lowT_legendre_series(0.1, 0.5, 0.0, 0.5, p, d)

    @pytest.mark.parametrize("ratio", [20.0, 100.0, 1000.0])
    def test_bitwise_symmetric_under_argument_swap(self, ratio):
        # correlator tables evaluate the series once for both G(1;2) and
        # G(2;1); the pairs (0.21, 0.19) R_c at dtau = 0.005 and (0.31, 0.29) R_c
        # at dtau = 0.003 round differently under the swap unless the mode sum
        # forms P_n(u) P_n(u') before weighting it
        p, d = self._lowT(ratio)
        for s_half in (-0.5, -0.2, 0.0, 0.2, 0.3, 0.45):
            for sep in (0.002, 0.005, 0.01, 0.02, 0.03):
                for dtau in (0.001, 0.003, 0.005, 0.01, 0.02):
                    x, xp = (s_half + sep / 2.0) * d.R_c, (s_half - sep / 2.0) * d.R_c
                    g12 = lowT_legendre_series(x, 0.07 + dtau, xp, 0.07, p, d)
                    g21 = lowT_legendre_series(xp, 0.07, x, 0.07 + dtau, p, d)
                    assert g12.value == g21.value
        for x, xp, dtau in ((0.21, 0.19, 0.005), (0.31, 0.29, 0.003)):
            g12 = lowT_legendre_series(x * d.R_c, dtau, xp * d.R_c, 0.0, p, d)
            g21 = lowT_legendre_series(xp * d.R_c, 0.0, x * d.R_c, dtau, p, d)
            assert g12.value == g21.value

    def test_min_dtau_warning(self):
        p, d = self._lowT()
        ctl = LowTControl(n0=10, min_dtau=1e-2)
        g = lowT_legendre_series(0.02, 1e-4 * p.beta, 0.0, 0.0, p, d, ctl)
        assert g.warning is not None and "min_dtau" in g.warning

    def test_trunc_err_is_the_n0_doubling_drift(self):
        # the pass runs on to 2 n0; the value is the n0 one, the change the error
        p, d = self._lowT()
        ctl = LowTControl(n0=20, min_dtau=1e-6)
        args = (0.012 * d.R_c, 0.005 * d.alpha, -0.008 * d.R_c, 0.0, p, d)
        g1 = lowT_legendre_series(*args, ctl)
        g2 = lowT_legendre_series(*args, LowTControl(n0=40, min_dtau=1e-6))
        assert g1.meta["n0"] == 20 and g1.trunc_err == abs(g2.value - g1.value)
        assert 0.0 < g1.trunc_err < 0.02 * abs(g1.value)

    def test_bernoulli_bracket_sign_at_half_beta(self):
        # at dtau = beta/2 the bracket reduces to +g beta/(48 R_c); checked on
        # the implementation's own pieces via dtau-dependence of the value at
        # fixed spatial arguments (x = x' = 0 kills odd modes)
        p, d = self._lowT()
        ctl = LowTControl(n0=20, min_dtau=1e-6)
        dtau = 0.004 * d.alpha
        val = lowT_legendre_series(0.0, dtau, 0.0, 0.0, p, d, ctl).value
        tau_hat = dtau / p.beta
        bracket = -(p.g * p.beta / (4.0 * d.R_c)) * ((0.5 - tau_hat) ** 2 - 1.0 / 12.0)
        # mode sum is strictly negative for x = x' (squared polynomials)
        assert val < bracket
        assert_allclose(
            -(p.g * p.beta / (4.0 * d.R_c)) * ((0.5 - 0.5) ** 2 - 1.0 / 12.0),
            p.g * p.beta / (48.0 * d.R_c),
            rtol=1e-15,
        )


def lg_density(omegas, x, xp, p, d):
    """Liouville-Green (WKB) spectral density at |omega| >> 1/alpha, in the
    optical distance R_c |arcsin u - arcsin u'|."""
    u, up = x / d.R_c, xp / d.R_c
    hv = p.hbar * d.v
    optical = d.R_c * abs(math.asin(u) - math.asin(up))
    amp = -(p.g / (2.0 * hv * omegas)) * ((1 - u * u) * (1 - up * up)) ** -0.25
    return amp * np.exp(-omegas * optical / hv)


class TestTrappedAsymptotics:
    def _highT(self):
        return setup_params(beta=0.05 * math.sqrt(2.0))

    @pytest.mark.parametrize("alpha_omega", [5.0, 8.0, 12.0])
    def test_lg_density_matches_exact_for_large_alpha_omega(self, alpha_omega):
        # the WKB error falls as 1/(alpha omega)^2: 0.34-0.37 times it here
        p, d = self._highT()
        omega = alpha_omega / d.alpha
        for s_half in (0.1, 0.5):
            x, xp = (s_half + 0.01) * d.R_c, (s_half - 0.01) * d.R_c
            exact = spectral_density(omega, x, xp, p, d).re_part
            approx = lg_density(omega, x, xp, p, d)
            assert abs(approx / exact - 1.0) < 0.5 / alpha_omega**2

    def test_green_highT_matches_assembly_without_a_window(self):
        # off-centre midpoints and separations up to 0.3 R_c, far outside any
        # quasi-homogeneous window; l_max = 400 leaves a tail below 1e-12
        p, d = self._highT()
        worst = 0.0
        for s_half in (-0.45, 0.0, 0.5, 0.7):
            for sep in (0.01, 0.03, 0.1, 0.3):
                for dtau in (0.0, 0.3 * p.beta):
                    x, xp = (s_half + sep / 2.0) * d.R_c, (s_half - sep / 2.0) * d.R_c
                    g = asympt_green_highT(x, dtau, xp, 0.0, p, d)
                    assert g.method == "trapped-asympt-highT" and not g.const_free
                    assert asympt_green_highT(xp, 0.0, x, dtau, p, d).value == g.value
                    exact = matsubara_assemble(x, dtau, xp, 0.0, p, d, l_max=400).value
                    worst = max(worst, abs(g.value - exact))
        assert worst < 5e-6  # 2.6e-6 at S = 0.7 R_c, separation 0.01 R_c

    def test_green_highT_is_the_summed_lg_density(self):
        # (1/beta) sum_{l != 0} e^{i omega dtau} G_LG(omega), summed term by term
        p, d = self._highT()
        x, xp, dtau = 0.35 * d.R_c, 0.3 * d.R_c, 0.2 * p.beta
        omegas = 2.0 * math.pi * np.arange(1, 201) / p.beta
        g_lg = lg_density(omegas, x, xp, p, d)
        zero_mode = spectral_density(0.0, x, xp, p, d).re_part / p.beta
        direct = zero_mode + (2.0 / p.beta) * math.fsum(np.cos(omegas * dtau) * g_lg)
        assert_allclose(asympt_green_highT(x, dtau, xp, 0.0, p, d).value, direct, rtol=1e-13)

    def test_green_highT_center_matches_homogeneous_prefactor(self):
        # at the centre the non-zero modes are the homogeneous thermal log with
        # the central prefactor g/(2 pi hbar v), up to O(u^2) corrections of the
        # amplitude and the optical distance: 1.2e-5 relative at most here
        p, d = self._highT()
        hv = p.hbar * d.v
        for dx in (0.01, 0.03):
            for dtau in (0.0, 0.2 * p.beta):
                g = asympt_green_highT(dx / 2.0, dtau, -dx / 2.0, 0.0, p, d).value
                z = (math.pi / d.lambda_T) * complex(dx, hv * dtau)
                homogeneous = (p.g / (2.0 * math.pi * hv)) * (log_2sinh_abs(z) - z.real)
                assert_allclose(g - closed_form_zero_mode(dx / 2.0, -dx / 2.0, p, d), homogeneous, rtol=2e-5)

    def test_green_highT_even_about_half_beta(self):
        # Bose periodicity and evenness in dtau: G(dtau) = G(beta - dtau)
        p, d = self._highT()
        for frac in (0.1, 0.3, 0.45):
            early = asympt_green_highT(0.3 * d.R_c, frac * p.beta, 0.1 * d.R_c, 0.0, p, d).value
            late = asympt_green_highT(0.3 * d.R_c, (1.0 - frac) * p.beta, 0.1 * d.R_c, 0.0, p, d).value
            assert_allclose(early, late, rtol=1e-14)

    def test_green_highT_linear_slope_matches_inverse_xi(self):
        # beyond lambda_T the zero mode carries the slope, which is 1/xi(S)
        p, d = self._highT()
        s_half = 0.45 * d.R_c
        dx1, dx2 = 2.2 * d.lambda_T, 3.2 * d.lambda_T
        g1 = asympt_green_highT(s_half + dx1 / 2.0, 0.0, s_half - dx1 / 2.0, 0.0, p, d).value
        g2 = asympt_green_highT(s_half + dx2 / 2.0, 0.0, s_half - dx2 / 2.0, 0.0, p, d).value
        slope = (g2 - g1) / (dx2 - dx1)
        rate = p.Lambda / (2.0 * p.beta * (p.hbar * d.v) ** 2 * rho_tf(s_half, p, d))
        assert abs(slope - rate) < 0.03 * rate

    def test_green_highT_edge_layer(self):
        # toward the edge the WKB amplitude grows without bound while the exact
        # density stays finite; mu_1 arccos|u| >= 10 keeps |dG| below 3e-3
        p, d = self._highT()
        mu_1 = 2.0 * math.pi * d.alpha / p.beta
        for u in (0.99, math.cos(10.01 / mu_1)):
            for sep in (1e-4, 1e-3):
                x, xp = u * d.R_c, (u - sep) * d.R_c
                exact = matsubara_assemble(x, 0.0, xp, 0.0, p, d, l_max=2000).value
                assert abs(asympt_green_highT(x, 0.0, xp, 0.0, p, d).value - exact) < 3e-3
        for u in (0.9999, 0.999999):
            with pytest.raises(RegimeError, match=r"edge layer"):
                asympt_green_highT(u * d.R_c, 0.0, 0.5 * d.R_c, 0.0, p, d)
            with pytest.raises(RegimeError, match=r"edge layer"):
                asympt_green_highT(-0.5 * d.R_c, 0.0, -u * d.R_c, 0.0, p, d)

    def test_green_highT_gate_clamp_and_divergence(self):
        p, d = setup_params()
        with pytest.raises(RegimeError, match="beta/alpha"):
            asympt_green_highT(0.11, 0.0, 0.09, 0.0, p, d)
        p2, d2 = self._highT()
        assert math.isfinite(asympt_green_highT(0.9 * d2.R_c, 0.0, -0.9 * d2.R_c, 0.0, p2, d2).value)
        with pytest.raises(DomainError, match="boundary clamp"):
            asympt_green_highT(d2.R_c, 0.0, 0.0, 0.0, p2, d2)
        assert asympt_green_highT(0.1, 0.3 * p2.beta, 0.1, 0.3 * p2.beta, p2, d2).divergent

    def test_green_lowT_sign_and_gate(self):
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        ctl = LowTControl(n0=10)
        g = asympt_green_lowT(0.02 * d.R_c, 0.01 * d.alpha, -0.02 * d.R_c, 0.0, p, d, ctl)
        assert g.value.real < 0.0
        assert g.const_free
        # u_* = 1: the formula's log vanishes but the validity gate rejects it
        with pytest.raises(RegimeError, match="n0"):
            asympt_green_lowT(d.R_c * 0.7, 0.0, -d.R_c * 0.3, 0.0, p, d, ctl)

    def test_green_lowT_divergence_marker(self):
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        assert asympt_green_lowT(0.1, 0.3, 0.1, 0.3, p, d).divergent
