import math
import re
from functools import partial
from types import SimpleNamespace
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from trapgas import (
    BOUNDARY_EPS,
    AccuracyError,
    CorrelatorQuery,
    DomainError,
    GreenValue,
    PhysicalParams,
    RegimeError,
    SpectralDensity,
    asympt_green_highT,
    asympt_green_lowT,
    classify_regime,
    closed_form_green,
    derive_scales,
    green_difference,
    homog_asymptotic_highT,
    homog_asymptotic_lowT,
    homog_series,
    lowT_legendre_series,
    lowT_legendre_series_many,
    matsubara_assemble,
    matsubara_assemble_many,
    rho_tf,
    spectral_densities,
    spectral_density,
    theta_at,
    theta_homogeneous,
)
from trapgas import green_trapped, legendre
from trapgas.cli import cmd_green, load_config
from trapgas.green_homogeneous import log_2sinh_abs
from trapgas.green_trapped import _checked_lambda, _density_parts, _k_coeff, _zero_mode
from trapgas.legendre import _nu_real
from trapgas.oracle import brute_legendre_tail


def _no_far_rows(mu, lo, hi):
    """``green_trapped._far_rows`` with no row far: every row integrates four P_nu."""
    return np.zeros(np.shape(mu), dtype=bool)


def _raise(exc):
    raise exc


def setup_params(**over):
    base = dict(m=1.0, g=1.0, Omega=1.0, Lambda=1.0, beta=1.0)
    base.update(over)
    p = PhysicalParams(**base)
    return p, derive_scales(p)


def unit_radius_params(**over):
    # Omega = sqrt(2) gives R_c = 1 with m = Lambda = 1 (and v = 1)
    return setup_params(Omega=math.sqrt(2.0), **over)


class TestCheckedLambda:
    """``_checked_lambda``, the one check of a frequency: lambda = (alpha
    omega)^2, or the DomainError that names a NaN or an overflowing square."""

    def _scales(self, alpha):
        # alpha = R_c/(hbar v); with m = Lambda = 1 (v = 1) choose Omega = sqrt(2)/alpha
        return derive_scales(PhysicalParams(m=1.0, g=1.0, Omega=math.sqrt(2.0) / alpha, Lambda=1.0, beta=1.0))

    def test_zero_frequency(self):
        assert _checked_lambda(0.0, self._scales(1.0)) == 0.0

    def test_even_in_omega(self):
        d = self._scales(1.3)
        assert _checked_lambda(2.0, d) == _checked_lambda(-2.0, d) == (d.alpha * 2.0) ** 2

    @pytest.mark.parametrize("alpha, omega", [(1.0, 1e300), (1e10, 1e300), (1.0, 1.4e154)])
    def test_overflowing_square_is_domain_error(self, alpha, omega):
        # (alpha omega)^2 overflows a float past alpha omega = 1.34e154, and
        # alpha omega itself overflows to inf at alpha = 1e10, omega = 1e300
        d = self._scales(alpha)
        message = f"omega = {omega!r}: (alpha omega)^2 overflows a float (alpha omega = {d.alpha * omega!r})"
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            _checked_lambda(omega, d)

    def test_nan_frequency_is_named(self):
        with pytest.raises(DomainError, match=r"^omega = nan: alpha omega is nan$"):
            _checked_lambda(math.nan, self._scales(1.0))

    def test_largest_finite_square_is_kept(self):
        lam = _checked_lambda(1.34e154, self._scales(1.0))
        assert math.isfinite(lam) and lam == pytest.approx(1.34e154**2, rel=1e-15)

    def test_spectral_table_raises_it_before_any_point(self, monkeypatch):
        p, d = setup_params()
        calls = []
        monkeypatch.setattr(green_trapped, "_clamped_u", lambda *a: calls.append(a))
        with pytest.raises(DomainError, match=r"^omega = 1e\+300: \(alpha omega\)\^2 overflows a float"):
            spectral_densities(1e300, [0.1, 0.2], 0.0, p, d)
        assert calls == []


class TestSpectralDensity:
    def test_zero_mode_reference_value(self):
        p, d = unit_radius_params()
        sd = spectral_density(0.0, 0.2, 0.1, p, d)
        assert_allclose(sd.re_part, 0.25 * math.log(27.0 / 22.0), rtol=1e-13)

    def test_closed_form_refusal_names_its_arguments(self):
        # a library caller has no grid: the refusal names tau - tau', not a config key
        p, d = unit_radius_params()
        with pytest.raises(DomainError, match=r"^closed-form correlator is equal-time; got tau - tau' = 0\.25$"):
            closed_form_green(0.2, 0.5, 0.1, 0.25, p, d)

    def test_zero_mode_identity_random_pairs(self):
        # the paper's equal-time zero mode, (g R_c/(beta (2 hbar v)^2)) ln[((1 +
        # |dx|/2R_c)^2 - s^2)/((1 - |dx|/2R_c)^2 - s^2)], s = (x + x')/(2 R_c)
        p, d = setup_params(Lambda=1.7, beta=0.8)
        rng = np.random.default_rng(5)
        for _ in range(40):
            x, xp = rng.uniform(-0.85 * d.R_c, 0.85 * d.R_c, size=2)
            half_d, half_s = abs(x - xp) / (2.0 * d.R_c), (x + xp) / (2.0 * d.R_c)
            ratio = ((1.0 + half_d) ** 2 - half_s**2) / ((1.0 - half_d) ** 2 - half_s**2)
            paper = p.g * d.R_c / (p.beta * (2.0 * p.hbar * d.v) ** 2) * math.log(ratio)
            assert_allclose(spectral_density(0.0, x, xp, p, d).re_part / p.beta, paper, rtol=1e-10)

    def test_zero_mode_within_its_bound_of_40_digits(self):
        # G_0 = K |atanh u - atanh u'| at 40 digits: same-sign pairs 1e-4,
        # 1e-8 and 1e-12 apart, where the difference of two atanh cancels (it
        # was off by 1.9e-6 relative at 1e-12), opposite-sign pairs out to the
        # boundary clamp, and random pairs.  Each value lies within its
        # reported bound, a few eps of it, and is bitwise the same with its
        # two points swapped
        p, d = unit_radius_params()
        k = _k_coeff(p, d)
        edge = 1.0 - BOUNDARY_EPS
        rng = np.random.default_rng(33)
        pairs = [(u, u - sep) for sep in (1e-4, 1e-8, 1e-12) for u in rng.uniform(-edge + sep, edge, 40)]
        pairs += [(u, -v) for u, v in rng.uniform(0.5, edge, (40, 2))]
        pairs += [(edge, -edge), (edge, -0.5), (-edge, edge - 1e-12), (edge, 0.0)]
        pairs += [tuple(uv) for uv in rng.uniform(-edge, edge, (100, 2))]
        us, ups = np.array(pairs).T
        re, err, scale, rows = _density_parts(0.0, np.concatenate([us, ups]), np.concatenate([ups, us]), d, k, 1e-13)
        n = len(pairs)
        assert re[:n].tobytes() == re[n:].tobytes() and not rows.any()
        assert_allclose(scale[:n], np.abs(re[:n]), rtol=0.0)
        with mp.workdps(40):
            exact = [k * abs(mp.atanh(mp.mpf(u)) - mp.atanh(mp.mpf(up))) for u, up in pairs]
        errors = np.array([float(abs(mp.mpf(g) - g_exact)) for g, g_exact in zip(re[:n].tolist(), exact)])
        assert np.all(errors <= err[:n])
        assert np.all(err[:n] <= 5.0 * np.finfo(float).eps * np.abs(re[:n]))

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

    def test_derivative_jump_strength(self):
        p, d = setup_params()
        omega = 2.0 * math.pi
        xp = 0.1 * d.R_c
        up = xp / d.R_c
        step = 1e-4 * d.R_c
        g0 = spectral_density(omega, xp, xp, p, d).re_part
        gp = spectral_density(omega, xp + step, xp, p, d).re_part
        gm = spectral_density(omega, xp - step, xp, p, d).re_part
        jump = (1.0 - up * up) * ((gp - g0) / step - (g0 - gm) / step)
        target = p.g / (p.hbar * d.v) ** 2
        assert abs(jump - target) < 5e-4 * target

    def test_real_nu_branch(self):
        # alpha|omega| < 1/2 gives a real degree in (-1/2, 0)
        p, d = setup_params()
        omega = 0.2 / d.alpha
        lam = _checked_lambda(omega, d)
        assert lam <= 0.25 and -0.5 < _nu_real(lam) < 0.0
        assert math.isfinite(spectral_density(omega, 0.3, 0.1, p, d).re_part)

    @pytest.mark.parametrize("omega", [1e-170, -1e-170, 1e-20, 2e-9])
    def test_degree_below_half_an_ulp_of_a_quarter_is_the_zero_mode(self, omega):
        # lambda below 2^-56 leaves 1/4 - lambda at 1/4: the density is the
        # zero mode's closed form, bitwise, also where lambda underflows to 0
        # and the real branch's nu/sin(pi nu) would be 0/0
        p, d = setup_params()
        assert 0.25 - _checked_lambda(omega, d) == 0.25
        xs = [-0.6 * d.R_c, 0.3 * d.R_c]
        zero = spectral_densities(0.0, xs, 0.1 * d.R_c, p, d)
        tiny = spectral_densities(omega, xs, 0.1 * d.R_c, p, d)
        assert [(sd.re_part.hex(), sd.err_bound) for sd in tiny] == [(sd.re_part.hex(), sd.err_bound) for sd in zero]

    def test_boundary_clamp_enforced(self):
        p, d = setup_params()
        with pytest.raises(DomainError):
            spectral_density(0.0, d.R_c * (1.0 - 1e-9), 0.0, p, d)
        # a NaN point fails the clamp on both branches and at the zero mode
        for omega in (0.0, 0.2, 2.0 * math.pi):
            for x, xp in ((math.nan, 0.1), (0.1, math.nan)):
                with pytest.raises(DomainError, match=r"^\|x\|/R_c = nan exceeds the boundary clamp"):
                    spectral_density(omega, x, xp, p, d)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        p, d = unit_radius_params()
        with pytest.raises(DomainError, match="tolerance"):
            spectral_density(20.0 * math.pi, 0.3, -0.9, p, d, tol=tol)

    @staticmethod
    def _w_bracket(omega, x, xp, p, d):
        """G_omega(x, x') = Re[-i (2K/pi) W_+(u_<) W_-(u_>)], W_pm = Q_nu +-
        i (pi/2) P_nu, at 60 digits, at the arguments u = x/R_c the package
        rounds to."""
        k = p.g * d.R_c / (2.0 * (p.hbar * d.v) ** 2)
        with mp.workdps(60):
            nu = -0.5 + mp.sqrt(mp.mpf(0.25) - mp.mpf(d.alpha * omega) ** 2)

            def w(u, sign):
                return mp.legenq(nu, 0, u, type=2) + sign * 1j * (mp.pi / 2) * mp.legenp(nu, 0, u, type=2)

            lo, hi = sorted((x / d.R_c, xp / d.R_c))
            ref = -1j * (2 * k / mp.pi) * w(lo, +1) * w(hi, -1)
            return float(mp.re(ref))

    @pytest.mark.parametrize("lam", [0.1, 0.25 + 0.8**2, 0.25 + 3.0**2, 0.25 + 9.0**2])
    def test_parts_match_mpmath_w_bracket_product(self, lam):
        # the real closed form against the product it replaces, on the real
        # branch (lambda = 0.1) and on the conical line
        p, d = unit_radius_params()
        omega = math.sqrt(lam) / d.alpha
        for x, xp in ((0.3, -0.2), (0.65, 0.7), (-0.5, -0.8)):
            sd = spectral_density(omega, x, xp, p, d)
            ref = self._w_bracket(omega, x, xp, p, d)
            assert abs(sd.re_part - ref) < 1e-13 * abs(ref)

    @pytest.mark.parametrize("beta", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("x, xp", [(0.3, 0.1), (-1.2, 0.5), (1.35, -1.38)])
    def test_real_branch_matches_w_bracket_product_at_low_temperature(self, beta, x, xp):
        # lambda = (2 pi alpha/beta)^2 down to 1e-15: the closed form's O(nu)
        # differences come from (P - 1)/nu, so nothing cancels to O(lambda)
        p, d = setup_params(beta=beta)
        omega = 2.0 * math.pi / beta
        sd = spectral_density(omega, x, xp, p, d)
        ref = self._w_bracket(omega, x, xp, p, d)
        assert abs(sd.re_part - ref) <= 1e-13 * abs(ref)
        assert abs(sd.re_part - ref) <= sd.err_bound

    @pytest.mark.parametrize("omega", [2.0 * math.pi, 4.0 * math.pi])
    def test_next_to_the_clamp_matches_w_bracket_product(self, omega):
        # x = 0.99999 R_c: P_nu(-u) sits 1e-5 from its logarithmic singularity
        p, d = setup_params()
        x, xp = 0.99999 * d.R_c, 0.1 * d.R_c
        sd = spectral_density(omega, x, xp, p, d)
        ref = self._w_bracket(omega, x, xp, p, d)
        assert abs(sd.re_part - ref) <= 1e-13 * abs(ref)

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
                assert type(b) is SpectralDensity
                assert np.array([b.re_part, b.err_bound]).tobytes() == np.array([s.re_part, s.err_bound]).tobytes()
                assert (b.omega, b.x, b.xp) == (s.omega, s.x, s.xp)

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
        # allowance of a product of two P_nu and below the zero mode's 5 eps,
        # every point inside the clamp gets the AccuracyError of its own bound
        # at omega = 2 pi and at omega = 0
        p, d = setup_params()
        xs = [-0.6 * d.R_c, d.R_c, 0.3 * d.R_c, 0.99999 * d.R_c, 0.9 * d.R_c]
        for omega in (0.0, 2.0 * math.pi):
            batch = spectral_densities(omega, xs, 0.1 * d.R_c, p, d, 1e-15)
            self.assert_same(batch, _per_point(omega, xs, 0.1 * d.R_c, p, d, 1e-15))
            assert isinstance(batch[1], DomainError)
            inside = batch[:1] + batch[2:]
            assert all(isinstance(b, AccuracyError) for b in inside)
        assert f"x = {0.99999 * d.R_c!r}," in str(batch[3]) and "> tol = 1e-15 times the magnitude of its terms" in str(batch[3])
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

    @pytest.mark.parametrize("omega", [0.0, 2.0 * math.pi])
    def test_nan_point_gets_its_own_error(self, omega):
        p, d = setup_params()
        xs = [-0.6 * d.R_c, math.nan, 0.3 * d.R_c]
        batch = spectral_densities(omega, xs, 0.1 * d.R_c, p, d)
        self.assert_same(batch, _per_point(omega, xs, 0.1 * d.R_c, p, d, 1e-13))
        assert [type(b) for b in batch] == [SpectralDensity, DomainError, SpectralDensity]

    @pytest.mark.parametrize("omega", [0.0, 2.0 * math.pi])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_one_pass_clamp_gives_what_single_points_give(self, omega, as_array):
        # the points at the clamp's edge and just beyond it, NaN, +-inf and
        # ints, in a list and in a numpy array
        p, d = setup_params()
        edge = (1.0 - BOUNDARY_EPS) * d.R_c
        while edge / d.R_c > 1.0 - BOUNDARY_EPS:
            edge = math.nextafter(edge, 0.0)
        beyond = math.nextafter(edge, math.inf)
        xs = [edge, -edge, beyond, -beyond, math.nan, math.inf, -math.inf, 1, -1, 0, 2, 0.3 * d.R_c]
        if as_array:
            xs = np.array(xs, dtype=float)
        batch = spectral_densities(omega, xs, 0.1 * d.R_c, p, d)
        self.assert_same(batch, _per_point(omega, xs, 0.1 * d.R_c, p, d, 1e-13))
        inside = [True, True, False, False, False, False, False, True, True, True, False, True]
        assert [isinstance(b, SpectralDensity) for b in batch] == inside
        assert all("exceeds the boundary clamp" in str(b) for b, ok in zip(batch, inside) if not ok)

    def test_one_pass_clamp_keeps_an_xp_beyond_it_behind_the_points_own_errors(self):
        p, d = setup_params()
        xs = [0.2 * d.R_c, math.nan, 1]
        batch = spectral_densities(2.0 * math.pi, xs, d.R_c, p, d)
        self.assert_same(batch, _per_point(2.0 * math.pi, xs, d.R_c, p, d, 1e-13))
        assert str(batch[0]) == str(batch[2]) != str(batch[1])

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
        regime = classify_regime(d).value
        expected = []
        for omega in cfg["grid.omegas"]:
            for x2, sd in zip(xs, _per_point(omega, xs, x1, p, d, tol)):
                if isinstance(sd, Exception):
                    expected.append((x1, tau1, x2, tau1, None, "trapped-spectral", None, regime, False,
                                     f"{type(sd).__name__}: {sd}"))
                else:
                    expected.append((x1, tau1, x2, tau1, sd.re_part, "trapped-spectral", sd.err_bound,
                                     regime, False, "ok"))
        assert rows == expected
        assert sum(r[-1].startswith("DomainError") for r in rows) == 2
        assert sum(r[-1] == "ok" for r in rows) == 16


def _fold_cases() -> list:
    """(params, [(x, x', dtau)], l_max, tol) of the assembly-versus-fold test:
    three pairs at each of three temperatures, to tol = 1e-13 and at beta/alpha
    = 100 to 1e-3 (stops 612, 106 and 424 below the cap of 1024), and one pair
    at each of 12 random parameter sets, drawn as check 10 draws its trials,
    to tol = 1e-4 below the cap of 16, as check 10 sums them."""
    cases = [pytest.param(setup_params(beta=beta), [(0.45, 0.31, 0.0), (-0.2, 0.6, 0.13 * beta),
                                                    (0.3, 0.1, -0.4 * beta)], l_max, tol, id=repr(beta))
             for beta, l_max, tol in ((0.05 * math.sqrt(2.0), 40, 1e-13), (1.0, 40, 1e-13),
                                      (100.0 * math.sqrt(2.0), 1024, 1e-3))]
    rng = np.random.default_rng(777)
    for trial in range(12):
        p, d = setup_params(**{key: float(rng.uniform(0.5, 2.0)) for key in ("m", "g", "Omega", "Lambda", "beta")})
        x1, x2 = rng.uniform(-0.6 * d.R_c, 0.6 * d.R_c, size=2)
        if abs(x1 - x2) < 0.05 * d.R_c:
            x2 = x1 + 0.1 * d.R_c
        cases.append(pytest.param((p, d), [(x1, x2, float(rng.uniform(0.05, 0.45)) * p.beta)], 16, 1e-4,
                                  id=f"check10-trial{trial}"))
    return cases


class TestClosedFormZeroMode:
    def test_equal_points(self):
        p, d = setup_params()
        sd = spectral_density(0.0, 0.3, 0.3, p, d)
        assert (sd.re_part, sd.err_bound) == (0.0, 0.0)

    def test_quasi_homogeneous_linear_reduction(self):
        p, d = setup_params()
        s_half = 0.3 * d.R_c
        dx = 0.01 * d.R_c
        value = spectral_density(0.0, s_half + dx / 2.0, s_half - dx / 2.0, p, d).re_part / p.beta
        linear = p.Lambda * dx / (2.0 * p.beta * (p.hbar * d.v) ** 2 * rho_tf(s_half, p, d))
        assert abs(value - linear) < 0.03 * abs(linear)

    @pytest.mark.parametrize("x", [1.2, 1.0 - 0.5 * BOUNDARY_EPS])
    def test_outside_support_rejected(self, x):
        # a point beyond the boundary clamp, inside the condensate or not, is
        # the clamp's DomainError, as at every other frequency
        p, d = setup_params()
        with pytest.raises(DomainError, match=r"exceeds the boundary clamp 1 - 1e-06"):
            spectral_density(0.0, x * d.R_c, 0.5 * d.R_c, p, d)


class TestMatsubaraAssemble:
    def test_single_term_is_zero_mode(self):
        # at tol = 0.1 the estimate at L = 0, 0.065, meets tol, and the sum is the zero mode alone; at the
        # default tol the cap l_max = 0 refuses
        p, d = setup_params()
        g = matsubara_assemble(0.3, 0.2, 0.1, 0.0, p, d, l_max=0, tol=0.1)
        assert_allclose(g.value.real, spectral_density(0.0, 0.3, 0.1, p, d).re_part / p.beta, rtol=1e-12)
        assert g.value.imag == 0.0 and g.meta["frequencies"] == 1
        with pytest.raises(AccuracyError, match=r"the bound at the cap of 0 terms is 6\.461e-02$"):
            matsubara_assemble(0.3, 0.2, 0.1, 0.0, p, d, l_max=0)

    def test_tau_reflection_conjugation(self):
        p, d = setup_params()
        g1 = matsubara_assemble(0.3, 0.35, 0.1, 0.0, p, d, l_max=6, tol=1e-4)
        g2 = matsubara_assemble(0.3, 0.0, 0.1, 0.35, p, d, l_max=6, tol=1e-4)
        assert g1.value == g2.value.conjugate()

    def test_depends_on_dtau_mod_beta(self):
        p, d = setup_params()
        g1 = matsubara_assemble(0.3, 0.25, 0.1, 0.0, p, d, l_max=5, tol=1e-4)
        g2 = matsubara_assemble(0.3, 0.25 + p.beta, 0.1, 0.0, p, d, l_max=5, tol=1e-4)
        assert_allclose(g1.value.real, g2.value.real, rtol=1e-10)

    @pytest.mark.parametrize("x, xp, l_max", [(math.nan, 0.1, 0), (0.1, math.nan, 0), (math.nan, 0.1, 8)])
    def test_nan_point_is_a_domain_error(self, x, xp, l_max):
        p, d = setup_params()
        with pytest.raises(DomainError, match="boundary clamp"):
            matsubara_assemble(x, 0.1, xp, 0.0, p, d, l_max)

    def test_coincident_point_accuracy_error(self):
        p, d = setup_params()
        with pytest.raises(AccuracyError):
            matsubara_assemble(0.3, 0.2, 0.3, 0.2, p, d, l_max=4)

    def test_bound_beyond_tol_names_its_first_frequency(self):
        # at tol = 1e-15 every frequency's bound is beyond tol; the error
        # names the first, omega = 2 pi/beta, and its bound over the
        # magnitude of its terms, |a| + |b| on the conical line
        p, d = setup_params()
        with pytest.raises(AccuracyError) as err:
            matsubara_assemble(0.45, 0.2, 0.31, 0.0, p, d, l_max=256, tol=1e-15)
        omega = 2.0 * math.pi / p.beta
        sd = spectral_density(omega, 0.45, 0.31, p, d)
        assert str(err.value).startswith(f"spectral density at omega = {omega:.6g}, x = 0.45, x' = 0.31:")
        k = _k_coeff(p, d)
        with mp.workdps(30):
            nu = -0.5 + 1j * mp.sqrt(mp.mpf(d.alpha * omega) ** 2 - mp.mpf(0.25))
            big = {v: mp.re(mp.legenp(nu, 0, v / d.R_c, type=2)) for v in (0.45, -0.45, 0.31, -0.31)}
            a = mp.exp(-mp.pi * mp.im(nu)) * big[0.31] * big[-0.45]
            b = mp.exp(mp.pi * mp.im(nu)) * big[-0.31] * big[0.45]
            scale = float((k * mp.pi / 2) * (a + b) / mp.cosh(mp.pi * mp.im(nu)) ** 2)
        assert err.value.achieved == pytest.approx(sd.err_bound / scale, rel=1e-12)
        assert err.value.achieved > 1e-15

    @pytest.mark.parametrize("beta", [0.05 * math.sqrt(2.0), 1.0, 100.0 * math.sqrt(2.0)])
    def test_bitwise_symmetric_under_argument_swap(self, beta):
        # correlator tables evaluate one assembly for both G(1;2) and G(2;1)
        p, d = setup_params(beta=beta)
        for x, xp in ((0.45, 0.31), (-0.2, 0.6), (0.9, -0.05)):  # off-centre midpoints
            for dtau in (0.0, 0.13 * beta, -0.4 * beta):
                if x == xp and dtau == 0.0:
                    continue
                g12 = matsubara_assemble(x, 0.07 + dtau, xp, 0.07, p, d, l_max=4096, tol=1e-6)
                g21 = matsubara_assemble(xp, 0.07, x, 0.07 + dtau, p, d, l_max=4096, tol=1e-6)
                assert g12.value == g21.value

    @pytest.mark.parametrize("params, points, l_max, tol", _fold_cases())
    def test_matches_fold_of_spectral_densities(self, params, points, l_max, tol, monkeypatch):
        # the batched pass against one spectral_density call per frequency;
        # at beta = 100 sqrt(2) the first frequencies lie on the real branch
        p, d = params
        beta = p.beta
        rows = []
        quad_rows = legendre._quad_rows

        def counted(lam, *args):
            rows.append(lam.size)
            return quad_rows(lam, *args)

        for x, xp, dtau in points:
            rows.clear()
            with monkeypatch.context() as scope:
                scope.setattr(legendre, "_quad_rows", counted)
                g = matsubara_assemble(x, dtau, xp, 0.0, p, d, l_max=l_max, tol=tol)
            # the fold runs over the frequencies the assembly summed
            sds = [spectral_density(2.0 * math.pi * l / beta, x, xp, p, d) for l in range(g.meta["frequencies"])]
            fold = sds[0].re_part + sum(2.0 * math.cos(sd.omega * dtau) * sd.re_part for sd in sds[1:])
            assert abs(g.value.real - fold / beta) <= 1e-14 * abs(fold / beta)
            # terms counts the kernel rows that ran: two at a far frequency,
            # four at any other, and the rows of any interpolants
            assert g.meta["terms"] == legendre._NODES.size * sum(rows)
            assert g.meta["frequencies"] <= l_max + 1

    @staticmethod
    def _entry(call):
        """What a one-pair call gives, in a form compared bitwise."""
        try:
            g = call()
        except (DomainError, AccuracyError) as exc:
            return type(exc), str(exc)
        return g.value.hex(), g.trunc_err.hex(), repr(g.meta), g.method

    @settings(max_examples=40, deadline=None)
    @example(ratio=1.0, pairs=[(0.2, 0.1, 0.0), (0.2, 0.0, 0.3), (0.95, 0.2, 0.0), (0.1, 0.0, 0.0)], l_max=256,
             tol=1e-12)
    @example(ratio=100.0, pairs=[(0.3, 1e-3, 0.1), (math.nan, 0.1, 0.0), (-0.4, 0.0, 0.7)], l_max=300, tol=math.nan)
    @example(ratio=0.05, pairs=[(-0.9, 0.01, 0.0), (0.5, 0.3, -0.2)], l_max=40, tol=1e-15)
    @example(ratio=1.0, pairs=[(0.5, 0.1, 0.0), (0.0, 0.01, 0.0), (0.9, 1e-3, 0.0)], l_max=300, tol=4e-15)
    @example(ratio=1.0, pairs=[], l_max=8, tol=1e-12)
    @given(
        ratio=st.floats(math.log10(0.05), math.log10(300.0)).map(lambda e: 10.0**e),
        # (S, separation, dtau/beta): S and the separation in units of R_c; a
        # separation 0 is dx = 0, coincident at dtau = 0, and a point past
        # 1 - BOUNDARY_EPS, or NaN, is beyond the clamp
        pairs=st.lists(st.tuples(
            st.floats(-0.9, 0.9) | st.sampled_from([0.99, math.nan]),
            st.just(0.0) | st.floats(-4.0, math.log10(0.5)).map(lambda e: 10.0**e),
            st.just(0.0) | st.floats(-1.0, 1.0),
        ), max_size=5),
        l_max=st.integers(0, 300),
        tol=st.sampled_from([1e-12, 1e-9, 4e-15, 1e-15, 0.0, math.nan]),
    )
    def test_many_pairs_equal_one_pair_calls(self, ratio, pairs, l_max, tol):
        # each entry of the one pass is bitwise and word for word what its
        # pair gives alone, whatever pairs stand beside it; at tol = 4e-15 a
        # pair may be refused at a late frequency between two that are not
        p, d = setup_params(beta=ratio * math.sqrt(2.0))  # alpha = sqrt 2
        queries = [CorrelatorQuery((s + sep / 2.0) * d.R_c, dtau * p.beta, (s - sep / 2.0) * d.R_c, 0.0)
                   for s, sep, dtau in pairs]
        many = matsubara_assemble_many(queries, p, d, l_max, tol)
        assert len(many) == len(queries)
        for q, g in zip(queries, many):
            alone = self._entry(lambda: matsubara_assemble(q.x1, q.tau1, q.x2, q.tau2, p, d, l_max, tol))
            assert self._entry(lambda: g if isinstance(g, GreenValue) else _raise(g)) == alone
        # a bad tol is one DomainError text for every pair inside the clamp
        refused = {str(g) for g in many if "tolerance must be positive" in str(g)}
        assert len(refused) <= 1

    def test_pairs_the_pass_never_reaches_make_no_kernel_call(self, monkeypatch):
        p, d = setup_params()
        calls = []
        monkeypatch.setattr(green_trapped, "_p_quad", lambda *a: calls.append(a))
        assert matsubara_assemble_many([], p, d, 8) == []
        beyond, coincident = CorrelatorQuery(1.2 * d.R_c, 0.0, 0.1, 0.0), CorrelatorQuery(0.3, 0.2, 0.3, 0.2)
        # a pair at dx = 0, and one whose estimate at the cap is above tol, refuse before any pass
        flat, capped = CorrelatorQuery(0.3, 0.2, 0.3, 0.0), CorrelatorQuery(0.3, 0.2, 0.29, 0.0)
        out = matsubara_assemble_many([beyond, coincident, flat, capped], p, d, 8)
        assert [type(g) for g in out] == [DomainError, AccuracyError, AccuracyError, AccuracyError]
        assert all(str(g).endswith(f"the bound at the cap of 8 terms is {g.achieved:.3e}") for g in out[2:])
        assert [type(g) for g in matsubara_assemble_many([beyond], p, d, -1)] == [DomainError]
        assert not calls

    def test_pair_whose_top_frequency_overflows_is_a_domain_error(self):
        # beta = 1e-160: a pair at dx = 1e-162 stops past its first frequency, where (alpha omega)^2
        # overflows a float, and used to give G = nan; it is the DomainError naming its top frequency,
        # before any pass.  The pair at dx = 0 refuses at the cap, and the pairs beside them stop at
        # L = 0 and keep the bits they have alone
        p, d = setup_params(beta=1e-160)
        queries = [CorrelatorQuery(1e-162, 3e-161, 0.0, 0.0), CorrelatorQuery(0.3, 3e-161, 0.3, 0.0),
                   CorrelatorQuery(0.32, 3e-161, 0.25, 0.0), CorrelatorQuery(0.35, 3e-161, 0.2, 0.0)]
        many = matsubara_assemble_many(queries, p, d, 2**17, 1e-12)
        assert type(many[0]) is DomainError
        assert re.fullmatch(r"omega = (\S+): \(alpha omega\)\^2 overflows a float \(alpha omega = \S+\)", str(many[0]))
        omega = float(str(many[0]).split()[2].rstrip(":"))
        assert omega > 2.0 * math.pi / p.beta
        assert type(many[1]) is AccuracyError and many[1].achieved == math.inf
        assert "at dx = 0.0: the bound at the cap of 131072 terms is inf" in str(many[1])
        for g, alone in zip(many[2:], matsubara_assemble_many(queries[2:], p, d, 2**17, 1e-12)):
            assert isinstance(g, GreenValue) and math.isfinite(g.value) and g.meta["frequencies"] == 1
            assert (g.value.hex(), g.trunc_err, g.meta) == (alone.value.hex(), alone.trunc_err, alone.meta)

    def test_long_tables_take_bounded_passes(self, monkeypatch):
        # pairs 1.8e-3 and 1.5e-3 apart stop after about 2 200 and 2 600 frequencies, and one 8e-4 apart
        # after about 5 000: the table takes passes of at most _PASS_FREQUENCIES frequencies, or one
        # pair's own, not one of them all, and each entry keeps the bits of its pair alone
        p, d = setup_params()
        parts, passes = green_trapped._density_parts, []

        def counted(omegas, *a):
            passes.append(len(omegas))
            return parts(omegas, *a)

        queries = [CorrelatorQuery(0.3 * d.R_c + 1.8e-3, 0.2, 0.3 * d.R_c, 0.0), CorrelatorQuery(0.2, 0.0, 0.1, 0.0),
                   CorrelatorQuery(-0.4 * d.R_c + 1.8e-3, 0.1, -0.4 * d.R_c, 0.0),
                   CorrelatorQuery(0.5 + 1.5e-3, 0.1, 0.5, 0.3)]
        monkeypatch.setattr(green_trapped, "_density_parts", counted)
        many = matsubara_assemble_many(queries, p, d, 2**17)
        monkeypatch.undo()
        lasts = [g.meta["frequencies"] - 1 for g in many]
        assert 0 < lasts[1] < 4096 - lasts[0] and lasts[0] + lasts[1] + lasts[2] > 4096 < lasts[2] + lasts[3]
        assert min(lasts[0], lasts[2], lasts[3]) > 1900
        assert passes == [lasts[0] + lasts[1], lasts[2], lasts[3]]
        assert max(passes) <= green_trapped._PASS_FREQUENCIES
        for q, g in zip(queries, many):
            alone = matsubara_assemble(q.x1, q.tau1, q.x2, q.tau2, p, d, 2**17)
            assert (g.value.hex(), g.trunc_err.hex(), g.meta) == (alone.value.hex(), alone.trunc_err.hex(), alone.meta)
        # a pair longer than a pass, 8e-4 apart, takes one of its own
        passes.clear()
        longer = CorrelatorQuery(0.3 + 8e-4, 0.1, 0.3, 0.0)
        monkeypatch.setattr(green_trapped, "_density_parts", counted)
        longest = matsubara_assemble_many([queries[1], longer], p, d, 2**17)[1].meta["frequencies"] - 1
        assert passes == [lasts[1], longest] and longest > 4096

    @pytest.mark.parametrize("beta, refused", [(1.0, 5), (math.sqrt(2.0), 6), (10.0 * math.sqrt(2.0), 9),
                                               (100.0 * math.sqrt(2.0), 9)], ids=["0.707", "1", "10", "100"])
    def test_every_pair_meets_tol_or_refuses_at_its_cap(self, beta, refused):
        # the default grid, S = 0.2 R_c and 9 separations from 0.01 to 0.1 R_c, at beta/alpha = 0.707,
        # 1, 10 and 100, dtau = 0 at beta/alpha <= 1 and 0.007 alpha above: at tol = 1e-12 each pair
        # is an AccuracyError naming the cap and its estimate there, above tol, or a value whose
        # trunc_err meets tol (its estimate plus the densities' bounds), within the sum of its own
        # and the reference's trunc_err of a reference at tol = 1e-14 and cap 2^18.  At the cap of
        # 64 the narrowest pairs refuse; at 2^17 none does
        p, d = setup_params(beta=beta)
        dtau = 0.0 if d.regime_ratio <= 1.0 else 0.007 * d.alpha
        s = 0.2 * d.R_c
        queries = [CorrelatorQuery(s + sep / 2.0, dtau, s - sep / 2.0, 0.0)
                   for sep in np.geomspace(0.01, 0.1, 9) * d.R_c]
        reference = matsubara_assemble_many(queries, p, d, 2**18, 1e-14)
        assert all(isinstance(g, GreenValue) for g in reference)
        for cap, count in ((64, refused), (2**17, 0)):
            out = matsubara_assemble_many(queries, p, d, cap, 1e-12)
            assert sum(isinstance(g, AccuracyError) for g in out) == count
            for g, ref in zip(out, reference):
                if isinstance(g, AccuracyError):
                    assert str(g).startswith("matsubara_assemble needs ") and " by tol = 1e-12 at dx = " in str(g)
                    assert str(g).endswith(f": the bound at the cap of {cap} terms is {g.achieved:.3e}")
                    assert g.achieved > 1e-12
                else:
                    assert g.meta["frequencies"] <= cap + 1 and g.trunc_err < 2e-12
                    assert abs(g.value - ref.value) <= g.trunc_err + ref.trunc_err

    def test_truncation_estimate_decays(self):
        # the estimate at the cap, which each refusal reports, falls as the cap rises
        p, d = setup_params()
        est = []
        for l_max in (2, 6, 12):
            with pytest.raises(AccuracyError, match=f"the bound at the cap of {l_max} terms is ") as err:
                matsubara_assemble(0.4, 0.1, 0.1, 0.0, p, d, l_max=l_max)
            est.append(err.value.achieved)
        assert est[0] > est[1] > est[2] > 1e-13

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
        try:
            g = matsubara_assemble(x, dtau * beta, xp, 0.0, p, d, l_max=l_max, tol=tol)
        except AccuracyError as exc:  # its estimate at the cap is above tol
            assert f"the bound at the cap of {l_max} terms is" in str(exc) and exc.achieved > tol
            return
        u, up, k = x / d.R_c, xp / d.R_c, _k_coeff(p, d)
        omegas = 2.0 * math.pi * np.arange(1, l_max + 1) / beta
        re = _density_parts(omegas, u, up, d, k, tol)[0]
        fold = (_zero_mode(u, up, k) + 2.0 * math.fsum(np.cos(omegas * abs(dtau * beta)) * re)) / beta
        assert abs(g.value - fold) <= min(g.trunc_err, tol)
        swapped = matsubara_assemble(xp, 0.0, x, dtau * beta, p, d, l_max=l_max, tol=tol)
        assert swapped.meta["frequencies"] == g.meta["frequencies"]

    def test_frequency_stop_counts_the_work_that_ran(self):
        # correlator-precise's widest pair: the envelope meets tol = 1e-12 at
        # L = 26 of the cap 256; frequency 1 (mu = 8.87) integrates four P_nu
        # rows, and the 25 far ones take theirs from the interpolants of the
        # pair's two points, 16 node rows and a held-out row each
        p, d = setup_params()
        s, sep = 0.2 * d.R_c, 0.1 * d.R_c
        g = matsubara_assemble(s + sep / 2.0, 0.0, s - sep / 2.0, 0.0, p, d, l_max=256, tol=1e-12)
        assert g.meta["l_max"] == 256 and g.meta["frequencies"] == 27
        assert g.meta["terms"] == legendre._NODES.size * (4 + 2 * 17)
        assert g.trunc_err <= 1e-12

    @staticmethod
    def _points(ratio, s, sep, edge):
        """Unit parameters at beta/alpha = ``ratio``; the points s +- sep/2 in
        units of R_c, or with ``edge`` = +-1 one point on the boundary clamp
        and the other sep inside it."""
        p, d = setup_params(beta=ratio * math.sqrt(2.0))  # alpha = sqrt 2
        if edge:
            x = edge * (1.0 - BOUNDARY_EPS) * d.R_c
            return p, d, x, x - edge * sep * d.R_c
        return p, d, (s + sep / 2.0) * d.R_c, (s - sep / 2.0) * d.R_c

    @settings(max_examples=30, deadline=None)
    @example(ratio=10.0, s=0.2, sep=0.01, edge=0, dtau=0.0)
    @example(ratio=300.0, s=0.0, sep=1e-4, edge=1, dtau=0.3)
    @example(ratio=0.05, s=0.0, sep=1e-3, edge=-1, dtau=0.0)
    @given(
        ratio=st.floats(math.log10(0.05), math.log10(300.0)).map(lambda e: 10.0**e),
        s=st.floats(-0.9, 0.9),
        sep=st.floats(-4.0, math.log10(0.5)).map(lambda e: 10.0**e),
        edge=st.sampled_from([0, 1, -1]),
        dtau=st.just(0.0) | st.floats(-1.0, 1.0),
    )
    def test_two_row_path_gives_the_four_row_bits(self, ratio, s, sep, edge, dtau):
        # with the interpolants off, the assembly integrates two P_nu rows at
        # a far frequency: its value and every G_omega are bitwise those of
        # the four rows, at every frequency to the cap, summed or not.  With
        # them on, each G_omega and the sum stay within the reported bounds
        p, d, x, xp = self._points(ratio, s, sep, edge)
        assume(max(abs(x), abs(xp)) / d.R_c <= 1.0 - BOUNDARY_EPS)
        l_max = 2000

        def assembled():
            try:
                return matsubara_assemble(x, dtau * p.beta, xp, 0.0, p, d, l_max=l_max)
            except AccuracyError as exc:
                return str(exc)

        omegas = 2.0 * math.pi * np.arange(1, l_max + 1) / p.beta
        args = (omegas, x / d.R_c, xp / d.R_c, d, _k_coeff(p, d), 1e-13)
        with patch.object(green_trapped, "_TERP_MIN", math.inf):
            with patch.object(green_trapped, "_far_rows", _no_far_rows):
                g_4 = assembled()
                re_4 = _density_parts(*args)[0]
            g_2 = assembled()
        if isinstance(g_2, str):
            assert g_2 == g_4
        else:
            assert g_2.value.hex() == g_4.value.hex() and g_2.meta["terms"] <= g_4.meta["terms"]
        re_2, err_2, _, rows = _density_parts(*args)
        assert re_2.tobytes() == re_4.tobytes()
        assert set(rows.tolist()) <= {2, 4}
        re_t, err_t, _, _ = _density_parts(*args, [l_max])
        # a relative bound underflows with a subnormal density: allow its spacing
        assert (np.abs(re_t - re_2) <= err_t + err_2 + math.ulp(0.0)).all()
        g_t = assembled()
        if not isinstance(g_2, str) and not isinstance(g_t, str):
            assert abs(g_t.value - g_2.value) <= g_t.trunc_err

    @pytest.mark.parametrize("omega", [2.0 * math.pi, 20.0 * math.pi, 200.0 * math.pi, 2000.0 * math.pi])
    def test_spectral_table_two_row_path_gives_the_four_row_bits(self, omega):
        # the sweep geometry, 81 points over +-0.995 R_c with x_ref = 0.1 R_c:
        # every density that spectral_densities gives, on two rows at a far
        # point, is bitwise the four-row value, and as many points are ok
        p, d = setup_params()
        xs = [float(x) for x in np.linspace(-0.995 * d.R_c, 0.995 * d.R_c, 81)]
        args = (omega, xs, 0.1 * d.R_c, p, d, 1e-12)
        with patch.object(green_trapped, "_far_rows", _no_far_rows):
            four = spectral_densities(*args)
        two = spectral_densities(*args)
        assert [type(sd) for sd in two] == [type(sd) for sd in four] == [SpectralDensity] * 81
        assert [sd.re_part.hex() for sd in two] == [sd.re_part.hex() for sd in four]
        # no point is far at 2 pi, and every point is at 20 pi and beyond
        rows = _density_parts(omega, np.array(xs) / d.R_c, 0.1, d, _k_coeff(p, d), 1e-12)[3]
        assert rows.tolist() == [4 if omega == 2.0 * math.pi else 2] * 81

    @pytest.mark.parametrize("ratio", [0.05, 1.0, 10.0, 100.0, 300.0])
    def test_far_frequencies_meet_their_bound(self, ratio):
        # at every frequency that _far_rows marks far, on the four-row path:
        # |a| < e^-48 |b|, from the kernel's own P_nu in logarithms; and the
        # bounds on I = P_nu e^{-mu theta} that the proof rests on hold
        p, d = setup_params(beta=ratio * math.sqrt(2.0))
        edge = 1.0 - BOUNDARY_EPS
        omegas = 2.0 * math.pi * np.arange(1, 3001) / p.beta
        lam = (d.alpha * omegas) ** 2
        far_rows = 0
        for u, up in ((0.25, 0.15), (0.9, -0.9), (edge, edge - 1e-4), (-edge, 0.3), (0.0, 1e-4), (-edge, edge)):
            lo, hi = min(u, up), max(u, up)
            con = lam > 0.25
            far = np.zeros(lam.size, dtype=bool)
            far[con] = green_trapped._far_rows(np.sqrt(lam[con] - 0.25), lo, hi)
            n = int(far.sum())
            if not n:
                continue
            far_rows += n
            value, _ = green_trapped._p_quad(np.tile(lam[far], 4), np.repeat([lo, -lo, hi, -hi], n))
            v1, v2, v3, v4 = value.reshape(4, n)
            mu = np.sqrt(lam[far] - 0.25)
            th_hi, th_mlo = math.acos(hi), math.acos(-lo)
            d_theta = math.acos(lo) - th_hi
            log_a = np.log(v1) + np.log(v4) - np.log(v2) - np.log(v3) - 2.0 * mu * (math.pi - d_theta)
            assert (log_a < -48.0).all()
            # I <= P_{-1/2}(u) <= 6 inside the clamp, and at the rows of b,
            # where mu theta >= 1, I >= erf(sqrt(mu theta))/sqrt(2 pi mu)
            assert (value < 6.0).all()
            for v, theta in ((v2, th_mlo), (v3, th_hi)):
                floor = np.array([math.erf(math.sqrt(m * theta)) for m in mu]) / np.sqrt(2.0 * math.pi * mu)
                assert (v >= floor).all()
        assert far_rows > 0

    def test_coincident_points_are_ok_at_low_temperature(self):
        # at beta = 100 sqrt 2 the first frequencies lie on the real branch,
        # where G_omega(x, x) is exactly 0: the refusal test weighs the bound
        # against the magnitude of the terms, which is not 0
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        omega, x = 2.0 * math.pi / p.beta, 0.3 * d.R_c
        assert (d.alpha * omega) ** 2 <= 0.25
        same, near = spectral_densities(omega, [x, x + 1e-9 * d.R_c], x, p, d, 1e-13)
        assert isinstance(same, SpectralDensity) and isinstance(near, SpectralDensity)
        assert same.re_part == 0.0 and same.err_bound > 0.0

    @pytest.mark.parametrize("l_max", [0, 40, 2**17])
    def test_frequency_sum_at_equal_positions_refuses(self, l_max, monkeypatch):
        # at dx = 0 the envelope does not decay: the estimate is inf at every cap, and the pair
        # refuses before any kernel call
        p, d = setup_params()
        monkeypatch.setattr(green_trapped, "_p_quad", lambda *a: pytest.fail("kernel ran"))
        with pytest.raises(AccuracyError) as err:
            matsubara_assemble(0.3, 0.2, 0.3, 0.0, p, d, l_max=l_max, tol=1e-8)
        assert str(err.value) == (f"matsubara_assemble needs more than {2**62} terms to bound its tail by tol = 1e-08 "
                                  f"at dx = 0.0: the bound at the cap of {l_max} terms is inf")
        assert err.value.achieved == math.inf

    def test_negative_cap_is_a_domain_error(self):
        p, d = setup_params()
        with pytest.raises(DomainError, match=r"^l_max must be >= 0$"):
            matsubara_assemble(0.3, 0.2, 0.1, 0.0, p, d, l_max=-1)

    def test_homogeneous_limit_degenerates_to_flat_series(self):
        # 1/R_c -> 0 at fixed separations: trapped differences approach the
        # homogeneous-series differences within 2%
        p, d = setup_params(Omega=math.sqrt(2.0) / 25.0, beta=0.5)  # R_c = 25
        pair_a = CorrelatorQuery(0.175, 0.1 * p.beta, -0.175, 0.0)
        pair_b = CorrelatorQuery(0.1, 0.0, -0.1, 0.0)
        d_trap = green_difference(*matsubara_assemble_many([pair_a, pair_b], p, d, 64))
        d_hom = green_difference(*(homog_series(q.x1, q.tau1, q.x2, q.tau2, p, d) for q in (pair_a, pair_b)))
        assert abs(d_trap.value - d_hom.value) < 0.02 * abs(d_hom.value)


class TestFarInterp:
    """``_far_interp``: the far rows' P_nu(-u_<) and P_nu(u_>) from Chebyshev
    interpolants in t = mu_s/mu, or from the kernel where they do not hold."""

    @staticmethod
    def _pair(lo, hi, mus, tol=1e-12):
        """``_far_interp`` on one pair (lo, hi) with far rows at ``mus``: the
        P_nu rows of ``_density_parts``, the mask of those the kernel still
        takes, and the pair's interpolant rows; and the direct rows."""
        lam = np.asarray(mus, dtype=float) ** 2 + 0.25
        n = lam.size
        kept, (value, rel) = np.ones((4, n), dtype=bool), np.zeros((2, 4, n))
        charged = green_trapped._far_interp(lam, np.full(n, lo), np.full(n, hi), np.ones(n, dtype=bool), [n],
                                            min(green_trapped._TERP_TOL, tol / 4.0), kept, value, rel)
        direct = [green_trapped._p_quad(lam, np.full(n, u)) for u in (-lo, hi)]
        return value, rel, kept, int(np.sum(charged)), direct

    _MUS = st.lists(st.floats(0.0, 5.0).map(lambda e: green_trapped._MU_S * 10.0**e), min_size=18, max_size=40)

    @settings(max_examples=40, deadline=None)
    @example(points=(-0.9, 0.9), mus=[9.0] * 9 + [9.0 * 10.0**e for e in range(9)])
    @example(points=(0.9, 0.9), mus=[9.0 * 1.5**e for e in range(30)])
    @given(points=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)), mus=_MUS)
    def test_interpolant_is_within_its_estimate_of_the_direct_row(self, points, mus):
        lo, hi = sorted(points)
        value, rel, kept, charged, direct = self._pair(lo, hi, mus)
        # inside |u| <= 0.9 every interpolant holds, by degree 64 at most
        assert not kept[1:3].any() and 2 * 17 <= charged <= 2 * 65
        for side, (v, r) in zip((1, 2), direct):
            assert (np.abs(value[side] - v) <= (rel[side] + r) * v).all()
            assert (rel[side] <= green_trapped._TERP_TOL).all()

    @pytest.mark.parametrize("nodes, rows", [(slice(0, 64), 2 * 17), (slice(20, 21), 2 * 65)])
    def test_node_rows_off_by_1e_10_keep_the_direct_rows(self, monkeypatch, nodes, rows):
        # every node row off by 1e-10 t leaves h smooth, with h(0) = 1, so
        # its coefficients' tail meets the estimate at degree 16 and only the
        # held-out row sees it; one node row off by 1e-10 keeps the tail above
        # it to degree 64.  Either way the points keep their direct rows, and
        # the densities are bitwise those of the direct path
        t = green_trapped._CHEB_T[nodes]
        kernel, off = green_trapped._p_quad, (green_trapped._MU_S / t) ** 2 + 0.25

        def perturbed(lam, u):
            value, err = kernel(lam, u)
            t = green_trapped._MU_S / np.sqrt(lam - 0.25)
            return np.where(np.isin(lam, off), value * (1.0 + 1e-10 * t), value), err

        monkeypatch.setattr(green_trapped, "_p_quad", perturbed)
        _, _, kept, charged, _ = self._pair(-0.2, 0.3, 9.0 * 1.2 ** np.arange(30))
        assert kept.all() and charged == rows
        p, d = setup_params()
        omegas = 2.0 * math.pi * np.arange(1, 201) / p.beta
        args = (omegas, 0.3, 0.2, d, _k_coeff(p, d), 1e-12)
        assert _density_parts(*args, [200])[0].tobytes() == _density_parts(*args)[0].tobytes()

    @pytest.mark.parametrize("lo, hi", [(-0.3, 0.999), (-0.999, 0.3), (1.0 - BOUNDARY_EPS, 1.0 - BOUNDARY_EPS),
                                        (-0.3, 1.0 - BOUNDARY_EPS)])
    def test_points_near_the_edge_keep_their_direct_rows(self, lo, hi):
        # u = 0.999 and the clamp +-(1 - 1e-6) do not meet the estimate by
        # degree 64: their rows stay on the kernel, after 65 rows spent
        value, rel, kept, charged, direct = self._pair(lo, hi, 9.0 * 1.2 ** np.arange(30))
        edge = [abs(u) > 0.9 for u in (-lo, hi)]
        assert kept[1:3].all(axis=1).tolist() == edge
        assert charged == sum(65 if e else 17 for e in edge)
        for side, (v, r) in zip((1, 2), direct):
            if not edge[side - 1]:
                assert (np.abs(value[side] - v) <= (rel[side] + r) * v).all()

    def test_pairs_with_few_far_rows_keep_the_direct_path(self):
        # a pair 0.007 apart stops at L = 6, 12 and 40 at tol = 1e-3, 1e-5 and 1e-13: below the
        # interpolant rule's 17 far frequencies it keeps the direct path, and at 40 it interpolates
        p, d = setup_params(beta=0.05 * math.sqrt(2.0))
        for tol, last in ((1e-3, 6), (1e-5, 12), (1e-13, 40)):
            g = matsubara_assemble(0.4, 0.3 * p.beta, 0.393, 0.0, p, d, l_max=64, tol=tol)
            with patch.object(green_trapped, "_TERP_MIN", math.inf):
                direct = matsubara_assemble(0.4, 0.3 * p.beta, 0.393, 0.0, p, d, l_max=64, tol=tol)
            assert g.meta["frequencies"] == last + 1
            assert ((g.value.hex(), g.meta) == (direct.value.hex(), direct.meta)) == (last < 17)


class TestLowTSeries:
    def _lowT(self, ratio=100.0, **over):
        alpha = math.sqrt(2.0)
        return setup_params(beta=ratio * alpha, **over)

    @pytest.mark.parametrize("u, up", [(0.3, 0.1), (-0.6, 0.5), (0.95, -0.9), (0.2, 0.21)])
    def test_tau_difference_matches_the_assembly(self, u, up):
        # beta/alpha = 0.707, where the paper's edge term H is below e^-55 of the density: two exact
        # routes, the mode sum and the frequency sum, agree on G(0.1 beta) - G(0.4 beta) within the
        # sum of their bounds (the zero-temperature factor is off by 1.5e-2 to 2.3e-2 here)
        p, d = setup_params()
        x, xp = u * d.R_c, up * d.R_c
        series = [lowT_legendre_series(x, f * p.beta, xp, 0.0, p, d) for f in (0.1, 0.4)]
        assembled = [matsubara_assemble(x, f * p.beta, xp, 0.0, p, d, l_max=4096) for f in (0.1, 0.4)]
        bound = sum(g.trunc_err for g in series + assembled)
        assert series[0].method == "trapped-series" and 0.0 < bound < 1e-11
        gap = (series[0].value - series[1].value) - (assembled[0].value - assembled[1].value)
        assert abs(gap) <= bound

    def test_zero_temperature_limit_is_the_brute_tail(self):
        # at beta/alpha = 1000 the thermal factor is e^{-E t}/(2E) to far below an ulp: the series is
        # the Bernoulli line plus -(g/(2 hbar v)) times the oracle's zero-temperature mode sum
        p, d = self._lowT(1000.0)
        hv = p.hbar * d.v
        for x, xp, dtau in ((0.006, -0.004, 0.05), (0.3, 0.25, 0.01), (-0.5, 0.7, 0.2), (0.1, 0.1, 0.03)):
            x, xp, dtau = x * d.R_c, xp * d.R_c, dtau * d.alpha
            g = lowT_legendre_series(x, dtau, xp, 0.0, p, d)
            line = -(p.g / (2.0 * d.R_c)) * (p.beta / 2.0) * ((dtau / p.beta) ** 2 - dtau / p.beta + 1.0 / 6.0)
            brute = line - (p.g / (2.0 * hv)) * brute_legendre_tail(x, xp, dtau, p, d, g.meta["modes"])
            assert abs(g.value - brute) <= 1e-13 * abs(brute)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_trunc_err_bounds_the_distance_to_a_tol_1e_15_sum(self, tol):
        # random pairs over beta/alpha in [0.05, 300], t folded from both sides of beta/2, t/alpha >= 0.01
        rng = np.random.default_rng(40)
        for ratio in (0.05, 0.707, 7.07, 100.0, 300.0):
            p, d = self._lowT(ratio)
            for _ in range(4):
                u, up = rng.uniform(-0.95, 0.95, 2)
                frac = math.exp(rng.uniform(math.log(max(1e-3, 0.01 / ratio)), math.log(0.5)))
                dtau = (frac if rng.random() < 0.5 else 1.0 - frac) * p.beta
                g = lowT_legendre_series(u * d.R_c, dtau, up * d.R_c, 0.0, p, d, tol=tol)
                ref = lowT_legendre_series(u * d.R_c, dtau, up * d.R_c, 0.0, p, d, tol=1e-15)
                assert g.trunc_err < 2.0 * tol
                assert abs(g.value - ref.value) <= g.trunc_err

    @pytest.mark.parametrize(
        "ratio, u, up, t_alpha, tol",
        [
            (100.0, 0.914, -0.702, 21.13, 1e-20),  # B_2(0.2113) ~ 0: its rounding is not 4 eps of it
            (0.707, 0.99999, 0.99999, 0.0534, 1e-14),  # the recurrence error near the edge, 10x the terms' 4 eps
            (0.05, -0.999999, 0.4, 0.02, 1e-14),
            (7.07, 0.3, -0.6, 0.04, 1e-14),
        ],
    )
    def test_trunc_err_bounds_the_distance_to_a_40_digit_sum(self, ratio, u, up, t_alpha, tol):
        # at these tol the rounding allowance is most of trunc_err; the reference runs the recurrence,
        # the thermal factors and the line in mpmath, on to twice the modes, where the rest is below 1e-25
        p, d = self._lowT(ratio)
        x, xp, dtau = u * d.R_c, up * d.R_c, t_alpha * d.alpha
        g = lowT_legendre_series(x, dtau, xp, 0.0, p, d, tol=tol)
        with mp.workdps(40):
            u, up, t, beta, alpha = (mp.mpf(v) for v in (x / d.R_c, xp / d.R_c, dtau, p.beta, d.alpha))
            total = beta / 2 * ((t / beta) ** 2 - t / beta + mp.mpf(1) / 6)
            pn, pn_p = [mp.mpf(1), u], [mp.mpf(1), up]
            for n in range(1, 2 * g.meta["modes"] + 2):
                if n > 1:
                    pn = [pn[1], ((2 * n - 1) * u * pn[1] - (n - 1) * pn[0]) / n]
                    pn_p = [pn_p[1], ((2 * n - 1) * up * pn_p[1] - (n - 1) * pn_p[0]) / n]
                e = mp.sqrt(n * (n + 1)) / alpha
                total += (2 * n + 1) * pn[1] * pn_p[1] * (mp.exp(-e * t) + mp.exp(-e * (beta - t))) / (
                    2 * e * -mp.expm1(-beta * e))
            ref = float(-(p.g / (2 * d.R_c)) * total)
        assert abs(g.value - ref) <= g.trunc_err < 1e-11

    def test_no_regime_gate(self):
        # the pairs the old gates refused, beta E_1 < 10 and n0 u_* >= 1, and beta/alpha = 0.05
        for ratio, args in ((0.707, (0.1, 0.2, 0.0, 0.0)), (100.0, (0.3, 0.3, -0.3, 0.0)), (0.05, (0.2, 0.01, 0.1, 0.0))):
            p, d = self._lowT(ratio)
            g = lowT_legendre_series(*args, p, d)
            assert math.isfinite(g.value) and g.trunc_err < 2e-12

    def test_mode_cap_is_an_accuracy_error_before_any_recurrence(self, monkeypatch):
        p, d = self._lowT()
        monkeypatch.setattr(green_trapped, "p_poly_table", lambda *a: pytest.fail("recurrence ran"))
        with pytest.raises(AccuracyError, match=r"^lowT_legendre_series needs \d+ terms to bound its tail by tol = "
                                                 r"1e-12 at t = 1e-05: the bound at the cap of 1048576 terms "
                                                 r"is \d\.\d{3}e-\d\d$") as err:
            lowT_legendre_series(0.1, 1e-5, 0.0, 0.0, p, d)
        needed = int(str(err.value).split()[2])
        assert 2**20 < needed < 2**22 and err.value.achieved > 1e-12
        assert str(err.value).endswith(f"is {err.value.achieved:.3e}")

    def test_one_recurrence_at_equal_positions(self, monkeypatch):
        p, d = self._lowT()
        calls = []
        table = green_trapped.p_poly_table
        monkeypatch.setattr(green_trapped, "p_poly_table", lambda n, u: calls.append(u) or table(n, u))
        lowT_legendre_series(0.1, 0.05, 0.1, 0.0, p, d, tol=1e-6)
        lowT_legendre_series(0.1, 0.05, 0.2, 0.0, p, d, tol=1e-6)
        assert calls == [0.1 / d.R_c, 0.1 / d.R_c, 0.2 / d.R_c]

    @staticmethod
    def _entry(entry):
        """A GreenValue or its error in a form compared bitwise and word for word."""
        if isinstance(entry, (DomainError, AccuracyError)):
            return type(entry), str(entry), getattr(entry, "achieved", None)
        return entry.value.hex(), entry.trunc_err.hex(), repr(entry.meta), entry.method

    def test_a_pair_whose_terms_overflow_refuses_alone(self, monkeypatch):
        # P_n = inf at one point: the pair through it is an AccuracyError naming the overflow, and
        # the pair beside it keeps the value it has alone, bitwise
        p, d = self._lowT(1.0)
        kept, hot = (CorrelatorQuery(u * d.R_c, 0.3 * p.beta, 0.2 * d.R_c, 0.0) for u in (0.1, 0.5))
        alone = lowT_legendre_series_many([kept], p, d)
        table = green_trapped.p_poly_table
        monkeypatch.setattr(green_trapped, "p_poly_table",
                            lambda n, u: np.full(n + 1, np.inf) if u == hot.x1 / d.R_c else table(n, u))
        got = lowT_legendre_series_many([kept, hot], p, d)
        assert self._entry(got[0]) == self._entry(alone[0])
        assert isinstance(got[1], AccuracyError) and str(got[1]).startswith("the mode sum overflows a float")

    @pytest.mark.parametrize("ratio", [0.05, 1.0, 100.0])
    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 0.0])
    def test_many_pairs_equal_one_pair_calls(self, monkeypatch, ratio, tol):
        # one call over pairs that share, repeat and mirror their points, beside a pair each check
        # refuses (the clamp, |dtau| > beta, t = 0, the mode cap): each entry is what its pair gives
        # alone, bitwise and word for word, and the recurrence runs once for each distinct point of
        # the pairs that pass, to the most modes any of them needs; a bad tol refuses every pair that
        # passes the checks before it, and runs none
        p, d = self._lowT(ratio)
        points = [0.3, -0.3, 0.0, 0.7, -0.7, 0.95]
        queries = [CorrelatorQuery(u * d.R_c, f * p.beta, up * d.R_c, 0.0)
                   for u, up, f in zip(points, points[1:] + points[:1], (0.05, 0.3, 0.7, 0.05, 0.5, 0.9))]
        queries += [queries[0], CorrelatorQuery(0.3 * d.R_c, 0.0, 0.3 * d.R_c, 0.1 * p.beta),
                    CorrelatorQuery(-0.3 * d.R_c, 0.3 * p.beta, 0.3 * d.R_c, 0.0),
                    CorrelatorQuery(d.R_c, 0.3 * p.beta, 0.0, 0.0), CorrelatorQuery(0.0, 2.0 * p.beta, 0.1, 0.0),
                    CorrelatorQuery(0.1, p.beta, 0.2, 0.0), CorrelatorQuery(0.1, 1e-9 * d.alpha, 0.2, 0.0)]
        alone = []
        for q in queries:
            try:
                alone.append(lowT_legendre_series(q.x1, q.tau1, q.x2, q.tau2, p, d, tol=tol))
            except (DomainError, AccuracyError) as exc:
                alone.append(exc)
        calls, table = [], green_trapped.p_poly_table
        monkeypatch.setattr(green_trapped, "p_poly_table", lambda n, u: calls.append((u, n)) or table(n, u))
        many = lowT_legendre_series_many(queries, p, d, tol=tol)
        assert list(map(self._entry, many)) == list(map(self._entry, alone))
        kinds = [type(g).__name__ for g in many[-4:]]
        assert kinds == ["DomainError"] * 3 + ["DomainError" if tol == 0.0 else "AccuracyError"]
        need = {}
        for q, g in zip(queries, many):
            if isinstance(g, GreenValue):
                for u in (q.x1 / d.R_c, q.x2 / d.R_c):
                    need[u] = max(need.get(u, 0), g.meta["modes"])
        assert sorted(calls) == sorted(need.items()) and len(calls) == (0 if tol == 0.0 else len(points))
        assert lowT_legendre_series_many([], p, d, tol=tol) == []

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan])
    def test_bad_tol_is_a_domain_error(self, tol):
        p, d = self._lowT()
        with pytest.raises(DomainError, match="tolerance must be positive and finite"):
            lowT_legendre_series(0.1, 0.05, 0.0, 0.0, p, d, tol=tol)

    def test_equal_times_rejected(self):
        p, d = self._lowT()
        for tau, taup in ((0.5, 0.5), (p.beta, 0.0), (0.0, p.beta)):
            with pytest.raises(DomainError, match=r"^lowT_legendre_series requires tau != tau'$"):
                lowT_legendre_series(0.1, tau, 0.0, taup, p, d)
        with pytest.raises(DomainError, match=re.escape(f"|tau - tau'| = {2.0 * p.beta} exceeds beta = {p.beta}")):
            lowT_legendre_series(0.1, 2.0 * p.beta, 0.0, 0.0, p, d)

    def test_even_about_half_beta(self):
        p, d = self._lowT(2.0)
        for frac in (0.1, 0.3, 0.45):
            early = lowT_legendre_series(0.3 * d.R_c, frac * p.beta, 0.1 * d.R_c, 0.0, p, d).value
            late = lowT_legendre_series(0.3 * d.R_c, (1.0 - frac) * p.beta, 0.1 * d.R_c, 0.0, p, d).value
            assert_allclose(early, late, rtol=1e-14)

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
                    g12 = lowT_legendre_series(x, 0.07 + dtau, xp, 0.07, p, d, tol=1e-4)
                    g21 = lowT_legendre_series(xp, 0.07, x, 0.07 + dtau, p, d, tol=1e-4)
                    assert g12.value == g21.value
        for x, xp, dtau in ((0.21, 0.19, 0.005), (0.31, 0.29, 0.003)):
            g12 = lowT_legendre_series(x * d.R_c, dtau, xp * d.R_c, 0.0, p, d)
            g21 = lowT_legendre_series(xp * d.R_c, 0.0, x * d.R_c, dtau, p, d)
            assert g12.value == g21.value

    def test_bernoulli_bracket_sign_at_half_beta(self):
        # at dtau = beta/2 the bracket reduces to +g beta/(48 R_c); checked on
        # the implementation's own pieces via dtau-dependence of the value at
        # fixed spatial arguments (x = x' = 0 kills odd modes)
        p, d = self._lowT()
        dtau = 0.004 * d.alpha
        val = lowT_legendre_series(0.0, dtau, 0.0, 0.0, p, d, tol=1e-4).value
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

    def test_highT_refuses_a_time_separation_beyond_beta(self):
        # the window of the homogeneous forms, |tau - tau'| <= beta; at 1e300 beta the closed form's
        # logarithm died of a math domain error
        p, d = self._highT()
        for dtau in (math.nextafter(p.beta, math.inf), 1e300 * p.beta):
            with pytest.raises(DomainError, match=r"exceeds the asymptotic window bound beta = "):
                asympt_green_highT(0.1, dtau, 0.0, 0.0, p, d)
        assert asympt_green_highT(0.1, p.beta, 0.0, 0.0, p, d).method == "trapped-asympt-highT"

    @pytest.mark.parametrize(
        "form, boundary, inside, text",
        [
            (asympt_green_highT, 0.1, math.nextafter(0.1, 0.0), "beta/alpha < 0.1 violated (beta/alpha = 0.1)"),
            (asympt_green_lowT, 10.0, math.nextafter(10.0, math.inf), "beta/alpha > 10 violated (beta/alpha = 10)"),
        ],
    )
    def test_regime_gate_is_classify_regime(self, form, boundary, inside, text):
        # each form refuses the intermediate boundary ratio itself and takes
        # the next float inside its regime
        alpha = setup_params()[1].alpha
        for ratio, refused in ((boundary, True), (inside, False)):
            p, d = setup_params(beta=ratio * alpha)
            assert d.regime_ratio == ratio
            if refused:
                with pytest.raises(RegimeError, match=re.escape(text)):
                    form(0.01, 0.0, 0.0, 0.0, p, d)
            else:
                assert math.isfinite(form(0.01, 0.0, 0.0, 0.0, p, d).value)

    @pytest.mark.parametrize(
        "form, keyword",
        [(asympt_green_highT, "r_lo"), (asympt_green_lowT, "r_hi"), (lowT_legendre_series, "min_dtau"),
         (lowT_legendre_series, "n0")],
    )
    def test_thresholds_are_not_keywords(self, form, keyword):
        # each validity threshold is a constant: no call can move it
        p, d = setup_params()
        with pytest.raises(TypeError, match=keyword):
            form(0.01, 0.0, 0.0, 0.0, p, d, **{keyword: 0.1})

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

    @pytest.mark.parametrize("z_target", [1e-9 + 0j, 1e-12 * (1 + 1j)])
    def test_green_highT_logarithm_at_small_z(self, z_target):
        # near coincident points 1 - e^{-2z} cancels: the form takes ln|1 - e^{-2z}| from the homogeneous
        # series' helper, within a few ulp of 40-digit mpmath, where ln|1 - exp(-2z)| written out was off
        # by 2.7e-8 at z = 1e-9 and by 1.1e-5 at z = 1e-12 (1 + i)
        p, d = self._highT()
        x = 0.2 * d.R_c
        xp = d.R_c * math.sin(math.asin(0.2) - z_target.real * d.lambda_T / (math.pi * d.R_c))
        dtau = z_target.imag * d.lambda_T / (math.pi * p.hbar * d.v)
        g = asympt_green_highT(x, dtau, xp, 0.0, p, d)
        u, up = x / d.R_c, xp / d.R_c  # z, the amplitude and the zero mode as the form takes them
        z = (math.pi / d.lambda_T) * complex(d.R_c * abs(math.asin(u) - math.asin(up)), p.hbar * d.v * dtau)
        assert abs(z - z_target) < 1e-3 * abs(z_target)
        zero = closed_form_green(x, 0.0, xp, 0.0, p, d).value
        amp = ((1.0 - u * u) * (1.0 - up * up)) ** -0.25 / theta_homogeneous(p, d)
        with mp.workdps(40):
            log_ref = float(mp.log(abs(mp.expm1(-2 * mp.mpc(z)))))
        eps = np.finfo(float).eps
        assert abs(g.value - (zero + amp * log_ref)) <= 4.0 * eps * (abs(zero) + abs(amp) * max(1.0, abs(log_ref)))

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
                zero = spectral_density(0.0, dx / 2.0, -dx / 2.0, p, d).re_part / p.beta
                assert_allclose(g - zero, homogeneous, rtol=2e-5)

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
                exact = matsubara_assemble(x, 0.0, xp, 0.0, p, d, l_max=4096).value
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
        g = asympt_green_lowT(0.02 * d.R_c, 0.01 * d.alpha, -0.02 * d.R_c, 0.0, p, d)
        assert g.value.real < 0.0
        assert g.const_free
        # u_* = 1: the formula's log vanishes but the validity gate rejects it
        with pytest.raises(RegimeError, match=r"^low-temperature gate u_\* = \|zeta\|/R_c < 0\.1 failed \(got 1\)"):
            asympt_green_lowT(d.R_c * 0.7, 0.0, -d.R_c * 0.3, 0.0, p, d)

    def test_green_lowT_gate_is_the_window_factor(self):
        # the one gate is u_* = |zeta|/R_c < WINDOW_FACTOR; the series' crossover
        # gate n0 u_* < 1 (n0 = 20) no longer rejects u_* = 0.07
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        g = asympt_green_lowT(0.07 * d.R_c, 0.0, 0.0, 0.0, p, d)
        assert g.meta["u_star"] == 0.07 and g.method == "trapped-asympt-lowT"
        assert_allclose(g.value, -math.log(1.0 / 0.07) / theta_at(0.035 * d.R_c, p, d), rtol=1e-14)
        assert (0.1 * d.R_c) / d.R_c == 0.1
        with pytest.raises(RegimeError, match=r"< 0\.1 failed \(got 0\.1\)"):
            asympt_green_lowT(0.1 * d.R_c, 0.0, 0.0, 0.0, p, d)

    def test_green_lowT_divergence_marker(self):
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        assert asympt_green_lowT(0.1, 0.3, 0.1, 0.3, p, d).divergent

    @pytest.mark.parametrize("x, xp", [(math.nan, 0.1), (0.1, math.nan)])
    def test_green_lowT_nan_point_is_a_domain_error(self, x, xp):
        # NaN used to pass every gate and return value = nan
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        with pytest.raises(DomainError, match=r"^\|x\|/R_c = nan exceeds the boundary clamp"):
            asympt_green_lowT(x, 0.001, xp, 0.0, p, d)

    @pytest.mark.parametrize("x, xp", [(1.2, 1.2 - 0.01 / math.sqrt(2.0)), (1.0 - 1e-7, 1.0 - 1e-7 - 1e-3)])
    def test_green_lowT_point_beyond_the_clamp_is_a_domain_error(self, x, xp):
        # at 1.2 R_c rho_TF = 0 used to raise a bare ZeroDivisionError; in the
        # clamp's margin below R_c the formula returned a value
        p, d = setup_params(beta=100.0 * math.sqrt(2.0))
        with pytest.raises(DomainError, match="exceeds the boundary clamp"):
            asympt_green_lowT(x * d.R_c, 0.001, xp * d.R_c, 0.0, p, d)


# every route of a pair, at a beta/alpha where it applies and a point (x/R_c, tau/beta, x'/R_c, tau'/beta)
# where it returns a value
_ROUTES = [
    (homog_series, 0.05, (0.3, 0.01, 0.2, 0.0)),
    (homog_asymptotic_highT, 0.05, (0.3, 0.01, 0.2, 0.0)),
    (homog_asymptotic_lowT, 100.0, (0.3, 0.01, 0.2, 0.0)),
    (closed_form_green, 0.05, (0.3, 0.0, 0.2, 0.0)),
    (asympt_green_highT, 0.05, (0.3, 0.01, 0.2, 0.0)),
    (asympt_green_lowT, 100.0, (0.21, 1e-4, 0.2, 0.0)),
    (lowT_legendre_series, 100.0, (0.3, 0.01, 0.2, 0.0)),
    (partial(matsubara_assemble, l_max=2**17), 0.05, (0.3, 0.01, 0.2, 0.0)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("arg", range(4), ids=["x", "tau", "xp", "taup"])
@pytest.mark.parametrize("route, beta_over_alpha, point", _ROUTES,
                         ids=[getattr(r, "func", r).__name__ for r, _, _ in _ROUTES])
def test_every_route_refuses_a_non_finite_argument(route, beta_over_alpha, point, arg, bad):
    # a nan or inf in any of x, tau, x' and tau' is a DomainError: not G = nan as a value, nor the
    # divergence marker, nor a ValueError, an overflow AccuracyError or numpy's RuntimeWarning
    p, d = setup_params(beta=beta_over_alpha * math.sqrt(2.0))
    args = [scale * c for scale, c in zip((d.R_c, p.beta, d.R_c, p.beta), point)]
    assert math.isfinite(route(*args, p, d).value)
    args[arg] = bad
    with pytest.raises(DomainError):
        route(*args, p, d)
