import dataclasses
import json
import math

import numpy as np
import pytest

from trapgas import CorrelatorQuery, PhysicalParams, derive_scales, gamma_from_green, matsubara_assemble, rho_tf, theta_at
from trapgas.cli import CORRELATOR_MODES, GREEN_MODES, load_config, main
from trapgas.errors import ConfigError
from trapgas.green_trapped import lowT_n0_drift

GREEN_COLUMNS = ["x1", "tau1", "x2", "tau2", "G_re", "G_im", "method", "trunc_err", "regime", "window_slack", "const_free", "status"]
CORRELATOR_COLUMNS = ["x1", "tau1", "x2", "tau2", "S", "gamma", "theta_S", "xi_S", "method", "status"]


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    meta, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config(None)
        assert cfg.params.m == 1.0
        assert cfg["grid.x_ref"] == pytest.approx(0.1 * cfg.scales.R_c)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[params]\nmass = 2\n")
        with pytest.raises(ConfigError, match="params.mass"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[misc]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="misc"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "[params]\nm = banana\n")
        with pytest.raises(ConfigError, match="params.m"):
            load_config(path)

    def test_nonpositive_param_is_config_error(self, tmp_path):
        path = write_config(tmp_path, "[params]\nbeta = -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_values_parsed(self, tmp_path):
        path = write_config(
            tmp_path,
            "[params]\nbeta = 2.5\n[truncation]\nl_max = 7\n[grid]\nomega_list = 0, 6.28\n",
        )
        cfg = load_config(path)
        assert cfg.params.beta == 2.5
        assert cfg["truncation.l_max"] == 7
        assert cfg["grid.omegas"] == [0.0, 6.28]

    @pytest.mark.parametrize(
        "key, text",
        [
            ("truncation.tol", "-1"),
            ("truncation.tol", "0"),
            ("truncation.tol", "nan"),
            ("truncation.tol", "inf"),
            ("truncation.l_max", "-1"),
            ("truncation.n_max", "0"),
            ("truncation.n0", "0"),
            ("truncation.min_dtau", "-0.1"),
            ("truncation.min_dtau", "nan"),
            ("grid.x_count", "-3"),
            ("grid.tau_count", "-1"),
            ("grid.sep_count", "-1"),
            ("grid.sep_min", "0"),  # under the default log spacing
            ("grid.sep_min", "-0.5"),
        ],
    )
    def test_bad_truncation_or_grid_value_names_key(self, tmp_path, key, text):
        section, name = key.split(".")
        path = write_config(tmp_path, f"[{section}]\n{name} = {text}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("text", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "truncation.tol", "truncation.min_dtau", "regime.r_lo", "regime.r_hi",
            "grid.x_ref", "grid.tau_ref", "grid.x_min", "grid.x_max", "grid.tau_min", "grid.tau_max",
            "grid.sep_min", "grid.sep_max", "grid.s_center", "grid.dtau", "grid.omega_list",
        ],
    )
    def test_non_finite_value_exits_naming_key(self, tmp_path, capsys, key, text):
        section, name = key.split(".")
        path = write_config(tmp_path, f"[{section}]\n{name} = {text}\n")
        assert main(["density", "--config", path]) == 2
        assert key in capsys.readouterr().err

    def test_bad_tol_exits_with_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "[truncation]\ntol = -1\n[grid]\nx_count = 3\nomega_list = 6.28\n")
        assert main(["green", "--mode", "trapped-spectral", "--config", path]) == 2
        assert "truncation.tol" in capsys.readouterr().err


class TestDensityCommand:
    def test_parabola_clipped(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nx_min = -2\nx_max = 2\nx_count = 81\n")
        out = tmp_path / "density.csv"
        assert main(["density", "--config", cfg, "--out", str(out)]) == 0
        meta, header, rows = read_csv(str(out))
        assert header == ["x", "rho_tf"]
        assert len(rows) == 81
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1)
        d = derive_scales(p)
        for x_s, rho_s in rows:
            x, rho = float(x_s), float(rho_s)
            assert rho == pytest.approx(rho_tf(x, p, d), abs=1e-15)
        clipped = [float(r[1]) for r in rows if abs(float(r[0])) > math.sqrt(2.0)]
        assert clipped and all(v == 0.0 for v in clipped)

    def test_empty_grid_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nx_count = 0\n")
        out = tmp_path / "density.csv"
        assert main(["density", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == ["x", "rho_tf"]
        assert rows == []

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[grid]\nx_points = 5\n")
        assert main(["density", "--config", cfg]) == 2
        assert "x_points" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_rows_and_asymptote(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--levels", "40", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == ["n", "E_n", "dE", "dE_expansion", "status"]
        assert float(rows[0][1]) == 0.0
        d = derive_scales(PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1))
        assert float(rows[-1][2]) == pytest.approx(1.0 / d.alpha, rel=1e-3)
        assert rows[0][3] == ""  # no expansion below n = 2, marked via status
        assert rows[0][4] != "ok"

    def test_zero_levels_header_only(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--levels", "0", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header is not None and rows == []

    def test_negative_levels_rejected(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--levels", "-3", "--out", str(out)]) == 2
        assert "--levels must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()


class TestGreenCommand:
    def test_homog_series_coincident_row_divergent(self, tmp_path):
        for tail_mode in ("tail_mode = none\n", ""):  # explicit "none", then the default
            cfg = write_config(
                tmp_path,
                f"[truncation]\nl_max = 8\nn_max = 8\n{tail_mode}"
                "[grid]\nx_ref = 0.0\ntau_ref = 0.0\nx_min = 0.0\nx_max = 0.4\nx_count = 2\n",
            )
            out = tmp_path / "green.csv"
            assert main(["green", "--mode", "homog-series", "--config", cfg, "--out", str(out)]) == 0
            _, header, rows = read_csv(str(out))
            assert header[:6] == ["x1", "tau1", "x2", "tau2", "G_re", "G_im"]
            status = {r[2]: r[-1] for r in rows}
            assert status["0"] == "divergent"
            assert status[[k for k in status if k != "0"][0]] == "ok"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nx_count = 7\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["green", "--mode", "homog-series", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["green", "--mode", "homog-series", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_trapped_spectral_blocks_per_frequency(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[grid]\nx_ref = 0.1\nx_min = -0.5\nx_max = 0.5\nx_count = 3\nomega_list = 0, 6.283185307179586\n",
        )
        out = tmp_path / "spectral.csv"
        assert main(["green", "--mode", "trapped-spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert len(rows) == 6  # one block of 3 per frequency

    def test_trapped_spectral_trunc_err_is_absolute(self, tmp_path):
        # trunc_err bounds |G_re|'s series error, so it scales with G_re: at
        # omega = 20 pi, G_re spans 1e-42 to 1e-6 across the default grid.
        # omega = 0.2 lies on the real branch (alpha omega < 1/2).
        cfg = write_config(tmp_path, "[grid]\nomega_list = 0.2, 62.83185307179586\n")
        out = tmp_path / "spectral.csv"
        assert main(["green", "--mode", "trapped-spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        g_re, trunc = header.index("G_re"), header.index("trunc_err")
        assert len(rows) == 82 and all(r[-1] == "ok" for r in rows)
        for r in rows:
            assert 0.0 <= float(r[trunc]) <= 1e-9 * abs(float(r[g_re]))

    def test_oracle_matches_spectral_on_same_grid(self, tmp_path):
        grid = "[grid]\nx_ref = 0.1\nx_min = -0.6\nx_max = 0.6\nx_count = 5\nomega_list = 0, 6.283185307179586\n"
        cfg = write_config(tmp_path, grid)
        out_s, out_o = tmp_path / "s.csv", tmp_path / "o.csv"
        assert main(["green", "--mode", "trapped-spectral", "--config", cfg, "--out", str(out_s)]) == 0
        assert main(["green", "--mode", "oracle", "--config", cfg, "--out", str(out_o)]) == 0
        _, _, rows_s = read_csv(str(out_s))
        _, _, rows_o = read_csv(str(out_o))
        # downstream diff: compare G_re per row, in first-row-anchored form to
        # cancel each route's additive gauge at omega = 0
        g_s = np.array([float(r[4]) for r in rows_s])
        g_o = np.array([float(r[4]) for r in rows_o])
        for blk in (slice(0, 5), slice(5, 10)):
            ds = g_s[blk] - g_s[blk].flat[0]
            do = g_o[blk] - g_o[blk].flat[0]
            scale = np.max(np.abs(ds))
            assert np.max(np.abs(ds - do)) < 1e-3 * scale

    def test_oracle_empty_grid_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nx_count = 0\n")
        out = tmp_path / "oracle.csv"
        assert main(["green", "--mode", "oracle", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == GREEN_COLUMNS and rows == []

    def test_trapped_asympt_intermediate_regime_status(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nx_count = 3\n")
        out = tmp_path / "asympt.csv"
        assert main(["green", "--mode", "trapped-asympt", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        assert all("intermediate" in r[-1] for r in rows)

    def test_no_nan_or_inf_cells(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nx_count = 9\n")
        out = tmp_path / "g.csv"
        assert main(["green", "--mode", "homog-asympt", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        for row in rows:
            assert all(cell.lower() not in ("nan", "inf", "-inf") for cell in row)


class TestCorrelatorCommand:
    def test_closed_form_profile(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[grid]\ns_center = 0.3\nsep_min = 0.0\nsep_max = 0.2\nsep_count = 5\nsep_spacing = linear\n",
        )
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "closed-form", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == CORRELATOR_COLUMNS
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1)
        d = derive_scales(p)
        # zero-separation row reduces to the density at the midpoint
        first = rows[0]
        assert float(first[5]) == pytest.approx(rho_tf(0.3, p, d), rel=1e-12)
        assert float(first[6]) == pytest.approx(theta_at(0.3, p, d), rel=1e-12)
        assert all(r[-1] == "ok" for r in rows)

    def test_log_spacing_for_exponent_pipelines(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nsep_count = 8\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "closed-form", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        seps = np.array([float(r[0]) - float(r[2]) for r in rows])
        ratios = seps[1:] / seps[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_json_mirror(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nsep_count = 9\n[output]\nformat = json\n")
        out = tmp_path / "corr.json"
        assert main(["correlator", "--mode", "closed-form", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][:6] == ["x1", "tau1", "x2", "tau2", "S", "gamma"]
        assert len(payload["rows"]) == 9
        assert all(len(r) == len(payload["columns"]) for r in payload["rows"])

    def test_asymptotic_auto_falls_back_to_spectral_outside_windows(self, tmp_path):
        # the default beta/alpha is intermediate: no closed form applies, so
        # every row comes from the spectral route, bit for bit
        cfg = write_config(tmp_path, "[truncation]\nl_max = 4\n[grid]\nsep_count = 3\n")
        tables = {}
        for mode in ("asymptotic-auto", "spectral"):
            out = tmp_path / f"{mode}.csv"
            assert main(["correlator", "--mode", mode, "--config", cfg, "--out", str(out)]) == 0
            _, header, tables[mode] = read_csv(str(out))
        col = {name: i for i, name in enumerate(header)}
        assert [r[col["method"]] for r in tables["asymptotic-auto"]] == ["asymptotic-auto:fallback-spectral"] * 3
        gammas = {mode: [r[col["gamma"]] for r in rows] for mode, rows in tables.items()}
        assert all(gammas["spectral"]) and gammas["asymptotic-auto"] == gammas["spectral"]

    def test_asymptotic_auto_rows_in_window(self, tmp_path):
        # beta/alpha = 0.05 and |dx| <= 0.05 R_c: inside the high-T windows
        cfg = write_config(tmp_path, f"[params]\nbeta = {0.05 * math.sqrt(2.0)!r}\n[grid]\nsep_max = 0.07\nsep_count = 3\n")
        out = tmp_path / "auto.csv"
        assert main(["correlator", "--mode", "asymptotic-auto", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert [(r[header.index("method")], r[header.index("status")]) for r in rows] == [("asymptotic-auto", "ok")] * 3

    def test_spectral_row_equals_symmetrized_pair(self, tmp_path):
        # the table evaluates G once, which stands for both G(1;2) and G(2;1):
        # the two orders must agree bitwise and reproduce the row
        cfg = write_config(
            tmp_path,
            "[params]\nbeta = 2.5\n[truncation]\nl_max = 6\n[grid]\ns_center = 0.35\nsep_count = 3\ndtau = 0.3\n",
        )
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=2.5)
        d = derive_scales(p)
        for cells in rows:
            row = dict(zip(header, cells))
            x1, tau1, x2, tau2 = (float(row[k]) for k in ("x1", "tau1", "x2", "tau2"))
            g12 = matsubara_assemble(x1, tau1, x2, tau2, p, d, 6)
            g21 = matsubara_assemble(x2, tau2, x1, tau1, p, d, 6)
            assert g12.value == g21.value
            gamma = gamma_from_green(CorrelatorQuery(x1, tau1, x2, tau2), g12, p, d)
            assert row["status"] == "ok" and row["gamma"] == "%.17g" % gamma


@pytest.mark.parametrize("beta", [0.05 * math.sqrt(2.0), 1.0, 100.0 * math.sqrt(2.0)])
@pytest.mark.parametrize(
    "command, mode, columns",
    [("green", m, GREEN_COLUMNS) for m in GREEN_MODES] + [("correlator", m, CORRELATOR_COLUMNS) for m in CORRELATOR_MODES],
)
def test_every_mode_runs_byte_identically(tmp_path, command, mode, columns, beta):
    cfg = write_config(
        tmp_path,
        f"[params]\nbeta = {beta!r}\n[truncation]\nl_max = 4\n"
        f"[grid]\nx_count = 3\nsep_count = 3\ndtau = {0.01 * beta!r}\nomega_list = 0, 6.283185307179586\n",
    )
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main([command, "--mode", mode, "--config", cfg, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    _, header, rows = read_csv(str(outs[0]))
    assert header == columns
    assert rows and all(len(r) == len(columns) for r in rows)


class TestExponentCommand:
    def test_fit_matches_theta_S_in_window(self, tmp_path):
        # low-temperature power-law dispatch; the fitted exponent must sit on
        # 1/theta(S) well inside 5%
        alpha = math.sqrt(2.0)
        cfg = write_config(
            tmp_path,
            f"[params]\nbeta = {100.0 * alpha}\n"
            "[grid]\ns_center = 0.3\nsep_min = 0.001\nsep_max = 0.01\nsep_count = 10\n",
        )
        out = tmp_path / "exp.csv"
        assert main(["exponent", "--mode", "asymptotic-auto", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        row = dict(zip(header, rows[0]))
        assert abs(float(row["rel_dev_vs_theta_S"])) < 0.05

    @pytest.mark.parametrize(
        "mode, grid, cause",
        [
            ("series", "", "DomainError: lowT_legendre_series requires tau != tau'"),
            ("closed-form", "[grid]\ndtau = 0.1\n", "DomainError: closed-form correlator is equal-time"),
        ],
        ids=["series-equal-time", "closed-form-dtau"],
    )
    def test_too_few_rows_names_the_skipped_cause(self, tmp_path, capsys, mode, grid, cause):
        cfg = write_config(tmp_path, grid)
        assert main(["exponent", "--mode", mode, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "need at least 8 samples, got 0" in err
        assert "9 rows skipped" in err and cause in err


class TestValidateCommand:
    def test_tightened_tolerance_fails_controlled(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "validate", "--out", str(out),
            "--override", "03-oracle-equivalence=1e-15",
        ])
        assert code == 3
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["03-oracle-equivalence"]["passed"]
        assert by_name["03-oracle-equivalence"]["tol"] == 1e-15
        assert not report["all_passed"]
        # every other check still reports its own honest outcome
        assert by_name["01-zero-mode-identity"]["passed"]

    def test_bad_override_is_config_error(self, capsys):
        assert main(["validate", "--override", "nonsense"]) == 2

    def test_unknown_override_name_rejected(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out), "--override", "3-oracle-equivalence=1e-15"]) == 2
        assert "3-oracle-equivalence" in capsys.readouterr().err
        assert not out.exists()

    def test_override_keeps_the_other_conditions(self, tmp_path, monkeypatch):
        # check 08 also requires an n0-doubling drift below 0.02; raising its
        # tolerance must not waive that
        from trapgas import checks

        def drifting(*args, **kwargs):
            g1, g2, _ = lowT_n0_drift(*args, **kwargs)
            return g1, g2, 1.0

        monkeypatch.setattr(checks, "lowT_n0_drift", drifting)
        out = tmp_path / "report.json"
        for override in ([], ["--override", "08-trapped-lowT-match=1.0"]):
            assert main(["validate", "--out", str(out), *override]) == 3
            by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
            assert by_name["08-trapped-lowT-match"]["passed"] is False

    @pytest.mark.parametrize(
        "override",
        ["3-oracle-equivalence=1e-15", *(f"03-oracle-equivalence={t}" for t in ("nan", "inf", "-1", "0"))],
        ids=["unknown-name", "nan", "inf", "negative", "zero"],
    )
    def test_bad_override_rejected_before_any_check_runs(self, tmp_path, capsys, monkeypatch, override):
        # check 01 runs first and calls spectral_density
        from trapgas import checks

        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the overrides were validated")

        monkeypatch.setattr(checks, "spectral_density", must_not_run)
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out), "--override", override]) == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_check_10_fails_on_a_wrong_assembly(self, monkeypatch):
        # the figure is the assembly's deviation from its spectral-density fold
        from trapgas import checks

        def off_by_1e_6(*args, **kwargs):
            g = matsubara_assemble(*args, **kwargs)
            return dataclasses.replace(g, value=g.value * (1.0 + 1e-6))

        monkeypatch.setattr(checks, "matsubara_assemble", off_by_1e_6)
        result = checks.run_check("10-symmetry-positivity")
        assert not result.passed and result.value > 1e-7 and result.conditions_met

    def test_check_10_fails_on_an_asymmetric_assembly(self, monkeypatch):
        # one ulp between the two point orders: the figure stays tiny, the
        # swap condition fails
        from trapgas import checks

        def asymmetric(x, tau, xp, taup, *args, **kwargs):
            g = matsubara_assemble(x, tau, xp, taup, *args, **kwargs)
            return dataclasses.replace(g, value=math.nextafter(g.value, math.inf)) if x < xp else g

        monkeypatch.setattr(checks, "matsubara_assemble", asymmetric)
        result = checks.run_check("10-symmetry-positivity")
        assert not result.passed and result.value < result.tol and not result.conditions_met
        assert "not symmetric" in result.detail

    def test_report_values_stable_across_runs(self):
        from trapgas.checks import run_check

        for name in ("01-zero-mode-identity", "06-homog-regime-match"):
            a, b = run_check(name), run_check(name)
            assert a.value == b.value and a.passed == b.passed
