import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from trapgas import (
    CorrelatorQuery,
    PhysicalParams,
    derive_scales,
    extract_exponent,
    gamma_from_green,
    matsubara_assemble,
    rho_tf,
    theta_at,
)
from trapgas import cli
from trapgas.cli import CORRELATOR_MODES, GREEN_MODES, load_config, main
from trapgas.errors import ConfigError, DataError
from trapgas.model import zeta_of

GREEN_COLUMNS = ["x1", "tau1", "x2", "tau2", "G_re", "G_im", "method", "trunc_err", "regime", "const_free", "status"]
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

    def test_asymptotic_auto_covers_the_default_grid_at_high_temperature(self, tmp_path):
        # the Liouville-Green route has no quasi-homogeneous window: the last default separation,
        # |dx|/R_c = 0.10000000000000003, no longer falls back to the spectral route
        cfg = write_config(tmp_path, f"[params]\nbeta = {0.05 * math.sqrt(2.0)!r}\n")
        out = tmp_path / "auto.csv"
        assert main(["correlator", "--mode", "asymptotic-auto", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert [(r[header.index("method")], r[header.index("status")]) for r in rows] == [("asymptotic-auto", "ok")] * 9

    def test_asymptotic_auto_falls_back_in_the_edge_layer(self, tmp_path):
        # outer points at 0.996, 0.997, 0.999 R_c: mu_1 arccos|u| = 11.2, 9.7, 5.6
        # against the Liouville-Green gate of 10
        cfg = write_config(
            tmp_path,
            f"[params]\nbeta = {0.05 * math.sqrt(2.0)!r}\n[truncation]\nl_max = 400\n"
            f"[grid]\ns_center = {0.995 * math.sqrt(2.0)!r}\nsep_min = {0.002 * math.sqrt(2.0)!r}\n"
            f"sep_max = {0.008 * math.sqrt(2.0)!r}\nsep_count = 3\n",
        )
        tables = {}
        for mode in ("asymptotic-auto", "spectral"):
            out = tmp_path / f"{mode}.csv"
            assert main(["correlator", "--mode", mode, "--config", cfg, "--out", str(out)]) == 0
            _, header, tables[mode] = read_csv(str(out))
        col = {name: i for i, name in enumerate(header)}
        auto, spectral = tables["asymptotic-auto"], tables["spectral"]
        assert [r[col["method"]] for r in auto] == ["asymptotic-auto"] + ["asymptotic-auto:fallback-spectral"] * 2
        assert [r[col["gamma"]] for r in auto[1:]] == [r[col["gamma"]] for r in spectral[1:]]

    def test_spectral_route_at_high_temperature(self, tmp_path):
        # beta = 1e-4 puts the first frequency at lambda ~ 2e11; every row
        # but the last is ok and agrees with the asymptotic form, and the
        # last, whose Gamma ~ 6e-321 is a subnormal of a few digits, reports
        # the underflow
        from trapgas import gamma_trapped_asymptotic

        cfg = write_config(tmp_path, "[params]\nbeta = 1e-4\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1e-4)
        d = derive_scales(p)
        assert len(rows) == 9
        last = dict(zip(header, rows.pop()))
        assert last["gamma"] == ""
        assert last["status"].startswith("AccuracyError: Gamma = 5.8")
        assert "underflows below the smallest normal float" in last["status"]
        for cells in rows:
            row = dict(zip(header, cells))
            assert row["status"] == "ok"
            q = CorrelatorQuery(*(float(row[k]) for k in ("x1", "tau1", "x2", "tau2")))
            asymptotic = gamma_trapped_asymptotic(q, p, d)
            assert abs(math.log(float(row["gamma"])) / math.log(asymptotic) - 1.0) < 1e-3

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
            g12 = matsubara_assemble(x1, tau1, x2, tau2, p, d, 6, tol=1e-12)  # the default truncation.tol
            g21 = matsubara_assemble(x2, tau2, x1, tau1, p, d, 6, tol=1e-12)
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
            ("spectral", "[params]\nbeta = 1e-5\n", "AccuracyError: Gamma = 1.2327e-320 underflows"),
        ],
        ids=["series-equal-time", "closed-form-dtau", "spectral-underflow"],
    )
    def test_too_few_rows_names_the_skipped_cause(self, tmp_path, capsys, mode, grid, cause):
        cfg = write_config(tmp_path, grid)
        assert main(["exponent", "--mode", mode, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "need at least 8 samples, got 0" in err
        assert "9 rows skipped" in err and cause in err

    def test_spectral_fit_skips_the_underflowing_row(self, tmp_path, capsys):
        # at beta = 1e-4 the widest separation's Gamma underflows; the fit
        # runs on the other 8 and says so on stderr
        cfg = write_config(tmp_path, "[params]\nbeta = 1e-4\n")
        out = tmp_path / "exp.csv"
        assert main(["exponent", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        row = dict(zip(header, rows[0]))
        assert row["status"] == "ok" and row["n_samples"] == "8"
        assert float(row["sep_max"]) < 0.75 * 0.1 * math.sqrt(2.0)
        err = capsys.readouterr().err
        assert err.startswith("exponent: 1 of 9 rows left out of the fit (first: AccuracyError: Gamma = 5.8")
        assert "underflows" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mode, params",
        [(m, "") for m in CORRELATOR_MODES] + [("spectral", "[params]\nbeta = 1e-4\n")],
        ids=[*CORRELATOR_MODES, "spectral-beta-1e-4"],
    )
    def test_fit_is_the_correlator_tables_ok_rows(self, tmp_path, capsys, mode, params):
        # exponent fits exactly the rows the correlator table prints as ok with
        # a finite positive Gamma, bit for bit, and counts the others on stderr
        cfg = write_config(tmp_path, params)
        table, fit_out = tmp_path / "corr.csv", tmp_path / "exp.csv"
        assert main(["correlator", "--mode", mode, "--config", cfg, "--out", str(table)]) == 0
        code = main(["exponent", "--mode", mode, "--config", cfg, "--out", str(fit_out)])
        run = load_config(cfg)
        p, d = run.params, run.scales
        _, header, rows = read_csv(str(table))
        seps, gammas, rhos = [], [], []
        for cells in rows:
            row = dict(zip(header, cells))
            if row["status"] != "ok" or not 0.0 < float(row["gamma"]) < math.inf:
                continue
            q = CorrelatorQuery(*(float(row[k]) for k in ("x1", "tau1", "x2", "tau2")))
            seps.append(abs(zeta_of(q.dx, q.dtau, p, d)))
            gammas.append(float(row["gamma"]))
            rhos.append(math.sqrt(rho_tf(q.x1, p, d) * rho_tf(q.x2, p, d)))
        if len(seps) < 8:
            assert code == 2 and "need at least 8 samples" in capsys.readouterr().err
            with pytest.raises(DataError):
                extract_exponent(seps, gammas, rhos)
            return
        assert code == 0
        err, skipped = capsys.readouterr().err, len(rows) - len(seps)
        if skipped:
            assert err.startswith(f"exponent: {skipped} of {len(rows)} rows left out of the fit (first: ")
        else:
            assert err == ""
        fit = extract_exponent(seps, gammas, rhos)
        _, header, rows = read_csv(str(fit_out))
        row = dict(zip(header, rows[0]))
        expected = {
            "n_samples": fit.n_samples, "sep_min": fit.sep_range[0], "sep_max": fit.sep_range[1],
            "inv_theta_fit": fit.inv_theta, "inv_theta_stderr": fit.inv_theta_stderr, "theta_fit": fit.theta,
        }
        assert {key: row[key] for key in expected} == {key: cli._fmt_cell(v) for key, v in expected.items()}


class TestEntryPoint:
    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        built = []  # the prog of every parser made, subcommand parsers included
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        try:
            out = tmp_path / "density.csv"
            assert main(["density", "--out", str(out)]) == 0
            assert built.count("trapgas") == 1
            assert main(["spectrum", "--levels", "3", "--out", str(out)]) == 0
            assert built.count("trapgas") == 1
        finally:
            cli._parser.cache_clear()

    def test_main_runs_the_module_level_commands(self, tmp_path, monkeypatch):
        # a tracer wraps a command by rebinding its name in the module
        calls = []
        for name in ("cmd_green", "cmd_correlator"):
            def wrapped(cfg, args, _run=getattr(cli, name), _name=name):
                calls.append(_name)
                return _run(cfg, args)

            monkeypatch.setattr(cli, name, wrapped)
        cfg = write_config(tmp_path, "[grid]\nx_count = 2\nsep_count = 2\n")
        out = tmp_path / "table.csv"
        assert main(["green", "--mode", "homog-asympt", "--config", cfg, "--out", str(out)]) == 0
        assert main(["correlator", "--mode", "closed-form", "--config", cfg, "--out", str(out)]) == 0
        assert calls == ["cmd_green", "cmd_correlator"]


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

        series = checks.lowT_legendre_series

        def drifting(*args, **kwargs):
            g = series(*args, **kwargs)
            return dataclasses.replace(g, trunc_err=abs(g.value))

        monkeypatch.setattr(checks, "lowT_legendre_series", drifting)
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
