import argparse
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from trapgas import (
    CorrelatorQuery,
    HomogSeriesControl,
    LowTControl,
    PhysicalParams,
    asympt_green_highT,
    asympt_green_lowT,
    closed_form_zero_mode,
    derive_scales,
    extract_exponent,
    gamma_d1_exact,
    gamma_from_green,
    homog_series,
    lowT_legendre_series,
    matsubara_assemble,
    rho_tf,
    theta_at,
)
from trapgas import cli
from trapgas.cli import CORRELATOR_MODES, GREEN_MODES, load_config, main
from trapgas.errors import ConfigError, DataError
from trapgas.model import zeta_of

GREEN_COLUMNS = ["x1", "tau1", "x2", "tau2", "G_re", "method", "trunc_err", "regime", "const_free", "status"]
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
        # a removed key is unknown too: the k=0 line has no tail_mode to choose
        path = write_config(tmp_path, "[truncation]\ntail_mode = bernoulli\n", name="removed.ini")
        with pytest.raises(ConfigError, match="unknown config key truncation.tail_mode"):
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

    @pytest.mark.parametrize("omega", ["1e-300", "1e200"])  # Omega**2 underflows to 0, or overflows
    def test_scales_out_of_float_range_exit_naming_params(self, tmp_path, capsys, omega):
        path = write_config(tmp_path, f"[params]\nOmega = {omega}\n")
        assert main(["density", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [params] ")
        assert f"Omega = {float(omega)!r}" in err and "beta = 1.0" in err

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


class TestTableEmission:
    # every cell type a table can hold, pinned to the text it has always printed
    ROW = [0.1, 1.0 / 3.0, np.float64(2.0 / 3.0), 7, np.int64(-12), True, False, None, "ok", -0.0,
           float("nan"), float("inf"), float("-inf"), 5e-324, np.float64(-0.0), np.float64("nan")]

    def emit(self, fmt):
        out = io.StringIO()
        cli.write_table(out, fmt, load_config(None), [f"c{i}" for i in range(len(self.ROW))], [self.ROW])
        return out.getvalue()

    def test_csv_cells(self):
        assert self.emit("csv").splitlines()[-1] == (
            "0.10000000000000001,0.33333333333333331,0.66666666666666663,7,-12,true,false,,ok,-0,"
            "nan,inf,-inf,4.9406564584124654e-324,-0,nan"
        )

    def test_json_cells(self):
        # numbers and constants kept as the literal text json wrote
        literal = dict.fromkeys(("parse_float", "parse_int", "parse_constant"), str)
        assert json.loads(self.emit("json"), **literal)["rows"] == [[
            "0.1", "0.3333333333333333", "0.6666666666666666", "7", "-12", True, False, None, "ok", "-0.0",
            "NaN", "Infinity", "-Infinity", "5e-324", "-0.0", "NaN",
        ]]


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

    @pytest.mark.parametrize("source", ["--out", "output.path"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, source):
        # a path in a missing directory, given by the flag or by the config
        target = str(tmp_path / "missing" / "density.csv")
        if source == "--out":
            argv = ["density", "--out", target]
        else:
            argv = ["density", "--config", write_config(tmp_path, f"[output]\npath = {target}\n")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {target!r}: ")
        assert "Traceback" not in err


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
        cfg = write_config(
            tmp_path,
            "[truncation]\nl_max = 8\nn_max = 8\n"
            "[grid]\nx_ref = 0.0\ntau_ref = 0.0\nx_min = 0.0\nx_max = 0.4\nx_count = 2\n",
        )
        out = tmp_path / "green.csv"
        assert main(["green", "--mode", "homog-series", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header[:6] == ["x1", "tau1", "x2", "tau2", "G_re", "method"]
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

    @pytest.mark.parametrize(
        "x_min, outside, anchor",
        [(-1.0, [1.5], -1.0), (-1.5, [-1.5, 1.5], -0.9)],
        ids=["right-end-outside", "both-ends-outside"],
    )
    def test_oracle_rows_outside_the_condensate_are_domain_errors(self, tmp_path, x_min, outside, anchor):
        # R_c = sqrt 2: a point at |x| >= R_c is a DomainError row, as in
        # trapped-spectral, and not the last node's value; the omega = 0
        # gauge is anchored at the first point inside, where the oracle's G
        # is the closed form's
        cfg = write_config(tmp_path, f"[grid]\nx_min = {x_min!r}\nx_max = 1.5\nx_count = 6\n")
        out = tmp_path / "oracle.csv"
        assert main(["green", "--mode", "oracle", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        rows = [dict(zip(header, cells)) for cells in rows]
        assert len(rows) == 6
        errors = [r for r in rows if r["status"] != "ok"]
        assert [float(r["x2"]) for r in errors] == outside
        for row in errors:
            assert row["G_re"] == "" and row["trunc_err"] == "" and row["method"] == "oracle"
            assert row["status"].startswith(f"DomainError: x = {float(row['x2'])!r} is outside the condensate")
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1)
        d = derive_scales(p)
        first = next(r for r in rows if r["status"] == "ok")
        assert float(first["x2"]) == pytest.approx(anchor, abs=1e-15)
        from trapgas import FdmGrid, fdm_spectral_solve

        sol = fdm_spectral_solve(0.0, float(first["x1"]), p, d, FdmGrid(N=10_000))
        assert float(first["G_re"]) == pytest.approx(closed_form_zero_mode(anchor, sol.x_source, p, d) * p.beta,
                                                     rel=1e-12)

    @pytest.mark.parametrize("mode", ["homog-series", "homog-asympt", "trapped-series", "trapped-asympt"])
    def test_empty_time_grid_header_only(self, tmp_path, mode):
        # tau_count = 0 is an empty grid, as x_count = 0 is, and not one
        # row per point at tau_ref
        cfg = write_config(tmp_path, "[grid]\nx_count = 3\ntau_count = 0\n")
        out = tmp_path / "green.csv"
        assert main(["green", "--mode", mode, "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == GREEN_COLUMNS and rows == []

    def test_trapped_asympt_intermediate_regime_status(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nx_count = 3\n")
        out = tmp_path / "asympt.csv"
        assert main(["green", "--mode", "trapped-asympt", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        assert all("intermediate" in r[-1] for r in rows)

    def test_overflowing_frequency_exits_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[grid]\nomega_list = 1e300\n")
        assert main(["green", "--mode", "trapped-spectral", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: omega = 1e+300: (alpha omega)^2 overflows a float")

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

    def test_asymptotic_auto_falls_back_in_the_edge_layer(self, tmp_path, monkeypatch):
        # outer points at 0.996, 0.997, 0.999 R_c: mu_1 arccos|u| = 11.2, 9.7, 5.6
        # against the Liouville-Green gate of 10; the pairs of the spectral
        # route take their direct rows in one kernel call in either mode,
        # after the three doublings of their points' interpolants
        from trapgas import green_trapped

        kernel, calls = green_trapped._p_quad, []

        def counted(*a):
            calls.append(len(a[0]))
            return kernel(*a)

        monkeypatch.setattr(green_trapped, "_p_quad", counted)
        cfg = write_config(
            tmp_path,
            f"[params]\nbeta = {0.05 * math.sqrt(2.0)!r}\n[truncation]\nl_max = 400\n"
            f"[grid]\ns_center = {0.995 * math.sqrt(2.0)!r}\nsep_min = {0.002 * math.sqrt(2.0)!r}\n"
            f"sep_max = {0.008 * math.sqrt(2.0)!r}\nsep_count = 3\n",
        )
        tables = {}
        for mode in ("asymptotic-auto", "spectral"):
            out = tmp_path / f"{mode}.csv"
            calls.clear()
            assert main(["correlator", "--mode", mode, "--config", cfg, "--out", str(out)]) == 0
            _, header, tables[mode] = read_csv(str(out))
            tables[mode, "calls"] = list(calls)
        auto, spectral = tables["asymptotic-auto", "calls"], tables["spectral", "calls"]
        assert len(auto) == len(spectral) == 4 and auto[-1] < spectral[-1]
        col = {name: i for i, name in enumerate(header)}
        auto, spectral = tables["asymptotic-auto"], tables["spectral"]
        assert [r[col["method"]] for r in auto] == ["asymptotic-auto"] + ["asymptotic-auto:fallback-spectral"] * 2
        assert [r[col["gamma"]] for r in auto[1:]] == [r[col["gamma"]] for r in spectral[1:]]

    @pytest.mark.parametrize(
        "beta_over_alpha, sep_max_over_rc, dtau_over_beta, form",
        [
            (0.05, 0.6, 0.0, asympt_green_highT),  # high T: out to |dx| = 0.6 R_c, no quasi-homogeneous window
            (100.0, 0.07, 0.0, asympt_green_lowT),  # low T: |zeta|/R_c from 0.01 to 0.07, inside the gate u_* < 0.1
            (100.0, 0.07, 0.0001, asympt_green_lowT),  # low T, off the equal-time line
        ],
    )
    def test_asymptotic_auto_rows_are_the_form_of_their_regime(
        self, tmp_path, beta_over_alpha, sep_max_over_rc, dtau_over_beta, form
    ):
        # bitwise: every ok row is gamma_from_green of the Green value that
        # the form of its regime gives, the value green --mode trapped-asympt prints
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=beta_over_alpha * math.sqrt(2.0))
        d = derive_scales(p)
        cfg = write_config(
            tmp_path,
            f"[params]\nbeta = {p.beta!r}\n[grid]\nsep_min = {0.01 * d.R_c!r}\n"
            f"sep_max = {sep_max_over_rc * d.R_c!r}\ndtau = {dtau_over_beta * p.beta!r}\n",
        )
        out = tmp_path / "auto.csv"
        assert main(["correlator", "--mode", "asymptotic-auto", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        rows = [dict(zip(header, cells)) for cells in rows]
        assert [(r["method"], r["status"]) for r in rows] == [("asymptotic-auto", "ok")] * 9
        for row in rows:
            q = CorrelatorQuery(*(float(row[k]) for k in ("x1", "tau1", "x2", "tau2")))
            assert float(row["gamma"]) == gamma_from_green(q, form(q.x1, q.tau1, q.x2, q.tau2, p, d), p, d)

    @pytest.mark.parametrize("beta_over_alpha", [0.05, 1.0 / math.sqrt(2.0), 100.0])
    def test_asymptotic_auto_midpoint_outside_condensate_is_a_domain_error_row(self, tmp_path, beta_over_alpha):
        # in each regime, the intermediate one included, where no form
        # applies: a domain error, not a regime one
        beta = beta_over_alpha * math.sqrt(2.0)
        cfg = write_config(tmp_path, f"[params]\nbeta = {beta!r}\n[grid]\ns_center = {1.15 * math.sqrt(2.0)!r}\n"
                                     f"sep_count = 3\n")
        out = tmp_path / "auto.csv"
        assert main(["correlator", "--mode", "asymptotic-auto", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert len(rows) == 3
        for cells in rows:
            row = dict(zip(header, cells))
            assert row["gamma"] == "" and row["method"] == "asymptotic-auto"
            assert row["status"].startswith("DomainError: theta(S) undefined outside the condensate")

    @pytest.mark.parametrize(
        "mode, g, overflowing, cause",
        [("series", 500, 6, "exp(-G) at G = -2368.64"), ("asymptotic-auto", 2000, 8, "exp(-G) at G = -1490.61")],
        ids=["series-g500", "asymptotic-auto-g2000"],
    )
    def test_overflowing_gamma_is_a_typed_row(self, tmp_path, mode, g, overflowing, cause):
        # a strong coupling makes 1/theta large, so Gamma ~ |zeta|^(-1/theta)
        # exceeds the largest float at the smallest separations
        cfg = write_config(tmp_path, f"[params]\ng = {g}\nbeta = 141.4213562373095\n[grid]\ndtau = 0.007\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", mode, "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        statuses = [r[header.index("status")] for r in rows]
        assert all(status.startswith("AccuracyError: Gamma overflows: ") for status in statuses[:overflowing])
        assert cause in statuses[0]
        assert not any("overflows" in status for status in statuses[overflowing:])

    def test_closed_form_underflow_is_a_typed_row(self, tmp_path):
        # beta = 1e-5: the closed form used to print Gamma = 0 on every row as ok
        cfg = write_config(tmp_path, "[params]\nbeta = 1e-5\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "closed-form", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert len(rows) == 9
        for cells in rows:
            row = dict(zip(header, cells))
            assert row["gamma"] == "" and row["method"] == "closed-form"
            assert re.match(r"AccuracyError: Gamma = .* underflows below the smallest normal float", row["status"])

    def test_spectral_route_at_high_temperature(self, tmp_path):
        # beta = 1e-4 puts the first frequency at lambda ~ 2e11; every row
        # but the last is ok and agrees with the asymptotic form, and the
        # last, whose Gamma ~ 6e-321 is a subnormal of a few digits, reports
        # the underflow
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
            asymptotic = gamma_from_green(q, asympt_green_highT(q.x1, q.tau1, q.x2, q.tau2, p, d), p, d)
            assert abs(math.log(float(row["gamma"])) / math.log(asymptotic) - 1.0) < 1e-3

    def test_spectral_pair_whose_top_frequency_overflows_is_a_domain_error_row(self, tmp_path):
        # beta = 1e-160: the first pair, at dx = 0, sums to l_max = 64, where
        # (alpha omega)^2 overflows a float; it used to print gamma = nan as
        # ok.  The other two pairs keep their rows: a Gamma that underflows
        cfg = write_config(tmp_path, "[params]\nbeta = 1e-160\n[grid]\nsep_spacing = linear\nsep_min = 0\n"
                                     "sep_count = 3\ndtau = 3e-161\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        rows = [dict(zip(header, cells)) for cells in rows]
        d = derive_scales(PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1e-160))
        omega = 2.0 * math.pi * 64 / 1e-160
        assert rows[0]["gamma"] == ""
        assert rows[0]["status"] == (f"DomainError: omega = {omega!r}: (alpha omega)^2 overflows a float "
                                     f"(alpha omega = {d.alpha * omega!r})")
        underflow = "AccuracyError: Gamma = 0.0 underflows below the smallest normal float 2.2250738585072014e-308"
        assert [row["status"] for row in rows[1:]] == [f"{underflow} (G = 3.683780729943742e+158)",
                                                      f"{underflow} (G = 7.373170412222345e+158)"]

    def test_spectral_rows_at_beta_1e170_are_finite_or_typed_errors(self, tmp_path):
        # beta = 1e170: every pair sums to l_max, and every frequency's lambda
        # underflows to 0, where the real branch's nu/sin(pi nu) is 0/0; each
        # row printed gamma = nan as ok.  They are the zero mode's
        cfg = write_config(tmp_path, "[params]\nbeta = 1e170\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        rows = [dict(zip(header, cells)) for cells in rows]
        assert len(rows) == 9
        for row in rows:
            assert "nan" not in ",".join(row.values())
            ok = row["status"] == "ok" and math.isfinite(float(row["gamma"]))
            assert ok or re.match(r"\w+Error: ", row["status"])

    def test_spectral_table_takes_few_kernel_calls(self, tmp_path, monkeypatch):
        # the correlator-precise benchmark's config: the far frequencies of all
        # 9 pairs past mu = 9 take their P_nu from the interpolants of their 18
        # points, all converged at degree 16, 16 node rows and one held-out
        # row each in one kernel call; the first frequency of each pair takes
        # its four direct rows in one more: the 342 kernel rows README gives
        from trapgas import green_trapped

        kernel, calls = green_trapped._p_quad, []

        def counted(*a):
            calls.append(len(a[0]))
            return kernel(*a)

        monkeypatch.setattr(green_trapped, "_p_quad", counted)
        cfg = write_config(tmp_path, "[truncation]\nl_max = 256\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        assert calls == [18 * 17, 9 * 4]
        _, header, rows = read_csv(str(out))
        assert [r[header.index("status")] for r in rows] == ["ok"] * 9

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


class TestRouteMap:
    # each table reproduces a direct call of its route's Green function with
    # the config's controls, all off their defaults, bit for bit

    def table(self, tmp_path, argv, cfg):
        """The rows of a table, each with its points as floats."""
        out = tmp_path / f"{argv[2]}.csv"
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert rows
        rows = [dict(zip(header, cells)) for cells in rows]
        return [(*(float(row[k]) for k in ("x1", "tau1", "x2", "tau2")), row) for row in rows]

    def test_series_routes_take_n0_and_min_dtau(self, tmp_path):
        # beta/alpha = 100 with dtau/beta = 5e-5: below the default min_dtau
        # every green row would carry a warning, and n0 = 20 moves G
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=100.0 * math.sqrt(2.0))
        d = derive_scales(p)
        s, dtau = 0.2 * d.R_c, 0.005 * math.sqrt(2.0)
        cfg = write_config(
            tmp_path,
            f"[params]\nbeta = {p.beta!r}\n[truncation]\nn0 = 30\nmin_dtau = 1e-9\n"
            f"[grid]\ns_center = {s!r}\ndtau = {dtau!r}\nsep_min = {0.001 * d.R_c!r}\n"
            f"sep_max = {0.02 * d.R_c!r}\nsep_count = 4\nx_ref = {s!r}\nx_min = {s - 0.02 * d.R_c!r}\n"
            f"x_max = {s + 0.02 * d.R_c!r}\nx_count = 3\ntau_min = {dtau!r}\ntau_max = {2.0 * dtau!r}\n"
            "tau_count = 2\n",
        )
        ctl = LowTControl(n0=30, min_dtau=1e-9)
        for *pair, row in self.table(tmp_path, ["correlator", "--mode", "series"], cfg):
            g = lowT_legendre_series(*pair, p, d, ctl)
            gamma = gamma_from_green(CorrelatorQuery(*pair), g, p, d)
            assert (row["gamma"], row["status"]) == ("%.17g" % gamma, "ok")
        for *pair, row in self.table(tmp_path, ["green", "--mode", "trapped-series"], cfg):
            g = lowT_legendre_series(*pair, p, d, ctl)
            assert (row["G_re"], row["trunc_err"], row["status"]) == ("%.17g" % g.value, "%.17g" % g.trunc_err, "ok")

    def test_homog_series_takes_l_max_and_n_max(self, tmp_path):
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1.0)
        d = derive_scales(p)
        cfg = write_config(tmp_path, "[truncation]\nl_max = 12\nn_max = 40\n[grid]\nx_count = 5\ntau_max = 0.3\n"
                                     "tau_count = 2\n")
        for *pair, row in self.table(tmp_path, ["green", "--mode", "homog-series"], cfg):
            g = homog_series(*pair, p, d, HomogSeriesControl(12, 40))
            assert (row["G_re"], row["trunc_err"], row["status"]) == ("%.17g" % g.value, "%.17g" % g.trunc_err, "ok")

    def test_closed_form_is_the_exact_correlator(self, tmp_path):
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=2.5)
        d = derive_scales(p)
        cfg = write_config(tmp_path, "[params]\nbeta = 2.5\n[grid]\ns_center = -0.3\nsep_count = 4\n")
        for x1, _, x2, _, row in self.table(tmp_path, ["correlator", "--mode", "closed-form"], cfg):
            assert (row["gamma"], row["status"]) == ("%.17g" % gamma_d1_exact(x1, x2, p, d), "ok")


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

    def test_fit_leaves_out_the_fallback_route(self, tmp_path, capsys):
        # beta/alpha = 100 on the default grid: the widest separation, u_* = 0.1,
        # falls back to the spectral route, whose additive constant in G differs;
        # the fit covers the 8 leading-log rows and recovers 1/theta(S) to rounding
        cfg = write_config(tmp_path, "[params]\nbeta = 141.4213562373095\n")
        out = tmp_path / "exp.csv"
        assert main(["exponent", "--mode", "asymptotic-auto", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        row = dict(zip(header, rows[0]))
        assert row["n_samples"] == "8" and row["status"] == "ok"
        assert float(row["rel_dev_vs_theta_S"]) < 1e-12
        assert capsys.readouterr().err == (
            "exponent: 1 of 9 rows left out of the fit "
            "(first: method asymptotic-auto:fallback-spectral, not asymptotic-auto)\n"
        )

    @pytest.mark.parametrize(
        "mode, grid, cause",
        [
            ("series", "", "DomainError: lowT_legendre_series requires tau != tau'"),
            ("closed-form", "[grid]\ndtau = 0.1\n", "DomainError: closed-form correlator is equal-time"),
            ("spectral", "[params]\nbeta = 1e-5\n", "AccuracyError: Gamma = 1.2327e-320 underflows"),
            ("series", "[params]\ng = 500\nbeta = 141.4213562373095\n[grid]\ndtau = 0.007\n",
             "AccuracyError: Gamma overflows: exp(-G) at G = -2368.6"),
        ],
        ids=["series-equal-time", "closed-form-dtau", "spectral-underflow", "series-overflow"],
    )
    def test_too_few_rows_names_the_skipped_cause(self, tmp_path, capsys, mode, grid, cause):
        cfg = write_config(tmp_path, grid)
        assert main(["exponent", "--mode", mode, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "need at least 8 samples, got 0" in err
        assert "9 rows skipped" in err and cause in err

    def test_flat_profile_exits_with_data_error(self, tmp_path, capsys):
        # Omega = 1e150: the closed-form exponent -g R_c/(4 beta hbar^2 v^2)
        # is so small that Gamma / sqrt(rho rho') is 1.0 on every row
        cfg = write_config(tmp_path, "[params]\nOmega = 1e150\n")
        assert main(["exponent", "--mode", "closed-form", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: the profile is flat")

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
        [(m, "") for m in CORRELATOR_MODES]
        + [("spectral", "[params]\nbeta = 1e-4\n"), ("asymptotic-auto", "[params]\nbeta = 141.4213562373095\n")],
        ids=[*CORRELATOR_MODES, "spectral-beta-1e-4", "asymptotic-auto-low-T"],
    )
    def test_fit_is_the_correlator_tables_ok_rows(self, tmp_path, capsys, mode, params):
        # exponent fits exactly the rows the correlator table prints as ok on the
        # first ok row's route, bit for bit, and counts the others on stderr
        cfg = write_config(tmp_path, params)
        table, fit_out = tmp_path / "corr.csv", tmp_path / "exp.csv"
        assert main(["correlator", "--mode", mode, "--config", cfg, "--out", str(table)]) == 0
        code = main(["exponent", "--mode", mode, "--config", cfg, "--out", str(fit_out)])
        run = load_config(cfg)
        p, d = run.params, run.scales
        _, header, rows = read_csv(str(table))
        seps, gammas, rhos = [], [], []
        methods = [r[header.index("method")] for r in rows if r[header.index("status")] == "ok"]
        for cells in rows:
            row = dict(zip(header, cells))
            if row["status"] != "ok" or row["method"] != methods[0]:
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
        # check 01 runs first and calls _density_parts
        from trapgas import checks

        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the overrides were validated")

        monkeypatch.setattr(checks, "_density_parts", must_not_run)
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out), "--override", override]) == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_check_10_fails_on_a_wrong_assembly(self, monkeypatch):
        # the figure is the assembly's deviation from its spectral-density fold
        from trapgas import checks

        assemble_many = checks.matsubara_assemble_many

        def off_by_1e_6(*args, **kwargs):
            return [dataclasses.replace(g, value=g.value * (1.0 + 1e-6)) for g in assemble_many(*args, **kwargs)]

        monkeypatch.setattr(checks, "matsubara_assemble_many", off_by_1e_6)
        result = checks.run_check("10-symmetry-positivity")
        assert not result.passed and result.value > 1e-7 and result.conditions_met

    def test_check_10_fails_on_an_asymmetric_assembly(self, monkeypatch):
        # one ulp between the two point orders: the figure stays tiny, the
        # swap condition fails
        from trapgas import checks

        assemble_many = checks.matsubara_assemble_many

        def asymmetric(queries, *args, **kwargs):
            return [dataclasses.replace(g, value=math.nextafter(g.value, math.inf)) if q.x1 < q.x2 else g
                    for q, g in zip(queries, assemble_many(queries, *args, **kwargs))]

        monkeypatch.setattr(checks, "matsubara_assemble_many", asymmetric)
        result = checks.run_check("10-symmetry-positivity")
        assert not result.passed and result.value < result.tol and not result.conditions_met
        assert "not symmetric" in result.detail

    @pytest.mark.parametrize("branch", ["all", "real"])
    def test_check_11_fails_on_a_wrong_density(self, monkeypatch, branch):
        # the figure is the slope jump's relative deviation, so a density off
        # by 1e-5 reads 1e-5; scaling only the rows of lambda <= 1/4 shows that
        # the real-branch degrees enter the figure
        from trapgas import checks

        density_parts = checks._density_parts

        def off_by_1e_5(omegas, us, ups, d, k, tol):
            re, *rest = density_parts(omegas, us, ups, d, k, tol)
            lam = (d.alpha * np.asarray(omegas)) ** 2
            return re * (1.0 + 1e-5 * ((lam <= 0.25) if branch == "real" else 1.0)), *rest

        monkeypatch.setattr(checks, "_density_parts", off_by_1e_5)
        result = checks.run_check("11-wronskian-conical-reality")
        assert not result.passed and result.value == pytest.approx(1e-5, rel=1e-3)

    @pytest.fixture(scope="class")
    def fold_record(self):
        # check 10 run once, with each trial's assembly arguments and the
        # _density_parts call of its fold recorded
        from trapgas import checks

        assemble_many, density_parts, trials = checks.matsubara_assemble_many, checks._density_parts, []

        def assembled(queries, p, d, l_max):
            trials.append({"query": queries[0], "p": p, "d": d, "l_max": l_max})
            return assemble_many(queries, p, d, l_max)

        def fold_parts(omegas, us, ups, d, k, tol):
            parts = density_parts(omegas, us, ups, d, k, tol)
            trials[-1].update(omegas=np.array(omegas).tolist(), re=parts[0].tolist())
            return parts

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "matsubara_assemble_many", assembled)
            mp.setattr(checks, "_density_parts", fold_parts)
            result = checks.run_check("10-symmetry-positivity")
        return result, trials

    @pytest.mark.parametrize("trial", range(12))
    def test_check_10_fold_is_the_per_frequency_fold(self, fold_record, trial):
        # the reference the check's fold replaced: one spectral_density call
        # per frequency, each density and the fold of them bitwise the batch's
        from trapgas import spectral_density

        result, trials = fold_record
        assert len(trials) == 12
        rec = trials[trial]
        q, p, d, omegas = rec["query"], rec["p"], rec["d"], rec["omegas"]
        assert omegas == [2.0 * math.pi * l / p.beta for l in range(len(omegas))]
        densities = [spectral_density(omega, q.x1, q.x2, p, d).re_part for omega in omegas]
        assert densities == rec["re"]
        # so the reference fold is the check's, and the check's figure bounds the assembly's deviation from it
        fold = (densities[0] + 2.0 * sum(math.cos(w * q.tau1) * g for w, g in zip(omegas[1:], densities[1:]))) / p.beta
        g12 = matsubara_assemble(q.x1, q.tau1, q.x2, q.tau2, p, d, rec["l_max"])
        assert abs(g12.value - fold) / abs(fold) <= result.value

    def test_check_10_fold_refuses_a_density_beyond_its_bound(self, monkeypatch):
        # a fold density whose bound exceeds 1e-13 of its scale stops the
        # check with the AccuracyError spectral_density raises there
        from trapgas import checks
        from trapgas.errors import AccuracyError

        density_parts = checks._density_parts

        def loose_second_row(omegas, us, ups, d, k, tol):
            re, err, scale, rows = density_parts(omegas, us, ups, d, k, tol)
            err[1] = 1e-12 * scale[1]
            return re, err, scale, rows

        monkeypatch.setattr(checks, "_density_parts", loose_second_row)
        with pytest.raises(AccuracyError, match=r"^spectral density at omega = .* > tol = 1e-13 times"):
            checks.run_check("10-symmetry-positivity")

    def test_check_01_zero_modes_are_the_one_point_densities(self, monkeypatch):
        # the 200 zero modes of check 01's one _density_parts call are, bitwise,
        # spectral_density(0.0, x, xp) at the pairs the check compares
        from trapgas import checks, spectral_density

        density_parts, closed_form, calls, pairs = checks._density_parts, checks.closed_form_zero_mode, [], []

        def recorded_parts(omegas, us, ups, d, k, tol):
            parts = density_parts(omegas, us, ups, d, k, tol)
            calls.append((np.array(us).tolist(), np.array(ups).tolist(), parts[0].tolist()))
            return parts

        def recorded_closed_form(x, xp, p, d):
            pairs.append((x, xp, p, d))
            return closed_form(x, xp, p, d)

        monkeypatch.setattr(checks, "_density_parts", recorded_parts)
        monkeypatch.setattr(checks, "closed_form_zero_mode", recorded_closed_form)
        assert checks.run_check("01-zero-mode-identity").passed
        ((us, ups, re_parts),) = calls
        assert len(pairs) == len(re_parts) == 200
        for (x, xp, p, d), u, up, re_part in zip(pairs, us, ups, re_parts):
            assert (u, up) == (x / d.R_c, xp / d.R_c)
            assert spectral_density(0.0, x, xp, p, d).re_part == re_part

    @pytest.mark.parametrize(
        "name, counted, expected",
        [
            # one kernel pass over the 200 zero modes, where one a pair went through spectral_density
            ("01-zero-mode-identity", ("checks._density_parts", "green_trapped._density_parts"),
             {"checks._density_parts": 1}),
            # a trial's fold is one pass and both point orders one assembly call: 12 each, not 83 and 24
            ("10-symmetry-positivity", ("checks._density_parts", "green_trapped._density_parts",
                                        "checks.matsubara_assemble_many", "green_trapped.matsubara_assemble_many"),
             {"checks._density_parts": 12, "green_trapped._density_parts": 12, "checks.matsubara_assemble_many": 12}),
            # each route once a distinct query: 5, 6 and 4 queries, where every inner one ran twice
            ("06-homog-regime-match", ("checks.homog_series", "checks.homog_asymptotic_highT"),
             {"checks.homog_series": 5, "checks.homog_asymptotic_highT": 5}),
            ("07-trapped-highT-match", ("checks.matsubara_assemble", "checks.asympt_green_highT"),
             {"checks.matsubara_assemble": 6, "checks.asympt_green_highT": 6}),
            # check 08's fifth series call is its n0-drift probe, outside the difference sweep
            ("08-trapped-lowT-match", ("checks.lowT_legendre_series", "checks.asympt_green_lowT"),
             {"checks.lowT_legendre_series": 4 + 1, "checks.asympt_green_lowT": 4}),
        ],
        ids=["01", "10", "06", "07", "08"],
    )
    def test_checks_evaluate_once_per_pass(self, monkeypatch, name, counted, expected):
        from trapgas import checks, green_trapped

        modules = {"checks": checks, "green_trapped": green_trapped}
        calls = dict.fromkeys(counted, 0)
        for key in counted:
            module, attr = key.split(".")

            def wrapped(*args, _run=getattr(modules[module], attr), _key=key, **kwargs):
                calls[_key] += 1
                return _run(*args, **kwargs)

            monkeypatch.setattr(modules[module], attr, wrapped)
        assert checks.run_check(name).passed
        assert {key: n for key, n in calls.items() if n} == expected

    def test_report_values_stable_across_runs(self):
        from trapgas.checks import run_check

        for name in ("01-zero-mode-identity", "06-homog-regime-match"):
            a, b = run_check(name), run_check(name)
            assert a.value == b.value and a.passed == b.passed
