import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import pickle
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trapgas import (
    CorrelatorQuery,
    PhysicalParams,
    asympt_green_highT,
    asympt_green_lowT,
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
from trapgas.model import Regime, classify_regime, zeta_of

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


def _without_the_logarithm(series):
    """``series`` with the logarithm of its zero-temperature sum read as 0 while it runs, and the
    other routes left as they are."""
    from trapgas import green_homogeneous

    def broken(*args, **kwargs):
        with mock.patch.object(green_homogeneous, "_log_abs_1_minus_exp", lambda z: 0.0):
            return series(*args, **kwargs)

    return broken


def _break(monkeypatch, target, broken):
    """Rebind ``target``, a "module.name" of trapgas, to ``broken`` of the function it names."""
    module, name = target.split(".")
    module = importlib.import_module(f"trapgas.{module}")
    monkeypatch.setattr(module, name, broken(getattr(module, name)))


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config(None)
        assert cfg.params.m == 1.0
        assert cfg["grid.x_ref"] == pytest.approx(0.1 * cfg.scales.R_c)

    @pytest.mark.parametrize(
        "key, text, error",
        [
            ("params.mass", "2", "unknown config key params.mass"),
            # removed keys are unknown too: the k=0 line has no tail_mode to
            # choose, the low-T series has no crossover index and no warning
            # threshold (a proven bound stops it at truncation.tol), and the
            # regime thresholds are model.WINDOW_FACTOR and its inverse; the
            # homogeneous series has no wavenumber cutoff (it stops at truncation.tol)
            ("truncation.tail_mode", "bernoulli", "unknown config key truncation.tail_mode"),
            ("truncation.n0", "20", "unknown config key truncation.n0"),
            ("truncation.min_dtau", "1e-3", "unknown config key truncation.min_dtau"),
            ("truncation.n_max", "8", "unknown config key truncation.n_max"),
            ("regime.r_lo", "0.1", "unknown config section [regime]"),
            # --format and --out are the only way to choose a table's format and destination
            ("output.format", "json", "unknown config section [output]"),
            ("output.path", "x", "unknown config section [output]"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, key, text, error):
        section, name = key.split(".")
        path = write_config(tmp_path, f"[{section}]\n{name} = {text}\n")
        assert main(["density", "--config", path]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"

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

    @pytest.mark.parametrize("params", ["beta = 1e-300\nLambda = 1e-300\n", "m = 1e-300\nLambda = 1e300\n",
                                        "hbar = 1e-300\nbeta = 1e-20\n", "g = 1e300\nLambda = 1e300\n"],
                             ids=["lambda_T-rounds-to-0", "v-overflows", "K-divides-by-0", "K-overflows"])
    def test_degenerate_trap_scales_exit_naming_params(self, tmp_path, capsys, params):
        # lambda_T = hbar beta v rounds to 0 at beta = Lambda = 1e-300, where the Liouville-Green form
        # divided by it (a ZeroDivisionError traceback); v = sqrt(Lambda/m) is inf at m = 1e-300,
        # Lambda = 1e300.  The coupling K = g R_c/(2 (hbar v)^2) of the trapped routes divides by
        # (hbar v)^2 = 0 at hbar = 1e-300, beta = 1e-20, where the spectral fallback died with a
        # ZeroDivisionError, and g R_c overflows at g = Lambda = 1e300, where every row printed
        # gamma = nan as ok, with all four scales finite: each config is refused, with no traceback
        path = write_config(tmp_path, f"[params]\n{params}")
        assert main(["correlator", "--mode", "asymptotic-auto", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [params] ") and err.endswith(": the trap scales leave the float range\n")
        assert "Traceback" not in err

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
            "truncation.tol", "grid.x_ref", "grid.tau_ref", "grid.x_min", "grid.x_max", "grid.tau_min",
            "grid.tau_max", "grid.sep_min", "grid.sep_max", "grid.s_center", "grid.dtau", "grid.omega_list",
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

    @staticmethod
    def per_cell(cfg, columns, rows) -> str:
        """The CSV text of one ``_fmt_cell`` call per cell, written row by row, a cell
        that holds a comma, a double quote or a line break quoted as RFC 4180 does."""

        def text(cell):
            t = cli._fmt_cell(cell)
            return '"' + t.replace('"', '""') + '"' if set(t) & set(',"\r\n') else t

        lines = [f"# {line}" for line in cli._meta_lines(cfg, {})] + [",".join(columns)]
        return "".join(f"{line}\n" for line in lines + [",".join(map(text, row)) for row in rows])

    def assert_mirror(self, columns, rows):
        """The CSV text is the per-cell reference's, byte for byte, and each
        JSON cell is the value its CSV text reads back as."""
        cfg = load_config(None)
        csv_out, json_out = io.StringIO(), io.StringIO()
        cli.write_table(csv_out, "csv", cfg, columns, rows)
        cli.write_table(json_out, "json", cfg, columns, rows)
        assert csv_out.getvalue() == self.per_cell(cfg, columns, rows)
        mirror = json.loads(json_out.getvalue())
        assert (mirror["meta"], mirror["columns"]) == (cli._meta_lines(cfg, {}), columns)
        assert len(mirror["rows"]) == len(rows)
        for row, values in zip(rows, mirror["rows"]):
            for cell, value in zip(row, values, strict=True):
                text = cli._fmt_cell(cell)
                if value is None or isinstance(value, (bool, str)):
                    assert text == {None: "", True: "true", False: "false"}.get(value, value)
                elif isinstance(value, int):
                    assert text == str(value)
                else:
                    assert np.float64(float(text)).tobytes() == np.float64(value).tobytes()

    def test_empty_table(self):
        self.assert_mirror(["x", "G_re"], [])

    def test_recurring_and_equal_valued_cells(self):
        # one object per row of a column and equal values that are other
        # objects: -0.0 == 0.0 and True == 1 == 1.0 must keep their own text
        zero, neg, one = 0.0, -0.0, 1.0
        rows = [(zero, True, "ok", 0.5), (neg, 1, "ok", 0.5), (zero, one, "ok", None), (neg, True, "ok", 0.25),
                (float("-0"), np.int64(1), "ok", np.float64(0.5)), (np.float64(-0.0), 1.0, "ok", 0.5)]
        self.assert_mirror(["a", "b", "c", "d"], rows)
        assert self.per_cell(load_config(None), ["a"], [(zero,), (neg,)]).endswith("\n0\n-0\n")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_csv_is_the_per_cell_text(self, data):
        cell = st.one_of(
            st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, math.nan, math.inf, -math.inf]),
            st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(),
            st.booleans(), st.booleans().map(np.bool_), st.none(), st.text(max_size=4))
        pool = data.draw(st.lists(cell, min_size=1, max_size=6))  # objects that recur across rows
        # a fresh cell, a recurring one, or an equal one that is another object
        pick = st.one_of(cell, st.sampled_from(pool), st.sampled_from(pool).map(lambda c: pickle.loads(pickle.dumps(c))))
        width = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(st.tuples(*[pick] * width), max_size=12))
        self.assert_mirror([f"c{i}" for i in range(width)], rows)

    def test_cells_with_commas_are_quoted(self, tmp_path):
        # at tol = 1e-17 every spectral row is refused with a status that holds three commas;
        # quoted, each row reads back as 10 cells, and the JSON mirror holds the same text
        cfg = write_config(tmp_path, "[truncation]\ntol = 1e-17\n")
        out, mirror = tmp_path / "corr.csv", tmp_path / "corr.json"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--format", "json", "--out", str(mirror)]) == 0
        header, *rows = csv.reader(line for line in out.read_text().splitlines() if not line.startswith("#"))
        assert header == CORRELATOR_COLUMNS and len(rows) == 9 and all(len(row) == 10 for row in rows)
        assert all(row[-1].startswith("AccuracyError: spectral density at omega = ") and row[-1].count(",") == 3
                   for row in rows)
        assert [row[-1] for row in rows] == [row[-1] for row in json.loads(mirror.read_text())["rows"]]

    def test_quoting_doubles_quotes_and_spares_plain_columns(self):
        rows = [("a,b", 'say "hi"', "ok", 1.5), ("x", "line\nbreak", "ok", 2.5)]
        out = io.StringIO()
        cli.write_table(out, "csv", load_config(None), ["a", "b", "c", "d"], rows)
        body = out.getvalue().split("a,b,c,d\n")[1]
        assert body == '"a,b","say ""hi""",ok,1.5\nx,"line\nbreak",ok,2.5\n'
        assert list(csv.reader(io.StringIO(body))) == [[*map(cli._fmt_cell, row)] for row in rows]


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

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        # a path in a missing directory
        target = str(tmp_path / "missing" / "density.csv")
        assert main(["density", "--out", target]) == 2
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

    def test_a_level_count_past_the_address_space_is_refused(self, tmp_path, capsys):
        # 10^15 + 1 energies are 7.11 PiB, which numpy refuses before touching memory: one error line
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--levels", str(10**15), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: Unable to allocate 7.11 PiB for an array with shape "
                                           "(1000000000000001,) and data type int64\n")
        assert not out.exists()


class TestGreenCommand:
    def test_homog_series_coincident_row_divergent(self, tmp_path):
        cfg = write_config(
            tmp_path,
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

    def test_oracle_rows_beyond_the_estimate_are_domain_errors(self, tmp_path):
        # x = +-0.9999 R_c lies inside the condensate and the boundary clamp but
        # beyond R_c - h, where no coarse node bounds the fine solution: at
        # every omega a DomainError row that names the estimate's span, not an
        # ok row whose trunc_err (0.0202 at omega = 0) understates its error
        # (0.041).  At omega = 0 the gauge is anchored at x = 0, and the row
        # there agrees with the zero mode within its trunc_err
        r_c = math.sqrt(2.0)
        cfg = write_config(tmp_path, f"[grid]\nx_ref = {0.1 * r_c!r}\nx_min = {-0.9999 * r_c!r}\n"
                                     f"x_max = {0.9999 * r_c!r}\nx_count = 3\nomega_list = 0, 6.283185307179586\n")
        out_o, out_s = tmp_path / "o.csv", tmp_path / "s.csv"
        assert main(["green", "--mode", "oracle", "--config", cfg, "--out", str(out_o)]) == 0
        assert main(["green", "--mode", "trapped-spectral", "--config", cfg, "--out", str(out_s)]) == 0
        _, header, rows = read_csv(str(out_o))
        rows = [dict(zip(header, cells)) for cells in rows]
        _, _, spectral = read_csv(str(out_s))
        assert [r["status"] == "ok" for r in rows] == [False, True, False] * 2
        for row in (rows[i] for i in (0, 2, 3, 5)):
            assert row["status"].startswith(f"DomainError: x = {float(row['x2'])!r} is outside -1.41393")
            assert "the coarse nodes' span where the FDM error is estimated" in row["status"]
        centre = rows[1]
        assert abs(float(centre["G_re"]) - float(spectral[1][header.index("G_re")])) <= float(centre["trunc_err"])

    def test_oracle_empty_grid_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nx_count = 0\n")
        out = tmp_path / "oracle.csv"
        assert main(["green", "--mode", "oracle", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header == GREEN_COLUMNS and rows == []

    @pytest.mark.parametrize(
        "x_min, outside, anchor",
        [(-1.0, [1.5], 0), (-1.5, [-1.5, 1.5], 1), (-1.4142134, [-1.4142134, 1.5], 1)],
        ids=["right-end-outside", "both-ends-outside", "first-point-beyond-the-estimate"],
    )
    def test_oracle_rows_outside_the_condensate_are_domain_errors(self, tmp_path, x_min, outside, anchor):
        # R_c = sqrt 2: a point at |x| >= R_c is a DomainError row, as in
        # trapped-spectral, and not the last node's value; the omega = 0
        # gauge is anchored at the first point the FDM error estimate covers,
        # which lies inside the boundary clamp (1 - 1e-6) R_c, where the
        # oracle's G is the zero mode's.  x = -1.4142134 lies inside the
        # condensate but beyond R_c - h, outside the estimate's span: a
        # DomainError row that names the span, and not the anchor
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
            reason = "the condensate" if abs(float(row["x2"])) >= math.sqrt(2.0) else "-1.41393"
            assert row["status"].startswith(f"DomainError: x = {float(row['x2'])!r} is outside {reason}")
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1)
        d = derive_scales(p)
        from trapgas import FdmGrid, fdm_spectral_solve, spectral_density

        sol = fdm_spectral_solve(0.0, float(rows[0]["x1"]), p, d, FdmGrid(N=10_000))
        x2 = float(rows[anchor]["x2"])
        assert rows[anchor]["status"] == "ok" and all(abs(float(r["x2"])) >= 0.999999 * d.R_c for r in rows[:anchor])
        assert float(rows[anchor]["G_re"]) == pytest.approx(spectral_density(0.0, x2, sol.x_source, p, d).value,
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

    @pytest.mark.parametrize("mode", ["homog-series", "trapped-series"])
    def test_series_tables_at_beta_1e170(self, tmp_path, mode):
        # the k = 0 line is (beta/2) B_2 times -g/(2 R_c): beta^2/2 would overflow a float
        cfg = write_config(tmp_path, "[params]\nbeta = 1e170\n[grid]\nx_count = 3\ntau_count = 2\n")
        out = tmp_path / "green.csv"
        assert main(["green", "--mode", mode, "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        ok = [row for row in rows if row[header.index("status")] == "ok"]
        assert len(ok) == (6 if mode == "homog-series" else 3)
        assert all(math.isfinite(float(row[header.index("G_re")])) for row in ok)

    def test_non_finite_green_value_is_a_typed_row(self, tmp_path):
        # beta = 1e300, Lambda = 1e-300: the series' logarithm gives G = -inf with trunc_err = inf at
        # points that are not coincident, which printed as ok
        cfg = write_config(tmp_path, "[params]\nbeta = 1e300\nLambda = 1e-300\n[grid]\nx_count = 3\n")
        out = tmp_path / "green.csv"
        assert main(["green", "--mode", "homog-series", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert [(r[header.index("G_re")], r[header.index("status")]) for r in rows] == [
            ("", "AccuracyError: G = -inf from homog-series is not finite")] * 3

    @pytest.mark.parametrize("mode, column", [("trapped-spectral", "spectral_densities"), ("oracle", "_oracle_column")])
    def test_non_finite_density_is_a_typed_row(self, monkeypatch, mode, column):
        # a frequency mode's column goes through _green_row as every other green row does: a value
        # that is not finite is an AccuracyError row with empty cells, and the next entry stays ok
        cfg = load_config(None)
        evaluate = getattr(cli, column)

        def spoiled(*a, **k):
            out = evaluate(*a, **k)
            return [out[0]._replace(value=math.inf), out[1]._replace(trunc_err=math.nan), *out[2:]]

        monkeypatch.setattr(cli, column, spoiled)
        _, rows, _ = cli.cmd_green(cfg, argparse.Namespace(mode=mode))
        assert [r[-1] for r in rows[:3]] == [f"AccuracyError: G = inf from {mode} is not finite",
                                            f"AccuracyError: trunc_err = nan from {mode} is not finite", "ok"]
        assert rows[0][4] is rows[0][6] is rows[1][4] is rows[1][6] is None
        assert rows[0][5] == rows[1][5] == rows[2][5] == mode


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

    def test_closed_form_widest_pair_beyond_the_clamp(self, tmp_path):
        # s_center = 0.95 R_c: the widest pair's outer point is x = R_c, whose
        # row is the boundary clamp's DomainError, as on the spectral route,
        # beside 8 ok rows
        cfg = write_config(tmp_path, "[grid]\ns_center = 1.3435028842544403\n")
        statuses = {}
        for mode in ("closed-form", "spectral"):
            out = tmp_path / f"{mode}.csv"
            assert main(["correlator", "--mode", mode, "--config", cfg, "--out", str(out)]) == 0
            statuses[mode] = [r[-1] for r in read_csv(str(out))[2]]
        assert statuses["closed-form"] == statuses["spectral"]
        assert statuses["closed-form"][:8] == ["ok"] * 8
        assert statuses["closed-form"][8] == ("DomainError: |x|/R_c = 1 exceeds the boundary clamp 1 - 1e-06; "
                                              "trapped evaluations require interior points")

    def test_log_spacing_for_exponent_pipelines(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nsep_count = 8\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "closed-form", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        seps = np.array([float(r[0]) - float(r[2]) for r in rows])
        ratios = seps[1:] / seps[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_json_mirror(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\nsep_count = 9\n")
        out = tmp_path / "corr.json"
        assert main(["correlator", "--mode", "closed-form", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        # the format and the destination are flags, not configuration the metadata echoes
        assert "grid.sep_count = 9" in payload["meta"]
        assert not [line for line in payload["meta"] if line.startswith("output.")]
        assert payload["columns"][:6] == ["x1", "tau1", "x2", "tau2", "S", "gamma"]
        assert len(payload["rows"]) == 9
        assert all(len(r) == len(payload["columns"]) for r in payload["rows"])

    def test_asymptotic_auto_falls_back_to_spectral_outside_windows(self, tmp_path):
        # the default beta/alpha is intermediate: no closed form applies, so
        # every row comes from the spectral route, bit for bit
        cfg = write_config(tmp_path, "[grid]\nsep_count = 3\n")
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
        [("series", 500, 9, "exp(-G) at G = -2366.46"), ("asymptotic-auto", 2000, 9, "exp(-G) at G = -1490.61")],
        ids=["series-g500", "asymptotic-auto-g2000"],
    )
    def test_overflowing_gamma_is_a_typed_row(self, tmp_path, mode, g, overflowing, cause):
        # a strong coupling makes 1/theta large, so Gamma ~ |zeta|^(-1/theta)
        # exceeds the largest float at the smallest separations; at g = 2000
        # the widest pair falls back to the spectral route, whose sum to its
        # stop overflows too (capped at 64 frequencies it printed 2.65e296 as ok)
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

    def test_spectral_pair_at_equal_positions_is_an_accuracy_error_row(self, tmp_path):
        # beta = 1e-160: the first pair, at dx = 0, has no decaying envelope
        # and refuses at the cap; it once summed to l_max = 64, where
        # (alpha omega)^2 overflows a float, and printed gamma = nan as ok.
        # The other two pairs keep their rows: a Gamma that underflows
        cfg = write_config(tmp_path, "[params]\nbeta = 1e-160\n[grid]\nsep_spacing = linear\nsep_min = 0\n"
                                     "sep_count = 3\ndtau = 3e-161\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        rows = [dict(zip(header, cells)) for cells in rows]
        assert rows[0]["gamma"] == ""
        assert rows[0]["status"] == (f"AccuracyError: matsubara_assemble needs more than {2**62} terms to bound its "
                                     "tail by tol = 1e-12 at dx = 0.0: the bound at the cap of 131072 terms is inf")
        underflow = "AccuracyError: Gamma = 0.0 underflows below the smallest normal float 2.2250738585072014e-308"
        assert [row["status"] for row in rows[1:]] == [f"{underflow} (G = 3.683780729943742e+158)",
                                                      f"{underflow} (G = 7.373170412222344e+158)"]

    def test_nan_gamma_is_a_typed_row(self, tmp_path):
        # hbar = 1e-5, m = Lambda = 1e160: the density product rho rho' ~ 1e320 overflows, so Gamma
        # = sqrt(rho rho') e^{-G} is inf times 0 on every row, which printed gamma = nan as ok
        cfg = write_config(tmp_path, "[params]\nhbar = 1e-5\nm = 1e160\nLambda = 1e160\n[grid]\nsep_count = 3\n"
                                     "[truncation]\ntol = 1e-16\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert [(r[header.index("gamma")], r[header.index("status")]) for r in rows] == [
            ("", "AccuracyError: gamma = nan from spectral is not finite")] * 3

    def test_spectral_rows_at_beta_1e170_are_finite_or_typed_errors(self, tmp_path):
        # beta = 1e170: every pair once summed to l_max, where every
        # frequency's lambda underflows to 0 and the real branch's nu/sin(pi
        # nu) is 0/0, and printed gamma = nan as ok.  The envelope's decay per
        # frequency now rounds to 1, so that every pair refuses at the cap
        cfg = write_config(tmp_path, "[params]\nbeta = 1e170\n")
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        rows = [dict(zip(header, cells)) for cells in rows]
        assert len(rows) == 9
        for row in rows:
            assert "nan" not in ",".join(row.values())
            assert row["status"].startswith("AccuracyError: matsubara_assemble needs more than ")
            assert row["status"].endswith(": the bound at the cap of 131072 terms is inf")

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
        # l_max caps the sum and changes no value: at the default cap the table body is the same text
        default = tmp_path / "default.csv"
        assert main(["correlator", "--mode", "spectral", "--out", str(default)]) == 0
        bodies = [[line for line in path.read_text().splitlines() if not line.startswith("#")] for path in (out, default)]
        assert bodies[0] == bodies[1]

    def test_spectral_row_equals_symmetrized_pair(self, tmp_path):
        # the table evaluates G once, which stands for both G(1;2) and G(2;1):
        # the two orders must agree bitwise and reproduce the row
        cfg = write_config(
            tmp_path,
            "[params]\nbeta = 2.5\n[truncation]\nl_max = 1024\n[grid]\ns_center = 0.35\nsep_count = 3\ndtau = 0.3\n",
        )
        out = tmp_path / "corr.csv"
        assert main(["correlator", "--mode", "spectral", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=2.5)
        d = derive_scales(p)
        for cells in rows:
            row = dict(zip(header, cells))
            x1, tau1, x2, tau2 = (float(row[k]) for k in ("x1", "tau1", "x2", "tau2"))
            g12 = matsubara_assemble(x1, tau1, x2, tau2, p, d, 1024, tol=1e-12)  # the default truncation.tol
            g21 = matsubara_assemble(x2, tau2, x1, tau1, p, d, 1024, tol=1e-12)
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

    def test_series_takes_tol(self, tmp_path):
        # truncation.tol stops the low-T series' mode sum: both tables are its
        # direct call at that tol, whose rows differ from the default's
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=20.0 * math.sqrt(2.0))
        d = derive_scales(p)
        cfg = write_config(
            tmp_path,
            f"[params]\nbeta = {p.beta!r}\n[truncation]\ntol = 1e-6\n[grid]\nx_count = 3\ntau_min = 0.1\n"
            "tau_max = 0.2\ntau_count = 2\ndtau = 0.05\nsep_count = 3\n",
        )
        for *pair, row in self.table(tmp_path, ["correlator", "--mode", "series"], cfg):
            g = lowT_legendre_series(*pair, p, d, tol=1e-6)
            assert g.value != lowT_legendre_series(*pair, p, d).value
            gamma = gamma_from_green(CorrelatorQuery(*pair), g, p, d)
            assert (row["gamma"], row["status"]) == ("%.17g" % gamma, "ok")
        rows = self.table(tmp_path, ["green", "--mode", "trapped-series"], cfg)
        assert len(rows) == 6
        for *pair, row in rows:
            g = lowT_legendre_series(*pair, p, d, tol=1e-6)
            assert (row["G_re"], row["trunc_err"], row["status"]) == ("%.17g" % g.value, "%.17g" % g.trunc_err, "ok")

    @pytest.mark.parametrize("argv, rows, points", [(["green", "--mode", "trapped-series"], 15, 6),
                                                    (["correlator", "--mode", "series"], 3, 6)])
    def test_series_tables_run_one_recurrence_per_point(self, tmp_path, monkeypatch, argv, rows, points):
        # one mode-sum call a table, and one recurrence for each distinct point: x_ref and the 5 grid
        # points of the green table (not two for each of its 15 rows), the 6 ends of the 3 pairs
        from trapgas import green_trapped

        calls, recurrences = [], []
        many, table = green_trapped.lowT_legendre_series_many, green_trapped.p_poly_table
        monkeypatch.setattr(green_trapped, "lowT_legendre_series_many",
                            lambda *a, **k: calls.append(a) or many(*a, **k))
        monkeypatch.setattr(green_trapped, "p_poly_table", lambda n, u: recurrences.append(u) or table(n, u))
        cfg = write_config(tmp_path, "[params]\nbeta = 28.284271247461902\n[grid]\nx_count = 5\ntau_min = 0.1\n"
                                     "tau_max = 0.3\ntau_count = 3\ndtau = 0.05\nsep_count = 3\n")
        out = tmp_path / "table.csv"
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
        _, header, body = read_csv(str(out))
        assert [row[-1] for row in body] == ["ok"] * rows
        assert [len(a[0]) for a in calls] == [rows]
        assert len(recurrences) == len(set(recurrences)) == points

    def test_homog_series_takes_tol(self, tmp_path):
        # l_max caps the spectral assembly alone: the series sums every frequency,
        # and truncation.tol stops its mode sum, at dtau = 0 as elsewhere
        p = PhysicalParams(m=1, g=1, Omega=1, Lambda=1, beta=1.0)
        d = derive_scales(p)
        cfg = write_config(tmp_path, "[truncation]\nl_max = 1\ntol = 1e-6\n[grid]\nx_count = 5\ntau_max = 0.3\n"
                                     "tau_count = 2\n")
        for *pair, row in self.table(tmp_path, ["green", "--mode", "homog-series"], cfg):
            g = homog_series(*pair, p, d, tol=1e-6)
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
             "AccuracyError: Gamma overflows: exp(-G) at G = -2366.46"),
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
        + [("spectral", "[params]\nbeta = 1e-4\n"), ("asymptotic-auto", "[params]\nbeta = 141.4213562373095\n"),
           ("spectral", "[grid]\ns_center = 1.3435028842544403\n")],
        ids=[*CORRELATOR_MODES, "spectral-beta-1e-4", "asymptotic-auto-low-T", "spectral-s_center-0.95-R_c"],
    )
    def test_fit_is_the_correlator_tables_ok_rows(self, tmp_path, capsys, mode, params):
        # exponent fits exactly the rows the correlator table prints as ok on the
        # first ok row's route, bit for bit, and counts the others on stderr, naming
        # the first one's cause; at s_center = 0.95 R_c the widest pair is the boundary
        # clamp's DomainError row
        cfg = write_config(tmp_path, params)
        table, fit_out = tmp_path / "corr.csv", tmp_path / "exp.csv"
        assert main(["correlator", "--mode", mode, "--config", cfg, "--out", str(table)]) == 0
        code = main(["exponent", "--mode", mode, "--config", cfg, "--out", str(fit_out)])
        run = load_config(cfg)
        p, d = run.params, run.scales
        _, header, rows = read_csv(str(table))
        seps, gammas, rhos, skipped = [], [], [], []
        methods = [r[header.index("method")] for r in rows if r[header.index("status")] == "ok"]
        for cells in rows:
            row = dict(zip(header, cells))
            if row["status"] != "ok" or row["method"] != methods[0]:
                skipped.append(row["status"] if row["status"] != "ok" else f"method {row['method']}, not {methods[0]}")
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
        assert capsys.readouterr().err == (
            f"exponent: {len(skipped)} of {len(rows)} rows left out of the fit (first: {skipped[0]})\n" if skipped else "")
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


def _ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                                        for key, value in keys.items())
                   for name, keys in sections.items() if keys)


def _run_quietly(path, argv) -> tuple:
    """(exit code, stdout, stderr) of ``main`` on ``argv`` with the config at ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--config", str(path)])
    return code, out.getvalue(), err.getvalue()


# tables whose statuses are counted: (argv, config text, the number of rows whose status starts with
# each prefix), every row of the table counted; R_c = sqrt 2 and alpha = sqrt 2 at the default params
_LOW_T = "[params]\nbeta = 141.4213562373095\n"  # beta/alpha = 100
_STATUS_COUNTS = [
    # the oracle's default table, omega = 0 only: every point lies inside the coarse nodes' span
    pytest.param(["green", "--mode", "oracle"], "", {"ok": 41}, id="oracle-default"),
    # a symmetric +-0.995 R_c grid: P_nu(+-u_ref) recurs on every row, and 96 rows at 200 pi and
    # 2000 pi underflow to 0
    pytest.param(["green", "--mode", "trapped-spectral"],
                 "[grid]\nx_min = -1.4071424945612296\nx_max = 1.4071424945612296\nx_count = 81\n"
                 "omega_list = 0, 6.283185307179586, 628.3185307179587, 6283.185307179586\n", {"ok": 324},
                 id="trapped-spectral-sweep"),
    # x_ref and both grid ends at the boundary clamp (1 - 1e-6) R_c, at 2 pi and 4 pi (lambda = 79 and 316),
    # where P_nu(-(1 - 1e-6)) enters both terms of a density and the Gauss sub-rule's error is largest
    pytest.param(["green", "--mode", "trapped-spectral"],
                 "[grid]\nx_ref = 1.4142121481595327\nx_min = -1.4142121481595327\nx_max = 1.4142121481595327\n"
                 "omega_list = 0, 6.283185307179586, 12.566370614359172\n", {"ok": 123}, id="trapped-spectral-clamp"),
    # low temperature with x_ref = 0 on the grid: the real-branch densities at 2 pi/beta and 4 pi/beta
    # are exactly 0 at x = x_ref
    pytest.param(["green", "--mode", "trapped-spectral"],
                 f"{_LOW_T}[grid]\nx_ref = 0.0\nomega_list = 0, 0.04442882938158366, 0.08885765876316732\n",
                 {"ok": 123}, id="trapped-spectral-low-T-x_ref-0"),
    # the closed form, the zero mode at omega = 0, at the default grid
    pytest.param(["correlator", "--mode", "closed-form"], "", {"ok": 9}, id="closed-form-default"),
    # l_max is a cap that refuses, not one that stops the sum: the 5 narrowest pairs need more
    pytest.param(["correlator", "--mode", "spectral"], "[truncation]\nl_max = 64\n",
                 {"AccuracyError: matsubara_assemble needs ": 5, "ok": 4}, id="spectral-l_max-64"),
    # low temperature, dtau = 0.007 alpha: every pair needs 3 615 to 36 146 frequencies and refuses
    # at the cap of 1 024 before any kernel pass, and stops below the cap of 65 536, each pair in a
    # pass of its own, its far frequencies from the interpolants of its two points
    pytest.param(["correlator", "--mode", "spectral"], f"{_LOW_T}[grid]\ndtau = 0.007\n[truncation]\nl_max = 1024\n",
                 {"AccuracyError: matsubara_assemble needs ": 9}, id="spectral-low-T-l_max-1024"),
    pytest.param(["correlator", "--mode", "spectral"], f"{_LOW_T}[grid]\ndtau = 0.007\n[truncation]\nl_max = 65536\n",
                 {"ok": 9}, id="spectral-low-T-l_max-65536"),
    # tol = 1e-15 at l_max = 256: the narrowest pair needs 330 frequencies, and every other pair's
    # density bound is refused
    pytest.param(["correlator", "--mode", "spectral"], "[truncation]\ntol = 1e-15\nl_max = 256\n",
                 {"AccuracyError: spectral density at omega = ": 8,
                  "AccuracyError: matsubara_assemble needs 330 terms ": 1},
                 id="spectral-tol-1e-15"),
    # the series is the exact thermal mode sum at every temperature, beta/alpha = 0.707 among them
    pytest.param(["correlator", "--mode", "series"], "[grid]\ndtau = 0.3\n", {"ok": 9}, id="series-dtau-0.3"),
]


@pytest.mark.parametrize("argv, config, counts", _STATUS_COUNTS)
def test_table_status_counts(tmp_path, argv, config, counts):
    code, out, err = _run_quietly(write_config(tmp_path, config), argv)
    assert code == 0, err
    header, *rows = csv.reader(line for line in out.splitlines() if not line.startswith("#"))
    statuses = [row[header.index("status")] for row in rows]
    assert {prefix: sum(status.startswith(prefix) for status in statuses) for prefix in counts} == counts
    assert len(statuses) == sum(counts.values()), statuses


# hostile configs that once ended in a traceback: (params, grid, argv, exit code, the message that
# each row's status or stderr now holds)
_THETA_0 = {"hbar": 1e-100, "m": 1e-300, "Lambda": 1e-300}
_THETA_0_LOWT = {"hbar": 2.013056477087485, "m": 1.982975340784168e+60, "g": 1e300, "Omega": 1e100}
_MODES_OVERFLOW = {"hbar": 1e-160, "m": 1e-160, "g": 1e-300, "Omega": 1e5}
_THETA_INF = {"hbar": 1e-160, "g": 1e-300, "Lambda": 1e20}
_TAIL_OVERFLOW = {"g": 8.922262808634506e-196, "Omega": 1e-20, "beta": 1e-300}
_HIGHT_WIDE = {"g": 1e-300, "beta": 1e-300}
_BETA_RC_0 = {"hbar": 1e100, "g": 1e-20, "Lambda": 1e-160, "beta": 1e-300}
_OMEGA_HUGE = {"hbar": 1e-100, "g": 1e-100}
_FDM_OVERFLOW = {"m": 4.553017541190372e+59, "Lambda": 1.6878873513327637e-246}
_TAU_WIDE = {"tau_min": -1.7e308, "tau_max": 1.7e308, "tau_count": 3}
_X_WIDE = {"x_min": -1.7e308, "x_max": 1.7e308}
_TAU_FAR = {"tau_ref": 1e308, "dtau": 1e308}
_HUGE = 10**15
_REFUSED = "error: Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and data type float64\n"
_HOSTILE = [
    (_THETA_0, {}, ["correlator", "--mode", "spectral"], 0, "DomainError: theta(S) = 0.0 at S = "),
    (_THETA_0, {}, ["exponent", "--mode", "spectral"], 2, "error: theta(S) = 0.0 at S = "),
    (_THETA_0_LOWT, {}, ["exponent", "--mode", "asymptotic-auto"], 2, "error: theta(S) = 0.0 at S = "),
    (_MODES_OVERFLOW, {"dtau": 0.3}, ["green", "--mode", "homog-series"], 0,
     "AccuracyError: the mode sum overflows a float: its magnitudes sum to inf"),
    (_MODES_OVERFLOW, {"dtau": 0.3}, ["correlator", "--mode", "series"], 0,
     "AccuracyError: the mode sum overflows a float: its magnitudes sum to inf"),
    (_THETA_INF, {"dtau": 0.3}, ["correlator", "--mode", "series"], 0, "DomainError: theta(S) = inf at S = "),
    (_TAIL_OVERFLOW, {}, ["green", "--mode", "homog-series"], 0,
     "AccuracyError: the tail bound of homog_series overflows a float at t = 0.0: it is inf at the cap of "),
    (_TAIL_OVERFLOW, {"dtau": 5e-301}, ["correlator", "--mode", "series"], 0,
     "AccuracyError: the tail bound of lowT_legendre_series overflows a float at t = 5e-301: it is inf at the cap "),
    (_HIGHT_WIDE, {"dtau": 1e300}, ["correlator", "--mode", "asymptotic-auto"], 0,
     "DomainError: |tau - tau'| = 1e+300 exceeds the asymptotic window bound beta = 1e-300"),
    (_BETA_RC_0, {}, ["green", "--mode", "homog-asympt"], 0, "DomainError: 4 beta R_c underflows to 0 at beta = "),
    ({"beta": 1e155}, {"tau_min": 5e154, "tau_max": 5e154, "tau_count": 2}, ["green", "--mode", "homog-asympt"], 0,
     "DomainError: |tau - tau'| = 5e+154: its square in the curvature term overflows a float"),
    ({"beta": 3e227}, {"tau_min": 1e227, "tau_max": 1e227, "tau_count": 2}, ["green", "--mode", "homog-asympt"], 0,
     "DomainError: |tau - tau'| = 1e+227: its square in the curvature term overflows a float"),
    # the log's argument overflows at separated points
    ({"Omega": 1e-150, "beta": 1e-300}, {}, ["green", "--mode", "homog-asympt"], 0,
     "DomainError: pi zeta/(hbar beta v) = (inf"),
    ({"beta": 1e300}, {"omega_list": "1e-300"}, ["green", "--mode", "oracle"], 2,
     "error: the FDM solve at omega = 1e-300 fails in floating point: (omega/hbar v)^2 underflows below the "),
    ({}, {"omega_list": "1e300"}, ["green", "--mode", "oracle"], 2,
     "error: the FDM solve at omega = 1e+300 fails in floating point: "),
    (_OMEGA_HUGE, {"omega_list": "1e300"}, ["green", "--mode", "oracle"], 2,
     "error: the FDM solve at omega = 1e+300 fails in floating point: "),
    (_FDM_OVERFLOW, {}, ["green", "--mode", "oracle"], 2,
     "error: the FDM solve at omega = 0.0 fails in floating point: "),
    # grids whose points leave the float range: a ValueError traceback, rows of nan, or numpy's
    # RuntimeWarning in linspace or cos
    ({}, _TAU_WIDE, ["green", "--mode", "homog-series"], 2, "config error: grid: tau_max - tau_min = inf leaves "),
    ({}, _TAU_WIDE, ["green", "--mode", "trapped-series"], 2, "config error: grid: tau_max - tau_min = inf leaves "),
    ({}, _X_WIDE, ["density"], 2, "config error: grid: x_max - x_min = inf leaves the float range"),
    ({}, _X_WIDE, ["green", "--mode", "homog-series"], 2, "config error: grid: x_max - x_min = inf leaves "),
    ({}, {"sep_spacing": "linear", "sep_min": -1.7e308, "sep_max": 1.7e308}, ["correlator", "--mode", "closed-form"],
     2, "config error: grid: sep_max - sep_min = inf leaves the float range"),
    ({}, _TAU_FAR, ["correlator", "--mode", "spectral"], 2, "config error: grid: tau_ref + dtau = inf leaves "),
    ({}, _TAU_FAR, ["correlator", "--mode", "asymptotic-auto"], 2, "config error: grid: tau_ref + dtau = inf "),
    # a log-spaced grid to sep_max <= 0: numpy's ValueError at 0, rows of nan below it
    ({}, {"sep_max": 0.0}, ["correlator", "--mode", "closed-form"], 2,
     "config error: grid.sep_max must be > 0 under grid.sep_spacing = log, got 0.0"),
    ({}, {"sep_max": -1.0}, ["correlator", "--mode", "closed-form"], 2,
     "config error: grid.sep_max must be > 0 under grid.sep_spacing = log, got -1.0"),
    # a count of 10^15 grid points: numpy's _ArrayMemoryError traceback for its 7.11 PiB, which no
    # address space holds, so numpy refuses it before touching memory
    ({}, {"x_count": _HUGE}, ["density"], 2, _REFUSED),
    ({}, {"x_count": _HUGE}, ["green", "--mode", "homog-series"], 2, _REFUSED),
    ({}, {"tau_count": _HUGE}, ["green", "--mode", "trapped-series"], 2, _REFUSED),
    ({}, {"sep_count": _HUGE}, ["correlator", "--mode", "spectral"], 2, _REFUSED),
    ({}, {"sep_count": _HUGE}, ["exponent", "--mode", "closed-form"], 2, _REFUSED),
]
_MAGNITUDES = st.builds(lambda mantissa, exponent: float(f"{mantissa}e{exponent}"),
                        st.integers(1, 9), st.integers(-300, 299))
_GRID_VALUES = st.sampled_from([0.0, 0.3, -0.3, 1e-300, 1e300, 1.7e308, -1.7e308])
_GRID_KEYS = ("x_min", "x_max", "x_ref", "tau_min", "tau_max", "tau_ref", "s_center", "sep_min", "sep_max")
_COMMANDS = ([["green", "--mode", mode] for mode in GREEN_MODES]
             + [[command, "--mode", mode] for command in ("correlator", "exponent") for mode in CORRELATOR_MODES])



def _with_the_repros(test):
    """``test`` with each config of ``_HOSTILE`` as an explicit example."""
    for params, grid, argv, _, _ in _HOSTILE:
        test = example(params=params, grid={"x_count": 3, "sep_count": 3, **grid}, truncation={}, argv=argv)(test)
    return test


class TestHostileConfigs:
    """A config anywhere in the float range ends in exit 0 with typed row
    errors, or in exit 2, never in a traceback or an ok row holding nan or
    inf; RuntimeWarnings are errors here, as in the whole suite."""

    @pytest.mark.parametrize("params, grid, argv, code, message", _HOSTILE,
                             ids=[f"{'-'.join(argv[::2])}-{i}" for i, (_, _, argv, _, _) in enumerate(_HOSTILE)])
    def test_a_repro_ends_typed(self, tmp_path, params, grid, argv, code, message):
        path = tmp_path / "hostile.ini"
        path.write_text(_ini({"params": params, "grid": {"x_count": 3, "sep_count": 3, **grid}}))
        got, out, err = _run_quietly(path, argv)
        assert got == code, err
        if code:
            assert err.startswith(message) and err.count("\n") == 1, err
        else:
            lines = [line for line in out.splitlines() if not line.startswith("#")]
            statuses = [row[-1] for row in csv.reader(lines[1:])]
            assert statuses and all(status.startswith(message) for status in statuses), statuses

    @settings(max_examples=300, deadline=None)
    @_with_the_repros
    @given(params=st.fixed_dictionaries({}, optional={key: _MAGNITUDES
                                                      for key in ("hbar", "m", "g", "Omega", "Lambda", "beta")}),
           grid=st.fixed_dictionaries({"x_count": st.integers(0, 3), "sep_count": st.integers(0, 3)},
                                      optional={"dtau": st.sampled_from([0.0, 0.3, 1e-300, 1e300]),
                                                "omega_list": st.sampled_from(["0", "1e-300", "1e300", "0, 1"]),
                                                "tau_count": st.integers(0, 3),
                                                "sep_spacing": st.sampled_from(["log", "linear"]),
                                                **dict.fromkeys(_GRID_KEYS, _GRID_VALUES)}),
           truncation=st.fixed_dictionaries({}, optional={"tol": st.sampled_from([1e-16, 1e-3, 1e-300]),
                                                          "l_max": st.integers(0, 4096)}),
           argv=st.sampled_from(_COMMANDS))
    def test_no_config_ends_in_a_traceback(self, tmp_path_factory, params, grid, truncation, argv):
        path = tmp_path_factory.getbasetemp() / "hostile-property.ini"
        path.write_text(_ini({"params": params, "grid": grid, "truncation": truncation}))
        code, out, err = _run_quietly(path, argv)
        assert code in (0, 2), err
        ok = [line for line in out.splitlines() if not line.startswith("#") and line.endswith(",ok")]
        assert not [line for line in ok if "nan" in line or "inf" in line], ok


class TestValidateCommand:
    @pytest.mark.parametrize("flag", [["--config", "run.ini"], ["--format", "csv"],
                                      ["--override", "03-oracle-equivalence=1e-15"]])
    def test_validate_takes_only_out(self, flag, capsys):
        # validate reads no config, always writes JSON and checks at its pinned tolerances
        with pytest.raises(SystemExit) as exc:
            main(["validate", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_a_failing_check_fails_controlled(self, tmp_path, monkeypatch):
        # check 03's figure pushed over its pinned tolerance: exit 3, that check reported failed,
        # and every other check still reports its own outcome
        from trapgas import checks

        name = "03-oracle-equivalence"
        check, tol = checks.CHECKS[name]
        monkeypatch.setitem(checks.CHECKS, name, (lambda: (tol, *check()[1:]), tol))
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name.pop(name)["passed"] is False
        assert not report["all_passed"]
        assert len(by_name) == 10 and all(c["passed"] for c in by_name.values())

    def test_a_check_whose_route_raises_fails_alone(self, tmp_path, monkeypatch):
        # a TrapGasError inside check 07 is that check's failure, with the error as its detail: the
        # report is written, the checks after it still run, the other ten pass, and validate exits 3
        from trapgas import green_trapped
        from trapgas.errors import AccuracyError

        def refusing(*args, **kwargs):
            raise AccuracyError("the Liouville-Green form refused", achieved=math.inf)

        monkeypatch.setattr(green_trapped, "asympt_green_highT", refusing)
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 3
        by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        failed = by_name.pop("07-trapped-highT-match")
        assert failed["passed"] is False and failed["detail"] == "AccuracyError: the Liouville-Green form refused"
        assert failed["value"] is None  # no figure, written as JSON's null
        assert len(by_name) == 10 and all(c["passed"] for c in by_name.values())

    def test_a_failed_condition_fails_check_08(self, tmp_path, monkeypatch):
        # check 08 also requires the series' trunc_err below 2% of each difference, whatever its figure
        from trapgas import green_trapped

        series = green_trapped.lowT_legendre_series_many

        def drifting(*args, **kwargs):
            return [g._replace(trunc_err=abs(g.value)) for g in series(*args, **kwargs)]

        monkeypatch.setattr(green_trapped, "lowT_legendre_series_many", drifting)
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 3
        by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert by_name["08-trapped-lowT-match"]["passed"] is False

    @pytest.mark.parametrize(
        "target, broken, reason",
        [
            ("checks.rho_tf", lambda f: lambda x, *a: f(x, *a) * (1.0 + 1e-12 * (np.ndim(x) == 0 and x > 0.0)),
             "rho_TF parity broken"),
            ("checks.rho_tf", lambda f: lambda x, *a: f(x, *a) + (np.ndim(x) == 0), "rho_TF support leak"),
            ("checks.rho_tf", lambda f: lambda x, *a: f(x, *a) * (1.0 + 1e-5 * (np.ndim(x) > 0)),
             "rho_TF normalization"),
            ("checks.gamma_d1_exact",
             lambda f: lambda x1, x2, *a: math.nextafter(f(x1, x2, *a), math.inf if x1 < x2 else 0.0),
             "closed-form Gamma symmetry/positivity broken"),
            ("checks.gamma_d1_exact", lambda f: lambda *a: -f(*a), "closed-form Gamma symmetry/positivity broken"),
            ("green_trapped.matsubara_assemble_many", lambda f: lambda queries, *a, **k: [
                g._replace(value=math.nextafter(g.value, math.inf)) if q.x1 < q.x2 else g
                for q, g in zip(queries, f(queries, *a, **k))], "assembly not symmetric"),
            ("checks.gamma_from_green", lambda f: lambda *a: -f(*a), "assembled-route Gamma not positive"),
        ],
        ids=["rho-parity", "rho-support", "rho-normalization", "gamma-symmetry", "gamma-positivity",
             "assembly-symmetry", "assembly-positivity"],
    )
    def test_check_10_counts_a_broken_condition(self, monkeypatch, target, broken, reason):
        # each condition broken alone: the figure, the number of broken
        # conditions, reads at least 1 against the tolerance 1e-9, and the
        # detail names the condition
        from trapgas import checks

        _break(monkeypatch, target, broken)
        result = checks.run_check("10-symmetry-positivity")
        assert not result.passed and result.value >= 1.0 and result.tol == 1e-9 and not result.conditions_met
        assert reason in result.detail

    @pytest.mark.parametrize(
        "mutation",
        [lambda re, lam: re * (1.0 + 1e-6), lambda re, lam: -re, lambda re, lam: re * (1.0 + np.sqrt(lam))],
        ids=["real-branch-off-by-1e-6", "real-branch-sign-flipped", "real-branch-sqrt-lambda-term"],
    )
    def test_check_01_fails_on_a_wrong_real_branch(self, monkeypatch, mutation):
        # the real-branch rows of check 01's one call mutated, its zero modes
        # left alone: the figure exceeds 1e-10, and the slope condition fails,
        # as each mutation adds to (G_lambda - G_0)/(lambda G_0) a term that
        # does not scale as 1: c/lambda, or 1/sqrt(lambda)
        from trapgas import checks

        density_parts = checks._density_parts

        def mutated(omegas, us, ups, d, k, tol):
            re, *rest = density_parts(omegas, us, ups, d, k, tol)
            lam = (d.alpha * np.asarray(omegas)) ** 2
            real = (0.25 - lam != 0.25) & (lam <= 0.25)
            return np.where(real, mutation(re, lam), re), *rest

        monkeypatch.setattr(checks, "_density_parts", mutated)
        result = checks.run_check("01-zero-mode-identity")
        assert not result.passed and result.value > result.tol == 1e-10
        assert not result.conditions_met

    @pytest.mark.parametrize(
        "mutant",
        ["coefficient-off-by-1e-3", "end-faces-not-zeroed", "coefficient-averaged-from-the-nodes"],
    )
    def test_check_04_fails_on_a_wrong_operator(self, monkeypatch, mutant):
        # the flux-form operator mutated: scaled by 1 + 1e-3 (reads 1.0e-3);
        # the end faces carrying their inner neighbours' coefficient, as an
        # unpinned zero-gradient extrapolation of p would (about 0.6); or p
        # taken at the nodes and averaged to the faces, which is second order
        # too but not exact on polynomials (1.57e-4).  The last passed the
        # Richardson pair at N = 2000/4000, which read 8.1e-8
        from trapgas import checks, oracle

        def mutated(d, n_cells):
            h = 2.0 * d.R_c / n_cells
            xc = -d.R_c + (np.arange(n_cells) + 0.5) * h
            pf = 1.0 - ((-d.R_c + np.arange(n_cells + 1) * h) / d.R_c) ** 2
            if mutant == "end-faces-not-zeroed":
                pf[[0, -1]] = pf[[1, -2]]
            else:
                pf[[0, -1]] = 0.0
            if mutant == "coefficient-averaged-from-the-nodes":
                pn = 1.0 - (xc / d.R_c) ** 2
                pf[1:-1] = 0.5 * (pn[1:] + pn[:-1])
            scale = 1.0 + 1e-3 if mutant == "coefficient-off-by-1e-3" else 1.0
            return h, xc, scale * (pf[1:] + pf[:-1]) / h**2, -scale * pf[1:-1] / h**2

        assert checks.run_check("04-eigenvalue-law").value < 1e-10
        monkeypatch.setattr(oracle, "_flux_operator", mutated)
        result = checks.run_check("04-eigenvalue-law")
        assert not result.passed and result.value > result.tol == 1e-4
        expected = {"coefficient-off-by-1e-3": 1e-3, "end-faces-not-zeroed": 0.6,
                    "coefficient-averaged-from-the-nodes": 1.57e-4}[mutant]
        assert result.value == pytest.approx(expected, rel=0.1)

    def test_check_05_fails_on_a_wrong_bernoulli_polynomial(self, monkeypatch):
        # check 05 tests the package's B_2, the one that homog_series and the
        # low-T series' bracket sum the k = 0 line with: off by 1e-9, it reads
        # pi^2 1e-9 against 1e-10
        from trapgas import checks, green_homogeneous

        assert checks.run_check("05-frequency-sum-identity").passed
        b2 = green_homogeneous._bernoulli_b2
        monkeypatch.setattr(green_homogeneous, "_bernoulli_b2", lambda theta: b2(theta) + 1e-9)
        result = checks.run_check("05-frequency-sum-identity")
        assert not result.passed and result.value == pytest.approx(math.pi**2 * 1e-9, rel=0.01)

    @pytest.mark.parametrize(
        "name, target, broken, figure_fails",
        [
            # the density at (1 + 1e-3) omega: the ODE residual reads about 2
            ("02-ode-residual-and-jump", "checks.spectral_densities",
             lambda f: lambda omega, *a, **k: f(omega * (1.0 + 1e-3), *a, **k), True),
            # the density 10% too strong satisfies the ODE, but its slope jump misses g/(hbar v)^2
            ("02-ode-residual-and-jump", "checks.spectral_densities",
             lambda f: lambda *a, **k: [sd._replace(value=1.1 * sd.value) for sd in f(*a, **k)], False),
            # the finite-difference oracle at (1 + 1e-2) omega: about 0.15 against 1e-3
            ("03-oracle-equivalence", "checks.fdm_spectral_solve",
             lambda f: lambda omega, *a, **k: f(omega * (1.0 + 1e-2), *a, **k), True),
            # the closed form at (1 + 1e-2) omega: about 0.18
            ("03-oracle-equivalence", "checks.spectral_densities",
             lambda f: lambda omega, *a, **k: f(omega * (1.0 + 1e-2), *a, **k), True),
            # the sinh form's prefactor 5% high: about 0.048 against 0.02
            ("06-homog-regime-match", "green_trapped.homog_asymptotic_highT",
             lambda f: lambda *a, **k: f(*a, **k)._replace(value=1.05 * f(*a, **k).value), True),
            # the series without its zero-temperature logarithm: about 0.18 against 0.02
            ("06-homog-regime-match", "green_trapped.homog_series", lambda f: _without_the_logarithm(f), True),
            # the assembly stopped at tol = 1e-3 instead of 1e-13, after one or two frequencies: about 2.3e-3
            # against 1e-4
            ("07-trapped-highT-match", "green_trapped.matsubara_assemble_many",
             lambda f: lambda *a, **k: f(*a, **{**k, "tol": 1e-3}), True),
            # the Liouville-Green form 1e-3 high: about 1e-3
            ("07-trapped-highT-match", "green_trapped.asympt_green_highT",
             lambda f: lambda *a, **k: f(*a, **k)._replace(value=(1.0 + 1e-3) * f(*a, **k).value), True),
            # the homogeneous Gamma to the power 1.1: its exponent 10% off, the fit about 0.10 against 0.05
            ("09-exponent-extraction", "checks.gamma_homog", lambda f: lambda *a: f(*a) ** 1.1, True),
            # the low-T series 10% high: the trapped exponent off, the fit about 0.066
            ("09-exponent-extraction", "green_trapped.lowT_legendre_series_many",
             lambda f: lambda *a, **k: [g._replace(value=1.1 * g.value) for g in f(*a, **k)], True),
        ],
        ids=["02-density-frequency-off", "02-density-strength-off", "03-oracle-frequency-off",
             "03-closed-form-frequency-off", "06-sinh-prefactor-off", "06-series-log-dropped", "07-assembly-truncated",
             "07-liouville-green-off", "09-homog-gamma-power-off", "09-lowT-series-off"],
    )
    def test_a_broken_route_fails_its_check(self, monkeypatch, name, target, broken, figure_fails):
        # one of the two routes a check compares broken alone: the check fails,
        # by its figure or, for check 02's jump, by its condition
        from trapgas import checks

        assert checks.run_check(name).passed
        _break(monkeypatch, target, broken)
        result = checks.run_check(name)
        assert not result.passed
        if figure_fails:
            assert result.value > result.tol
        else:
            assert result.value < result.tol and not result.conditions_met

    def test_per_check_seconds_to_the_microsecond(self, tmp_path, capsys):
        # check 04 takes about 2 ms and several checks under 1 ms: the report
        # keeps 6 decimals, and stderr prints 4, which compare_tables strips
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 0
        seconds = [c["seconds"] for c in json.loads(out.read_text())["checks"]]
        assert all(s == round(s, 6) for s in seconds) and any(s != round(s, 3) for s in seconds)
        assert len(re.findall(r"\(\d+\.\d{4}s\)", capsys.readouterr().err)) == len(seconds)

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

    def test_check_01_zero_modes_are_the_one_point_densities(self, monkeypatch):
        # the 203 zero modes of check 01's one _density_parts call are, bitwise,
        # spectral_density(0.0, x, xp) at its pairs, and its other rows lie on
        # the real branch at lambda = 2^-50, 1e-4 and 1e-6
        from trapgas import checks, spectral_density

        density_parts, calls = checks._density_parts, []

        def recorded_parts(omegas, us, ups, d, k, tol):
            parts = density_parts(omegas, us, ups, d, k, tol)
            calls.append(((d.alpha * np.asarray(omegas)) ** 2, np.asarray(us), np.asarray(ups), parts[0], d))
            return parts

        monkeypatch.setattr(checks, "_density_parts", recorded_parts)
        assert checks.run_check("01-zero-mode-identity").passed
        ((lam, us, ups, re, d),) = calls
        zero = lam == 0.0
        assert np.count_nonzero(zero) == 203 and lam.size == 2 * 203 + 6
        np.testing.assert_allclose(np.unique(lam[~zero]), [2.0**-50, 1e-6, 1e-4], rtol=1e-15)
        p, _ = checks._unit_setup()
        for u, up, density in zip(us[zero], ups[zero], re[zero]):
            assert spectral_density(0.0, u * d.R_c, up * d.R_c, p, d).value == density

    @pytest.mark.parametrize(
        "name, counted, expected",
        [
            # one kernel pass over the zero modes and the real-branch rows
            ("01-zero-mode-identity", ("checks._density_parts", "green_trapped._density_parts"),
             {"checks._density_parts": 1}),
            # both point orders of a trial are one assembly call, one pass: 12 each, not 24
            ("10-symmetry-positivity", ("green_trapped.matsubara_assemble_many", "green_trapped._assemble_pass"),
             {"green_trapped.matsubara_assemble_many": 12, "green_trapped._assemble_pass": 12}),
            # each route once a distinct query: 5, 6 and 4 queries, where every inner one ran twice
            ("06-homog-regime-match", ("green_trapped.homog_series", "green_trapped.homog_asymptotic_highT"),
             {"green_trapped.homog_series": 5, "green_trapped.homog_asymptotic_highT": 5}),
            # the assembly's 6 queries in one call and one kernel pass, not six of each
            ("07-trapped-highT-match",
             ("green_trapped.matsubara_assemble_many", "green_trapped._assemble_pass",
              "green_trapped.asympt_green_highT"),
             {"green_trapped.matsubara_assemble_many": 1, "green_trapped._assemble_pass": 1,
              "green_trapped.asympt_green_highT": 6}),
            # the mode sum in one call over 4 queries, one recurrence for each of their 8 distinct points
            ("08-trapped-lowT-match",
             ("green_trapped.lowT_legendre_series_many", "green_trapped.p_poly_table",
              "green_trapped.asympt_green_lowT"),
             {"green_trapped.lowT_legendre_series_many": 1, "green_trapped.p_poly_table": 8,
              "green_trapped.asympt_green_lowT": 4}),
            # ten dtau at one point: one call and one recurrence, not ten of each
            ("09-exponent-extraction", ("green_trapped.lowT_legendre_series_many", "green_trapped.p_poly_table"),
             {"green_trapped.lowT_legendre_series_many": 1, "green_trapped.p_poly_table": 1}),
            # three theta in one sweep of the weights 1/l^2
            ("05-frequency-sum-identity", ("checks.brute_frequency_sum",), {"checks.brute_frequency_sum": 1}),
        ],
        ids=["01", "10", "06", "07", "08", "09", "05"],
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

    def test_checks_read_the_tables_route_map(self, monkeypatch):
        # the route map answering homog-asympt and trapped-asympt at high temperature with their
        # low-temperature forms, as a wrong regime dispatch of the tables would: checks 06 and 07,
        # whose references are those two modes at high temperature, fail, and the others pass
        from trapgas import checks, green_trapped

        route, low_t = green_trapped._route, {"homog-asympt": green_trapped.homog_asymptotic_lowT,
                                              "trapped-asympt": green_trapped.asympt_green_lowT}

        def dispatching_low_t(mode, p, d, **controls):
            if mode in low_t and classify_regime(d) is Regime.HIGH_T:
                return partial(green_trapped._evaluate, partial(low_t[mode], p=p, d=d))
            return route(mode, p, d, **controls)

        monkeypatch.setattr(green_trapped, "_route", dispatching_low_t)
        assert [name for name in checks.CHECKS if not checks.run_check(name).passed] == [
            "06-homog-regime-match", "07-trapped-highT-match"]

    def test_report_values_stable_across_runs(self):
        from trapgas.checks import run_check

        for name in ("01-zero-mode-identity", "06-homog-regime-match"):
            a, b = run_check(name), run_check(name)
            assert a.value == b.value and a.passed == b.passed
