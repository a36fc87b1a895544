"""End-to-end tests for the command line interface."""

import csv
import json
import math
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest

from sievesum import cli, iterints, multfun, primes


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif line:
            data_lines.append(line)
    rows = list(csv.reader(data_lines))
    return meta, rows[0], rows[1:]


class TestSum:
    def test_exact_hand_enumeration(self, capsys):
        code, out, _ = run_cli(
            ["sum", "--spec", "one_over_n", "--x", "10", "--m", "0", "--q", "1", "--exact"],
            capsys,
        )
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["value", "exact", "terms"]
        assert rows[0][1] == "171/70"
        assert abs(float(rows[0][0]) - 2.442857142857143) < 1e-12
        assert rows[0][2] == "7"

    def test_exact_printed_past_the_int_str_limit(self, capsys):
        # numerator and denominator have more digits than str(int) allows
        code, out, _ = run_cli(
            ["sum", "--spec", "one_over_n", "--x", "15000", "--m", "0", "--exact"], capsys
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        num, den = rows[0][1].split("/")
        assert len(num) > 4300
        spec = multfun.builtin_spec("one_over_n")
        want = multfun.m_sum(spec, 15000, 0, 1, exact=True).exact_value
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == want

    def test_exact_only_on_request(self, monkeypatch, capsys):
        # m = 0 and x <= 1e5 once ran the exact rational path unasked
        def refuse(*args):
            raise AssertionError("exact sum computed")

        monkeypatch.setattr(multfun._dfs, "msum_exact_m0", refuse)
        code, out, _ = run_cli(["sum", "--spec", "one_over_n", "--x", "1000", "--m", "0"], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta["exact"] == "false"
        assert header == ["value", "exact", "terms"]
        assert rows[0][1] == ""
        spec = multfun.builtin_spec("one_over_n")
        assert rows[0][0] == cli._text(multfun.m_sum(spec, 1000, 0, 1).value)

    def test_smooth_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["sum", "--spec", "one_over_phi", "--x", "5000", "--m", "1", "--z", "70"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        spec = multfun.builtin_spec("one_over_phi")
        want = multfun.m_sum_smooth(spec, 5000, 1, 1, 70).value
        assert abs(float(rows[0][0]) - want) <= 1e-14 * abs(want)

    def test_spec_arguments_parse(self, capsys):
        for spec in ("k_over_p:3", "nu_over_p:0,2,6", "signed_mu_times:one_over_n"):
            code, out, _ = run_cli(["sum", "--spec", spec, "--x", "100"], capsys)
            assert code == 0

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(
            ["--format", "json", "sum", "--spec", "one_over_n", "--x", "10", "--exact"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"meta", "data"}
        assert doc["data"][0]["exact"] == "171/70"
        assert doc["meta"]["command"] == "sum"


class TestGoldenBytes:
    """The printed bytes of one sum, pinned: a comma-bearing meta value, a
    bool, an int, a float from fsum and an exact rational, in both formats;
    nothing here depends on the platform's float library."""

    ARGV = ["sum", "--spec", "nu_over_p:0,2,6", "--x", "100", "--m", "0", "--exact"]
    VALUE = "9.73055329411212"
    EXACT = "575242357599216157582911461799677353/59117127280654318583412875572609130"

    def test_csv(self, capsys):
        code, out, _ = run_cli(self.ARGV, capsys)
        assert code == 0
        assert out == (
            "# command=sum\n# spec=nu_over_p:0,2,6\n# x=100\n# m=0\n# q=1\n# exact=true\n"
            f"value,exact,terms\n{self.VALUE},{self.EXACT},61\n"
        )

    def test_json(self, capsys):
        code, out, _ = run_cli(self.ARGV + ["--format", "json"], capsys)
        assert code == 0
        assert out == (
            '{\n  "data": [\n    {\n'
            f'      "exact": "{self.EXACT}",\n'
            '      "terms": 61,\n'
            f'      "value": {self.VALUE}\n'
            '    }\n  ],\n  "meta": {\n'
            '    "command": "sum",\n    "exact": true,\n    "m": 0,\n    "q": 1,\n'
            '    "spec": "nu_over_p:0,2,6",\n    "x": 100.0\n  }\n}\n'
        )


class TestF:
    def test_grid_contains_unit_value(self, capsys):
        code, out, _ = run_cli(
            ["f", "--k", "1", "--m", "1", "--u-max", "3", "--step", "0.25"], capsys
        )
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["u", "f"]
        assert len(rows) == 12
        byu = {row[0]: float(row[1]) for row in rows}
        assert byu["1"] == 1.0
        assert abs(byu["2"] - (1.625 - math.log(2.0))) < 1e-10
        assert float(meta["residual"]) < 1e-8

    def test_large_order_residual_covers_every_panel(self, capsys):
        # u^(k+m+1) overflows at k + m = 1000; the gate divides it out, so
        # no panel's residual turns NaN and drops out of the maximum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(
                ["f", "--k", "-10000", "--m", "11000", "--u-max", "3", "--step", "1"], capsys
            )
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert 0.0 < float(meta["residual"]) < 1e-8
        assert [row[1] for row in rows] == ["1", "1", "1"]

    def test_unit_interval_only(self, capsys):
        code, out, _ = run_cli(
            ["f", "--k", "2", "--m", "3", "--u-max", "1.0", "--step", "0.5"], capsys
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [row[1] for row in rows] == ["1", "1"]


class TestI:
    def test_unit_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["I", "--s", "2", "--m", "4", "--u", "1.0", "--t", "1.0", "--v", "1.0"],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        want = float(iterints.closed_form_unit(2, 4))
        assert abs(float(rows[0][2]) - want) < 1e-9

    def test_grid_rows(self, capsys):
        code, out, _ = run_cli(
            ["I", "--s", "2", "--m", "4", "--u", "2.5", "--t", "0.5,1.0", "--v", "1.0,2.5"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 4
        assert all(float(r[3]) == 1.0 for r in rows)

    @pytest.mark.parametrize("argv, nodes", [
        (["--s", "1", "--m", "10", "--u", "9.5"], 4),  # m - s > 8: 4 nodes agree with 8
        (["--s", "1", "--m", "2", "--u", "2.5"], 16),  # the roughest integrand passes no candidate
    ])
    def test_x_rule_metadata(self, argv, nodes, capsys):
        code, out, _ = run_cli(["I", *argv, "--v", argv[-1]], capsys)
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert int(meta["x_nodes"]) == nodes
        gap = float(meta["x_gap"])
        assert 0.0 <= gap and (gap <= 1e-9 / iterints.X_SHARE) == (nodes < iterints.MARCH_NODES)

    def test_no_v_panel_tries_no_x_rule(self, capsys):
        # v <= 1 marches no v-panel, so no x rule is compared
        code, out, _ = run_cli(["I", "--s", "2", "--m", "3", "--u", "9.5", "--v", "0.5,1"], capsys)
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert int(meta["x_nodes"]) == iterints.MARCH_NODES
        assert math.isnan(float(meta["x_gap"]))

    def test_value_below_the_float_limit_is_finite(self, capsys):
        # log_abs = 709.4 is past 709 but below log(float max) = 709.78
        code, out, _ = run_cli(["I", "--s", "200", "--m", "230", "--u", "9.5",
                                "--t", "0.042689569384520176", "--v", "1"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert 709.0 < float(rows[0][header.index("log_abs")]) < 709.78
        assert math.isfinite(float(rows[0][header.index("value")]))

    def test_prints_the_last_t_rung(self, capsys):
        code, out, _ = run_cli(
            ["I", "--s", "2", "--m", "3", "--u", "9.5", "--v", "9.5", "--tol", "1e-6"], capsys
        )
        assert code == 0
        meta, _, _ = parse_csv(out)
        keys = list(meta)
        assert keys.index("n_per") == keys.index("est_error") + 1
        assert int(meta["n_per"]) == 33


class TestTuple:
    def test_first_k_footnote_construction(self, capsys):
        code, out, _ = run_cli(["tuple", "--first-k", "3"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["offsets", "admissible", "series"]
        assert rows[0][0] == "0,2,6"
        assert rows[0][1] == "true"
        assert float(rows[0][2]) > 1.0

    def test_inadmissible_offsets(self, capsys):
        code, out, _ = run_cli(["tuple", "--offsets", "0,1"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0][1] == "false"
        assert float(rows[0][2]) == 0.0

    def test_json_offsets_list(self, capsys):
        code, out, _ = run_cli(["--format", "json", "tuple", "--first-k", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["data"]["offsets"] == [0, 2, 6, 8]
        assert doc["data"]["admissible"] is True


class TestZhang:
    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            ["--format", "json", "zhang", "--k", "3", "--m", "5",
             "--theta", "0.8", "--delta", "0.4"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        data = doc["data"]
        assert set(data) == {
            "params", "I_k", "I_k_minus_1", "coefficient", "sign",
            "log_abs", "cancellation", "table_error_1", "table_error_2", "assumption",
        }
        assert data["assumption"] == "EH(0.8,0.4)"
        got = data["params"]["k"] * 0.8 / 2.0 * data["I_k_minus_1"] - data["I_k"]
        assert abs(got - data["coefficient"]) < 1e-9 * abs(data["coefficient"])

    def test_json_table_errors_match_csv(self, capsys):
        argv = ["zhang", "--k", "3", "--m", "5", "--theta", "0.8", "--delta", "0.2"]
        _, out, _ = run_cli(argv, capsys)
        _, header, rows = parse_csv(out)
        _, out, _ = run_cli(["--format", "json"] + argv, capsys)
        data = json.loads(out)["data"]
        for key in ("table_error_1", "table_error_2"):
            assert data[key] == float(rows[0][header.index(key)])
            assert 0.0 <= data[key] <= 1e-9

    @pytest.mark.parametrize("k, m, theta, delta", [(10, 12, 0.95, 0.05),
                                                     (61, 70, 0.92, 0.0484)])
    def test_i_k_minus_1_is_the_I_value(self, k, m, theta, delta, capsys):
        _, out, _ = run_cli(["zhang", "--k", str(k), "--m", str(m), "--theta", repr(theta),
                             "--delta", repr(delta)], capsys)
        _, header, rows = parse_csv(out)
        u = repr(theta / (2.0 * delta))
        _, out, _ = run_cli(["I", "--s", str(k - 1), "--m", str(m), "--u", u, "--v", u], capsys)
        _, header_i, rows_i = parse_csv(out)
        assert rows[0][header.index("i_k_minus_1")] == rows_i[0][header_i.index("value")]

    def test_csv_single_row(self, capsys):
        code, out, _ = run_cli(
            ["zhang", "--k", "6", "--m", "8", "--theta", "0.9", "--delta", "0.05"],
            capsys,
        )
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert len(rows) == 1
        assert meta["u"] == "9"
        assert float(rows[0][header.index("cancellation")]) > 0.0


class TestScan:
    def test_grid_and_thread_determinism(self, capsys):
        argv = ["scan", "--k-max", "3", "--m-max", "5", "--theta", "0.9", "--delta", "0.3"]
        code1, out1, err1 = run_cli(argv + ["--threads", "1"], capsys)
        code2, out2, err2 = run_cli(argv + ["--threads", "4"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "threads=1" in err1 and "threads=4" in err2
        meta, header, rows = parse_csv(out1)
        assert "threads" not in meta
        assert len(rows) == 15
        for row in rows:
            rec = dict(zip(header, row))
            k, m = int(rec["k"]), int(rec["m"])
            if k < 2 or m <= k:
                assert rec["status"] == "rejected"
                assert rec["value"] == "nan"
            else:
                assert rec["status"] == "ok"
                assert math.isfinite(float(rec["value"]))

    @pytest.mark.parametrize("argv", [
        ["I", "--s", "2", "--m", "4", "--u", "2.5", "--t", "0.5,1.0", "--v", "1.0,2.5"],
        ["zhang", "--k", "3", "--m", "5", "--theta", "0.9", "--delta", "0.3"],
        ["scan", "--k-max", "2", "--m-max", "3", "--theta", "0.9", "--delta", "0.3"],
    ])
    def test_log_scale_flags_are_ignored(self, argv, capsys):
        # every table has one arithmetic; the flags are still accepted
        outs = [run_cli(argv + flag, capsys) for flag in ([], ["--log-scale"], ["--no-log-scale"])]
        assert [code for code, _, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1] == outs[2][1]
        assert "log_scale" not in parse_csv(outs[0][1])[0]


class TestVerify:
    def test_theorem1_small_ladder(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "theorem1", "--ladder", "1e4,1e5"], capsys
        )
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta["verdict"] == "true"
        assert header == ["x", "predicted", "measured", "residual"]
        assert float(rows[1][3]) < float(rows[0][3])

    def test_flat_ladder_fails_verdict(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "theorem1", "--ladder", "1e4,1e4,1e4"], capsys
        )
        assert code == 4
        meta, _, _ = parse_csv(out)
        assert meta["verdict"] == "false"

    def test_buchstab_defects(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "buchstab", "--cases", "8", "--seed", "7"], capsys
        )
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert len(rows) == 8
        worst = max(float(row[header.index("defect")]) for row in rows)
        assert worst < 1e-10
        assert float(meta["max_defect"]) == worst

    def test_weight_lists_one_polynomial_per_power(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "weight", "--ladder", "1e3", "--coeffs", "1,2"], capsys
        )
        assert code == 0
        meta, _, _ = parse_csv(out)
        groups = meta["main_coeffs"].split(";")
        assert [len(g.split(",")) for g in groups] == [2, 3]
        assert 0.0 < float(meta["main_bound"]) <= 1e-7

    def test_all_writes_file_per_report(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "all", "--ladder", "1e3,1e4", "--cases", "5",
             "--out", str(tmp_path / "reports")],
            capsys,
        )
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "reports").iterdir())
        assert names == ["buchstab.csv", "theorem1.csv", "theorem2.csv", "weight.csv"]
        text = (tmp_path / "reports" / "theorem2.csv").read_text()
        meta, _, _ = parse_csv(text)
        assert meta["check"] == "theorem2"
        assert "\r" not in text

    @staticmethod
    def m_sums_calls(monkeypatch, capsys, check):
        """The query lists of every multfun.m_sums call of one verify run."""
        calls = []
        m_sums = multfun.m_sums

        def counted(spec, q, queries):
            calls.append(list(queries))
            return m_sums(spec, q, queries)

        monkeypatch.setattr(multfun, "m_sums", counted)
        code, _, _ = run_cli(
            ["verify", "--check", check, "--m", "1", "--coeffs", "1,1", "--ladder", "1e3,1e4",
             "--cases", "1"],
            capsys,
        )
        assert code == 0
        return calls

    def test_all_takes_every_sum_from_one_call(self, monkeypatch, capsys):
        calls = self.m_sums_calls(monkeypatch, capsys, "all")
        # theorem1 needs m = 1, the weight check m = 0 and m = 1, and
        # theorem2 m = 1 at z = sqrt(x); the one Buchstab case makes the second call
        want = [(x, m, math.inf) for x in (1e3, 1e4) for m in (0, 1)]
        want += [(1e3, 1, 1e3 ** 0.5), (1e4, 1, 100.0)]
        assert len(calls) == 2
        assert sorted(calls[0]) == sorted(want)
        (x, m, z), (x2, m2, top) = calls[1]
        assert (x2, m2, top) == (x, m, x) and z <= x

    @pytest.mark.parametrize("check,n", [("theorem1", 2), ("theorem2", 2), ("weight", 4)])
    def test_a_check_alone_makes_one_call(self, monkeypatch, capsys, check, n):
        calls = self.m_sums_calls(monkeypatch, capsys, check)
        assert len(calls) == 1 and len(set(calls[0])) == len(calls[0]) == n


class TestConfigAndEnv:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("format=json\ntol=1e-5\n")
        code, out, _ = run_cli(
            ["sseries", "--spec", "one_over_n", "--config", str(cfgfile)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["tol"] == 1e-5
        code, out, _ = run_cli(
            ["--format", "csv", "sseries", "--spec", "one_over_n",
             "--config", str(cfgfile)],
            capsys,
        )
        assert code == 0
        assert out.startswith("# command=sseries")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("bogus=1\n")
        code, _, err = run_cli(
            ["sseries", "--spec", "one_over_n", "--config", str(cfgfile)], capsys
        )
        assert code == 2
        assert "unknown config key" in err

    def test_missing_config_rejected(self, capsys):
        code, _, _ = run_cli(
            ["sseries", "--spec", "one_over_n", "--config", "/nonexistent.cfg"], capsys
        )
        assert code == 2

    def test_env_threads_flag_precedence(self, monkeypatch):
        argv = ["scan", "--k-max", "1", "--m-max", "1", "--theta", "0.5", "--delta", "0.25"]
        monkeypatch.setenv("SIEVESUM_THREADS", "2")
        ns = cli.build_parser().parse_args(argv)
        assert cli._resolve(ns).threads == 2
        ns = cli.build_parser().parse_args(["--threads", "7"] + argv)
        assert cli._resolve(ns).threads == 7

    def test_env_outdir_redirects_relative_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIEVESUM_OUTDIR", str(tmp_path))
        code, out, _ = run_cli(
            ["sum", "--spec", "one_over_n", "--x", "10", "--out", "row.csv"], capsys
        )
        assert code == 0
        assert out == ""
        assert (tmp_path / "row.csv").exists()


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli([], capsys)[0] == 2
        assert run_cli(["nosuch"], capsys)[0] == 2
        assert run_cli(["sum", "--spec", "nope", "--x", "10"], capsys)[0] == 2
        assert run_cli(["sum", "--spec", "one_over_n", "--x", "10", "--m", "1",
                        "--exact"], capsys)[0] == 2
        assert run_cli(["I", "--s", "2", "--m", "4", "--u", "1.0", "--t", "2.0"],
                       capsys)[0] == 2

    def test_nan_z_rejected(self, capsys):
        code, out, err = run_cli(
            ["sum", "--spec", "one_over_n", "--x", "100", "--m", "1", "--z", "nan"], capsys
        )
        assert code == 2
        assert out == ""
        assert "NaN" in err

    @pytest.mark.parametrize("spec,m", [("one_over_n", 271), ("signed_mu_times:one_over_n", 275)])
    def test_sum_past_the_float_range(self, spec, m, capsys):
        # once printed inf and exited 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["sum", "--spec", spec, "--x", "1e6", "--m", str(m)], capsys)
        assert code == 2
        assert out == ""
        assert f"x = 1e+06, m = {m} " in err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_bad_tol_rejected_up_front(self, tol, capsys):
        for argv in (
            ["zhang", "--k", "6", "--m", "8", "--theta", "0.9", "--delta", "0.05"],
            ["scan", "--k-max", "2", "--m-max", "3", "--theta", "0.9", "--delta", "0.3"],
            ["sseries", "--spec", "one_over_n"],
            ["f", "--k", "1", "--m", "1"],
        ):
            code, out, err = run_cli(argv + ["--tol", tol], capsys)
            assert code == 2, argv
            assert out == ""
            assert "tol must be a positive finite number" in err

    @pytest.mark.parametrize("check", ["theorem1", "theorem2", "weight"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_series_tol_rejected(self, check, tol, capsys):
        # inf once printed an uncertified main_bound, and 0 divided by zero
        code, out, err = run_cli(["verify", "--check", check, "--ladder", "1e4",
                                  "--series-tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert err == f"sievesum: tol must be a positive finite number, got {float(tol)}\n"

    @pytest.mark.parametrize("check", ["theorem1", "theorem2", "weight"])
    @pytest.mark.parametrize("x", ["0", "-5", "1", "nan"])
    def test_bad_ladder_rejected(self, check, x, capsys):
        # log x <= 0 once divided by zero (weight), failed in math.log, or
        # ran the Euler product out to its cap (theorem1 at x = 1)
        code, out, err = run_cli(["verify", "--check", check, "--ladder", f"1e4,{x}"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"sievesum: every ladder x must be finite and > 1, got {float(x)}\n"

    def test_stieltjes_cap_exits_2_at_once(self, capsys):
        # k = 1000 once ran the Euler product out to order 1000 first
        code, out, err = run_cli(["verify", "--check", "theorem1", "--spec", "k_over_p:1000",
                                  "--m", "0", "--ladder", "1e4"], capsys)
        assert code == 2
        assert out == ""
        assert err == "sievesum: k + m = 1000 exceeds the 32 tabulated Stieltjes constants\n"

    def test_bad_config_tol_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("tol=-1\n")
        code, _, err = run_cli(
            ["zhang", "--k", "6", "--m", "8", "--theta", "0.9", "--delta", "0.05",
             "--config", str(cfgfile)],
            capsys,
        )
        assert code == 2
        assert "tol must be a positive finite number" in err

    @pytest.mark.parametrize("spec, message", [
        ("k_over_p:2.5", "k must be an integer, got '2.5'"),
        ("k_over_p:", "k must be an integer, got ''"),
        ("nu_over_p:0,x", "offsets must be an integer, got 'x'"),
    ])
    def test_non_integer_spec_argument_rejected(self, spec, message, capsys):
        # int() once raised here, with a message naming no parameter
        code, out, err = run_cli(["sum", "--spec", spec, "--x", "10"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"sievesum: {message}\n"

    @pytest.mark.parametrize("check", ["buchstab", "all"])
    def test_zero_cases_rejected(self, check, capsys):
        code, out, err = run_cli(["verify", "--check", check, "--cases", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "--cases must be at least 1" in err

    @pytest.mark.parametrize("argv", [
        ["I", "--s", "1", "--m", "2", "--u", "inf"],
        ["I", "--s", "1", "--m", "2", "--u", "1.5", "--v", "inf"],
        ["f", "--k", "1", "--m", "1", "--u-max", "inf"],
        ["f", "--k", "1", "--m", "1", "--step", "nan"],
        ["verify", "--check", "theorem2", "--u", "inf", "--ladder", "1e3,1e4"],
        ["zhang", "--k", "6", "--m", "8", "--theta", "0.9", "--delta", "1e-300"],
        ["scan", "--k-max", "2", "--m-max", "3", "--theta", "0.9", "--delta", "1e-300"],
        ["verify", "--check", "weight", "--coeffs", "1,nan", "--ladder", "1e3,1e4"],
        ["verify", "--check", "weight", "--coeffs", "inf", "--ladder", "1e3,1e4"],
        ["f", "--k", "1", "--m", "1", "--u-max", "1e300", "--step", "1e299"],
        ["verify", "--check", "theorem2", "--u", "1e300", "--ladder", "1e3,1e4"],
        ["verify", "--check", "weight", "--coeffs", "1e308,1e308", "--ladder", "1e3,1e4"],
        ["f", "--k", "1", "--m", "-5", "--u-max", "0.5"],
    ])
    def test_out_of_range_input_rejected(self, argv, capsys):
        # infinite u or v has no panel count, a delta of 1e-300 or a finite
        # u of 1e300 asks for far more f panels than dde.MAX_PANELS, and a
        # NaN weight, or finite ones whose sums overflow, would give NaN
        # residuals; f checks k and m also when u-max <= 1, where f = 1
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("sievesum: ")

    @pytest.mark.parametrize("u_max, step", [("100", "1e-12"), ("1.7e308", "1e-308")])
    def test_f_row_count_checked_before_the_grid(self, u_max, step, capsys):
        # 1e14 rows (or an infinite count): rejected before any u is listed
        code, out, err = run_cli(["f", "--k", "1", "--m", "1", "--u-max", u_max,
                                  "--step", step], capsys)
        assert code == 2
        assert out == ""
        assert f"more than {cli.F_MAX_ROWS}" in err

    def test_tiny_u_smooths_nothing(self, capsys):
        # x^(1/u) overflows a float; z is taken as infinite
        code, out, _ = run_cli(["verify", "--check", "theorem2", "--u", "1e-300",
                                "--ladder", "1e3,1e4"], capsys)
        assert code in (0, 4)
        meta, header, rows = parse_csv(out)
        assert header[0] == "x" and len(rows) == 2
        assert all(math.isfinite(float(r[3])) for r in rows)

    def test_per_entry_estimate_misses_tol_at_s1_m2(self, capsys):
        # The per-entry estimate stops at 5.02e-9 at n_per 129. The worst
        # entries sit inside t panel (1/u, 2/u], where the t breaks at j/u
        # miss the kinks that (1 - 1/x) t carries into later v-panels; the
        # query at t = 0.12 puts that panel in the table's region.
        code, out, err = run_cli(["I", "--s", "1", "--m", "2", "--u", "9.5",
                                  "--t", "0.12", "--v", "9.5"], capsys)
        assert code == 3
        assert out == ""
        assert "estimate 5.02" in err and "n_per=129" in err

    def test_cone_of_t_one_meets_tol_at_s1_m2(self, capsys):
        # the query (1, 9.5) reads only t >= v/u, where n_per 33 meets tol
        code, out, _ = run_cli(["I", "--s", "1", "--m", "2", "--u", "9.5",
                                "--v", "9.5"], capsys)
        assert code == 0
        assert "# n_per=33" in out.splitlines()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0

    def test_tolerance_failure(self, capsys):
        code, _, err = run_cli(
            ["sseries", "--spec", "one_over_phi", "--tol", "1e-17"], capsys
        )
        assert code == 3
        assert "achieved" in err


class TestPrimeZetaTail:
    """Commands the 2^27 prime cap of the old truncation schedule could not
    certify (each exited 3) now certify from the prime-zeta tail."""

    @pytest.mark.parametrize("argv", [
        ["tuple", "--first-k", "10"],
        ["sseries", "--spec", "k_over_p:3", "--a-variant", "--q", "6"],
        ["sseries", "--spec", "one_over_n", "--tol", "1e-13"],
        ["verify", "--check", "theorem1", "--ladder", "1e4", "--series-tol", "1e-13"],
    ], ids=lambda argv: " ".join(argv))
    def test_certifies(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out

    def test_one_over_phi_sums_only_the_head(self, monkeypatch, capsys):
        monkeypatch.setattr(primes, "_cached_table", None)
        code, out, _ = run_cli(["sseries", "--spec", "one_over_phi"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "1"
        head = multfun._head_limit(multfun.builtin_spec("one_over_phi"))
        assert primes._cached_table.limit == max(1 << 16, head)


class TestSubprocess:
    def test_console_entry_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sievesum.cli", "sum", "--spec", "one_over_n",
             "--x", "10", "--m", "0", "--exact"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "171/70" in proc.stdout
