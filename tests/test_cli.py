"""CLI contract: exit codes, byte determinism, round-trips, config handling."""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest

from qdigamma import DeformParams, cli, inequalities, limits, psi_qk
from qdigamma.cli import main

from conftest import brute_psi_qk


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qdigamma", *args],
        capture_output=True, text=True, timeout=120, **kwargs,
    )


class TestEval:
    def test_qk_psi_json(self):
        proc = run_cli("eval", "--family", "qk", "--q", "0.5", "--k", "1", "--t", "2", "--fn", "psi")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["value"] == pytest.approx(brute_psi_qk(2.0, 0.5, 1.0), abs=1e-12)
        assert doc["result"]["tail_bound"] <= 1e-13
        assert doc["result"]["terms_used"] >= 1
        assert doc["config"]["q"] == 0.5 and doc["config"]["fn"] == "psi"

    def test_pq_single_term(self):
        proc = run_cli("eval", "--family", "pq", "--p", "1", "--q", "0.5", "--t", "1", "--fn", "psi")
        doc = json.loads(proc.stdout)
        assert doc["result"]["value"] == pytest.approx(math.log(0.5), abs=1e-15)

    def test_json_value_roundtrips_exactly(self):
        proc = run_cli("eval", "--family", "qk", "--q", "0.37", "--k", "1.9", "--t", "2.3", "--fn", "ln-gamma")
        parsed = json.loads(proc.stdout)["result"]["value"]
        from qdigamma import ln_gamma_qk

        in_memory = ln_gamma_qk(2.3, DeformParams.qk(0.37, 1.9)).value
        assert parsed == in_memory  # 17 significant digits are lossless

    def test_ratio_fn(self):
        proc = run_cli(
            "eval", "--family", "qk", "--q", "0.5", "--k", "1", "--t", "0.5", "--fn", "ratio",
            "--a", "2", "--b", "1", "--c", "3", "--d", "1", "--alpha", "1", "--beta", "1",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        expected = brute_psi_qk(2.5, 0.5, 1.0) / brute_psi_qk(3.5, 0.5, 1.0)
        assert doc["result"]["value"] == pytest.approx(expected, rel=1e-11)

    def test_psi_of_a_finite_value_at_tiny_t(self):
        # 1/(e^y - 1) overflows at y = eps t, but psi, about -1/t, is a finite double
        proc = run_cli("eval", "--family", "qk", "--fn", "psi", "--q", "0.999999999", "--k", "1", "--t", "1e-300")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["value"] == pytest.approx(-1e300, rel=1e-14)

    def test_ln_gamma_past_an_overflowing_exponent_writes_no_warning(self):
        # (t + n k) ln q overflows to -inf, where q^(t + n k) is the 0 it rounds to: no numpy warning
        proc = run_cli("eval", "--family", "qk", "--fn", "ln-gamma", "--q", "1e-9", "--k", "1", "--t", "1e308")
        assert proc.returncode == 0 and proc.stderr == ""
        result = json.loads(proc.stdout)["result"]
        assert (result["value"], result["tail_bound"], result["terms_used"]) == \
            (1.0000000005000002e+299, 1.0000000020010014e-18, 1)

    def test_ratio_missing_constants_exit_2(self):
        proc = run_cli("eval", "--family", "qk", "--q", "0.5", "--t", "0.5", "--fn", "ratio")
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestExitCodes:
    def test_invalid_q_exit_2(self):
        proc = run_cli("eval", "--family", "qk", "--q", "1.5", "--t", "1", "--fn", "psi")
        assert proc.returncode == 2
        assert "DomainError" in proc.stderr

    def test_unknown_flag_exit_2(self):
        proc = run_cli("eval", "--family", "qk", "--q", "0.5", "--t", "1", "--bogus", "7")
        assert proc.returncode == 2

    def test_ln_gamma_at_tiny_t_exits_cleanly(self):
        proc = run_cli("eval", "--fn", "ln-gamma", "--t", "1e-310")
        assert proc.returncode in (0, 3)
        assert "Traceback" not in proc.stderr

    def test_truncation_failure_exit_3(self):
        # about 570 direct terms at q = 0.9, t = 0.5, past n_max
        proc = run_cli(
            "eval", "--family", "qk", "--q", "0.9", "--t", "0.5", "--fn", "psi", "--n-max", "100"
        )
        assert proc.returncode == 3
        assert "TruncationNotConverged" in proc.stderr
        assert proc.stdout == ""  # no partial output on failure

    def test_overflowing_ratio_exit_3(self, capsys):
        argv = ["eval", "--family", "pq", "--p", "30", "--q", "0.9", "--fn", "ratio", "--a", "20", "--b", "1",
                "--c", "30", "--d", "1", "--alpha", "5000", "--beta", "1", "--t", "0.5"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "TruncationNotConverged" in err and "overflows a double" in err

    def test_verify_pass_exit_0(self):
        proc = run_cli("verify", "--suite", "qk-theorem", "--specs", "5", "--t-points", "5", "--seed", "7")
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("PASS")

    @pytest.mark.parametrize("specs", ["0", "-3"])
    def test_verify_without_specs_exit_2(self, specs):
        proc = run_cli("verify", "--suite", "qk-theorem", "--specs", specs)
        assert proc.returncode == 2
        assert "DomainError" in proc.stderr
        assert proc.stdout == ""

    def test_verify_without_thresholds_exit_3(self):
        # at n_max = 5 no draw's threshold can be certified; the grid gives up instead of drawing
        # forever (run_cli's timeout fails the test rather than letting it stall)
        proc = run_cli("verify", "--suite", "qk-theorem", "--specs", "1", "--t-points", "3", "--n-max", "5")
        assert proc.returncode == 3
        assert "TruncationNotConverged" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("conv_tol", ["nan", "0", "-1", "inf"])
    @pytest.mark.parametrize("remark", ["3.1", "3.2", "3.4"])
    def test_limits_refuses_a_conv_tol_not_positive_and_finite(self, remark, conv_tol, capsys, monkeypatch):
        # refused before the scan evaluates anything, as --abs-tol is; inf would have switched off the final-gap test
        def no_kernel(*args):
            raise AssertionError("the scan ran")
        monkeypatch.setattr(limits, "psi_qk", no_kernel)
        monkeypatch.setattr(limits, "psi_pq", no_kernel)
        assert main(["limits", "--remark", remark, f"--conv-tol={conv_tol}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: DomainError: --conv-tol={float(conv_tol)!r} must be positive and finite\n"

    def test_limits_convergence_failure_exit_1(self):
        proc = run_cli("limits", "--remark", "3.4", "--t", "1", "--p", "1")
        assert proc.returncode == 1
        assert proc.stdout.strip().endswith("FAIL")


class TestDeterminism:
    def test_in_process_calls_after_a_bad_flag_match_fresh_processes(self):
        # main reuses one parse tree per process; an exit 2 must leave it as a fresh process has it
        calls = [("eval", "--t", "1", "--bogus", "7"),
                 ("eval", "--family", "qk", "--q", "0.5", "--t", "0.5", "--format", "plain"),
                 ("limits", "--q", "0.5"),
                 ("limits", "--remark", "3.1", "--t", "2", "--q", "0.5")]
        for args in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(args))
            fresh = run_cli(*args)
            assert (code, out.getvalue(), err.getvalue()) == (fresh.returncode, fresh.stdout, fresh.stderr)

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--suite", "qk-theorem", "--specs", "5", "--t-points", "6", "--seed", "42", "--json"),
            ("verify", "--suite", "pq-corollary", "--specs", "4", "--t-points", "5", "--seed", "3"),
            ("limits", "--remark", "3.5", "--t", "1", "--q", "0.5", "--json"),
            ("table", "--family", "qk", "--q", "0.5", "--k", "1", "--fn", "psi",
             "--t-min", "0.5", "--t-max", "3", "--t-count", "7"),
            ("root", "--family", "qk", "--q", "0.5", "--k", "1"),
        ],
    )
    def test_identical_bytes(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout


class TestTable:
    def test_csv_header_and_roundtrip(self):
        proc = run_cli(
            "table", "--family", "qk", "--q", "0.5", "--k", "1", "--fn", "psi",
            "--t-min", "0.5", "--t-max", "3", "--t-count", "6",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "t,value,tail_bound"
        assert len(lines) == 7
        params = DeformParams.qk(0.5, 1.0)
        for line in lines[1:]:
            t_s, v_s, b_s = line.split(",")
            res = psi_qk(float(t_s), params)
            assert float(v_s) == res.value  # lossless round-trip
            assert float(b_s) == res.tail_bound

    def test_config_echo_on_stderr(self):
        proc = run_cli(
            "table", "--family", "pq", "--p", "3", "--q", "0.5", "--fn", "psi",
            "--t-min", "1", "--t-max", "2", "--t-count", "3",
        )
        assert proc.stderr.startswith("# config")
        assert '"t_count": 3' in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (("table", "--t-min", "1", "--t-max", "inf", "--t-count", "3"), "--t-max=inf must be finite"),
        (("table", "--t-min=-1.7e308", "--t-max", "1.7e308"), "--t-max - --t-min overflows a double"),
        (("table", "--t-min", "nan", "--t-max", "3"), "--t-min=nan must be finite"),
        (("table", "--t-count", "1"), "--t-count=1 must be >= 2"),
        (("verify", "--suite", "qk-theorem", "--t-max", "inf"), "--t-max=inf must be finite"),
        (("verify", "--suite", "qk-theorem", "--t-points", "1"), "--t-points=1 must be >= 2"),
    ])
    def test_t_range_is_checked_before_anything_is_evaluated(self, argv, message, capsys, monkeypatch):
        # no numpy warning from a grid past the floats, and no threshold search for a grid that is refused
        def no_call(*args, **kwargs):
            raise AssertionError("evaluated before the t range was checked")
        monkeypatch.setattr(cli, "evaluate", no_call)
        monkeypatch.setattr(inequalities, "_thresholds", no_call)
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: DomainError: {message}\n"

    def test_bad_grid_exit_2(self):
        proc = run_cli(
            "table", "--family", "qk", "--q", "0.5", "--fn", "psi",
            "--t-min", "3", "--t-max", "1", "--t-count", "5",
        )
        assert proc.returncode == 2


class TestPQSums:
    ARGS = ("eval", "--family", "pq", "--p", "100000000", "--q", "0.5", "--t", "1")

    def test_sum_stops_at_underflow(self):
        proc = run_cli(*self.ARGS)
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["value"] == -0.42052903435604583
        assert result["terms_used"] <= 1100

    def test_n_max_caps_nonzero_terms(self):
        # past its 1,074 nonzero terms the sum takes the lattice: 8 closed-form head terms, the integral,
        # the half end term and 11 Bernoulli corrections, 21 in all
        proc = run_cli(*self.ARGS, "--n-max", "20")
        assert proc.returncode == 3
        assert "TruncationNotConverged" in proc.stderr
        proc = run_cli(*self.ARGS, "--n-max", "21")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["value"] == -0.42052903435604583

    def test_value_past_the_floats_exits_3_with_one_error_line(self):
        # psi' near 1 / t^2: the lattice's terms sum to inf, scaled or not, refused without a numpy warning
        proc = run_cli("eval", "--family", "pq", "--p", str(10**200), "--q", "0.5", "--t", "1e-160",
                       "--fn", "psi-prime")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: TruncationNotConverged: Euler-Maclaurin value overflows double precision")
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("fn", ["psi", "psi-prime", "ln-gamma"])
    def test_p_past_the_largest_float(self, fn):
        # p = 10^309 once ended in an OverflowError traceback; q^n is 0.0 past n = 1074, so the value is
        # that of p = 10^8 to the bit
        values = []
        for p in (10**309, 10**8):
            proc = run_cli("eval", "--family", "pq", "--p", str(p), "--q", "0.5", "--t", "1", "--fn", fn)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            values.append(json.loads(proc.stdout)["result"])
        assert values[0] == values[1]

    def test_remark_3_5_with_p_past_the_largest_float(self):
        # p ln q once overflowed in the rate bound: an OverflowError traceback and exit 1, the violation code
        proc = run_cli("limits", "--remark", "3.5", "--q", "0.5", "--t", "1", "--p-list", f"1,{10**309}", "--json")
        assert proc.stderr == ""
        report = json.loads(proc.stdout)["report"]
        assert proc.returncode == (0 if report["passed"] else 1) == 0
        assert report["sequence"][-1][0] == sys.float_info.max and report["cert_bounds"][-1] == 0.0

    def test_remark_3_4_with_p_past_the_largest_float_is_refused(self):
        # the p-digamma target summed p + 1 terms one by one and never ended; past the fixed cap
        # DEFAULT_TOL.n_max it is refused before summing, whatever --n-max is
        for extra in ((), ("--n-max", "1000")):
            proc = run_cli("limits", "--remark", "3.4", "--p", str(10**309), "--t", "1", "--j-max", "3", *extra)
            assert proc.returncode == 3 and proc.stdout == ""
            assert proc.stderr.startswith("error: TruncationNotConverged: the p-digamma sum needs 1")


# Each ended in a traceback or wrote a numpy RuntimeWarning to stderr: a count whose abs_tol / coeff
# overflows, and batch rows that sum no terms (t ln q near -1e308) beside rows that do.  The tables
# are json, as csv echoes its config to stderr.
QUIET = [
    ("eval", "--family", "qk", "--q", "0.999999999", "--k", "1", "--t", "1000", "--fn", "psi-prime",
     "--abs-tol", "1.7e308"),
    ("table", "--family", "pq", "--p", "20", "--q", "0.5", "--fn", "psi", "--t-min", "1", "--t-max", "1e308",
     "--t-count", "2", "--format", "json"),
    ("table", "--family", "pq", "--p", "2", "--q", "1e-6", "--fn", "ln-gamma", "--t-min", "1",
     "--t-max", "1e308", "--t-count", "2", "--format", "json"),
]


@pytest.mark.parametrize("args", QUIET, ids=" ".join)
def test_exits_0_with_empty_stderr(args):
    proc = run_cli(*args)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


class TestVerifyOutput:
    def test_json_document_schema(self):
        proc = run_cli(
            "verify", "--suite", "pq-theorem", "--specs", "4", "--t-points", "5",
            "--seed", "11", "--json",
        )
        doc = json.loads(proc.stdout)
        report = doc["report"]
        assert report["schema_version"] == "1"
        assert report["passed"] is True
        assert report["checks_run"] == 4 * 5 * 2
        assert report["worst_violation"] >= -report["epsilon"]
        assert doc["config"]["seed"] == 11

    def test_lemma_cross_suite(self):
        proc = run_cli(
            "verify", "--suite", "lemma-cross", "--family", "pq",
            "--specs", "4", "--t-points", "5", "--seed", "2",
        )
        assert proc.returncode == 0


class TestLimitsOutput:
    def test_remark_31_json(self):
        proc = run_cli("limits", "--remark", "3.1", "--t", "2", "--q", "0.5", "--json")
        doc = json.loads(proc.stdout)
        assert doc["report"]["ok"] is True

    def test_remark_31_out_of_reach_writes_a_short_error(self):
        # the direct count at t = 1e-300 has about 300 digits; it is written like the tail, as %.3e
        proc = run_cli("limits", "--remark", "3.1", "--t", "1e-300")
        assert proc.returncode == 3 and len(proc.stderr.encode()) < 200, proc.stderr
        assert "direct count 1.041e+303" in proc.stderr, proc.stderr

    @pytest.mark.parametrize("t", ["1e308", "1.7976931348623157e308"])
    def test_remark_31_at_huge_t_writes_nothing_to_stderr(self, t):
        proc = run_cli("limits", "--remark", "3.1", "--q", "0.5", "--t", t, "--json")
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert json.loads(proc.stdout)["report"]["ok"] is True

    def test_remark_35_passes_with_growing_first_gap(self):
        # the gap grows from p = 1 to p = 2, inside its certified bound
        proc = run_cli("limits", "--remark", "3.5", "--q", "0.7", "--t", "0.5", "--p-list", "1,2,5,10,20,30")
        assert proc.returncode == 0

    def test_remark_36_passes(self):
        proc = run_cli("limits", "--remark", "3.6", "--t", "1")
        assert proc.returncode == 0

    @pytest.mark.parametrize("argv", [
        # p = 10^3 sums its 1,000 terms directly; p = 10^4 and 10^5 take the lattice, about 50 terms
        ("--remark", "3.6", "--j-max", "5", "--n-max", "999"),
        # every point takes the lattice, at least 18 terms
        ("--remark", "3.4", "--p", "100000", "--j-max", "3", "--n-max", "10"),
    ])
    def test_pq_scans_honour_n_max(self, argv, capsys):
        assert main(["limits", *argv, "--json"]) == 1
        errors = json.loads(capsys.readouterr().out)["report"]["errors"]
        assert errors and all("series cap hit" in e for e in errors)


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 0.7, "t": 1.0, "fn": "psi"}))
        proc = run_cli("eval", "--family", "qk", "--k", "1", "--t", "2", "--config", str(cfg))
        doc = json.loads(proc.stdout)
        assert doc["config"]["q"] == 0.7  # from file
        assert doc["config"]["t"] == 2.0  # flag wins
        params = DeformParams.qk(0.7, 1.0)
        assert doc["result"]["value"] == psi_qk(2.0, params).value

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        proc = run_cli("eval", "--family", "qk", "--t", "1", "--config", str(cfg))
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv, data", [
        (["table"], {"q": "abc"}),  # not a number
        (["table"], {"q": "0.7"}),  # a number given as a string
        (["table"], {"t_count": "5"}),
        (["table"], {"fn": "gamma"}),  # not a choice
        (["verify", "--suite", "qk-theorem"], {"specs": 2.5}),  # not an integer
        (["verify", "--suite", "qk-theorem"], {"spec": 3}),  # a prefix of --specs, not its name
        (["verify", "--suite", "qk-theorem"], {"json": 1}),  # a switch takes true or false
    ])
    def test_config_values_take_the_flags_types_and_choices(self, argv, data, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main([*argv, "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""

    def test_config_switch_and_text_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"json": True, "p-list": "1,2,5", "remark": "3.1"}))
        assert main(["limits", "--remark", "3.5", "--config", str(cfg)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["remark"] == "3.5" and config["p_list"] == "1,2,5"

    @pytest.mark.parametrize("argv, data, key", [
        (["verify", "--specs", "2", "--t-points", "3", "--json"], {"suite": "qk-theorem"}, "suite"),
        (["limits", "--json"], {"remark": "3.1"}, "remark"),
        (["eval"], {"t": 1.5}, "t"),
    ])
    def test_config_supplies_a_required_flag(self, argv, data, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main([*argv, "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"][key] == data[key]

    @pytest.mark.parametrize("argv", [["verify"], ["limits"], ["eval"]])
    def test_required_flag_still_required(self, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 0.7}))
        assert main([*argv, "--config", str(cfg)]) == 2
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_missing_config_file_exit_2(self):
        proc = run_cli("eval", "--family", "qk", "--t", "1", "--config", "/nonexistent.json")
        assert proc.returncode == 2


class TestRoot:
    def test_threshold_output(self):
        proc = run_cli("root", "--family", "qk", "--q", "0.5", "--k", "1")
        doc = json.loads(proc.stdout)
        assert 1.0 < doc["result"]["threshold"] < 2.0
        assert doc["result"]["reason"] is None

    def test_no_positive_region_reported(self):
        proc = run_cli("root", "--family", "pq", "--p", "1", "--q", "0.5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["threshold"] is None
        assert "no-positive-region" in doc["result"]["reason"]
