"""CLI tests: every command against the shipped scenario, exit codes, output."""
from __future__ import annotations

import json
import math
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import freshopt.cli
from freshopt.cli import _build_parser, default_config_path, main
from freshopt.config import MAX_CONFIG_BYTES

OPTIMIZE_EXPECTED = """\
Q=71.111111
Q1=38.095238
Qq=33.015873
retailer_profit=497.142857
revenue=1920.000000
premium_cost=-148.571429
exercise_cost=-401.142857
wholesale_cost=-857.142857
shortage_cost=-16.000000
"""


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_carries_nothing_between_calls(capsys, tmp_path):
    # main builds its parser once per process; every call must still behave as the
    # same argv alone, after a fresh parser.
    target = tmp_path / "sweep.csv"
    sequence = [
        ("optimize", "--k", "2"),
        ("optimize",),
        ("sweep", "--mode", "fixed-premium", "--c0", "1"),
        ("sweep",),  # the mode of the config's sweep section
        ("optimize", "--no-such-flag"),
        ("sweep", "--mode", "fixed-contract", "--out", str(target)),
        ("optimize",),
    ]

    def outcome(argv, fresh):
        if fresh:
            _build_parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = target.read_text(encoding="utf-8") if target.exists() else None
        target.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    together = [outcome(argv, fresh=False) for argv in sequence]
    alone = [outcome(argv, fresh=True) for argv in reversed(sequence)][::-1]
    assert together == alone
    assert together[4][0] == 2 and together[4][2].startswith("usage: freshopt")
    assert "unrecognized arguments: --no-such-flag" in together[4][2]
    assert [code for code, *_ in together] == [0, 0, 0, 0, 2, 0, 0]


def test_default_config_is_the_packaged_scenario():
    path = default_config_path()
    assert path == Path(freshopt.cli.__file__).with_name("data") / "default_scenario.json"
    assert path.is_file()


class TestOptimize:
    def test_reference_output(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--c0", "5", "--ce", "35", "--k", "1")
        assert code == 0
        assert out == OPTIMIZE_EXPECTED

    def test_defaults_from_config(self, capsys):
        code, out, _ = run_cli(capsys, "optimize")
        assert code == 0
        assert out == OPTIMIZE_EXPECTED  # config carries the same contract and k

    def test_infeasible_contract_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--c0", "40", "--ce", "35")
        assert code == 1
        assert out == ""
        assert "infeasible" in err

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(capsys, "optimize", "--k", "1.1")
        _, second, _ = run_cli(capsys, "optimize", "--k", "1.1")
        assert first == second


class TestEvaluate:
    def test_profits_at_given_plan(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "--q1", "38.095238095238095",
                               "--qq", "33.015873015873016")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert lines["retailer_profit_believed"] == "497.142857"
        assert lines["retailer_profit_true"] == "497.142857"
        assert lines["supplier_profit"] == "340.190476"
        assert lines["chain_profit"] == "837.333333"

    def test_requires_plan_flags(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--q1", "10.0"])
        assert err.value.code == 2


class TestCoordinate:
    def test_premium(self, capsys):
        code, out, err = run_cli(capsys, "coordinate", "--ce", "35", "--k", "1")
        assert code == 0
        assert out == "c0=6.944444\n"
        assert err == ""

    def test_exercise_price(self, capsys):
        code, out, _ = run_cli(capsys, "coordinate", "--solve-exercise", "--c0", "5",
                               "--k", "1")
        assert code == 0
        assert out == "ce=42.000000\n"

    def test_premium_with_unusable_plan_warns(self, capsys):
        code, out, err = run_cli(capsys, "coordinate", "--ce", "35", "--k", "1.4")
        assert code == 0
        assert out == "c0=12.103175\n"
        assert "negative-option-quantity" in err

    def test_clamp_warning_is_one_path_free_line_on_every_call(self, capsys):
        # c = 0 clamps the centralized fractile; a repeated call warns again, and the same way.
        argv = ("--config", str(GOLDEN / "zero-cost.json"), "coordinate")
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == second
        assert first[2] == ("warning: centralized fractile 1.0 clamped to 0.999999999999 "
                            "before quantile evaluation\n")

    def test_singular_k_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "coordinate", "--solve-exercise", "--c0", "5",
                                 "--k", "0.72")
        assert code == 1
        assert "infeasible" in err

    def test_unsolvable_identity_names_the_fractile(self, capsys):
        code, out, err = run_cli(capsys, "coordinate", "--k", "1e17")
        assert (code, out) == (1, "")
        assert err == ("infeasible: coordination identity failed: total fractile 0.0 "
                       "of the solved contract is outside (0, 1)\n")

    def test_tiny_premium_has_no_root(self, capsys):
        # 1 - c0/(p+g) rounds to 1 here; the k floor comes from the upper tail at c0/(p+g).
        code, out, err = run_cli(capsys, "--config", str(GOLDEN / "uniform.json"), "coordinate",
                                 "--solve-exercise", "--c0", "1e-20", "--k", "0.5")
        assert (code, out) == (1, "")
        assert err == ("infeasible: no coordinating exercise price in (0, 68) at k=0.5: "
                       "coordination at this premium requires k > 0.785539\n")


class TestSimulate:
    def test_retailer_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--kind", "retailer",
                               "--n", "1000000", "--seed", "42")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert lines["kind"] == "retailer"
        assert lines["n"] == "1000000"
        assert lines["seed"] == "42"
        assert lines["analytic"] == "497.142857"
        assert float(lines["sigma_distance"]) < 3.0

    def test_failed_check_exits_one(self, capsys):
        # Two draws cannot bring the mean near the analytic value.
        code, out, err = run_cli(capsys, "simulate", "--kind", "retailer", "--n", "2",
                                 "--seed", "11")
        assert code == 1
        assert "sigma_distance=29.890931\n" in out
        assert err == "simulation check failed: |mc-analytic| = 29.89 standard errors\n"

    @pytest.mark.parametrize("kind", ["supplier", "chain"])
    def test_other_kinds(self, capsys, kind):
        code, out, _ = run_cli(capsys, "simulate", "--kind", kind,
                               "--n", "100000", "--seed", "7")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert float(lines["sigma_distance"]) < 4.0

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "simulate", "--kind", "chain", "--n", "50000",
                              "--seed", "3")
        _, second, _ = run_cli(capsys, "simulate", "--kind", "chain", "--n", "50000",
                               "--seed", "3")
        assert first == second

    def test_profits_spread_past_a_double_squared(self, capsys):
        # At k = 1e150 the profits are finite, about 5e152, but their squared
        # deviations overflow; the estimate must still come out finite.
        argv = ("simulate", "--kind", "retailer", "--n", "1000")
        code, out, err = run_cli(capsys, *argv, "--k", "1e150")
        assert (code, err) == (0, "")
        lines = dict(line.split("=", 1) for line in out.splitlines())
        for key in ("analytic", "mc_mean", "mc_stderr", "sigma_distance"):
            assert math.isfinite(float(lines[key]))
        assert float(lines["mc_stderr"]) > 0.0
        # Scaling every profit by 1e10 leaves the distance in standard errors as it was.
        _, smaller, _ = run_cli(capsys, *argv, "--k", "1e140")
        assert f"sigma_distance={lines['sigma_distance']}" in smaller.splitlines()

    def test_explicit_plan(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--kind", "supplier", "--n", "50000",
                               "--seed", "9", "--q1", "30", "--qq", "20")
        assert code == 0
        assert "analytic=" in out


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "sweep")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("k,c0,ce,q_total")
        assert len(lines) == 16  # header + configured grid 0.8..1.5 step 0.05
        assert "monotonicity:" in err

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--mode", "fixed-premium",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 77  # header + default fine grid 0.75..1.5 step 0.01
        assert lines[0].split(",")[:3] == ["k", "c0", "ce"]

    def test_fixed_contract_mode(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--mode", "fixed-contract")
        assert code == 0
        body = out.splitlines()[1:]
        assert all(line.split(",")[1] == "5.000000" for line in body)

    def test_tiny_premium_flags_rows_with_no_root(self, capsys):
        code, out, err = run_cli(capsys, "--config", str(GOLDEN / "uniform.json"), "sweep",
                                 "--mode", "fixed-premium", "--c0", "1e-20")
        assert code == 0
        body = out.splitlines()[1:]
        assert len(body) == 76
        assert all(line.split(",")[10] == "false" for line in body)
        assert body[0] == ('0.750000,0.000000,,,,,,,,,false,"NoRoot: no coordinating exercise '
                           'price in (0, 68) at k=0.75: coordination at this premium requires '
                           'k > 0.785539"')
        assert all("NoRoot: " in line for line in body)
        assert err == ("monotonicity: skipped (monotonicity needs at least 3 feasible rows, "
                       "got 0)\n")

    @pytest.mark.parametrize("argv,message", [
        ((), "no sweep mode: provide --mode or a sweep section in the config"),
        (("--mode", "fixed-exercise-price"),
         "fixed-exercise-price sweep needs --ce, sweep.ce, or a contract"),
        (("--mode", "fixed-premium"), "fixed-premium sweep needs --c0, sweep.c0, or a contract"),
        (("--mode", "fixed-contract"),
         "no option contract available: provide --c0/--ce or a contract section in the config"),
    ], ids=["no-mode", "fixed-exercise-price", "fixed-premium", "fixed-contract"])
    def test_config_without_sweep_or_contract_needs_flags(self, capsys, tmp_path, argv, message):
        raw = json.loads(default_config_path().read_text(encoding="utf-8"))
        del raw["sweep"], raw["contract"]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(path), "sweep", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (("--mode", "fixed-exercise-price", "--ce", "-1"), "ce must be finite and > 0, got -1.0"),
        (("--mode", "fixed-premium", "--c0", "nan"), "c0 must be finite and > 0, got nan"),
    ])
    def test_non_positive_fixed_price_exits_two(self, capsys, argv, message):
        assert run_cli(capsys, "sweep", *argv) == (2, "", f"error: {message}\n")

    def test_k_flag_rejected(self, capsys):
        # A sweep walks its k grid, so a single --k would be silently ignored.
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--k", "1.2"])
        assert err.value.code == 2


class TestErrorPaths:
    def test_missing_config_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "--config", "/no/such/file.json", "optimize")
        assert code == 2
        assert "not found" in err

    def test_config_directory_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--config", str(tmp_path), "optimize")
        assert code == 2
        assert err == f"error: configuration path is a directory: {tmp_path}\n"

    def test_config_fifo_exits_two_without_reading(self, tmp_path):
        # open() on a FIFO waits for a writer, so the CLI runs in its own process under a
        # timeout: a hang fails this test instead of stalling the suite.
        path = tmp_path / "scenario.fifo"
        os.mkfifo(path)
        src = str(Path(freshopt.cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "freshopt.cli", "--config", str(path),
                                 "optimize"], env=env, capture_output=True, text=True, timeout=30)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: cannot read configuration file {path}: not a regular file\n"

    @pytest.mark.parametrize("kind", ["device", "socket"])
    def test_config_not_a_regular_file_exits_two(self, capsys, tmp_path, kind):
        path = Path("/dev/null")
        if kind == "socket":
            path = tmp_path / "scenario.sock"
            server = socket.socket(socket.AF_UNIX)
            server.bind(str(path))
            server.close()
        code, out, err = run_cli(capsys, "--config", str(path), "optimize")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read configuration file {path}: not a regular file\n"

    def test_config_symlink_loop_exits_two(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.symlink_to(path)
        code, out, err = run_cli(capsys, "--config", str(path), "optimize")
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read configuration file {path}: "
                       "Too many levels of symbolic links\n")

    def test_config_name_too_long_exits_two(self, capsys, tmp_path):
        path = tmp_path / ("x" * 300)
        code, out, err = run_cli(capsys, "--config", str(path), "optimize")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read configuration file {path}: File name too long\n"

    def test_non_utf8_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(default_config_path().read_bytes() + b"\xff")
        code, out, err = run_cli(capsys, "--config", str(path), "optimize")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")

    def test_config_over_the_bound_exits_two(self, capsys, tmp_path):
        data = default_config_path().read_bytes()
        path = tmp_path / "padded.json"
        path.write_bytes(data + b" " * (MAX_CONFIG_BYTES - len(data)))
        assert run_cli(capsys, "--config", str(path), "optimize")[:2] == (0, OPTIMIZE_EXPECTED)
        path.write_bytes(data + b" " * (MAX_CONFIG_BYTES + 1 - len(data)))
        code, out, err = run_cli(capsys, "--config", str(path), "optimize")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: larger than {MAX_CONFIG_BYTES} bytes\n"

    @pytest.mark.parametrize("target,reason", [(".", "Is a directory"),
                                               ("missing/sweep.csv", "No such file or directory")],
                             ids=["directory", "missing-directory"])
    def test_unwritable_sweep_out_exits_two(self, capsys, tmp_path, target, reason):
        path = tmp_path / target
        code, out, err = run_cli(capsys, "sweep", "--mode", "fixed-contract", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write --out {path}: {reason}\n"
        assert "Traceback" not in err

    def test_invalid_config_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        raw = json.loads(default_config_path().read_text(encoding="utf-8"))
        raw["market"]["beta"] = 1.0
        bad.write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run_cli(capsys, "--config", str(bad), "optimize")
        assert code == 2
        assert "market.beta" in err

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run_cli(capsys, "--config", str(bad), "optimize")
        assert code == 2

    def test_integer_past_digit_limit_exits_two(self, capsys, tmp_path):
        # Written as text: json.dumps refuses the integer for the same reason json.loads does.
        text = default_config_path().read_text(encoding="utf-8")
        huge = tmp_path / "huge.json"
        huge.write_text(text.replace('"p": 50.0', '"p": 1' + "0" * 5000), encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(huge), "optimize")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {huge}: ")

    def test_deeply_nested_config_exits_two(self, capsys, tmp_path):
        text = default_config_path().read_text(encoding="utf-8")
        nested = tmp_path / "nested.json"
        nested.write_text(text.replace('"comment": ', '"comment": ' + "[" * 100_000, 1),
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(nested), "optimize")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {nested}: ")

    @pytest.mark.parametrize("k", ["1e305", "1e306", "1e308"])
    def test_overflowing_k_exits_one(self, capsys, k):
        code, out, err = run_cli(capsys, "optimize", "--k", k)
        assert code == 1
        assert out == ""
        assert err.startswith("infeasible: ") and "overflows double precision" in err

    @pytest.mark.parametrize("mu", [-30.0, -60.0])
    def test_strongly_negative_truncated_normal_mean(self, capsys, tmp_path, mu):
        # Phi(mu/sigma) is about 5e-198 at mu = -30 and underflows to 0 at mu = -60.
        raw = json.loads(default_config_path().read_text(encoding="utf-8"))
        raw["demand"] = {"family": "truncated-normal", "params": {"mu": mu, "sigma": 1.0}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run_cli(capsys, "--config", str(path), "optimize")
        if mu == -30.0:
            assert code == 0
            values = [float(line.split("=", 1)[1]) for line in out.splitlines()]
            assert all(math.isfinite(v) for v in values) and values[0] > 0.0
        else:
            assert code == 2
            assert out == ""
            assert "demand.params.mu: must leave demand mass above 0" in err

    def test_no_contract_available_exits_two(self, capsys, tmp_path):
        raw = json.loads(default_config_path().read_text(encoding="utf-8"))
        del raw["contract"]
        del raw["sweep"]
        stripped = tmp_path / "nocontract.json"
        stripped.write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run_cli(capsys, "--config", str(stripped), "optimize")
        assert code == 2
        assert "contract" in err

    @pytest.mark.parametrize("flags,message", [
        (("--n", "0"), "sample count must be >= 1"),
        (("--n", "-3"), "sample count must be >= 1"),
        (("--seed", "-1"), "seed must be >= 0"),
        (("--n", "1000000001"), "sample count must be <= 1000000000, got 1000000001"),
        (("--n", "0", "--seed", "-1"), "error: sample count must be >= 1 and an integer, got 0; "
                                       "seed must be >= 0 and an integer, got -1\n"),
    ])
    def test_bad_sample_count_or_seed_exits_two(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "simulate", "--kind", "retailer", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_draws_checked_before_the_contract_is_priced(self, capsys):
        # c0=40, ce=35 leaves no optimal plan (exit 1), but the bad draw count comes first.
        argv = ("simulate", "--kind", "retailer", "--c0", "40", "--ce", "35")
        assert run_cli(capsys, *argv)[0] == 1
        assert run_cli(capsys, *argv, "--n", "0") == (
            2, "", "error: sample count must be >= 1 and an integer, got 0\n")

    def test_evaluate_names_both_bad_quantities(self, capsys):
        assert run_cli(capsys, "evaluate", "--q1", "-1", "--qq", "nan") == (
            2, "", "error: q_spot must be finite and >= 0, got -1.0; "
                   "q_option must be finite and >= 0, got nan\n")

    def test_negative_config_seed_exits_two(self, capsys, tmp_path):
        raw = json.loads(default_config_path().read_text(encoding="utf-8"))
        raw["oracle"]["seed"] = -1
        bad = tmp_path / "seed.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run_cli(capsys, "--config", str(bad), "simulate", "--kind", "chain")
        assert code == 2
        assert "oracle.seed" in err


# Out-of-domain values that once exited 0 or 1, or escaped as a traceback.
OUT_OF_DOMAIN = [
    ({}, ("optimize", "--k", "nan")),
    ({}, ("optimize", "--k", "inf")),
    ({}, ("coordinate", "--ce", "nan")),
    ({}, ("coordinate", "--solve-exercise", "--c0", "nan")),
    ({}, ("evaluate", "--q1", "inf", "--qq", "1")),
    ({("market", "p"): math.inf}, ("optimize",)),
    ({("market", "g"): math.inf}, ("optimize",)),
    ({("contract", "c0"): math.inf}, ("optimize",)),
    ({("contract", "ce"): math.nan}, ("optimize",)),
    ({("overconfidence",): math.inf}, ("optimize",)),
    ({("overconfidence",): math.nan}, ("optimize",)),
    ({("oracle", "grid_step"): math.nan}, ("optimize",)),
    ({("oracle", "samples"): 1_000_000_001}, ("simulate", "--kind", "chain")),
    ({("sweep",): {"mode": "fixed-premium", "c0": math.nan}}, ("optimize",)),
    ({("sweep", "k_grid"): [math.nan]}, ("optimize",)),
    ({("sweep", "k_grid"): {"start": 1.0, "stop": math.inf, "step": 0.1}}, ("optimize",)),
    ({("sweep", "k_grid"): {"start": 1.0, "stop": 2.0, "step": 1e-6}}, ("optimize",)),
    ({("market", "p"): 10**400}, ("optimize",)),
    ({("demand", "family"): ["uniform"]}, ("optimize",)),
]


@pytest.mark.parametrize("overrides,argv", OUT_OF_DOMAIN,
                         ids=[" ".join(argv) + "".join(f" {'.'.join(p)}={v!r:.50}" for p, v in o.items())
                              for o, argv in OUT_OF_DOMAIN])
def test_out_of_domain_value_exits_two(capsys, tmp_path, overrides, argv):
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    for (*parents, key), value in overrides.items():
        section = raw
        for name in parents:
            section = section[name]
        section[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
