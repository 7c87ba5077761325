import json
from unittest.mock import Mock

import pytest

from swiptsched import (
    OrderPolicy,
    calibration,
    cli,
    load_config,
    make_order_scheduler,
    place_users,
    read_csv,
    run,
    seeds,
)
from swiptsched.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(
        "n_users = 4\n"
        "tx_power_dbm = 40\n"
        "noise_power_per_user_dbm = -62\n"
        "rf_dc_efficiency_per_user = 0.5\n"
        "n_slots = 20000\n"
        "seed = 19\n"
    )
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestRunCommand:
    def test_greedy_equivalence_with_order_baseline(self, config_file, tmp_path, capsys):
        mt_out = tmp_path / "mt.csv"
        base_out = tmp_path / "base.csv"
        assert run_cli(
            "run", "--config", config_file, "--scheme", "mt", "--q-req", "0",
            "--mc-slots", "5000", "--out", str(mt_out),
        ) == EXIT_OK
        assert run_cli(
            "run", "--config", config_file, "--scheme", "order-mt", "--j", "1",
            "--out", str(base_out),
        ) == EXIT_OK
        mt_row = read_csv(mt_out)[0]
        base_row = read_csv(base_out)[0]
        assert mt_row["avg_sum_rate_bpcu"] == base_row["avg_sum_rate_bpcu"]
        assert mt_row["avg_sum_harvest_watts"] == base_row["avg_sum_harvest_watts"]

    def test_missing_config_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli(
            "run", "--config", str(tmp_path / "absent.cfg"), "--scheme", "mt",
            "--out", str(out),
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--scheme", "order-mt", "--j", "9"], "non-empty subset of [1, 4]"),
        (["--scheme", "order-et", "--orders", "1,x"], "cannot parse --orders value"),
        (["--scheme", "order-et", "--orders", "0,1"], "non-empty subset of [1, 4]"),
        (["--scheme", "order-et", "--orders", ""], "cannot parse --orders value ''"),
        (["--scheme", "order-mt", "--orders", "2,3"], "--orders applies to order-et only"),
        (["--scheme", "mt", "--orders", "1"], "--orders applies to order-et only"),
    ], ids=["j=9", "orders=1,x", "orders=0,1", "orders empty", "order-mt orders", "mt orders"])
    def test_bad_order_is_config_error(self, argv, message, config_file, capsys):
        code = run_cli("run", "--config", config_file, *argv)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_order_et_run_matches_library_run(self, config_file, tmp_path, capsys):
        out = tmp_path / "order_et.csv"
        assert run_cli("run", "--config", config_file, "--scheme", "order-et", "--orders", "1,2",
                       "--out", str(out)) == EXIT_OK
        config = load_config(config_file)
        profiles = place_users(config, seeds.substream(config.seed, seeds.PLACEMENT))
        policy = OrderPolicy("order-et", s_a=frozenset({1, 2}))
        stats = run(make_order_scheduler(policy, profiles), profiles, config, config.n_slots,
                    config.seed)
        row = read_csv(out)[0]
        assert row["scheme"] == "order-et[orders=1,2]"
        assert row["avg_sum_rate_bpcu"] == stats.avg_sum_rate
        assert row["avg_sum_harvest_watts"] == stats.avg_sum_harvest
        assert row["jain_index"] == stats.jain_index
        for n in range(config.n_users):
            assert row[f"per_user_rate_{n}"] == stats.per_user_rate[n]
            assert row[f"access_freq_{n}"] == stats.access_freq[n]

    def test_order_et_single_rank_equals_order_pf(self, config_file, tmp_path, capsys):
        rows = []
        for scheme in ("order-et", "order-pf"):
            out = tmp_path / f"{scheme}.csv"
            assert run_cli("run", "--config", config_file, "--scheme", scheme, "--j", "3",
                           "--out", str(out)) == EXIT_OK
            rows.append(read_csv(out)[0])
        assert [row.pop("scheme") for row in rows] == ["order-et[orders=3]", "order-pf[j=3]"]
        assert rows[0] == rows[1]

    def test_negative_target_is_config_error(self, config_file, capsys):
        code = run_cli(
            "run", "--config", config_file, "--scheme", "mt", "--q-req=-1e-6",
            "--mc-slots", "5000",
        )
        assert code == EXIT_CONFIG

    def test_order_et_sweep_labels(self, config_file, tmp_path, capsys):
        out = tmp_path / "et_orders.csv"
        assert run_cli(
            "sweep", "--config", config_file, "--scheme", "order-et",
            "--slots", "3000", "--out", str(out),
        ) == EXIT_OK
        rows = read_csv(out)
        assert [row["scheme"] for row in rows] == [
            f"order-et[orders={j}]" for j in range(1, 5)
        ]

    def test_jsonl_output(self, config_file, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert run_cli(
            "run", "--config", config_file, "--scheme", "order-pf", "--j", "2",
            "--format", "jsonl", "--out", str(out),
        ) == EXIT_OK
        record = json.loads(out.read_text().splitlines()[0])
        assert record["scheme"] == "order-pf[j=2]"
        assert record["feasible_flag"] == 1

    def test_bps_rate_unit(self, config_file, tmp_path, capsys):
        a = tmp_path / "bpcu.csv"
        b = tmp_path / "bps.csv"
        for out, unit in ((a, "bpcu"), (b, "bps")):
            assert run_cli(
                "run", "--config", config_file, "--scheme", "order-mt", "--j", "1",
                "--rate-unit", unit, "--out", str(out),
            ) == EXIT_OK
        rate_bpcu = read_csv(a)[0]["avg_sum_rate_bpcu"]
        rate_bps = read_csv(b)[0]["avg_sum_rate_bps"]
        assert rate_bps == pytest.approx(rate_bpcu * 200e3, rel=1e-12)


class TestCalibrateCommand:
    def test_calibrate_then_run_with_saved_duals(self, config_file, tmp_path, capsys):
        duals_path = tmp_path / "pf.json"
        assert run_cli(
            "calibrate", "--config", config_file, "--scheme", "pf", "--q-req", "0",
            "--mc-slots", "20000", "--out", str(duals_path),
        ) == EXIT_OK
        record = json.loads(duals_path.read_text())
        assert record["scheme"] == "pf"
        assert len(record["gamma"]) == 4
        out = tmp_path / "pf_run.csv"
        assert run_cli(
            "run", "--config", config_file, "--scheme", "pf",
            "--duals", str(duals_path), "--out", str(out),
        ) == EXIT_OK
        row = read_csv(out)[0]
        freqs = [row[f"access_freq_{n}"] for n in range(4)]
        assert all(abs(f - 0.25) < 0.02 for f in freqs)

    def test_scheme_mismatch_rejected(self, config_file, tmp_path, capsys):
        duals_path = tmp_path / "mt.json"
        assert run_cli(
            "calibrate", "--config", config_file, "--scheme", "mt", "--q-req", "0",
            "--mc-slots", "5000", "--out", str(duals_path),
        ) == EXIT_OK
        code = run_cli(
            "run", "--config", config_file, "--scheme", "pf", "--duals", str(duals_path)
        )
        assert code == EXIT_CONFIG

    def test_duals_without_scheme_is_config_error(self, config_file, tmp_path, capsys):
        duals_path = tmp_path / "pf.json"
        duals_path.write_text(json.dumps({"nu": 0.0, "gamma": [0.0] * 4}))
        code = run_cli(
            "run", "--config", config_file, "--scheme", "pf", "--duals", str(duals_path)
        )
        assert code == EXIT_CONFIG
        assert "scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"scheme": "mt", "nu": float("inf")},
        {"scheme": "pf", "nu": 0.0, "gamma": [0.0, float("nan"), 0.0, 0.0]},
        {"scheme": "pf", "nu": 0.0, "gamma": [[0.0] * 4]},
        {"scheme": "et", "nu": 0.0, "theta": [0.25, float("inf"), 0.25, 0.25]},
    ], ids=["nu_inf", "gamma_nan", "gamma_2d", "theta_inf"])
    def test_unusable_multiplier_is_config_error(self, record, config_file, tmp_path, capsys):
        duals_path = tmp_path / "duals.json"
        duals_path.write_text(json.dumps(record))
        code = run_cli(
            "run", "--config", config_file, "--scheme", record["scheme"],
            "--duals", str(duals_path),
        )
        assert code == EXIT_CONFIG
        assert str(duals_path) in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["pf", "et"])
    def test_multiplier_length_mismatch_rejected(self, scheme, config_file, tmp_path, capsys):
        duals_path = tmp_path / f"{scheme}.json"
        assert run_cli(
            "calibrate", "--config", config_file, "--scheme", scheme, "--q-req", "0",
            "--mc-slots", "5000", "--out", str(duals_path),
        ) == EXIT_OK
        code = run_cli(
            "run", "--config", config_file, "--scheme", scheme, "--users", "3",
            "--duals", str(duals_path),
        )
        assert code == EXIT_CONFIG
        assert "multipliers" in capsys.readouterr().err

    def test_slots_flag_is_not_a_calibrate_flag(self, config_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("calibrate", "--config", config_file, "--scheme", "mt", "--q-req", "0",
                    "--slots", "10", "--out", str(tmp_path / "mt.json"))
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "mt.json").exists()

    def test_infeasible_exit_code(self, config_file, tmp_path, capsys):
        out = tmp_path / "unused_duals.json"
        code = run_cli(
            "calibrate", "--config", config_file, "--scheme", "mt", "--q-req", "1.0",
            "--mc-slots", "5000", "--out", str(out),
        )
        assert code == EXIT_INFEASIBLE
        assert not out.exists()

    def test_non_convergence_exit_code(self, config_file, tmp_path, capsys):
        out = tmp_path / "unused_duals.json"
        code = run_cli(
            "calibrate", "--config", config_file, "--scheme", "pf", "--q-req", "0",
            "--mc-slots", "5000", "--max-iters", "2", "--out", str(out),
        )
        assert code == EXIT_NO_CONVERGENCE
        assert not out.exists()

    def test_mt_pass_budget_exit_code(self, config_file, tmp_path, capsys):
        # a binding target: the price search takes more passes than --max-iters
        out = tmp_path / "unused_duals.json"
        code = run_cli(
            "calibrate", "--config", config_file, "--scheme", "mt", "--q-req", "5e-5",
            "--mc-slots", "5000", "--max-iters", "1", "--out", str(out),
        )
        assert code == EXIT_NO_CONVERGENCE
        assert "price search took" in capsys.readouterr().err
        assert not out.exists()


class TestZeroEfficiency:
    """With every RF-DC efficiency 0 the achievable harvest is 0 W, not a fallback 1 W."""

    @pytest.fixture()
    def zero_config(self, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text("n_users = 3\nrf_dc_efficiency_per_user = 0\nn_slots = 2000\nseed = 5\n")
        return str(path)

    @pytest.mark.parametrize("scheme", ["mt", "pf", "et"])
    @pytest.mark.parametrize("q_req", ["0.5", "0.003"])
    def test_positive_target_infeasible(self, zero_config, scheme, q_req, tmp_path, capsys):
        out = tmp_path / "duals.json"
        assert run_cli(
            "calibrate", "--config", zero_config, "--scheme", scheme, "--q-req", q_req,
            "--mc-slots", "2000", "--out", str(out),
        ) == EXIT_INFEASIBLE
        assert "achievable maximum 0 W" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["mt", "pf", "et"])
    def test_zero_target_calibrates_to_zero_price(self, zero_config, scheme, tmp_path):
        out = tmp_path / "duals.json"
        assert run_cli(
            "calibrate", "--config", zero_config, "--scheme", scheme, "--q-req", "0",
            "--mc-slots", "2000", "--out", str(out),
        ) == EXIT_OK
        residuals = json.loads(out.read_text())["residuals"]
        assert residuals["tol_energy"] == 0.0  # 0.005 of the true maximum, 0 W
        assert residuals["energy_gap"] == 0.0 and json.loads(out.read_text())["nu"] == 0.0

    def test_auto_grid_tops_out_at_zero(self, zero_config, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--config", zero_config, "--scheme", "mt", "--grid", "0:auto:3",
            "--mc-slots", "2000", "--slots", "2000", "--out", str(out),
        ) == EXIT_OK
        rows = read_csv(out)
        assert [row["q_req_watts"] for row in rows] == [0.0, 0.0, 0.0]
        assert all(row["avg_sum_harvest_watts"] == 0.0 for row in rows)


class TestZeroCapacity:
    """At path-loss exponent 40 every capacity rounds to 0: at price 0 no pass can move
    the selection, so PF and ET stop after their first pass instead of at max_iters."""

    @pytest.mark.parametrize("scheme, gap", [("pf", "access gap 0.6667"),
                                             ("et", "rate spread inf")])
    def test_fair_schemes_stop_after_one_pass(self, scheme, gap, tmp_path, capsys):
        config = tmp_path / "far.cfg"
        config.write_text("n_users = 3\nseed = 4\npath_loss_exponent = 40\n")
        assert run_cli(
            "run", "--config", str(config), "--scheme", scheme, "--q-req", "0",
            "--mc-slots", "2000", "--out", str(tmp_path / "run.csv"),
        ) == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert f"did not converge in 1 iterations ({gap}, " in err
        assert "every pool capacity is 0, so at price 0 no pass can change the selection" in err
        assert not (tmp_path / "run.csv").exists()


class TestSavedDualsBinding:
    @staticmethod
    def write_config(tmp_path, name, tx_power_dbm, seed):
        path = tmp_path / name
        path.write_text(f"n_users = 4\ntx_power_dbm = {tx_power_dbm}\nn_slots = 5000\n"
                        f"seed = {seed}\n")
        return str(path)

    def calibrate_mt(self, tmp_path, config):
        duals_path = tmp_path / "mt.json"
        assert run_cli(
            "calibrate", "--config", config, "--scheme", "mt", "--q-req", "1e-4",
            "--mc-slots", "5000", "--out", str(duals_path),
        ) == EXIT_OK
        return duals_path

    def test_other_power_and_seed_rejected(self, tmp_path, capsys):
        duals_path = self.calibrate_mt(tmp_path, self.write_config(tmp_path, "a.cfg", 40, 11))
        out = tmp_path / "run.csv"
        code = run_cli(
            "run", "--config", self.write_config(tmp_path, "b.cfg", 30, 99), "--scheme", "mt",
            "--duals", str(duals_path), "--out", str(out),
        )
        assert code == EXIT_CONFIG
        assert "another system" in capsys.readouterr().err
        assert not out.exists()

    def test_matching_rerun_accepted(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "a.cfg", 40, 11)
        duals_path = self.calibrate_mt(tmp_path, config)
        out = tmp_path / "run.csv"
        assert run_cli(
            "run", "--config", config, "--scheme", "mt", "--duals", str(duals_path),
            "--out", str(out),
        ) == EXIT_OK
        assert read_csv(out)[0]["q_req_watts"] == 1e-4

    def test_missing_fingerprint_rejected(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "a.cfg", 40, 11)
        duals_path = self.calibrate_mt(tmp_path, config)
        record = json.loads(duals_path.read_text())
        del record["fingerprint"]
        duals_path.write_text(json.dumps(record))
        code = run_cli("run", "--config", config, "--scheme", "mt", "--duals", str(duals_path))
        assert code == EXIT_CONFIG


    @pytest.mark.parametrize("q_req", ["1e-4", [1e-4], float("nan"), -1.0, True],
                             ids=["string", "list", "nan", "negative", "bool"])
    def test_malformed_saved_target_exits_2_without_output(self, q_req, tmp_path, capsys):
        config = self.write_config(tmp_path, "a.cfg", 40, 11)
        duals_path = self.calibrate_mt(tmp_path, config)
        record = json.loads(duals_path.read_text())
        record["residuals"]["q_req"] = q_req
        duals_path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        code = run_cli("run", "--config", config, "--scheme", "mt", "--duals", str(duals_path),
                       "--out", str(out))
        assert code == EXIT_CONFIG
        assert "residuals.q_req" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, config_line",
        [
            (["calibrate", "--scheme", "mt", "--q-req", "nan"], ""),
            (["calibrate", "--scheme", "mt", "--q-req", "inf"], ""),
            (["sweep", "--scheme", "mt", "--grid", "0:inf:3"], ""),
            (["sweep", "--scheme", "mt", "--grid", "nan:auto:3"], ""),
            (["calibrate", "--scheme", "pf", "--q-req", "0", "--step-size", "nan"], ""),
            (["calibrate", "--scheme", "mt", "--q-req", "0", "--tol-energy", "nan"], ""),
            (["run", "--scheme", "order-mt"], "tx_power = NaN"),
            (["run", "--scheme", "order-mt"], "noise_power_per_user = 1e-9, Infinity"),
        ],
    )
    def test_exit_2_without_output(self, argv, config_line, tmp_path, capsys):
        config = tmp_path / "system.cfg"
        config.write_text(f"n_users = 2\nn_slots = 2000\nseed = 19\n{config_line}\n")
        out = tmp_path / "out.file"
        code = run_cli(*argv, "--config", str(config), "--mc-slots", "5000", "--out", str(out))
        assert code == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestIntegerConfigFields:
    @pytest.mark.parametrize("config_text, key", [
        ("n_users = 2.7\n", "n_users"),
        ('{"n_users": true, "seed": 2}', "n_users"),
        ('{"n_users": 2, "seed": 2.9}', "seed"),
    ])
    def test_non_integer_exits_2(self, config_text, key, tmp_path, capsys):
        config = tmp_path / "system.cfg"
        config.write_text(config_text)
        out = tmp_path / "out.csv"
        code = run_cli("run", "--config", str(config), "--scheme", "order-mt", "--slots", "2000",
                       "--out", str(out))
        assert code == EXIT_CONFIG
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_runs(self, tmp_path, capsys):
        config = tmp_path / "system.cfg"
        config.write_text("n_users = 2\nn_slots = 2e3\nseed = 5.0\n")
        out = tmp_path / "out.csv"
        assert run_cli("run", "--config", str(config), "--scheme", "order-mt",
                       "--out", str(out)) == EXIT_OK
        assert read_csv(out)[0]["n_users"] == 2


class TestScalarConfigFields:
    def test_comma_list_in_scalar_field_exits_2(self, tmp_path, capsys):
        config = tmp_path / "system.cfg"
        config.write_text("n_users = 3\nut_antenna_gain_dbi = 1, 2, 3\n")
        out = tmp_path / "out.csv"
        code = run_cli("run", "--config", str(config), "--scheme", "mt", "--mc-slots", "2000",
                       "--slots", "2000", "--out", str(out))
        assert code == EXIT_CONFIG
        assert "ut_antenna_gain_dbi must be a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["tx_power_dbm", "noise_power_per_user_dbm"])
    @pytest.mark.parametrize("value", ["true", '"-62"', "-62, true", '-62, "-62"'],
                             ids=["bool", "string", "list-bool", "list-string"])
    def test_non_number_dbm_exits_2(self, key, value, tmp_path, capsys):
        config = tmp_path / "system.cfg"
        config.write_text(f"n_users = 2\n{key} = {value}\n")
        out = tmp_path / "out.csv"
        code = run_cli("run", "--config", str(config), "--scheme", "order-mt", "--slots", "2000",
                       "--out", str(out))
        assert code == EXIT_CONFIG
        assert f"{key} must be a number" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, config_file, workers, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--config", config_file, "--scheme", "mt", "--grid", "0:1e-6:2",
            "--mc-slots", "5000", f"--workers={workers}", "--out", str(out),
        ) == EXIT_CONFIG
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_auto_grid_sweep(self, config_file, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--config", config_file, "--scheme", "mt", "--grid", "0:auto:4",
            "--mc-slots", "5000", "--slots", "5000", "--out", str(out),
        ) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(row["feasible_flag"] == 1 for row in rows)
        harvests = [row["avg_sum_harvest_watts"] for row in rows]
        assert harvests == sorted(harvests)

    def test_auto_grid_sweep_builds_one_pool(self, config_file, tmp_path, monkeypatch, capsys):
        # lo:auto's feasible range and every grid point's calibration share the pool
        pool_of = Mock(wraps=calibration._pool_of)
        monkeypatch.setattr(calibration, "_pool_of", pool_of)
        assert run_cli(
            "sweep", "--config", config_file, "--scheme", "pf", "--grid", "0:auto:3",
            "--mc-slots", "5000", "--slots", "2000", "--out", str(tmp_path / "curve.csv"),
        ) == EXIT_OK
        assert pool_of.call_count == 1

    def test_baseline_sweep_all_orders(self, config_file, tmp_path, capsys):
        out = tmp_path / "orders.csv"
        assert run_cli(
            "sweep", "--config", config_file, "--scheme", "order-mt",
            "--slots", "5000", "--out", str(out),
        ) == EXIT_OK
        rows = read_csv(out)
        assert [row["scheme"] for row in rows] == [
            f"order-mt[j={j}]" for j in range(1, 5)
        ]

    def test_byte_identical_reruns(self, config_file, tmp_path, capsys):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert run_cli(
                "sweep", "--config", config_file, "--scheme", "mt", "--grid", "0:auto:3",
                "--mc-slots", "5000", "--slots", "5000", "--out", str(out),
            ) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_bad_grid_is_config_error(self, config_file, capsys):
        assert run_cli(
            "sweep", "--config", config_file, "--scheme", "mt", "--grid", "0-1-5"
        ) == EXIT_CONFIG

    @pytest.mark.parametrize("grid", ["zero:auto:5", "0:high:5", "0:1e-6:five", "-1e-7:auto:3",
                                      "2e-6:1e-6:3", "0:1e-6:0"])
    def test_unparsable_or_negative_grid_is_config_error(self, config_file, grid, capsys):
        assert run_cli(
            "sweep", "--config", config_file, "--scheme", "pf", f"--grid={grid}",
            "--mc-slots", "5000",
        ) == EXIT_CONFIG

    def test_unwritable_output_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "curve.csv"
        code = run_cli(
            "sweep", "--config", config_file, "--scheme", "order-mt",
            "--slots", "2000", "--out", str(out),
        )
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_users_override(self, config_file, tmp_path, capsys):
        out = tmp_path / "six.csv"
        assert run_cli(
            "sweep", "--config", config_file, "--scheme", "mt", "--users", "6",
            "--grid", "0:auto:2", "--mc-slots", "5000", "--slots", "5000",
            "--out", str(out),
        ) == EXIT_OK
        rows = read_csv(out)
        assert rows[0]["n_users"] == 6
        assert "per_user_rate_5" in rows[0]


class TestOracleCheckCommand:
    def test_passes(self, capsys):
        assert run_cli("oracle-check", "--instances", "10", "--seed", "23") == EXIT_OK
        assert "10/10 instances ok" in capsys.readouterr().out

    def test_instance_beyond_enumeration_budget_is_config_error(self, capsys):
        assert run_cli("oracle-check", "--users", "5", "--instances", "1") == EXIT_CONFIG
        assert run_cli("oracle-check", "--slots-per-instance", "9") == EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--instances", "--slots-per-instance"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_sizes_below_one_are_config_errors(self, flag, value, capsys):
        assert run_cli("oracle-check", f"{flag}={value}") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{flag} must be at least 1" in captured.err
        assert "instances ok" not in captured.out


    def test_config_sets_users_and_seed(self, tmp_path, capsys):
        config = tmp_path / "small.cfg"
        config.write_text("n_users = 2\nseed = 77\n")
        lines = []
        for flags in ([], ["--users", "2", "--seed", "77"]):
            assert run_cli("oracle-check", "--config", str(config), "--instances", "5",
                           *flags) == EXIT_OK
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert "5/5 instances ok" in lines[0]


class TestErrorMapping:
    def test_bad_settings_are_config_errors(self, config_file, tmp_path, capsys):
        out = tmp_path / "unused.json"
        for flags in (["--mc-slots", "10"], ["--max-iters", "0"], ["--tol-energy=-1"]):
            code = run_cli("calibrate", "--config", config_file, "--scheme", "mt",
                           "--out", str(out), *flags)
            assert code == EXIT_CONFIG
        assert not out.exists()

    def test_internal_value_error_is_not_config_error(self, config_file, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli, "run_simulation", broken)
        with pytest.raises(ValueError, match="internal failure"):
            run_cli("run", "--config", config_file, "--scheme", "order-mt", "--j", "1")
        assert "config error" not in capsys.readouterr().err
