import json
from dataclasses import replace

import numpy as np
import pytest

from swiptsched import (
    CalibrationSettings,
    ConvergenceError,
    DualState,
    InfeasibleError,
    SystemConfig,
    calibrate_et,
    calibrate_mt,
    calibrate_pf,
    estimate_constraints,
    feasible_range,
    load_duals,
    save_duals,
)
from swiptsched import ConfigError, linear_argmax
from swiptsched.calibration import _build_pool, settings_hash, system_fingerprint

from conftest import make_profiles, profiles_at


@pytest.fixture(scope="module")
def config5():
    return SystemConfig(n_users=5, seed=7)


@pytest.fixture(scope="module")
def profiles5(config5):
    return make_profiles(config5)


@pytest.fixture(scope="module")
def settings():
    return CalibrationSettings(mc_slots=30_000, seed=7)


@pytest.fixture(scope="module")
def q_range(profiles5, config5, settings):
    return feasible_range(profiles5, config5, settings)


@pytest.fixture(scope="module")
def two_user_config():
    return SystemConfig(n_users=2, seed=3)


class TestEstimateConstraints:
    def test_single_user_never_harvests(self):
        config = SystemConfig(n_users=1, seed=2)
        profiles = profiles_at([20.0], config)
        settings = CalibrationSettings(mc_slots=5000, seed=2)
        est = estimate_constraints("mt", DualState(nu=0.0), profiles, config, settings)
        assert est.mean_sum_harvest == 0.0
        assert est.access_freq.tolist() == [1.0]

    def test_access_sums_to_one(self, config5, profiles5, settings):
        est = estimate_constraints("mt", DualState(nu=1e5), profiles5, config5, settings)
        assert est.access_freq.sum() == pytest.approx(1.0, abs=1e-12)
        assert est.mean_sum_harvest >= 0.0

    def test_greedy_favors_strongest_user(self, config5, profiles5, settings):
        est = estimate_constraints("mt", DualState(nu=0.0), profiles5, config5, settings)
        strongest = int(np.argmax([p.mean_gain for p in profiles5]))
        assert int(np.argmax(est.access_freq)) == strongest

    def test_variance_halves_with_double_slots(self, two_user_config):
        profiles = profiles_at([10.0, 40.0], two_user_config)
        duals = DualState(nu=0.0)

        def harvest_samples(mc):
            settings = CalibrationSettings(mc_slots=mc, seed=0)
            return [
                estimate_constraints(
                    "mt", duals, profiles, two_user_config, settings,
                    rng=np.random.default_rng(1000 + rep),
                ).mean_sum_harvest
                for rep in range(40)
            ]

        var_small = np.var(harvest_samples(2000))
        var_large = np.var(harvest_samples(4000))
        assert 1.3 < var_small / var_large < 3.2


class TestCalibrateMt:
    def test_zero_target_gives_zero_price(self, config5, profiles5, settings):
        duals = calibrate_mt(0.0, profiles5, config5, settings)
        assert duals.nu == 0.0
        assert duals.calibration_residuals["converged"]

    def test_slack_target_gives_zero_price(self, config5, profiles5, settings, q_range):
        duals = calibrate_mt(0.5 * q_range.greedy, profiles5, config5, settings)
        assert duals.nu == 0.0

    def test_binding_target_meets_tolerance(self, config5, profiles5, settings, q_range):
        q_req = 0.5 * q_range.maximum
        duals = calibrate_mt(q_req, profiles5, config5, settings)
        res = duals.calibration_residuals
        assert duals.nu > 0
        assert abs(res["energy_gap"]) <= res["tol_energy"]

    def test_large_price_limit_selects_min_harvest(self, config5, profiles5, settings):
        pool = _build_pool(profiles5, config5, settings)
        selections = linear_argmax(pool.cn, pool.qn, 1e9)
        assert np.array_equal(selections, np.argmin(pool.block.harvests, axis=1))

    def test_near_maximum_target_reached(self, config5, profiles5, settings, q_range):
        duals = calibrate_mt(0.995 * q_range.maximum, profiles5, config5, settings)
        res = duals.calibration_residuals
        assert res["qbar_pool"] >= 0.99 * q_range.maximum

    def test_infeasible_target(self, config5, profiles5, settings, q_range):
        with pytest.raises(InfeasibleError) as err:
            calibrate_mt(1.5 * q_range.maximum, profiles5, config5, settings)
        assert err.value.achievable == pytest.approx(q_range.maximum, rel=1e-9)

    def test_negative_target(self, config5, profiles5, settings):
        with pytest.raises(ValueError):
            calibrate_mt(-1e-9, profiles5, config5, settings)

    def test_harvest_monotone_in_price(self, config5, profiles5, settings):
        # shared slot pool removes Monte-Carlo noise across the grid
        pool = _build_pool(profiles5, config5, settings)
        qbars = []
        for nu_t in np.logspace(-3, 4, 30):
            qbar, _, _ = pool.evaluate(linear_argmax(pool.cn, pool.qn, nu_t))
            qbars.append(qbar)
        assert np.all(np.diff(qbars) >= 0)

    def test_price_depends_only_on_statistics(self, config5, profiles5, q_range):
        # independent pools with the same statistics agree on the price
        q_req = 0.5 * q_range.maximum
        nus = [
            calibrate_mt(
                q_req, profiles5, config5, CalibrationSettings(mc_slots=100_000, seed=s)
            ).nu
            for s in (21, 22)
        ]
        assert abs(nus[0] - nus[1]) / max(nus) < 0.1

    def test_out_of_sample_constraint(self, config5, profiles5, settings, q_range):
        q_req = 0.6 * q_range.maximum
        duals = calibrate_mt(q_req, profiles5, config5, settings)
        est = estimate_constraints("mt", duals, profiles5, config5, settings)
        tol = duals.calibration_residuals["tol_energy"]
        stderr = 3.0 * q_range.stderr_maximum
        assert est.mean_sum_harvest >= q_req - 2 * tol - stderr


class TestCalibratePf:
    def test_symmetric_users(self, two_user_config):
        profiles = profiles_at([25.0, 25.0], two_user_config)
        settings = CalibrationSettings(mc_slots=30_000, seed=5)
        duals = calibrate_pf(0.0, profiles, two_user_config, settings)
        assert np.all(np.abs(duals.gamma) < 0.35)  # both near 0 in bits
        est = estimate_constraints("pf", duals, profiles, two_user_config, settings)
        assert np.all(np.abs(est.access_freq - 0.5) < 2 * settings.tol_access)

    def test_strong_user_penalized(self, two_user_config):
        profiles = profiles_at([5.0, 60.0], two_user_config)
        settings = CalibrationSettings(mc_slots=30_000, seed=6)
        duals = calibrate_pf(0.0, profiles, two_user_config, settings)
        assert duals.gamma[0] > duals.gamma[1]
        assert duals.gamma.mean() == pytest.approx(0.0, abs=1e-12)

    def test_out_of_sample_access(self, config5, profiles5, settings, q_range):
        duals = calibrate_pf(0.6 * q_range.maximum, profiles5, config5, settings)
        est = estimate_constraints("pf", duals, profiles5, config5, settings)
        assert np.all(np.abs(est.access_freq - 0.2) <= 2 * settings.tol_access)

    def test_binding_energy_price(self, config5, profiles5, settings, q_range):
        duals = calibrate_pf(0.7 * q_range.maximum, profiles5, config5, settings)
        res = duals.calibration_residuals
        assert duals.nu > 0
        assert abs(res["energy_gap"]) <= res["tol_energy"]

    def test_infeasible_under_equal_access(self, config5, profiles5, q_range):
        settings = CalibrationSettings(mc_slots=20_000, max_iters=1500, seed=7)
        with pytest.raises(InfeasibleError) as err:
            calibrate_pf(0.99 * q_range.maximum, profiles5, config5, settings)
        assert err.value.achievable < 0.99 * q_range.maximum
        assert f"best average harvest observed: {err.value.achievable:.6g} W" in str(err.value)
        assert not hasattr(err.value, "residuals")  # passes of a stall are not calibrations

    def test_non_convergence_reports_residuals(self, config5, profiles5):
        settings = CalibrationSettings(mc_slots=5000, max_iters=2, seed=7)
        with pytest.raises(ConvergenceError) as err:
            calibrate_pf(0.0, profiles5, config5, settings)
        assert "access_gap" in err.value.residuals

    def test_non_convergence_reports_last_pass(self, config5, profiles5):
        # one pass evaluates the starting duals (nu = 0, gamma = 0): the greedy schedule
        settings = CalibrationSettings(mc_slots=5000, max_iters=1, seed=7)
        with pytest.raises(ConvergenceError) as err:
            calibrate_pf(0.0, profiles5, config5, settings)
        res = err.value.residuals
        pool = _build_pool(profiles5, config5, settings)
        qbar, access, _ = pool.evaluate(linear_argmax(pool.cn, pool.qn, 0.0))
        assert res["access_freq_pool"] == access.tolist()
        assert res["energy_gap"] == qbar
        assert res["iterations"] == 1 and not res["converged"]
        assert "averaged" not in res


class TestCalibrateEt:
    def test_symmetric_users(self, two_user_config):
        profiles = profiles_at([25.0, 25.0], two_user_config)
        settings = CalibrationSettings(mc_slots=30_000, seed=8)
        duals = calibrate_et(0.0, profiles, two_user_config, settings)
        assert np.all(np.abs(duals.theta - 0.5) < 0.02)

    def test_theta_normalized_exactly(self, config5, profiles5, settings):
        duals = calibrate_et(0.0, profiles5, config5, settings)
        assert abs(duals.theta.sum() - 1.0) <= 1e-9
        assert np.all(duals.theta >= 0)

    def test_out_of_sample_rate_spread(self, two_user_config):
        profiles = profiles_at([8.0, 50.0], two_user_config)
        settings = CalibrationSettings(mc_slots=200_000, seed=9)
        duals = calibrate_et(0.0, profiles, two_user_config, settings)
        est = estimate_constraints("et", duals, profiles, two_user_config, settings)
        rates = est.per_user_rate
        assert (rates.max() - rates.min()) / rates.mean() <= 2 * settings.tol_rate

    def test_binding_energy_price(self, config5, profiles5, q_range):
        # beyond the natural harvest of pure rate equalization, nu must engage
        settings = CalibrationSettings(mc_slots=50_000, seed=7)
        duals = calibrate_et(0.85 * q_range.maximum, profiles5, config5, settings)
        res = duals.calibration_residuals
        assert duals.nu > 0
        assert res["rate_spread"] <= settings.tol_rate
        assert abs(res["energy_gap"]) <= res["tol_energy"]

    def test_infeasible_under_equal_throughput(self, config5, profiles5, q_range):
        settings = CalibrationSettings(mc_slots=20_000, max_iters=1500, seed=7)
        with pytest.raises(InfeasibleError):
            calibrate_et(1.002 * q_range.maximum, profiles5, config5, settings)


class TestFeasibleRange:
    def test_ordering(self, q_range):
        assert 0 < q_range.greedy < q_range.maximum
        assert q_range.stderr_maximum > 0


class TestPool:
    def test_normalized_arrays_are_user_major(self, config5, profiles5):
        # the kernel's per-user column path, the fast one for a pool, needs this layout
        pool = _build_pool(profiles5, config5, CalibrationSettings(mc_slots=2000, seed=7))
        for arr in (pool.cn, pool.qn):
            assert arr.flags.f_contiguous and not arr.flags.c_contiguous
        assert pool.block.capacities.flags.c_contiguous
        assert np.array_equal(pool.cn, pool.block.capacities / pool.c_scale)
        assert np.array_equal(pool.qn, pool.block.harvests / pool.q_scale)


class TestDualsIO:
    def test_round_trip(self, tmp_path, config5, profiles5, settings, q_range):
        duals = calibrate_pf(0.5 * q_range.maximum, profiles5, config5, settings)
        path = tmp_path / "pf_duals.json"
        save_duals(path, "pf", duals, settings)
        scheme, loaded = load_duals(path)
        assert scheme == "pf"
        assert loaded.nu == duals.nu
        assert np.array_equal(loaded.gamma, duals.gamma)
        assert loaded.theta is None
        assert loaded.calibration_residuals == duals.calibration_residuals
        assert loaded.fingerprint == duals.fingerprint == system_fingerprint(config5, profiles5)

    def test_fingerprint_binds_power_and_placement(self, config5, profiles5):
        base = system_fingerprint(config5, profiles5)
        assert base == system_fingerprint(SystemConfig(n_users=5, seed=7), make_profiles(config5))
        assert base != system_fingerprint(replace(config5, tx_power=1.0), profiles5)
        assert base != system_fingerprint(config5, make_profiles(config5, seed=8))
        assert base != system_fingerprint(config5, profiles5[:4])

    @pytest.mark.parametrize(
        "change",
        [
            {"scheme": None},
            {"scheme": "rr"},
            {"nu": -1.0},
            {"nu": float("nan")},
            {"nu": float("inf")},
            {"nu": "cheap"},
            {"gamma": None},
            {"scheme": "et"},
            {"scheme": "et", "theta": [0.5, -0.1, 0.2, 0.2, 0.2]},
            {"residuals": [1, 2]},
            {"gamma": [0.0, float("nan"), 0.0, 0.0, 0.0]},
            {"gamma": [[0.0] * 5]},
            {"scheme": "et", "theta": [0.2, 0.2, float("inf"), 0.2, 0.2]},
        ],
    )
    def test_malformed_record_rejected(self, tmp_path, change):
        record = {"scheme": "pf", "nu": 1.0, "gamma": [0.0] * 5, "theta": None, "residuals": {}}
        record.update(change)
        path = tmp_path / "duals.json"
        path.write_text(json.dumps({k: v for k, v in record.items() if v is not None}))
        with pytest.raises(ConfigError):
            load_duals(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "duals.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_duals(path)

    def test_settings_hash_stable(self, settings):
        assert settings_hash(settings) == settings_hash(
            CalibrationSettings(mc_slots=30_000, seed=7)
        )
        assert settings_hash(settings) != settings_hash(
            CalibrationSettings(mc_slots=30_001, seed=7)
        )


class TestSettingsValidation:
    def test_bad_settings(self):
        with pytest.raises(ValueError):
            CalibrationSettings(mc_slots=10)
        with pytest.raises(ValueError):
            CalibrationSettings(step_size=0.0)
        with pytest.raises(ValueError):
            CalibrationSettings(tol_access=-1.0)

    @pytest.mark.parametrize("field", ["step_size", "tol_energy", "tol_access", "tol_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            CalibrationSettings(**{field: value})
