"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line so the criteria can be read
off a plain ``pytest -v -s tests/test_acceptance.py`` run.  Budgets
and tolerances are fixed here, not tuned per machine.
"""

import math
import time

import numpy as np
import pytest

from swiptsched import (
    CalibrationSettings,
    LinearScheduler,
    SystemConfig,
    brute_force_mt,
    calibrate_et,
    calibrate_mt,
    calibrate_pf,
    default_order_policies,
    dual_mt_schedule,
    feasible_range,
    make_optimal_scheduler,
    make_order_scheduler,
    random_instance,
    run,
    sweep_orders,
    sweep_q_req,
)
from swiptsched.baselines import OrderPolicy
from swiptsched.cli import main as cli_main

from conftest import make_profiles, profiles_at

ROOT_SEED = 11


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def combined_2se(*stderrs: float) -> float:
    return 2.0 * math.sqrt(sum(s * s for s in stderrs))


@pytest.fixture(scope="module")
def config5():
    return SystemConfig(n_users=5, seed=ROOT_SEED)


@pytest.fixture(scope="module")
def config8():
    return SystemConfig(n_users=8, seed=ROOT_SEED)


@pytest.fixture(scope="module")
def profiles5(config5):
    return make_profiles(config5)


@pytest.fixture(scope="module")
def profiles8(config8):
    return make_profiles(config8)


@pytest.fixture(scope="module")
def settings5():
    return CalibrationSettings(mc_slots=200_000, tol_access=0.004, seed=ROOT_SEED)


@pytest.fixture(scope="module")
def range5(profiles5, config5, settings5):
    return feasible_range(profiles5, config5, settings5)


@pytest.fixture(scope="module")
def q_matched(range5):
    """A harvest target that binds for MT and PF on this geometry."""
    return 0.6 * range5.maximum


@pytest.fixture(scope="module")
def mt_duals(q_matched, profiles5, config5, settings5):
    return calibrate_mt(q_matched, profiles5, config5, settings5)


@pytest.fixture(scope="module")
def pf_duals(q_matched, profiles5, config5, settings5):
    return calibrate_pf(q_matched, profiles5, config5, settings5)


@pytest.fixture(scope="module")
def et_duals(q_matched, profiles5, config5):
    settings = CalibrationSettings(
        mc_slots=300_000, tol_rate=0.008, seed=ROOT_SEED
    )
    return calibrate_et(q_matched, profiles5, config5, settings)


@pytest.fixture(scope="module")
def mt_run(mt_duals, profiles5, config5):
    return run(LinearScheduler("mt", nu=mt_duals.nu), profiles5, config5, 1_000_000, ROOT_SEED)


@pytest.fixture(scope="module")
def pf_run(pf_duals, profiles5, config5):
    return run(
        make_optimal_scheduler("pf", pf_duals), profiles5, config5, 1_000_000, ROOT_SEED
    )


@pytest.fixture(scope="module")
def et_run(et_duals, profiles5, config5):
    return run(
        make_optimal_scheduler("et", et_duals), profiles5, config5, 1_000_000, ROOT_SEED
    )


def test_criterion_1_greedy_equivalence(config8, profiles8):
    started = time.perf_counter()
    greedy = run(LinearScheduler("mt", nu=0.0), profiles8, config8, 100_000, ROOT_SEED, keep_log=True)
    ranked = run(
        make_order_scheduler(OrderPolicy("order-mt", j=1), profiles8),
        profiles8, config8, 100_000, ROOT_SEED, keep_log=True,
    )
    elapsed = time.perf_counter() - started
    same_decisions = np.array_equal(greedy.selections, ranked.selections)
    same_rate = greedy.avg_sum_rate == ranked.avg_sum_rate
    report(
        1, "greedy equivalence",
        same_decisions and same_rate and elapsed < 10.0,
        f"rate {greedy.avg_sum_rate:.4f} both, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    config = SystemConfig(n_users=3, seed=ROOT_SEED)
    profiles = profiles_at([8.0, 30.0, 70.0], config)
    rng = np.random.default_rng(ROOT_SEED)
    worst_gap_ratio = 0.0
    ok = True
    for _ in range(50):
        fraction = float(rng.uniform(0.05, 0.9))
        inst = random_instance(profiles, config, rng, 6, fraction)
        brute = brute_force_mt(inst)
        schedule, _ = dual_mt_schedule(inst)
        integral = (
            schedule.shape == (6,)
            and np.issubdtype(schedule.dtype, np.integer)
            and schedule.min() >= 0
            and schedule.max() < 3
        )
        feasible = inst.harvest_of(schedule) >= inst.q_req
        gap = brute.value - inst.rate_of(schedule)
        bound = inst.gap_bound()
        worst_gap_ratio = max(worst_gap_ratio, gap / bound)
        ok = ok and integral and feasible and -1e-9 <= gap <= bound
    elapsed = time.perf_counter() - started
    report(
        2, "oracle equivalence",
        ok and elapsed < 60.0,
        f"50 instances, worst gap {worst_gap_ratio:.2f}x bound, {elapsed:.1f}s",
    )


def _sweep_checks(config, profiles, n_slots=150_000):
    settings = CalibrationSettings(mc_slots=40_000, seed=ROOT_SEED)
    fr = feasible_range(profiles, config, settings)
    grid = np.linspace(0.0, fr.maximum - fr.stderr_maximum, 20)
    points = sweep_q_req("mt", grid, profiles, config, settings, n_slots, ROOT_SEED)
    assert all(p.feasible for p in points)

    rates = np.array([p.stats.avg_sum_rate for p in points])
    harvests = np.array([p.stats.avg_sum_harvest for p in points])
    rate_se = np.array([p.stats.stderr_sum_rate for p in points])
    harv_se = np.array([p.stats.stderr_sum_harvest for p in points])
    monotone = True
    for i in range(19):
        monotone &= rates[i + 1] <= rates[i] + combined_2se(rate_se[i], rate_se[i + 1])
        monotone &= harvests[i + 1] >= harvests[i] - combined_2se(harv_se[i], harv_se[i + 1])

    base_points = sweep_orders(
        "order-mt", default_order_policies("order-mt", config.n_users),
        profiles, config, n_slots, ROOT_SEED,
    )
    dominated = True
    for bp in base_points:
        target = min(bp.stats.avg_sum_harvest, float(grid[-1]))
        duals = calibrate_mt(target, profiles, config, settings)
        opt = run(LinearScheduler("mt", nu=duals.nu), profiles, config, n_slots, ROOT_SEED)
        # The curve's rate at exactly the baseline's harvest level: the
        # run lands within Monte-Carlo jitter of the target, so evaluate
        # the frontier at the baseline harvest via its local slope -nu.
        rate_at_base_harvest = opt.avg_sum_rate + duals.nu * (
            opt.avg_sum_harvest - bp.stats.avg_sum_harvest
        )
        slack = combined_2se(opt.stderr_sum_rate, bp.stats.stderr_sum_rate)
        dominated &= rate_at_base_harvest >= bp.stats.avg_sum_rate - slack
    return monotone, dominated


def test_criterion_3_rate_energy_curve_shape(config5, profiles5, config8, profiles8):
    monotone5, dominated5 = _sweep_checks(config5, profiles5)
    monotone8, dominated8 = _sweep_checks(config8, profiles8)
    report(
        3, "R-E monotonicity and dominance",
        monotone5 and dominated5 and monotone8 and dominated8,
        f"N=5 mono={monotone5} dom={dominated5}, N=8 mono={monotone8} dom={dominated8}",
    )


def test_criterion_4_pf_fairness(pf_run):
    deviation = float(np.max(np.abs(pf_run.access_freq - 0.2)))
    report(
        4, "PF access fairness",
        deviation <= 0.01,
        f"max |freq - 1/N| = {deviation:.4f} over {pf_run.slots} slots",
    )


def test_criterion_5_et_fairness(et_duals, et_run):
    rates = et_run.per_user_rate
    spread = float((rates.max() - rates.min()) / rates.mean())
    theta_gap = abs(float(np.sum(et_duals.theta)) - 1.0)
    report(
        5, "ET throughput fairness",
        spread <= 0.02 and theta_gap <= 1e-9,
        f"rate spread {spread:.4f}, |sum theta - 1| = {theta_gap:.1e}",
    )


def test_criterion_6_complementary_slackness(
    mt_duals, q_matched, profiles5, config5, settings5, range5
):
    res = mt_duals.calibration_residuals
    binding_ok = mt_duals.nu > 0 and abs(res["energy_gap"]) <= res["tol_energy"]
    slack_duals = calibrate_mt(0.5 * range5.greedy, profiles5, config5, settings5)
    slack_ok = slack_duals.nu == 0.0
    report(
        6, "complementary slackness",
        binding_ok and slack_ok,
        f"binding: nu={mt_duals.nu:.3g}, |gap|={abs(res['energy_gap']):.2e} "
        f"<= {res['tol_energy']:.2e}; slack: nu={slack_duals.nu}",
    )


def test_criterion_7_multiuser_diversity(
    config5, profiles5, config8, profiles8, mt_duals
):
    # profiles8 extends profiles5 (same placement stream), so the gain
    # must come from genuinely added users, not a luckier geometry
    assert [p.distance_m for p in profiles5] == [p.distance_m for p in profiles8[:5]]
    rate5 = run(LinearScheduler("mt", nu=0.0), profiles5, config5, 200_000, ROOT_SEED)
    rate8 = run(LinearScheduler("mt", nu=0.0), profiles8, config8, 200_000, ROOT_SEED)
    rate_gain = rate8.avg_sum_rate - rate5.avg_sum_rate
    rate_sig = combined_2se(rate5.stderr_sum_rate, rate8.stderr_sum_rate)

    nu_m = mt_duals.nu
    harv5 = run(LinearScheduler("mt", nu=nu_m), profiles5, config5, 200_000, ROOT_SEED)
    harv8 = run(LinearScheduler("mt", nu=nu_m), profiles8, config8, 200_000, ROOT_SEED)
    harvest_gain = harv8.avg_sum_harvest - harv5.avg_sum_harvest
    harvest_sig = combined_2se(harv5.stderr_sum_harvest, harv8.stderr_sum_harvest)
    report(
        7, "multiuser diversity",
        rate_gain > max(rate_sig, 0.0) and harvest_gain > harvest_sig,
        f"rate +{rate_gain:.3f} (2se {rate_sig:.3f}), "
        f"harvest +{harvest_gain:.3e} (2se {harvest_sig:.3e})",
    )


def test_criterion_8_deterministic_cli_output(tmp_path, capsys):
    config_path = tmp_path / "system.cfg"
    config_path.write_text(
        "n_users = 5\ntx_power_dbm = 40\nnoise_power_per_user_dbm = -62\n"
        "rf_dc_efficiency_per_user = 0.5\nn_slots = 20000\nseed = 31\n"
    )
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for out in outs:
        code = cli_main(
            ["sweep", "--config", str(config_path), "--scheme", "mt",
             "--grid", "0:auto:3", "--mc-slots", "10000", "--out", str(out)]
        )
        assert code == 0
    capsys.readouterr()
    identical = outs[0].read_bytes() == outs[1].read_bytes()
    report(8, "deterministic CLI output", identical, f"{outs[0].stat().st_size} bytes each")


def test_criterion_9_fairness_cost_ordering(mt_run, pf_run, et_run):
    mt_pf = mt_run.avg_sum_rate >= pf_run.avg_sum_rate - combined_2se(
        mt_run.stderr_sum_rate, pf_run.stderr_sum_rate
    )
    pf_et = pf_run.avg_sum_rate >= et_run.avg_sum_rate - combined_2se(
        pf_run.stderr_sum_rate, et_run.stderr_sum_rate
    )
    report(
        9, "fairness cost ordering",
        mt_pf and pf_et,
        f"rates mt={mt_run.avg_sum_rate:.3f} >= pf={pf_run.avg_sum_rate:.3f} "
        f">= et={et_run.avg_sum_rate:.3f}",
    )
