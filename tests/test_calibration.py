import json
import math
import warnings
from dataclasses import replace
from unittest.mock import Mock, patch

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swiptsched import (
    CalibrationSettings,
    ConvergenceError,
    DualState,
    FiniteInstance,
    InfeasibleError,
    SystemConfig,
    calibrate_et,
    calibrate_mt,
    calibrate_pf,
    estimate_constraints,
    feasible_range,
    load_duals,
    place_users,
    save_duals,
)
from swiptsched import (ConfigError, channel, draw_block, linear_argmax,
                        make_optimal_scheduler, seeds)
from swiptsched.calibration import (
    _EtRule,
    _PfRule,
    _build_pool,
    _fair_bound,
    _pool_of,
    _pool_share,
    _price,
    settings_hash,
    system_fingerprint,
)
from swiptsched.oracle import _brute_force

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

    @pytest.mark.parametrize("n", [1, 5, 7, 8, 12, 32])
    @pytest.mark.parametrize("scheme", ["mt", "pf", "et"])
    def test_sub_blocks_change_no_bit(self, scheme, n):
        # 5003 slots in 700-slot sub-blocks against one block of all of them,
        # scheduled and summarized as estimate_constraints did before sub-blocks
        config = SystemConfig(n_users=n, seed=23)
        profiles = make_profiles(config)
        duals = DualState(nu=2e5, gamma=np.linspace(-0.5, 0.5, n),
                          theta=1 / np.arange(1.0, n + 1) / np.sum(1 / np.arange(1.0, n + 1)))
        settings = CalibrationSettings(mc_slots=5003, seed=24)
        with patch.object(channel, "_SUB_BLOCK_BYTES", 8 * n * 700), \
                patch.object(channel, "draw_block", Mock(wraps=draw_block)) as draws:
            est = estimate_constraints(scheme, duals, profiles, config, settings)
        assert draws.call_count == 8
        block = draw_block(profiles, config, seeds.substream(24, seeds.VALIDATION), 5003)
        qbar, access, rates = block.summary(
            make_optimal_scheduler(scheme, duals).select_block(block))
        assert est.mean_sum_harvest == qbar
        assert np.array_equal(est.access_freq, access)
        assert np.array_equal(est.per_user_rate, rates)


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
        assert f"above the bound {err.value.achievable:.6g} W" in str(err.value)
        assert not hasattr(err.value, "residuals")  # passes of a stall are not calibrations

    def test_reachable_target_not_rejected(self):
        # 0.98 of the exact equal-access maximum on this pool (2.4567e-06 W,
        # by an LP): a stall rule rejected it after 0.5 s
        config = SystemConfig(n_users=5, seed=7)
        profiles = place_users(config, np.random.default_rng(7))
        settings = CalibrationSettings(mc_slots=20_000, seed=3, max_iters=600)
        try:
            calibrate_pf(2.4076e-06, profiles, config, settings)
        except ConvergenceError:
            pass  # running out of passes is not a verdict on reachability

    def test_unreachable_target_rejected_before_any_pass(self):
        config = SystemConfig(n_users=5, seed=7)
        profiles = place_users(config, np.random.default_rng(7))
        settings = CalibrationSettings(mc_slots=20_000, seed=3, max_iters=1)
        with pytest.raises(InfeasibleError) as err:
            calibrate_pf(2.50e-06, profiles, config, settings)
        assert 2.4567e-06 <= err.value.achievable < 2.50e-06
        assert f"above the bound {err.value.achievable:.6g} W" in str(err.value)
        assert "within 0.005 of 1/5" in str(err.value)

    def test_unreachable_target_rejected_at_32_users(self):
        # the pool maximum is 0.0130573 W and tol_energy 6.53e-05 W; offsets whose
        # bound (0.0130661 W) lay above the pool maximum let this target run 257
        # passes to a ConvergenceError
        config = SystemConfig(n_users=32, seed=5)
        profiles = place_users(config, seeds.substream(5, seeds.PLACEMENT))
        settings = CalibrationSettings(mc_slots=20_000, seed=5, max_iters=1)
        with pytest.raises(InfeasibleError) as err:
            calibrate_pf(0.01312, profiles, config, settings)
        assert err.value.achievable < _build_pool(profiles, config, settings).q_max
        assert err.value.achievable == pytest.approx(0.0130524, rel=1e-5)

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

    def test_pass_budget(self, config5, profiles5, settings, q_range):
        # about 20 passes: the budget leaves room for pool noise and still
        # catches an offset step that needs hundreds
        duals = calibrate_pf(0.7 * q_range.maximum, profiles5, config5, settings)
        assert duals.calibration_residuals["iterations"] <= 60

    @hypothesis.settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12).flatmap(lambda t: st.integers(2, 5).flatmap(lambda n: st.tuples(
            st.lists(st.one_of(st.integers(1, 4), st.floats(0.01, 4)), min_size=t * n,
                     max_size=t * n).map(lambda v: np.reshape(v, (t, n))),
            st.lists(st.one_of(st.integers(0, 4), st.floats(0, 4)), min_size=t * n,
                     max_size=t * n).map(lambda v: np.reshape(v, (t, n))),
            st.lists(st.floats(-3, 3), min_size=n, max_size=n).map(np.array)))),
        st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    )
    def test_quantile_step(self, data, nu_t):
        # small integers give ties, floats generic values
        caps, harvests, gamma = data
        t, n = caps.shape
        pool = _pool_of(FiniteInstance(caps, harvests, q_req=0.0).block)
        gamma = gamma - gamma.mean()
        out = _PfRule().step(pool, nu_t, gamma, 0.5, None)
        scale = 1.0 + np.abs(gamma).max() + np.abs(out).max()
        assert np.all(np.isfinite(out)) and abs(out.mean()) <= 1e-12 * scale
        # a user picked more than 1/N never has its offset lowered relative
        # to a user picked less
        counts = np.bincount(_PfRule().select(pool, nu_t, gamma), minlength=n)
        rise = out - gamma
        over, under = counts * n > t, counts * n < t
        assert np.all(rise[over, None] >= rise[None, under] - 1e-12 * scale)


def pf_step_reference(pool, nu_t, gamma_t):
    """``_PfRule.step`` with each user's rival score taken by ``np.where``."""
    scores = [pool.cn[:, j] - nu_t * pool.qn[:, j] - gamma_t[j] for j in range(pool.cn.shape[1])]
    (m, n), best, second = pool.cn.shape, scores[0].copy(), np.full(len(pool.cn), -np.inf)
    for s in scores[1:]:
        np.maximum(second, np.minimum(best, s), out=second)
        np.maximum(best, s, out=best)
    k = m - math.ceil(m / n)
    delta = np.array([np.partition(s - np.where(s < best, best, second), k)[k] for s in scores])
    gamma_t = gamma_t + (1 - 1 / n) * delta
    return gamma_t - gamma_t.mean()


@st.composite
def tie_heavy_pools(draw):
    """Pools of 1-20 slots and 1-6 users on small integers, so scores tie for the best."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 20))
    cells = st.lists(st.integers(0, 3).map(float), min_size=m * n, max_size=m * n)
    caps, harvests = (np.reshape(draw(cells), (m, n)) for _ in range(2))
    gamma = np.array(draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n)))
    return caps, harvests, gamma


class TestPfStep:
    @hypothesis.settings(max_examples=200, deadline=None)
    @given(tie_heavy_pools(), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    @hypothesis.example((np.array([[2.0, 2.0, 1.0]]), np.zeros((1, 3)), np.zeros(3)), 0.0)
    @hypothesis.example((np.array([[1.0], [3.0]]), np.zeros((2, 1)), np.zeros(1)), 1.0)
    @hypothesis.example((np.array([[1.0, 3.0], [3.0, 3.0]]), np.ones((2, 2)), np.zeros(2)), 0.5)
    def test_equals_where_reference_bit_for_bit(self, case, nu_t):
        # the arithmetic rival score against np.where, ties for the best and N = 1, 2 included
        caps, harvests, gamma = case
        with np.errstate(invalid="ignore"):  # all-zero capacities: 0 / 0; one user: 0 * inf
            pool = _pool_of(FiniteInstance(caps, harvests, q_req=0.0).block)
            out = _PfRule().step(pool, nu_t, gamma, 0.5, None)
            assert out.tobytes() == pf_step_reference(pool, nu_t, gamma).tobytes()


class TestEqualAccessBound:
    """The equal-access ``_fair_bound`` is a proof: no schedule within the access tolerance
    harvests more, whatever the offsets it is evaluated at."""

    @staticmethod
    def best_harvest(inst: FiniteInstance, tol_access: float) -> float | None:
        """Largest harvest over assignments whose access shares are within
        ``tol_access`` of 1/N, by brute force; None when there is none."""
        t, n = inst.n_slots, inst.n_users
        q_total, one_hot = float(inst.harvests.sum()), np.eye(n)

        def harvest_within(sums) -> np.ndarray:
            counts = [sums(np.broadcast_to(one_hot[u], (t, n))) for u in range(n)]
            ok = np.all([np.abs(c / t - 1 / n) <= tol_access for c in counts], axis=0)
            harvest = (q_total - sums(inst.harvests)) / t
            return np.where(ok, harvest, -math.inf)

        result = _brute_force(inst, harvest_within)
        return result.value if result.feasible else None

    @hypothesis.settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda t: st.integers(1, 4).flatmap(lambda n: st.tuples(
            st.lists(st.one_of(st.integers(0, 4), st.floats(0, 4)), min_size=t * n,
                     max_size=t * n).map(lambda v: np.reshape(v, (t, n))),
            st.lists(st.floats(-5, 5), min_size=n, max_size=n).map(np.array)))),
        st.sampled_from([1.0, 1e-6]),
    )
    def test_bound_is_sound(self, data, unit):
        # small integers give ties, floats generic values; capacities play no part
        harvests, g = data
        inst = FiniteInstance(np.ones(harvests.shape), unit * harvests, q_req=0.0)
        pool = _pool_of(inst.block)
        for tol_access in (0.0, 0.05, 0.2):
            best = self.best_harvest(inst, tol_access)
            if best is None:
                continue
            for offsets in (g, np.zeros_like(g), pool.access_offsets):
                bound = _fair_bound(pool, offsets, 1.0, tol_access)
                assert bound >= best - 1e-12 * max(abs(best), pool.q_scale)

    def test_bound_is_tight_at_the_offsets(self, config5, profiles5):
        # well above an even split of every slot, a floor the bound never
        # goes under, and well below the pool maximum
        pool = _build_pool(profiles5, config5, CalibrationSettings(mc_slots=20_000, seed=7))
        g = pool.access_offsets
        bound = _fair_bound(pool, g, 1.0, 0.0)
        assert 0.8 * pool.total.mean() < 0.9 * pool.q_max < bound < 0.99 * pool.q_max
        assert _fair_bound(pool, g, 1.0, 0.005) >= bound

    @pytest.mark.parametrize("shape", [(50, 1), (3, 5)])
    def test_degenerate_fits_are_finite(self, shape):
        # one user has access gap 0 from the start (a step there would multiply
        # 1 - 1/N = 0 by an infinite margin); fewer slots than users never reach 0
        harvests = np.random.default_rng(3).random(shape)
        pool = _pool_of(FiniteInstance(np.ones(shape), harvests, q_req=0.0).block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = pool.access_offsets
        assert g.shape == (shape[1],) and np.all(np.isfinite(g))

    def test_fit_shrinks_the_access_gap(self, config5, profiles5):
        # the fit keeps the offsets of the smallest gap on its slots, zero offsets included
        pool = _build_pool(profiles5, config5, CalibrationSettings(mc_slots=20_000, seed=7))
        q = pool.qn[:1000]
        gaps = [_PfRule.gap(np.bincount(np.argmin(q + g, axis=1), minlength=5) / len(q))
                for g in (np.zeros(5), pool.access_offsets)]
        assert gaps[1] < gaps[0]


class TestEqualThroughputBound:
    """The equal-throughput ``_fair_bound`` is a proof: no schedule whose rate
    spread is within the tolerance harvests more, at any zero-sum multipliers."""

    @staticmethod
    def best_harvest(inst: FiniteInstance, tol_rate: float) -> float | None:
        """Largest harvest over assignments whose rate spread is at most
        ``tol_rate`` times the mean rate, by brute force; None when there is none."""
        t, n = inst.n_slots, inst.n_users
        q_total, users = float(inst.harvests.sum()), np.arange(n)

        def harvest_within(sums) -> np.ndarray:
            rates = np.stack([sums(np.where(users == u, inst.capacities, 0.0))
                              for u in users], axis=1) / t
            ok = rates.max(axis=1) - rates.min(axis=1) <= tol_rate * rates.mean(axis=1)
            harvest = (q_total - sums(inst.harvests)) / t
            return np.where(ok, harvest, -math.inf)

        result = _brute_force(inst, harvest_within)
        return result.value if result.feasible else None

    @hypothesis.settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda t: st.integers(1, 4).flatmap(lambda n: st.tuples(
            st.lists(st.one_of(st.integers(1, 4), st.floats(0.01, 4)), min_size=t * n,
                     max_size=t * n).map(lambda v: np.reshape(v, (t, n))),
            st.lists(st.one_of(st.integers(0, 4), st.floats(0, 4)), min_size=t * n,
                     max_size=t * n).map(lambda v: np.reshape(v, (t, n))),
            st.lists(st.floats(-5, 5), min_size=n, max_size=n).map(np.array)))),
        st.sampled_from([1.0, 1e-6]),
    )
    # rates 2 and 1.5 lie within 0.3 of their mean, and the best such
    # assignment harvests 1.0: 0.93 without the bound's tolerance term
    @hypothesis.example(data=(np.array([[4.0, 4.0], [2.0, 3.0]]),
                              np.array([[0.0, 2.0], [0.0, 0.0]]), np.array([0.5, -0.5])),
                        unit=1.0)
    def test_bound_is_sound(self, data, unit):
        # small integers give ties (equal rates), floats generic values
        caps, harvests, lam = data
        inst = FiniteInstance(caps, unit * harvests, q_req=0.0)
        pool, n = _pool_of(inst.block), inst.n_users
        for tol_rate in (0.0, 0.05, 0.3):
            best = self.best_harvest(inst, tol_rate)
            if best is None:
                continue
            for mu in (lam - lam.mean(), np.zeros(n)):
                bound = _fair_bound(pool, mu, pool.cn, tol_rate / n)
                assert bound >= best - 1e-12 * max(abs(best), pool.q_scale)


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
        with pytest.raises(InfeasibleError) as err:
            calibrate_et(1.002 * q_range.maximum, profiles5, config5, settings)
        assert err.value.achievable < 1.002 * q_range.maximum
        assert f"above the bound {err.value.achievable:.6g} W" in str(err.value)
        assert "equal throughput" in str(err.value)

    def test_pass_budget(self, config5, profiles5, settings):
        # about 20 passes: the budget leaves room for pool noise and still
        # catches a theta step that needs hundreds
        duals = calibrate_et(0.0, profiles5, config5, settings)
        assert duals.calibration_residuals["iterations"] <= 60

    @hypothesis.settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 64).flatmap(lambda n: st.tuples(
            st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n).map(np.array),
            st.one_of(
                st.just(np.zeros(n)),
                st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                         min_size=n, max_size=n).map(np.array),
                st.integers(0, n - 1).map(lambda u: np.eye(n)[u] * 7.5),
            ))),
        st.floats(0.0, 0.5, exclude_min=True),
    )
    def test_step_stays_on_the_simplex(self, data, step):
        theta, rates = data
        theta = theta / theta.sum()
        out = _EtRule().step(None, 0.0, theta, step, rates)
        assert np.all(np.isfinite(out)) and np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12
        # a user at the minimum rate never loses weight relative to one above it
        low, high = rates == rates.min(), rates > rates.min()
        before = theta[low, None] / theta[None, high]
        assert np.all(out[low, None] / out[None, high] >= before * (1 - 1e-12))


class TestPrice:
    """``_price`` on synthetic non-decreasing step harvests (window q_req +- tol)."""

    @pytest.mark.parametrize("harvest, q_req, nu0, price, first_probes", [
        # a warm price overshoots the window and price 0 reaches the target
        (lambda nu: 3 + math.floor(nu), 3.0, 4.0, 0.0, [4.0, 0.0]),
        # it overshoots and price 0 misses: bisection over [0, nu0]
        (lambda nu: math.floor(nu), 3.0, 8.0, 3.0, [8.0, 0.0, 4.0, 2.0, 3.0]),
        # no price lands in the window: bisection to the step at 3
        (lambda nu: 10 * math.floor(nu), 25.0, 8.0, 3.0, [8.0, 0.0, 4.0, 2.0, 3.0]),
        # a cold miss doubles from 1 until the target is reached
        (lambda nu: math.floor(nu), 5.0, 0.0, 5.0, [0.0, 1.0, 2.0, 4.0, 8.0, 6.0, 5.0]),
    ], ids=["overshoot_zero_reaches", "overshoot_bisects", "step_past_window", "cold_doubles"])
    def test_branches(self, harvest, q_req, nu0, price, first_probes):
        tol = 0.5
        probes = []

        def harvest_at(nu):
            probes.append(nu)
            return harvest(nu)

        nu = _price(harvest_at, q_req, tol, nu0)
        assert nu == price
        assert probes[:len(first_probes)] == first_probes
        # invariant: the target is reached, and either the harvest lies in the
        # window or no price a bracket width below reaches the target
        assert harvest(nu) >= q_req - tol
        assert (harvest(nu) <= q_req + tol or nu == 0.0
                or harvest(nu * (1 - 2e-13)) < q_req - tol)


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

    @pytest.mark.parametrize("n", range(1, 13))
    @hypothesis.settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_scales_equal_row_reductions_bit_for_bit(self, n, data):
        # the column sweeps below 8 users against numpy's sum, min and max over rows
        m = data.draw(st.integers(1, 30))
        cells = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=m * n,
                         max_size=m * n)
        caps, harvests = (np.reshape(data.draw(cells), (m, n)) for _ in range(2))
        with np.errstate(invalid="ignore"):  # all-zero capacities: 0 / 0 in cn
            pool = _pool_of(channel.SlotBlock(None, caps, harvests))
        assert pool.total.tobytes() == harvests.sum(axis=1).tobytes()
        assert pool.q_max == float(np.mean(harvests.sum(axis=1) - harvests.min(axis=1)))
        assert pool.c_scale == float(np.mean(caps.max(axis=1)))

    def test_arrays_are_read_only(self, config5, profiles5):
        # a sweep's grid points share one pool: a pass writing to it would change the next
        pool = _build_pool(profiles5, config5, CalibrationSettings(mc_slots=2000, seed=7))
        for arr in (pool.block.capacities, pool.block.harvests, pool.total, pool.cn, pool.qn):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_share_never_reuses_a_pool_for_another_system(self, config5, profiles5):
        base = CalibrationSettings(mc_slots=5000, seed=7)
        cases = [(profiles5, base), (profiles5, replace(base, seed=8)),
                 (profiles5, replace(base, mc_slots=6000)), (make_profiles(config5, seed=8), base)]
        # binding targets, so that the price depends on the pool
        targets = [0.5 * feasible_range(p, config5, s).maximum for p, s in cases]
        outside = [calibrate_mt(q, p, config5, s) for q, (p, s) in zip(targets, cases)]
        with _pool_share():
            inside = [calibrate_mt(q, p, config5, s) for q, (p, s) in zip(targets, cases)]
            assert _build_pool(profiles5, config5, base) is _build_pool(profiles5, config5, base)
        assert _build_pool(profiles5, config5, base) is not _build_pool(profiles5, config5, base)
        assert len({d.calibration_residuals["q_scale"] for d in outside}) == len(cases)
        assert all(d.nu > 0 for d in outside)
        for plain, shared in zip(outside, inside):
            assert plain.nu == shared.nu
            assert plain.calibration_residuals == shared.calibration_residuals


class TestResidualRecord:
    """The residual record ``save_duals`` writes, key by key and in order."""

    KEYS = {
        "mt": ["scheme", "q_req", "tol_energy", "energy_gap", "qbar_pool", "access_freq_pool",
               "per_user_rate_pool", "iterations", "converged", "c_scale", "q_scale"],
        "pf": ["scheme", "q_req", "tol_energy", "tol_access", "energy_gap", "access_gap",
               "qbar_pool", "access_freq_pool", "per_user_rate_pool", "iterations",
               "converged", "c_scale", "q_scale"],
        "et": ["scheme", "q_req", "tol_energy", "tol_rate", "energy_gap", "rate_spread",
               "qbar_pool", "per_user_rate_pool", "theta_sum", "iterations", "converged",
               "c_scale", "q_scale"],
    }
    CALIBRATORS = {"mt": calibrate_mt, "pf": calibrate_pf, "et": calibrate_et}

    @pytest.mark.parametrize("scheme", ["mt", "pf", "et"])
    def test_key_order(self, scheme, config5, profiles5, tmp_path):
        settings = CalibrationSettings(mc_slots=5000, seed=7)
        duals = self.CALIBRATORS[scheme](0.0, profiles5, config5, settings)
        assert list(duals.calibration_residuals) == self.KEYS[scheme]
        assert duals.calibration_residuals["scheme"] == scheme
        assert duals.calibration_residuals["converged"] is True
        path = tmp_path / "duals.json"
        save_duals(path, scheme, duals, settings)
        assert list(json.loads(path.read_text())["residuals"]) == self.KEYS[scheme]

    @pytest.mark.parametrize("scheme", ["pf", "et"])
    def test_convergence_error_has_the_converged_keys(self, scheme, config5, profiles5):
        settings = CalibrationSettings(mc_slots=5000, max_iters=1, seed=7)
        with pytest.raises(ConvergenceError) as err:
            self.CALIBRATORS[scheme](0.0, profiles5, config5, settings)
        assert list(err.value.residuals) == self.KEYS[scheme]
        assert err.value.residuals["converged"] is False

    def test_mt_convergence_error_has_the_converged_keys(self, config5, profiles5):
        # a binding target: the price search takes more than the one pass allowed
        settings = CalibrationSettings(mc_slots=5000, max_iters=1, seed=7)
        fr = feasible_range(profiles5, config5, settings)
        with pytest.raises(ConvergenceError) as err:
            calibrate_mt(0.5 * (fr.greedy + fr.maximum), profiles5, config5, settings)
        res = err.value.residuals
        assert list(res) == self.KEYS["mt"]
        assert res["converged"] is False and res["iterations"] > 1
        assert "price search took" in str(err.value)


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
