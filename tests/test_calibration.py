import importlib.util
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
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
from swiptsched import (ConfigError, SlotBlock, channel, draw_block, linear_argmax,
                        make_optimal_scheduler, seeds)
from swiptsched.calibration import (
    _EtRule,
    _PfRule,
    _build_pool,
    _fair_bound,
    _mt_price,
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

    @pytest.mark.parametrize("max_iters", [2, 3])
    @pytest.mark.parametrize("rule", [_PfRule(), _EtRule()], ids=["pf", "et"])
    def test_non_convergence_reports_last_of_several_passes(self, config5, profiles5, rule,
                                                            max_iters):
        # the residuals are those of the last pass, evaluated directly: its selection is
        # made from the multipliers the earlier passes' steps left (nu = 0 throughout);
        # ET's default tol_rate is met in 3 passes, so it runs at a tighter one
        settings = CalibrationSettings(mc_slots=5000, max_iters=max_iters, seed=7, tol_rate=1e-4)
        with pytest.raises(ConvergenceError) as err:
            {"pf": calibrate_pf, "et": calibrate_et}[rule.scheme](0.0, profiles5, config5,
                                                                   settings)
        res = err.value.residuals
        pool = _build_pool(profiles5, config5, settings)
        mult, term = rule.start(pool, None), "g" if rule.scheme == "pf" else "w"
        for k in range(1, max_iters + 1):
            sel = linear_argmax(pool.cn, pool.qn, 0.0, **{term: mult})
            qbar, access, rates = pool.block.summary(sel)
            if k < max_iters:
                mult = (pf_step_reference if rule.scheme == "pf" else et_step_reference)(
                    pool, 0.0, mult)
        assert res["access_freq_pool"] == access.tolist()
        assert res["per_user_rate_pool"] == rates.tolist()
        assert res["energy_gap"] == qbar
        assert res["iterations"] == max_iters and not res["converged"]
        if rule.scheme == "pf":
            assert res["access_gap"] == _PfRule.gap(access)
        else:
            assert res["rate_spread"] == _EtRule.gap(rates)

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
        gamma, rule = gamma - gamma.mean(), _PfRule()
        sel, _, for_step = rule.inner(pool, nu_t, gamma)  # the production pass
        out = rule.step(pool.cn, pool.qn, nu_t, gamma, for_step)
        scale = 1.0 + np.abs(gamma).max() + np.abs(out).max()
        assert np.all(np.isfinite(out)) and abs(out.mean()) <= 1e-12 * scale
        # a user picked more than 1/N never has its offset lowered relative
        # to a user picked less
        counts = np.bincount(sel, minlength=n)
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


def et_step_reference(pool, nu_t, theta):
    """``_EtRule.step`` from a pass by ``linear_argmax``, each user's rival score taken by
    ``np.where`` and its quantile by a sort."""
    caps, (m, n) = pool.block.capacities, pool.cn.shape
    sel = linear_argmax(pool.cn, pool.qn, nu_t, w=theta)
    own = (np.arange(n) == sel[:, None]) * caps  # each slot's rate, in its selected user's column
    rates, counts = own.sum(axis=0) / m, (own > 0).sum(axis=0)
    scores = [theta[j] * pool.cn[:, j] - nu_t * pool.qn[:, j] for j in range(n)]
    best, second = scores[0].copy(), np.full(m, -np.inf)
    for s in scores[1:]:
        np.maximum(second, np.minimum(best, s), out=second)
        np.maximum(best, s, out=best)
    delta = np.zeros(n)
    for j, s in enumerate(scores):
        paid = caps[:, j] > 0
        per_weight = np.sort((s - np.where(s < best, best, second))[paid] / pool.cn[paid, j])
        k = math.ceil(m / n) if rates[j] == 0 else np.clip(
            np.rint(counts[j] * rates.mean() / rates[j]), 1, m)
        if paid.any():
            delta[j] = per_weight[-int(min(k, paid.sum()))]
    if n > 1:
        theta = np.maximum(theta - (1 - 1 / n) * delta, theta / 2)
    return theta / theta.sum()


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
            pool, rule = _pool_of(FiniteInstance(caps, harvests, q_req=0.0).block), _PfRule()
            out = rule.step(pool.cn, pool.qn, nu_t, gamma, rule.inner(pool, nu_t, gamma)[2])
            assert out.tobytes() == pf_step_reference(pool, nu_t, gamma).tobytes()


def summary_bytes(summary):
    qbar, access, rates = summary
    return np.float64(qbar).tobytes(), access.tobytes(), rates.tobytes()


class TestLeanPasses:
    """Every pool pass computes only what its search reads; what it computes is, bit for
    bit, what ``linear_argmax`` and ``SlotBlock.summary`` give on the same pool."""

    @hypothesis.settings(max_examples=200, deadline=None)
    @given(tie_heavy_pools(), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    @hypothesis.example((np.array([[2.0, 2.0, 1.0]]), np.zeros((1, 3)), np.zeros(3)), 0.0)
    @hypothesis.example((np.array([[1.0], [3.0]]), np.zeros((2, 1)), np.zeros(1)), 1.0)
    def test_passes_equal_the_kernel_and_the_summary(self, case, nu_t):
        caps, harvests, gamma = case
        block = SlotBlock(None, caps, harvests)
        theta = (np.abs(gamma) + 1.0) / (np.abs(gamma) + 1.0).sum()
        with np.errstate(invalid="ignore"):  # all-zero capacities: 0 / 0
            pool = _pool_of(FiniteInstance(caps, harvests, q_req=0.0).block)

            def mt_harvest(nu: float) -> float:
                return block.summary(linear_argmax(pool.cn, pool.qn, nu))[0]

            # MT: the price search whose probes gather the idle harvest alone
            q_req = 0.6 * float(np.mean(block.max_harvest()))
            assert _mt_price(pool, q_req, 0.0)[0] == _price(mt_harvest, q_req, 0.0)
            sel = linear_argmax(pool.cn, pool.qn, nu_t)
            assert summary_bytes(pool.evaluate(sel)) == summary_bytes(block.summary(sel))
            for rule, kw in ((_PfRule(), {"g": gamma}), (_EtRule(), {"w": theta})):
                sel, gap, for_step = rule.inner(pool, nu_t, *kw.values())
                assert sel.tobytes() == linear_argmax(pool.cn, pool.qn, nu_t, **kw).tobytes()
                qbar, access, rates = summary = block.summary(sel)
                assert gap == rule.gap(access if rule.scheme == "pf" else rates)
                assert summary_bytes(pool.evaluate(sel)) == summary_bytes(summary)
                out = rule.step(pool.cn, pool.qn, nu_t, *kw.values(), for_step)
                reference = pf_step_reference if rule.scheme == "pf" else et_step_reference
                assert out.tobytes() == reference(pool, nu_t, *kw.values()).tobytes()


def fair_bound_reference(pool, lam, resource, tol) -> float:
    """``_fair_bound`` with its per-slot minimum taken by a running ``np.minimum``."""
    resource = np.broadcast_to(resource, pool.qn.shape)
    low = pool.qn[:, 0] + lam[0] * resource[:, 0]
    for u in range(1, len(lam)):
        np.minimum(low, pool.qn[:, u] + lam[u] * resource[:, u], out=low)
    lam_u = float(lam.mean()) + tol * float(np.abs(lam - np.median(lam)).sum())
    return float(pool.total.mean()) - pool.q_scale * (float(low.mean()) - lam_u)


def assert_fair_bound(pool, lam, resource, tol) -> float:
    """``_fair_bound``, asserted equal to ``fair_bound_reference`` bit for bit."""
    bound = _fair_bound(pool, lam, resource, tol)
    reference = fair_bound_reference(pool, lam, resource, tol)
    assert np.float64(bound).tobytes() == np.float64(reference).tobytes(), (bound, reference)
    return bound


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
                bound = assert_fair_bound(pool, offsets, 1.0, tol_access)
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
                bound = assert_fair_bound(pool, mu, pool.cn, tol_rate / n)
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
    @given(tie_heavy_pools(), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    @hypothesis.example((np.array([[0.0, 2.0], [0.0, 3.0]]), np.ones((2, 2)), np.zeros(2)), 0.5)
    def test_step_stays_on_the_simplex(self, case, nu_t):
        # small integers give ties and all-zero capacity columns
        caps, harvests, gamma = case
        theta = (np.abs(gamma) + 1.0) / (np.abs(gamma) + 1.0).sum()
        with np.errstate(invalid="ignore"):  # all-zero capacities: 0 / 0
            pool = _pool_of(FiniteInstance(caps, harvests, q_req=0.0).block)
            for_step = _EtRule().inner(pool, nu_t, theta)[2]
            out = _EtRule.step(pool.cn, pool.qn, nu_t, theta, for_step)
        assert np.all(np.isfinite(out)) and np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-12
        # a user whose target slot count is above its count of slots with a rate never
        # loses weight relative to one whose target is below it
        (m, n), (counts, rates) = caps.shape, for_step[:2]
        target = np.full(n, math.ceil(m / n))
        paid = rates > 0
        target[paid] = np.clip(np.rint(counts[paid] * rates.mean() / rates[paid]), 1, m)
        target = np.minimum(target, (caps > 0).sum(axis=0))  # no more than its slots of rate
        above, below = target > counts, target < counts
        before = theta[above, None] / theta[None, below]
        assert np.all(out[above, None] / out[None, below] >= before * (1 - 1e-12))

    def test_zero_capacity_columns_divide_nothing(self):
        # a user with no capacity anywhere, picked in a slot where no one has any, and
        # users with none in some slots: the margins leave those slots out, with no 0 / 0
        caps = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 2.0, 0.0], [0.0, 1.0, 1.0],
                         [0.0, 0.0, 0.0]])
        pool = _pool_of(FiniteInstance(caps, np.ones((5, 3)), q_req=0.0).block)
        theta = np.full(3, 1 / 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _EtRule.step(pool.cn, pool.qn, 0.0, theta, _EtRule().inner(pool, 0.0, theta)[2])
        assert np.all(np.isfinite(out)) and np.all(out > 0)
        assert out.tobytes() == et_step_reference(pool, 0.0, theta).tobytes()
        # user 0's weight cannot buy it a rate and stays; user 2, with the top rate, falls most
        assert np.all(out[0] / theta[0] >= out / theta) and out[2] == out.min()


_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


class TestReachableEtTargets:
    """Reachable ET targets on which a step of about 6000 passes ended in ConvergenceError:
    the quantile step converges in about 50-70 passes, and the budget of 200 catches a step
    that needs that many again."""

    @pytest.fixture(scope="class")
    def pool16(self):
        config = SystemConfig(n_users=16, seed=5)
        return (config, place_users(config, seeds.substream(5, seeds.PLACEMENT)),
                CalibrationSettings(mc_slots=20_000, seed=5))

    def test_near_the_maximum_at_16_users(self, pool16):
        # a scratch LP put the equal-throughput maximum at 0.9998 q_max
        config, profiles, settings = pool16
        q_req = 0.95 * _build_pool(profiles, config, settings).q_max
        res = calibrate_et(q_req, profiles, config, settings).calibration_residuals
        assert res["converged"] and res["iterations"] <= 200
        assert res["rate_spread"] <= settings.tol_rate

    def test_benchmark_geometry_at_16_users(self):
        # the benchmark's geometry 11 and pool, 0.9 of the way from the greedy to the
        # maximum harvest (0.914 q_max; a scratch LP put the maximum at 0.99975 q_max)
        spec = importlib.util.spec_from_file_location("workloads", _WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        config, profiles = workloads.scenario(16, 11)
        settings = workloads.calibration_settings(11)
        q_req = workloads.target(profiles, config, settings, 0.9)
        res = calibrate_et(q_req, profiles, config, settings).calibration_residuals
        assert res["converged"] and res["iterations"] <= 200
        assert res["rate_spread"] <= settings.tol_rate

    def test_warm_sweep_has_no_failed_point(self, pool16):
        # 20 targets from 0 to the maximum less one standard error, each warm-started from
        # the last feasible one, as ``sweep_q_req`` calibrates them: none runs out of passes
        config, profiles, settings = pool16
        passes, warm = 0, None
        with _pool_share():
            fr = feasible_range(profiles, config, settings)
            for q_req in np.linspace(0.0, fr.maximum - fr.stderr_maximum, 20):
                try:
                    warm = calibrate_et(q_req, profiles, config, settings, warm_start=warm)
                except InfeasibleError:
                    continue
                passes += warm.calibration_residuals["iterations"]
        assert passes <= 400


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

    SUBNORMAL = np.zeros((2, 12))
    SUBNORMAL[1, 3] = 5e-324  # the mean row maximum, 5e-324 / 2, rounds to 0

    @pytest.mark.parametrize("n", range(1, 13))
    @hypothesis.settings(max_examples=30, deadline=None)
    @given(arrays=st.integers(1, 30).flatmap(lambda m: st.tuples(*[
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=12 * m,
                 max_size=12 * m).map(lambda v: np.reshape(v, (m, 12)))] * 2)))
    @hypothesis.example(arrays=(SUBNORMAL, np.zeros((2, 12))))
    def test_scales_equal_row_reductions_bit_for_bit(self, n, arrays):
        # the column sweeps below 8 users against numpy's sum, min and max over rows; a
        # mean row maximum or harvest maximum of 0 falls back to a scale of 1, dividing by no 0
        caps, harvests = (np.ascontiguousarray(a[:, :n]) for a in arrays)
        pool = _pool_of(channel.SlotBlock(None, caps, harvests))
        assert pool.total.tobytes() == harvests.sum(axis=1).tobytes()
        assert pool.q_max == float(np.mean(harvests.sum(axis=1) - harvests.min(axis=1)))
        assert pool.c_scale == (float(np.mean(caps.max(axis=1))) or 1.0)
        assert pool.q_scale == (pool.q_max or 1.0)
        top = harvests.sum(axis=1) - harvests.min(axis=1)
        if len(top) > 1:  # numpy's std, bit for bit
            assert pool.stderr_q_max == float(top.std(ddof=1) / math.sqrt(len(top)))

    # mc_slots against the sub-block rows (32768, 6553, 4681, 4096, 2048 and 1024 at these
    # N): none a multiple; 32766, 20481 and 4097 end in a one-row sub-block, and pools of
    # at most 4 sub-blocks per array (1001, 20000 and 3000 slots) are drawn as one block
    @pytest.mark.parametrize("n, mc_slots", [
        (1, 1001), (1, 140_001), (5, 20_000), (5, 32_766), (7, 20_000), (8, 20_481),
        (16, 10_000), (32, 3000), (32, 4097), (32, 20_000)])
    def test_sub_block_draw_equals_one_block_bit_for_bit(self, n, mc_slots):
        config = SystemConfig(n_users=n, seed=40 + n)
        profiles = make_profiles(config)
        pool = _build_pool(profiles, config, CalibrationSettings(mc_slots=mc_slots, seed=3))
        # the reference: one whole-block draw, numpy's row reductions and divides
        block = draw_block(profiles, config, seeds.substream(3, seeds.CALIBRATION), mc_slots)
        total = block.harvests.sum(axis=1)
        top = total - block.harvests.min(axis=1)
        c_scale = float(np.mean(block.capacities.max(axis=1))) or 1.0
        q_max = float(np.mean(top))
        assert (pool.c_scale, pool.q_max, pool.q_scale) == (c_scale, q_max, q_max or 1.0)
        assert pool.stderr_q_max == float(top.std(ddof=1) / math.sqrt(mc_slots))
        expected = [block.capacities, block.harvests, total, block.capacities / c_scale,
                    block.harvests / pool.q_scale, np.arange(0, mc_slots * n, n)]
        got = [pool.block.capacities, pool.block.harvests, pool.total, pool.cn, pool.qn,
               pool.rows]
        for a, b in zip(got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert pool.block.capacities.flags.c_contiguous and pool.block.harvests.flags.c_contiguous
        assert pool.cn.flags.f_contiguous and pool.qn.flags.f_contiguous

    def test_build_holds_no_whole_pool_gains_array(self):
        # the pool's four (M, N) arrays and about 1.5 MB of sub-block buffers, factor
        # tiles and slot-length arrays: a whole-pool gains array would add 5.1 MB
        config = SystemConfig(n_users=32, seed=7)
        profiles, m = make_profiles(config), 20_000
        settings = CalibrationSettings(mc_slots=m, seed=7)
        _build_pool(profiles, config, settings)  # imports and first-call set-up
        tracemalloc.start()
        try:
            _build_pool(profiles, config, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * config.n_users * 8 + 2_000_000

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
               "qbar_pool", "access_freq_pool", "per_user_rate_pool", "iterations",
               "converged", "c_scale", "q_scale"],
    }
    CALIBRATORS = {"mt": calibrate_mt, "pf": calibrate_pf, "et": calibrate_et}

    def test_one_key_order_for_every_scheme(self, config5, profiles5):
        # PF's and ET's records are MT's with the scheme's tolerance after tol_energy and its
        # gap after energy_gap
        settings = CalibrationSettings(mc_slots=5000, seed=7)
        mt = list(calibrate_mt(0.0, profiles5, config5, settings).calibration_residuals)
        for scheme, tol, gap in (("pf", "tol_access", "access_gap"),
                                 ("et", "tol_rate", "rate_spread")):
            duals = self.CALIBRATORS[scheme](0.0, profiles5, config5, settings)
            expected = list(mt)
            expected.insert(expected.index("tol_energy") + 1, tol)
            expected.insert(expected.index("energy_gap") + 1, gap)
            assert list(duals.calibration_residuals) == expected

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
