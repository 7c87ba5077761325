import itertools
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swiptsched import (
    BruteForceResult,
    FiniteInstance,
    SystemConfig,
    brute_force_et,
    brute_force_mt,
    dual_mt_schedule,
    random_instance,
)
from swiptsched.oracle import _brute_force, check_size

from conftest import profiles_at


@pytest.fixture(scope="module")
def three_user_setup():
    config = SystemConfig(n_users=3, seed=17)
    return config, profiles_at([8.0, 30.0, 70.0], config)


def instance_of(capacities, harvests, q_req=0.0) -> FiniteInstance:
    return FiniteInstance(
        capacities=np.asarray(capacities, dtype=float),
        harvests=np.asarray(harvests, dtype=float),
        q_req=q_req,
    )


class TestBruteForceMt:
    def test_unconstrained_is_greedy(self, three_user_setup):
        config, profiles = three_user_setup
        inst = random_instance(profiles, config, np.random.default_rng(0), 5, 0.0)
        result = brute_force_mt(inst)
        assert result.feasible
        assert np.array_equal(result.schedule, np.argmax(inst.capacities, axis=1))

    def test_two_candidate_base_case(self):
        # one slot, two users: scheduling user n means the other harvests.
        # Unconstrained, the higher-capacity user 1 wins; under the target
        # only scheduling user 0 (so user 1 harvests 4.0) is feasible.
        free = brute_force_mt(instance_of([[3.0, 5.0]], [[1.0, 4.0]], q_req=0.5))
        assert free.schedule.tolist() == [1] and free.value == 5.0
        tight = brute_force_mt(instance_of([[3.0, 5.0]], [[1.0, 4.0]], q_req=3.5))
        assert tight.feasible
        assert tight.schedule.tolist() == [0]
        assert tight.value == 3.0

    def test_infeasible_reported(self):
        inst = instance_of([[5.0, 3.0]], [[1.0, 4.0]], q_req=10.0)
        result = brute_force_mt(inst)
        assert not result.feasible
        assert result.schedule is None

    def test_budget_guard(self):
        caps = np.ones((9, 2))
        with pytest.raises(ValueError):
            brute_force_mt(instance_of(caps, caps))
        for n_slots, n_users in ((0, 3), (3, 0)):
            with pytest.raises(ValueError, match="at least 1 slot and 1 user"):
                check_size(n_slots, n_users)

    def test_dual_schedule_within_gap(self, three_user_setup):
        config, profiles = three_user_setup
        rng = np.random.default_rng(1)
        for rep in range(10):
            fraction = float(rng.uniform(0.05, 0.9))
            inst = random_instance(profiles, config, rng, 6, fraction)
            brute = brute_force_mt(inst)
            schedule, nu = dual_mt_schedule(inst)
            assert inst.harvest_of(schedule) >= inst.q_req
            gap = brute.value - inst.rate_of(schedule)
            assert -1e-9 <= gap <= inst.gap_bound()

    def test_dual_schedule_none_when_infeasible(self):
        inst = instance_of([[5.0, 3.0]], [[1.0, 4.0]], q_req=10.0)
        assert dual_mt_schedule(inst) is None


class TestInstanceArithmetic:
    def test_matches_brute_force_batch_formula(self, three_user_setup):
        # harvest_of/rate_of go through SlotBlock.outcome; the batch reference
        # enumerator below keeps its own arithmetic, and the two must agree
        config, profiles = three_user_setup
        rng = np.random.default_rng(6)
        inst = random_instance(profiles, config, rng, 7, 0.5)
        batch = rng.integers(0, inst.n_users, size=(200, inst.n_slots))
        cols = np.arange(inst.n_slots)
        t = inst.n_slots
        harvest = (inst.harvests.sum() - inst.harvests[cols[None, :], batch].sum(axis=1)) / t
        rates = inst.capacities[cols[None, :], batch].sum(axis=1) / t
        for assignment, q, r in zip(batch, harvest, rates):
            assert inst.harvest_of(assignment) == pytest.approx(q, rel=1e-12)
            assert inst.rate_of(assignment) == pytest.approx(r, rel=1e-12)

    def test_max_harvest_is_min_harvest_schedule(self, three_user_setup):
        config, profiles = three_user_setup
        inst = random_instance(profiles, config, np.random.default_rng(7), 6, 0.5)
        assert inst.max_harvest() == inst.harvest_of(np.argmin(inst.harvests, axis=1))


class TestBruteForceEt:
    def test_symmetric_two_user_alternates(self):
        caps = np.array([[2.0, 2.1], [2.1, 2.0]])
        harv = 1e-6 * np.ones((2, 2))
        result = brute_force_et(instance_of(caps, harv))
        assert result.feasible
        assert sorted(result.schedule.tolist()) == [0, 1]
        assert result.value == pytest.approx(1.05)

    def test_single_user_min_is_sum(self, three_user_setup):
        config, _ = three_user_setup
        single = profiles_at([20.0], SystemConfig(n_users=1, seed=2))
        inst = random_instance(single, SystemConfig(n_users=1, seed=2),
                               np.random.default_rng(3), 4, 0.0)
        et = brute_force_et(inst)
        mt = brute_force_mt(inst)
        assert et.value == pytest.approx(mt.value)

    def test_infeasibility_consistent_with_mt(self, three_user_setup):
        config, profiles = three_user_setup
        inst = random_instance(profiles, config, np.random.default_rng(4), 4, 0.5)
        inst.q_req = 1.5 * inst.max_harvest()
        assert not brute_force_mt(inst).feasible
        assert not brute_force_et(inst).feasible

    def test_et_optimum_not_above_mt(self, three_user_setup):
        config, profiles = three_user_setup
        rng = np.random.default_rng(5)
        for rep in range(5):
            inst = random_instance(profiles, config, rng, 5, 0.3)
            et = brute_force_et(inst)
            mt = brute_force_mt(inst)
            # the max-min value can never exceed the best sum rate
            assert et.value <= mt.value + 1e-12


def naive_search(instance: FiniteInstance, value) -> tuple[bool, list | None, float | None]:
    """The reference: one assignment at a time in lexicographic order, the
    enumerator's harvest test, the first strictly better value kept."""
    t = instance.n_slots
    q_total = float(instance.harvests.sum())
    best_value, best = -math.inf, None
    for assignment in itertools.product(range(instance.n_users), repeat=t):
        picked_q = sum(instance.harvests[i, a] for i, a in enumerate(assignment))
        if (q_total - picked_q) / t < instance.q_req - 1e-12:
            continue
        v = value(np.array(assignment), instance.capacities[np.arange(t), list(assignment)])
        if v > best_value:
            best_value, best = v, list(assignment)
    return best is not None, best, None if best is None else best_value


def naive_mt(assignment, picked_c):
    return float(picked_c.sum()) / len(assignment)


def naive_et(assignment, picked_c, n):
    return min(float(picked_c[assignment == u].sum()) / len(assignment) for u in range(n))


def naive_equal_access(assignment, picked_c, n):
    equal = (np.bincount(assignment, minlength=n) == len(assignment) // n).all()
    return naive_mt(assignment, picked_c) if equal else -math.inf


def equal_access_rate(inst: FiniteInstance):
    """Sum rate under equal access: -inf unless every user is scheduled
    exactly n_slots / n_users times."""
    t, n = inst.n_slots, inst.n_users

    def value(sums) -> np.ndarray:
        one_hot = np.eye(n)
        equal = np.all([sums(np.broadcast_to(one_hot[u], (t, n))) == t // n
                        for u in range(n)], axis=0)
        return np.where(equal, sums(inst.capacities) / t, -math.inf)
    return value


def batch_reference(instance: FiniteInstance, value) -> BruteForceResult:
    """The batch enumerator, the exact reference for the outer-sum tables: batches
    of base-N digit rows, the picked values gathered and summed per row.
    ``value(batch, picked_c)`` scores a (B, T) batch of assignments."""
    t, n = instance.n_slots, instance.n_users
    cols = np.arange(t)
    q_total = float(instance.harvests.sum())
    digits = n ** np.arange(t - 1, -1, -1, dtype=np.int64)
    best_value, best = -math.inf, None
    for start in range(0, n**t, 1 << 14):
        idx = np.arange(start, min(start + (1 << 14), n**t), dtype=np.int64)
        batch = (idx[:, None] // digits) % n
        picked_q = instance.harvests[cols, batch].sum(axis=1)
        feasible = (q_total - picked_q) / t >= instance.q_req - 1e-12
        if not feasible.any():
            continue
        values = np.where(feasible, value(batch, instance.capacities[cols, batch]), -math.inf)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value, best = float(values[k]), batch[k].copy()
    if best is None:
        return BruteForceResult(feasible=False, schedule=None, value=None)
    return BruteForceResult(feasible=True, schedule=best, value=best_value)


def batch_mt(batch, picked_c):
    return picked_c.sum(axis=1) / batch.shape[1]


def batch_et(n):
    def min_rate(batch, picked_c):
        per_user = np.stack(
            [np.where(batch == u, picked_c, 0.0).sum(axis=1) for u in range(n)], axis=1
        ) / batch.shape[1]
        return per_user.min(axis=1)
    return min_rate


def batch_equal_access(n):
    def value(batch, picked_c):
        counts = np.stack([(batch == u).sum(axis=1) for u in range(n)], axis=1)
        equal = (counts == batch.shape[1] // n).all(axis=1)
        return np.where(equal, picked_c.sum(axis=1) / batch.shape[1], -math.inf)
    return value


@st.composite
def small_instances(draw, slots=st.integers(1, 5), users=st.integers(1, 3)):
    """Small-integer capacities and harvests (0-4), so that ties are common and
    every sum is exact; the target is a fraction of the instance maximum."""
    t, n = draw(slots), draw(users)
    cells = st.lists(st.integers(0, 4), min_size=t * n, max_size=t * n)
    inst = instance_of(np.reshape(draw(cells), (t, n)), np.reshape(draw(cells), (t, n)))
    inst.q_req = draw(st.sampled_from([0.0, 0.5, 1.0, 1.2])) * inst.max_harvest()
    return inst


def assert_same(result, reference):
    feasible, schedule, value = reference
    assert result.feasible == feasible
    if feasible:
        assert result.schedule.tolist() == schedule and result.value == value
    else:
        assert result.schedule is None and result.value is None


class TestEnumerator:
    @hypothesis.settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_mt_and_et_match_naive_search(self, inst):
        assert_same(brute_force_mt(inst), naive_search(inst, naive_mt))
        assert_same(brute_force_et(inst),
                    naive_search(inst, lambda a, c: naive_et(a, c, inst.n_users)))

    @hypothesis.settings(max_examples=100, deadline=None)
    @given(small_instances(slots=st.sampled_from([1, 2, 3, 4, 6])))
    def test_minus_inf_excludes_an_assignment(self, inst):
        # equal access is defined only when T is a multiple of N
        hypothesis.assume(inst.n_slots % inst.n_users == 0)
        result = _brute_force(inst, equal_access_rate(inst))
        assert_same(result, naive_search(
            inst, lambda a, c: naive_equal_access(a, c, inst.n_users)))
        if result.feasible:
            assert np.bincount(result.schedule, minlength=inst.n_users).tolist() == (
                [inst.n_slots // inst.n_users] * inst.n_users)
            assert result.value <= brute_force_mt(inst).value

    def test_all_minus_inf_is_infeasible(self):
        inst = instance_of([[3.0, 5.0]], [[1.0, 4.0]])
        result = _brute_force(inst, lambda sums: np.full(inst.n_users ** inst.n_slots, -math.inf))
        assert not result.feasible and result.schedule is None and result.value is None

    def test_first_best_assignment_wins_ties(self):
        # every assignment has the same sum rate: the first, all zeros, wins
        inst = instance_of(np.ones((3, 2)), np.zeros((3, 2)))
        assert brute_force_mt(inst).schedule.tolist() == [0, 0, 0]
        # max-min ties: [0, 1] comes before [1, 0]
        et = brute_force_et(instance_of(np.ones((2, 2)), np.zeros((2, 2))))
        assert et.schedule.tolist() == [0, 1]


class TestBatchReference:
    """The outer-sum tables against the batch enumerator, bit for bit.

    Float instances make every rounding visible: at 8 slots the tables
    must add the slots pairwise, as numpy's row sum does, and below 8
    in sequence.
    """

    @pytest.mark.parametrize("n_slots", range(1, 9))
    @pytest.mark.parametrize("n_users", range(1, 5))
    def test_matches_batch_reference(self, n_users, n_slots):
        config = SystemConfig(n_users=n_users, seed=23)
        profiles = profiles_at([8.0, 30.0, 70.0, 15.0][:n_users], config)
        rng = np.random.default_rng(100 * n_users + n_slots)
        for fraction in (0.0, float(rng.uniform(0.2, 0.9)), 1.0):
            inst = random_instance(profiles, config, rng, n_slots, fraction)
            for ours, reference in (
                (brute_force_mt(inst), batch_reference(inst, batch_mt)),
                (brute_force_et(inst), batch_reference(inst, batch_et(n_users))),
                (_brute_force(inst, equal_access_rate(inst)),
                 batch_reference(inst, batch_equal_access(n_users))),
            ):
                assert ours.feasible == reference.feasible
                if reference.feasible:
                    assert ours.schedule.tolist() == reference.schedule.tolist()
                    assert ours.value == reference.value
                else:
                    assert ours.schedule is None and ours.value is None
