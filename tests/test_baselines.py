import itertools

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swiptsched import (
    LinearScheduler,
    OrderPolicy,
    SlotBlock,
    SystemConfig,
    draw_block,
    make_order_scheduler,
    run,
)
from swiptsched import seeds
from swiptsched.baselines import OrderScheduler
from swiptsched.scheduling import sweep_argbest

from conftest import profiles_at


def mean_gains(profiles) -> np.ndarray:
    return np.array([p.mean_gain for p in profiles])


def ranks_desc(values: np.ndarray) -> np.ndarray:
    """Rank of each entry, 1 = largest; ties ranked by lower index first."""
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks


def order_mt(j: int) -> OrderScheduler:
    return OrderScheduler("order-mt", frozenset({j}))


def order_pf(j: int, omega: np.ndarray) -> OrderScheduler:
    return OrderScheduler("order-pf", frozenset({j}), omega)


def order_et(s_a, omega: np.ndarray) -> OrderScheduler:
    return OrderScheduler("order-et", frozenset(s_a), omega)


def order_et_reference(gains, capacities, omega, s_a, totals) -> int:
    """One order-ET slot written out: lowest running total among rank-eligible users."""
    eligible = np.isin(ranks_desc(gains / omega), list(s_a))
    chosen = int(np.argmax(np.where(eligible, -totals, -np.inf)))
    totals[chosen] += capacities[chosen]
    return chosen


def order_et_numpy_loop(gains, capacities, omega, s_a, state) -> tuple[np.ndarray, int]:
    """The per-slot loop on numpy scalars, the reference for the list loop, over the
    stable-sort candidate table; also returns how many slots had a tied minimum."""
    table = np.sort(np.argsort(-(gains / omega), axis=1, kind="stable")[:, sorted(
        o - 1 for o in s_a)], axis=1)
    selections, ties = np.empty(len(table), dtype=np.int64), 0
    for i, row in enumerate(table):
        ties += np.count_nonzero(state[row] == state[row].min()) > 1
        chosen = row[np.argmin(state[row])]
        state[chosen] += capacities[i, chosen]
        selections[i] = chosen
    return selections, ties


@pytest.fixture(scope="module")
def iid_config():
    return SystemConfig(n_users=4, seed=5)


@pytest.fixture(scope="module")
def iid_profiles(iid_config):
    # equal distances: normalized and raw gains are i.i.d. across users
    return profiles_at([10.0, 10.0, 10.0, 10.0], iid_config)


class TestOrderMt:
    def test_rank_one_is_greedy(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(1), 20_000)
        greedy = LinearScheduler("mt", nu=0.0).select_block(block)
        ranked = order_mt(1).select_block(block)
        assert np.array_equal(greedy, ranked)

    def test_rank_n_is_weakest(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(2), 5000)
        weakest = order_mt(5).select_block(block)
        assert np.array_equal(weakest, np.argmin(block.gains, axis=1))

    def test_rank_coverage(self, table_config, table_profiles):
        # in every slot, ranks 1..N select all N users exactly once
        block = draw_block(table_profiles, table_config, np.random.default_rng(3), 200)
        chosen = np.stack([order_mt(j).select_block(block) for j in range(1, 6)])
        assert np.all(np.sort(chosen, axis=0) == np.arange(5)[:, None])

    def test_matches_per_slot_ranks(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(3), 200)
        for j in (1, 3, 5):
            chosen = order_mt(j).select_block(block)
            for i in range(200):
                assert ranks_desc(block.gains[i])[chosen[i]] == j

    def test_single_user(self):
        config = SystemConfig(n_users=1)
        profiles = profiles_at([10.0], config)
        block = draw_block(profiles, config, np.random.default_rng(4), 10)
        assert order_mt(1).select_block(block).tolist() == [0] * 10

    def test_j_out_of_range(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(5), 1)
        with pytest.raises(ValueError):
            order_mt(0).select_block(block)
        with pytest.raises(ValueError):
            order_mt(6).select_block(block)


class TestOrderPf:
    def test_uniform_access_iid(self, iid_config, iid_profiles):
        for j in (1, 3):
            stats = run(
                make_order_scheduler(OrderPolicy("order-pf", j=j), iid_profiles),
                iid_profiles, iid_config, 1_000_000, seed=6,
            )
            assert np.all(np.abs(stats.access_freq - 0.25) < 0.01)

    def test_mean_gain_scaling_invariance(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(7), 5000)
        omega = np.array([p.mean_gain for p in table_profiles])
        base = order_pf(2, omega).select_block(block)
        # scaling user 0's mean gain rescales its fading draws identically,
        # so normalized gains and hence decisions are unchanged
        scaled_block = type(block)(
            gains=block.gains * np.array([10.0, 1, 1, 1, 1]),
            capacities=block.capacities,
            harvests=block.harvests,
        )
        scaled = order_pf(2, omega * np.array([10.0, 1, 1, 1, 1])).select_block(scaled_block)
        assert np.array_equal(base, scaled)

    def test_single_user(self):
        config = SystemConfig(n_users=1)
        profiles = profiles_at([10.0], config)
        block = draw_block(profiles, config, np.random.default_rng(8), 10)
        scheduler = order_pf(1, mean_gains(profiles))
        assert scheduler.select_block(block).tolist() == [0] * 10

    def test_matches_per_slot_ranks(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(8), 200)
        omega = mean_gains(table_profiles)
        for j in (1, 4):
            chosen = order_pf(j, omega).select_block(block)
            for i in range(200):
                assert ranks_desc(block.gains[i] / omega)[chosen[i]] == j


class TestOrderEt:
    def test_all_ties_start_picks_lowest_index(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(9), 1)
        scheduler = order_et(range(1, 6), mean_gains(table_profiles))
        totals = scheduler.start(5)
        assert scheduler.select_block(block, totals).tolist() == [0]
        assert totals[0] > 0
        assert np.all(totals[1:] == 0)

    def test_updates_only_selected_user(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(10), 20)
        scheduler = order_et({1, 2}, mean_gains(table_profiles))
        totals = scheduler.start(5)
        for i in range(20):
            before = totals.copy()
            one_slot = SlotBlock(block.gains[i : i + 1], block.capacities[i : i + 1],
                                 block.harvests[i : i + 1])
            chosen = scheduler.select_block(one_slot, totals)[0]
            changed = totals != before
            assert changed.sum() == 1 and changed[chosen]

    def test_eligibility_restricted_to_orders(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(11), 2000)
        omega = np.array([p.mean_gain for p in table_profiles])
        scheduler = order_et({1}, omega)
        chosen = scheduler.select_block(block, scheduler.start(5))
        best_normalized = np.argmax(block.gains / omega, axis=1)
        assert np.array_equal(chosen, best_normalized)

    def test_long_run_throughput_equalizes(self, table_config, table_profiles):
        scheduler = make_order_scheduler(
            OrderPolicy("order-et", s_a=frozenset(range(1, 6))), table_profiles
        )
        spreads = []
        for n_slots in (20_000, 200_000):
            stats = run(scheduler, table_profiles, table_config, n_slots, seed=12)
            rates = stats.per_user_rate
            spreads.append((rates.max() - rates.min()) / rates.mean())
        assert spreads[1] < spreads[0]
        assert spreads[1] < 0.02

    def test_empty_order_set_rejected(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(13), 1)
        scheduler = order_et(set(), mean_gains(table_profiles))
        with pytest.raises(ValueError):
            scheduler.select_block(block, scheduler.start(5))

    def test_several_orders_need_run_state(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(13), 4)
        with pytest.raises(ValueError, match="per-run state from start"):
            order_et({1, 2}, mean_gains(table_profiles)).select_block(block)

    def test_block_matches_slot_by_slot(self, table_config, table_profiles):
        # the vectorized path and the per-slot reference share state
        # semantics, including tie handling
        block = draw_block(table_profiles, table_config, np.random.default_rng(14), 300)
        omega = mean_gains(table_profiles)
        scheduler = order_et({2, 3}, omega)
        vectorized = scheduler.select_block(block, scheduler.start(5))
        totals = np.zeros(5)
        for i in range(300):
            chosen = order_et_reference(
                block.gains[i], block.capacities[i], omega, {2, 3}, totals
            )
            assert chosen == vectorized[i]

    def test_state_persists_across_chunks(self, table_config, table_profiles):
        # CHUNK_SLOTS boundary must not reset the cumulative throughput
        from swiptsched.simulator import CHUNK_SLOTS

        n_slots = CHUNK_SLOTS + 777
        scheduler = make_order_scheduler(
            OrderPolicy("order-et", s_a=frozenset({1, 2})), table_profiles
        )
        stats = run(scheduler, table_profiles, table_config, n_slots, seed=15, keep_log=True)
        fresh = make_order_scheduler(
            OrderPolicy("order-et", s_a=frozenset({1, 2})), table_profiles
        )
        rng = seeds.substream(15, seeds.RUN)
        block = draw_block(table_profiles, table_config, rng, n_slots)
        expected = fresh.select_block(block, fresh.start(5))
        assert np.array_equal(stats.selections, expected)


    @pytest.mark.parametrize("integer_caps", [False, True], ids=["drawn", "tied"])
    @pytest.mark.parametrize("s_a", [{1, 2}, {1, 2, 3}, {2, 3, 4}], ids=["12", "123", "234"])
    def test_list_loop_matches_numpy_loop_across_blocks(self, table_config, table_profiles,
                                                        s_a, integer_caps):
        # several blocks of one run share the state; the zero start ties every
        # total, and capacities in {0, 1, 2} keep ties coming
        rng = np.random.default_rng(17)
        omega = mean_gains(table_profiles)
        scheduler = order_et(s_a, omega)
        state, reference_state, ties = scheduler.start(5), np.zeros(5), 0
        for n_slots in (1, 300, 1024, 77):
            block = draw_block(table_profiles, table_config, rng, n_slots)
            if integer_caps:
                block = SlotBlock(block.gains, rng.integers(0, 3, block.gains.shape) * 1.0,
                                  block.harvests)
            chosen = scheduler.select_block(block, state)
            expected, block_ties = order_et_numpy_loop(
                block.gains, block.capacities, omega, s_a, reference_state)
            ties += block_ties
            assert chosen.dtype == expected.dtype and np.array_equal(chosen, expected)
            assert np.array_equal(state, reference_state)
        assert ties >= (100 if integer_caps else 1)

    def test_singleton_set_equals_order_pf(self, table_config, table_profiles):
        # order-et with {j} schedules the rank-j user, as order-pf with j does
        for j in range(1, 6):
            logs = [
                run(make_order_scheduler(policy, table_profiles), table_profiles,
                    table_config, 20_000, seed=16, keep_log=True).selections
                for policy in (OrderPolicy("order-pf", j=j),
                               OrderPolicy("order-et", s_a=frozenset({j})))
            ]
            assert np.array_equal(logs[0], logs[1])

    def test_singleton_set_is_stateless(self, table_profiles):
        assert order_et({2}, mean_gains(table_profiles)).start(5) is None


@st.composite
def tie_heavy_blocks(draw):
    """Up to 12 slots of 1-8 users with gains and capacities in {0, 1, 2}, and means in {1, 2}."""
    n = draw(st.integers(1, 8))
    slots = draw(st.integers(1, 12))
    cells = st.lists(st.integers(0, 2), min_size=slots * n, max_size=slots * n)
    gains, caps = (np.array(draw(cells), dtype=float).reshape(slots, n) for _ in range(2))
    omega = np.array(draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    return SlotBlock(gains, caps, np.zeros_like(caps)), omega


class TestPeeledRanks:
    """The peeled candidate table against the stable-sort rank definition, ties included."""

    @hypothesis.settings(max_examples=150, deadline=None)
    @given(case=tie_heavy_blocks())
    def test_single_rank_matches_definition(self, case):
        block, omega = case
        for mean in (None, omega):
            values = block.gains if mean is None else block.gains / mean
            for j in range(1, block.n_users + 1):
                chosen = OrderScheduler("order-pf", frozenset({j}), mean).select_block(block)
                assert [ranks_desc(v)[c] for v, c in zip(values, chosen)] == [j] * len(values)

    @hypothesis.settings(max_examples=60, deadline=None)
    @given(case=tie_heavy_blocks())
    def test_multi_rank_matches_reference(self, case):
        block, omega = case
        n = block.n_users
        for mean, reference_mean in ((None, np.ones(n)), (omega, omega)):
            for size in range(2, n + 1):
                for s_a in itertools.combinations(range(1, n + 1), size):
                    scheduler = OrderScheduler("order-et", frozenset(s_a), mean)
                    state = scheduler.start(n)
                    chosen = scheduler.select_block(block, state)
                    totals = np.zeros(n)
                    expected = [order_et_reference(g, c, reference_mean, s_a, totals)
                                for g, c in zip(block.gains, block.capacities)]
                    assert chosen.tolist() == expected
                    assert np.array_equal(state, totals)

    @hypothesis.settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_column_sweep_matches_numpy_arg_reductions(self, data):
        # the peel's sweep over strided columns below 8 users: integer gains tie
        # often, and -inf (+inf) marks the ranks already peeled from the top (bottom)
        n = data.draw(st.integers(1, 7))
        m = data.draw(st.integers(1, 30))
        cell = st.sampled_from([0.0, 1.0, 2.0, 3.0, -np.inf, np.inf])
        work = np.array(data.draw(st.lists(cell, min_size=m * n, max_size=m * n))).reshape(m, n)
        for lowest, expected in ((False, work.argmax(axis=1)), (True, work.argmin(axis=1))):
            picks = sweep_argbest((work[:, j] for j in range(n)), lowest=lowest)
            assert picks.dtype == expected.dtype and np.array_equal(picks, expected)
            out = np.empty(m)  # the running best, handed back
            assert np.array_equal(sweep_argbest(work.T, lowest=lowest, out=out), expected)
            assert np.array_equal(out, work[np.arange(m), expected])

    def test_n32_ranks_match_stable_argsort(self):
        # rounded gains tie often; ranks 1, 2 and 16 peel from the top, 31 and 32 from the bottom
        g = np.round(np.random.default_rng(32).exponential(size=(2000, 32)), 1)
        block = SlotBlock(g, np.zeros_like(g), np.zeros_like(g))
        order = np.argsort(-g, axis=1, kind="stable")
        for j in (1, 2, 16, 31, 32):
            assert np.array_equal(order_mt(j).select_block(block), order[:, j - 1])
        assert np.array_equal(block.gains, g)


class TestFactory:
    def test_tags_and_gain_normalization(self, table_profiles):
        omega = mean_gains(table_profiles)
        for variant, policy in (("order-mt", OrderPolicy("order-mt", j=2)),
                                ("order-pf", OrderPolicy("order-pf", j=2)),
                                ("order-et", OrderPolicy("order-et", s_a=frozenset({1, 3})))):
            scheduler = make_order_scheduler(policy, table_profiles)
            assert scheduler.tag == variant
            assert scheduler.orders == policy.orders
            if variant == "order-mt":
                assert scheduler.mean_gains is None
            else:
                assert np.array_equal(scheduler.mean_gains, omega)

    def test_invalid_policy_rejected(self, table_profiles):
        with pytest.raises(ValueError):
            make_order_scheduler(OrderPolicy("order-pf", j=6), table_profiles)
        with pytest.raises(ValueError):
            make_order_scheduler(OrderPolicy("order-et", s_a=frozenset()), table_profiles)


class TestOrderPolicy:
    def test_validation(self):
        OrderPolicy("order-mt", j=3).validate(5)
        OrderPolicy("order-et", s_a=frozenset({1, 5})).validate(5)
        with pytest.raises(ValueError):
            OrderPolicy("order-mt", j=6).validate(5)
        with pytest.raises(ValueError):
            OrderPolicy("order-et", s_a=frozenset({0})).validate(5)
        with pytest.raises(ValueError):
            OrderPolicy("round-robin", j=1).validate(5)
        with pytest.raises(ValueError):
            OrderPolicy("order-pf").validate(5)
