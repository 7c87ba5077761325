import math

import numpy as np
import pytest
import hypothesis
from hypothesis import given
from hypothesis import strategies as st

from swiptsched import (
    DualState,
    LinearScheduler,
    SlotBlock,
    draw_block,
    linear_argmax,
    make_optimal_scheduler,
)
from swiptsched.scheduling import _score, score_columns


def rows(*values) -> np.ndarray:
    """One slot per argument, as a (slots, users) float array."""
    return np.atleast_2d(np.asarray(values, dtype=float))


def block_of(capacities, harvests) -> SlotBlock:
    capacities, harvests = rows(capacities), rows(harvests)
    return SlotBlock(gains=np.ones_like(capacities), capacities=capacities, harvests=harvests)


def reference_scores(caps, harvests, nu, w=None, g=None) -> np.ndarray:
    """The score written out term by term, with explicit unit weights and zero offsets."""
    n = caps.shape[1]
    w = np.ones(n) if w is None else w
    g = np.zeros(n) if g is None else g
    return w * caps - nu * harvests - g


class TestMtMetric:
    def test_zero_price_is_capacity(self):
        caps, harv = rows([3.0, 2.0, 5.0]), rows([1e-5, 2e-5, 3e-5])
        assert linear_argmax(caps, harv, 0.0).tolist() == [2]

    def test_worked_example(self):
        # metrics 3 - 1e5 * 1e-5 = 2.0 and 2 - 1e5 * 1e-6 = 1.9
        assert linear_argmax(rows([3.0, 2.0]), rows([1e-5, 1e-6]), 1e5).tolist() == [0]
        assert linear_argmax(rows([3.0, 2.0]), rows([1e-5, 1e-6]), 2e5).tolist() == [1]

    def test_price_rescaling_invariance(self):
        caps, harv = rows([3.0, 2.0, 4.0]), rows([1e-5, 1e-6, 2e-5])
        for nu in (0.0, 1e4, 1e5, 3e5):
            assert np.array_equal(
                linear_argmax(caps, harv, nu), linear_argmax(caps, harv * 30.0, nu / 30.0)
            )

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            LinearScheduler("mt", nu=-0.1)


class TestMultiplierCheck:
    """LinearScheduler is the one check of (nu, w, g): a non-finite
    multiplier makes a score NaN, and the two layouts of linear_argmax
    then pick different users."""

    @pytest.mark.parametrize("nu", [math.inf, math.nan])
    def test_non_finite_price_rejected(self, nu):
        with pytest.raises(ValueError, match="nu must be finite"):
            LinearScheduler("mt", nu=nu)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["w", "g"])
    def test_non_finite_vector_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be a finite 1-D vector"):
            LinearScheduler("x", nu=0.0, **{name: np.array([0.5, bad, 0.5])})

    @pytest.mark.parametrize("name", ["w", "g"])
    def test_two_dimensional_vector_rejected(self, name):
        # rejected when built, not first when a block is scheduled
        with pytest.raises(ValueError, match=f"{name} must be a finite 1-D vector"):
            LinearScheduler("x", nu=0.0, **{name: np.full((1, 3), 0.5)})


class TestPfMetric:
    def test_zero_offsets_reduce_to_mt(self):
        caps, harv = rows([3.0, 2.0], [1.0, 4.0]), rows([1e-5, 1e-6], [1e-6, 1e-5])
        assert np.array_equal(
            linear_argmax(caps, harv, 2e5, g=np.zeros(2)), linear_argmax(caps, harv, 2e5)
        )

    def test_uniform_shift_keeps_argmax(self):
        caps, harv = rows([3.0, 2.0, 2.9]), rows([1e-5, 1e-6, 3e-6])
        gamma = np.array([0.4, -0.2, 0.1])
        base = linear_argmax(caps, harv, 1e4, g=gamma)
        assert np.array_equal(linear_argmax(caps, harv, 1e4, g=gamma + 7.7), base)

    def test_dimension_mismatch(self):
        scheduler = LinearScheduler("pf", nu=0.0, g=np.zeros(3))
        with pytest.raises(ValueError):
            scheduler.select_block(block_of([1.0, 2.0], [0.0, 0.0]))


class TestEtMetric:
    def test_unit_weights_reduce_to_mt(self):
        caps, harv = rows([3.0, 2.0], [1.0, 4.0]), rows([1e-5, 1e-6], [1e-6, 1e-5])
        assert np.array_equal(
            linear_argmax(caps, harv, 2e5, w=np.ones(2)), linear_argmax(caps, harv, 2e5)
        )

    def test_zero_weight_gives_nonpositive_metric(self):
        # a zero-weight user scores -nu * Q <= 0 and loses to any positive score
        caps, harv = rows([3.0, 2.0]), rows([1e-5, 1e-6])
        assert linear_argmax(caps, harv, 1e3, w=np.array([0.0, 1.0])).tolist() == [1]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LinearScheduler("et", nu=0.0, w=np.array([-0.5]))

    def test_weight_length_mismatch(self):
        scheduler = LinearScheduler("et", nu=0.0, w=np.ones(3) / 3)
        with pytest.raises(ValueError):
            scheduler.select_block(block_of([1.0, 2.0], [0.0, 0.0]))


class TestSelect:
    def test_argmax(self):
        assert linear_argmax(rows([1.0, 2.0, 3.0]), rows([0.0, 0.0, 0.0]), 0.0).tolist() == [2]

    def test_tie_breaks_low_index(self):
        assert linear_argmax(rows([5.0, 5.0]), rows([1.0, 1.0]), 1.0).tolist() == [0]
        assert linear_argmax(
            rows([5.0, 4.0, 5.0]), rows([0.0, 0.0, 0.0]), 0.0, g=np.array([1.0, 0.0, 1.0])
        ).tolist() == [0]

    def test_single_user(self):
        assert linear_argmax(rows([-3.0]), rows([1.0]), 1.0).tolist() == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linear_argmax(np.empty((1, 0)), np.empty((1, 0)), 0.0)


small_ints = st.integers(min_value=-50, max_value=50).map(float)


@st.composite
def integer_slots(draw, max_slots=8, max_users=5):
    """Scores on small integers are exact in floating point, ties included."""
    n = draw(st.integers(min_value=1, max_value=max_users))
    m = draw(st.integers(min_value=1, max_value=max_slots))
    caps = np.array(draw(st.lists(small_ints, min_size=m * n, max_size=m * n))).reshape(m, n)
    harv = np.array(draw(st.lists(small_ints, min_size=m * n, max_size=m * n))).reshape(m, n)
    w = np.array(draw(st.lists(small_ints.map(abs), min_size=n, max_size=n)))
    g = np.array(draw(st.lists(small_ints, min_size=n, max_size=n)))
    nu = abs(draw(small_ints))
    return caps, harv, nu, w, g


class TestLinearArgmaxProperties:
    @hypothesis.settings(max_examples=200, deadline=None)
    @given(integer_slots(), small_ints)
    def test_shifting_offsets_keeps_argmax(self, slots, c):
        caps, harv, nu, w, g = slots
        assert np.array_equal(
            linear_argmax(caps, harv, nu, w, g + c), linear_argmax(caps, harv, nu, w, g)
        )

    @hypothesis.settings(max_examples=200, deadline=None)
    @given(integer_slots(), st.integers(min_value=1, max_value=64))
    def test_scaling_weights_and_price_keeps_argmax(self, slots, c):
        caps, harv, nu, w, _ = slots
        assert np.array_equal(
            linear_argmax(caps, harv, c * nu, w=c * w), linear_argmax(caps, harv, nu, w=w)
        )

    @hypothesis.settings(max_examples=200, deadline=None)
    @given(integer_slots(max_users=10))
    def test_matches_reference_scores(self, slots):
        # absent terms (a zero price too) are skipped, which must equal unit
        # weights, zero offsets and 0 * harvests; the inputs stay untouched
        caps, harv, nu, w, g = slots
        inputs = caps.copy(), harv.copy()
        for price in (nu, 0.0):
            for kw in ({}, {"w": w}, {"g": g}, {"w": w, "g": g}):
                expected = np.argmax(reference_scores(caps, harv, price, **kw), axis=1)
                assert np.array_equal(linear_argmax(caps, harv, price, **kw), expected)
        assert np.array_equal(caps, inputs[0]) and np.array_equal(harv, inputs[1])


class TestMemoryLayout:
    def test_user_major_sweep_past_255_users(self):
        # the sweep keeps its picks in bytes up to user 255 and widens them after
        rng = np.random.default_rng(300)
        caps = rng.integers(0, 40, size=(500, 300)).astype(float)
        harv = rng.integers(0, 5, size=(500, 300)).astype(float)
        expected = np.argmax(caps - 2.0 * harv, axis=1)
        assert expected.max() > 255
        picks = linear_argmax(np.asfortranarray(caps), np.asfortranarray(harv), 2.0)
        assert picks.dtype == np.intp and np.array_equal(picks, expected)

    @hypothesis.settings(max_examples=200, deadline=None)
    @given(integer_slots(max_slots=40, max_users=10))
    def test_user_major_equals_row_major(self, slots):
        # the per-user running maximum on Fortran arrays against the row path,
        # which sweeps the columns too below 8 users and reduces rows from 8 on
        caps, harv, nu, w, g = slots
        caps_f, harv_f = np.asfortranarray(caps), np.asfortranarray(harv)
        for kw in ({}, {"w": w}, {"g": g}, {"w": w, "g": g}):
            expected = linear_argmax(caps, harv, nu, **kw)
            assert np.array_equal(linear_argmax(caps_f, harv_f, nu, **kw), expected)
            assert np.array_equal(expected, np.argmax(reference_scores(caps, harv, nu, **kw), axis=1))
            # the whole-array score is the columns' byte for byte, in both layouts; only
            # with no term does a column view caps (``_access_step`` writes into the others)
            for price in (0.0, nu or 1.0):
                bare = not kw and price == 0.0
                for c, h in ((caps, harv), (caps_f, harv_f)):
                    columns = list(score_columns(c, h, price, **kw))
                    whole = _score(c, h, price, **kw)
                    assert whole.tobytes() == np.column_stack(columns).tobytes()
                    assert (whole is c) == bare
                    assert all(np.shares_memory(col, c) == bare for col in columns)


class TestSchedulerProperties:
    def test_selected_user_dominates(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(2), 5000)
        for kw in ({}, {"g": np.linspace(-1, 1, 5)}, {"w": np.linspace(0.1, 0.3, 5)}):
            scheduler = LinearScheduler("x", nu=1e5, **kw)
            metrics = reference_scores(block.capacities, block.harvests, 1e5, **kw)
            chosen = scheduler.select_block(block)
            assert np.all(metrics[np.arange(5000), chosen] >= metrics.max(axis=1) - 0.0)

    def test_every_slot_selects_exactly_one_user(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(3), 1_000_000)
        chosen = LinearScheduler("mt", nu=3e5).select_block(block)
        assert chosen.shape == (1_000_000,)
        assert chosen.min() >= 0 and chosen.max() < 5

    def test_decisions_depend_only_on_slot(self, table_config, table_profiles):
        # permuting the slot sequence permutes the decisions with it
        block = draw_block(table_profiles, table_config, np.random.default_rng(4), 4000)
        scheduler = LinearScheduler("pf", nu=2e5, g=np.linspace(-0.5, 0.5, 5))
        base = scheduler.select_block(block)
        perm = np.random.default_rng(5).permutation(4000)
        permuted = SlotBlock(
            gains=block.gains[perm],
            capacities=block.capacities[perm],
            harvests=block.harvests[perm],
        )
        assert np.array_equal(scheduler.select_block(permuted), base[perm])

    def test_block_matches_per_slot_reference(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(6), 50)
        theta = np.array([0.3, 0.2, 0.2, 0.2, 0.1])
        chosen = LinearScheduler("et", nu=1e4, w=theta).select_block(block)
        for i in range(50):
            scores = theta * block.capacities[i] - 1e4 * block.harvests[i]
            assert chosen[i] == int(np.argmax(scores))


class TestFactory:
    def test_make_optimal_scheduler(self):
        mt = make_optimal_scheduler("mt", DualState(nu=1.0))
        assert isinstance(mt, LinearScheduler)
        assert (mt.tag, mt.nu, mt.w, mt.g) == ("mt", 1.0, None, None)
        pf = make_optimal_scheduler("pf", DualState(nu=0.0, gamma=np.zeros(3)))
        assert pf.tag == "pf" and pf.w is None and np.array_equal(pf.g, np.zeros(3))
        et = make_optimal_scheduler("et", DualState(nu=0.0, theta=np.ones(3) / 3))
        assert et.tag == "et" and et.g is None and np.array_equal(et.w, np.ones(3) / 3)

    def test_missing_duals_rejected(self):
        with pytest.raises(ValueError):
            make_optimal_scheduler("pf", DualState(nu=0.0))
        with pytest.raises(ValueError):
            make_optimal_scheduler("et", DualState(nu=0.0))
        with pytest.raises(ValueError):
            make_optimal_scheduler("rr", DualState(nu=0.0))
