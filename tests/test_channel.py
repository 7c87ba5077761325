import json
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swiptsched import (
    ConfigError,
    SlotBlock,
    SystemConfig,
    dbm_to_watts,
    draw_block,
    load_config,
    mean_channel_gain,
    place_users,
    replay,
)
from swiptsched import seeds
from swiptsched.channel import profile_arrays, row_reduce
from swiptsched.oracle import FiniteInstance

from conftest import make_profiles

# Reference gain at the 2 m reference distance, 915 MHz, 10 + 2 dBi,
# computed independently in dB domain:
#   12 dB + 20*log10(lambda / (4 pi d0)),  lambda = c / 915e6
OMEGA_AT_REF = 0.002693515619621581


def test_dbm_to_watts():
    assert dbm_to_watts(40.0) == pytest.approx(10.0, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(-62.0) == pytest.approx(6.309573444801942e-10, rel=1e-12)


class TestMeanChannelGain:
    def test_reference_distance_value(self, table_config):
        assert mean_channel_gain(2.0, table_config) == pytest.approx(OMEGA_AT_REF, rel=1e-9)

    def test_doubling_distance(self, table_config):
        ratio = mean_channel_gain(4.0, table_config) / mean_channel_gain(2.0, table_config)
        assert ratio == pytest.approx(2.0 ** -3.6, rel=1e-12)

    def test_zero_exponent_flat(self):
        config = SystemConfig(n_users=1, path_loss_exponent=0.0)
        assert mean_channel_gain(2.0, config) == mean_channel_gain(77.0, config)

    def test_below_reference_rejected(self, table_config):
        with pytest.raises(ValueError):
            mean_channel_gain(1.0, table_config)


class TestPlacement:
    def test_degenerate_interval(self):
        config = SystemConfig(n_users=1, ref_distance_m=2.0, max_distance_m=2.0)
        profiles = place_users(config, np.random.default_rng(0))
        assert profiles[0].distance_m == 2.0

    def test_deterministic_by_seed(self, table_config):
        a = make_profiles(table_config, seed=123)
        b = make_profiles(table_config, seed=123)
        assert [p.distance_m for p in a] == [p.distance_m for p in b]

    def test_uniform_mean(self):
        config = SystemConfig(n_users=10_000, seed=3)
        profiles = make_profiles(config)
        mean = np.mean([p.distance_m for p in profiles])
        assert mean == pytest.approx(51.0, rel=0.01)

    def test_prefix_stability_in_n_users(self):
        # growing n_users extends the placement without moving earlier users
        small = make_profiles(SystemConfig(n_users=5, seed=9))
        large = make_profiles(SystemConfig(n_users=8, seed=9))
        assert [p.distance_m for p in small] == [p.distance_m for p in large[:5]]

    def test_mean_gain_matches_distance(self, table_config, table_profiles):
        for p in table_profiles:
            assert p.mean_gain == mean_channel_gain(p.distance_m, table_config)


class TestDrawing:
    def test_capacity_and_harvest_definitions(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(5), 500)
        sigma2 = np.array([p.noise_power for p in table_profiles])
        xi = np.array([p.efficiency for p in table_profiles])
        p = table_config.tx_power
        assert np.array_equal(block.capacities, np.log2(1 + p * block.gains / sigma2))
        assert np.array_equal(block.harvests, xi * p * block.gains)
        # spot values of the defining formulas themselves
        assert 0.5 * 10.0 * 1e-6 == pytest.approx(5e-6)
        assert math.log2(1 + 1.0) == 1.0

    def test_unit_snr_capacity(self):
        # a gain of sigma^2 / P gives exactly 1 bit/channel use
        h = 1e-9 / 10.0
        assert np.log2(1 + 10.0 * h / 1e-9) == 1.0

    def test_monotone_in_gain(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(8), 2000)
        order = np.argsort(block.gains, axis=1)
        caps = np.take_along_axis(block.capacities, order, axis=1)
        harv = np.take_along_axis(block.harvests, order, axis=1)
        assert np.all(np.diff(caps, axis=1) > 0)
        assert np.all(np.diff(harv, axis=1) > 0)

    def test_block_matches_consecutive_blocks(self, table_config, table_profiles):
        # the property chunked runs rely on: splitting a block changes no draw
        block = draw_block(table_profiles, table_config, np.random.default_rng(42), 64)
        for a in (1, 17, 63):
            rng = np.random.default_rng(42)
            head = draw_block(table_profiles, table_config, rng, a)
            tail = draw_block(table_profiles, table_config, rng, 64 - a)
            for name in ("gains", "capacities", "harvests"):
                joined = np.concatenate([getattr(head, name), getattr(tail, name)])
                assert np.array_equal(joined, getattr(block, name))

    def test_out_block_changes_no_bit(self, table_config, table_profiles):
        # the fresh-array arithmetic draw_block had before it took ``out``
        omega, xi, sigma2 = profile_arrays(table_profiles)
        gains = np.random.default_rng(43).standard_exponential((50, 5)) * omega
        capacities = table_config.tx_power * gains
        capacities /= sigma2
        capacities += 1.0
        expected = gains, np.log2(capacities), (xi * table_config.tx_power) * gains
        spare = SlotBlock(*(np.full((64, 5), np.nan) for _ in range(3)))
        for out in (None, spare):
            block = draw_block(table_profiles, table_config, np.random.default_rng(43), 50, out)
            for got, want in zip((block.gains, block.capacities, block.harvests), expected):
                assert np.array_equal(got, want)
        assert np.shares_memory(block.gains, spare.gains)

    def test_deterministic_by_seed(self, table_config, table_profiles):
        a = draw_block(table_profiles, table_config, seeds.substream(4, seeds.RUN), 100)
        b = draw_block(table_profiles, table_config, seeds.substream(4, seeds.RUN), 100)
        assert np.array_equal(a.gains, b.gains)

    def test_empirical_mean_gain(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(6), 1_000_000)
        omega = np.array([p.mean_gain for p in table_profiles])
        assert np.all(np.abs(block.gains.mean(axis=0) / omega - 1.0) < 0.005)

    def test_no_exact_gain_ties(self, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(7), 1_000_000)
        sorted_gains = np.sort(block.gains, axis=1)
        assert np.all(np.diff(sorted_gains, axis=1) > 0)

    def test_empty_profiles_rejected(self, table_config):
        with pytest.raises(ValueError):
            draw_block([], table_config, np.random.default_rng(0), 10)


class TestSlotOutcome:
    def test_scheduled_capacity_and_idle_harvest(self):
        block = SlotBlock(
            None,
            capacities=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            harvests=np.array([[0.1, 0.2, 0.4], [0.8, 1.6, 3.2]]),
        )
        selections = np.array([2, 0])
        rate, idle = block.outcome(selections)
        assert rate.tolist() == [3.0, 4.0]
        assert idle.tolist() == pytest.approx([0.3, 4.8])
        harvest, access, rates = block.summary(selections)
        assert harvest == pytest.approx(2.55)
        assert access.tolist() == [0.5, 0.0, 0.5]
        assert rates.tolist() == [2.0, 0.0, 1.5]
        assert block.max_harvest().tolist() == pytest.approx([0.6, 4.8])


def mixed_rows(n: int):
    """1 to 20 rows of n finite values from subnormal to 1e6, zeros of both signs included."""
    return st.integers(min_value=1, max_value=20).flatmap(
        lambda m: st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=m * n,
                           max_size=m * n).map(lambda v: np.array(v).reshape(m, n)))


class TestRowTotal:
    @pytest.mark.parametrize("n", range(1, 13))
    @hypothesis.settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_numpy_row_sum_bit_for_bit(self, n, data):
        # guards the column sweep below 8 users against a change of numpy's summation order
        values = data.draw(mixed_rows(n))
        assert row_reduce(values).tobytes() == values.sum(axis=1).tobytes()


class TestRowReduce:
    @pytest.mark.parametrize("n", range(1, 13))
    @hypothesis.settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_min_and_max_equal_numpy_bit_for_bit(self, n, data):
        # the column sweep below 8 users against numpy's row reduction, signed zeros,
        # NaN and infinities included
        cell = st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                         st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))
        m = data.draw(st.integers(min_value=1, max_value=20))
        values = np.array(data.draw(st.lists(cell, min_size=m * n, max_size=m * n))).reshape(m, n)
        assert row_reduce(values, np.minimum).tobytes() == values.min(axis=1).tobytes()
        assert row_reduce(values, np.maximum).tobytes() == values.max(axis=1).tobytes()
        with np.errstate(invalid="ignore"):  # inf - inf
            assert row_reduce(values, np.add).tobytes() == values.sum(axis=1).tobytes()

    def test_equal_up_to_the_sign_of_a_nan(self):
        # NaNs of both signs in a row: the sweep's min and max can keep the negative NaN
        # where numpy returns the positive one; every other bit agrees
        values = np.array([[-np.nan, 1.0, np.nan], [np.nan, -2.0, -np.nan], [0.0, -0.0, 1.0]])
        for ufunc in (np.add, np.minimum, np.maximum):
            ours, ref = row_reduce(values, ufunc), ufunc.reduce(values, axis=1)
            assert np.array_equal(np.isnan(ours), np.isnan(ref))
            assert ours[~np.isnan(ours)].tobytes() == ref[~np.isnan(ref)].tobytes()

    def test_one_row_total_keeps_numpy_nan(self):
        # an in-place add of one-element arrays can keep the other operand's NaN
        values = np.array([[0.0, np.inf, -np.inf, np.nan]])
        with np.errstate(invalid="ignore"):
            assert row_reduce(values).tobytes() == values.sum(axis=1).tobytes()


def fancy_outcome(block, selections):
    """The outcome gathered by 2-D fancy indexing, the reference for the flat gather."""
    rows = np.arange(len(selections))
    picked_c = block.capacities[rows, selections]
    return picked_c, block.harvests.sum(axis=1) - block.harvests[rows, selections]


class TestOutcomeLayouts:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_matches_fancy_index_reference(self, layout, table_config, table_profiles):
        block = draw_block(table_profiles, table_config, np.random.default_rng(5), 400)
        if layout == "F":
            block = SlotBlock(None, np.asfortranarray(block.capacities),
                              np.asfortranarray(block.harvests))
        elif layout == "strided":
            block = SlotBlock(None, block.capacities[::3, 1:], block.harvests[::3, 1:])
        selections = np.random.default_rng(6).integers(0, block.n_users, block.n_slots)
        rate, idle = block.outcome(selections)
        ref_rate, ref_idle = fancy_outcome(block, selections)
        assert np.array_equal(rate, ref_rate) and np.array_equal(idle, ref_idle)
        qbar, access, rates = block.summary(selections)
        n = block.n_users
        assert qbar == float(ref_idle.sum()) / block.n_slots
        assert np.array_equal(access, np.bincount(selections, minlength=n) / block.n_slots)
        assert np.array_equal(rates, np.bincount(selections, ref_rate, n) / block.n_slots)


@pytest.mark.parametrize("past_end", [False, True], ids=["minus_one", "n_users"])
@pytest.mark.parametrize("caller", ["replay", "rate_of", "harvest_of"])
def test_selection_out_of_range_rejected(caller, past_end, table_config, table_profiles):
    """-1 must not wrap to the last user, nor n_users read the next slot's first user."""
    selections = np.zeros(8, dtype=np.intp)
    selections[2] = table_config.n_users if past_end else -1
    with pytest.raises(IndexError):
        if caller == "replay":
            replay(selections, table_profiles, table_config, seed=3)
        else:
            block = draw_block(table_profiles, table_config, np.random.default_rng(2), 8)
            instance = FiniteInstance(block.capacities, block.harvests, q_req=0.0)
            getattr(instance, caller)(selections)


@pytest.mark.parametrize("selections", [np.array([0]), np.zeros(3, dtype=np.intp),
                                        np.zeros(5, dtype=np.intp),
                                        np.zeros((4, 1), dtype=np.intp),
                                        np.zeros((1, 4), dtype=np.intp)],
                         ids=["one", "short", "long", "column", "row"])
@pytest.mark.parametrize("caller", ["rate_of", "harvest_of", "summary"])
def test_selection_not_one_per_slot_rejected(caller, selections):
    """A selection must hold one user per slot: a short one used to average a
    partial gather over every slot, and a 2-D one failed only inside numpy."""
    caps = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 2.0, 1.0], [0.5, 1.5, 1.0]])
    instance = FiniteInstance(caps, caps[::-1].copy(), q_req=0.0)
    target = instance.block if caller == "summary" else instance
    with pytest.raises(ValueError, match=r"selections must have shape \(4,\)"):
        getattr(target, caller)(selections)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_users=0)
        with pytest.raises(ConfigError):
            SystemConfig(n_users=2, tx_power=-1.0)
        with pytest.raises(ConfigError):
            SystemConfig(n_users=2, rf_dc_efficiency_per_user=1.5)
        with pytest.raises(ConfigError):
            SystemConfig(n_users=2, ref_distance_m=10.0, max_distance_m=5.0)
        with pytest.raises(ConfigError):
            SystemConfig(n_users=2, noise_power_per_user=[1e-10, 1e-10, 1e-10])
        for kwargs, message in (
            (dict(noise_power_per_user=0.0), "noise power must be positive"),
            (dict(ref_distance_m=0.0), "ref_distance_m must be positive"),
            (dict(path_loss_exponent=-0.1), "path_loss_exponent must be nonnegative"),
            (dict(carrier_hz=0.0), "carrier_hz must be positive"),
            (dict(n_slots=0), "n_slots must be at least 1"),
            (dict(bandwidth_hz=-1.0), "bandwidth_hz must be positive"),
        ):
            with pytest.raises(ConfigError, match=message):
                SystemConfig(n_users=2, **kwargs)

    @pytest.mark.parametrize("field", [
        "tx_power", "noise_power_per_user", "rf_dc_efficiency_per_user", "path_loss_exponent",
        "ref_distance_m", "max_distance_m", "ap_antenna_gain_dbi", "ut_antenna_gain_dbi",
        "carrier_hz", "q_req", "bandwidth_hz",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SystemConfig(n_users=2, **{field: value})

    @pytest.mark.parametrize("field", ["n_users", "n_slots", "seed"])
    @pytest.mark.parametrize("value", [2.7, 3.0, True, "3", None])
    def test_int_field_takes_integers_only(self, field, value):
        kwargs = {"n_users": 2, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("field", [
        "tx_power", "path_loss_exponent", "ref_distance_m", "max_distance_m",
        "ap_antenna_gain_dbi", "ut_antenna_gain_dbi", "carrier_hz", "q_req", "bandwidth_hz",
    ])
    @pytest.mark.parametrize("value", [[1, 2], "1"], ids=["list", "string"])
    def test_scalar_field_takes_numbers_only(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            SystemConfig(n_users=2, **{field: value})

    def test_numpy_integers_accepted(self):
        config = SystemConfig(n_users=np.int64(3), n_slots=np.int32(10), seed=np.uint8(4))
        assert config.noise_powers().shape == (3,)

    def test_non_finite_per_user_entry_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_users=2, noise_power_per_user=[1e-10, math.nan])

    def test_per_user_arrays(self):
        config = SystemConfig(
            n_users=2, noise_power_per_user=[1e-10, 2e-10], rf_dc_efficiency_per_user=0.3
        )
        assert config.noise_powers().tolist() == [1e-10, 2e-10]
        assert config.efficiencies().tolist() == [0.3, 0.3]


class TestConfigFile:
    def test_keyvalue_roundtrip(self, tmp_path):
        path = tmp_path / "system.cfg"
        path.write_text(
            "# comment\n"
            "n_users = 3\n"
            "tx_power_dbm = 40\n"
            "noise_power_per_user_dbm = -62\n"
            "rf_dc_efficiency_per_user = 0.5\n"
            "q_req = 1e-6\n"
            "seed = 9\n"
        )
        config = load_config(path)
        assert config.n_users == 3
        assert config.tx_power == pytest.approx(10.0)
        assert config.noise_powers()[0] == pytest.approx(6.309573444801942e-10)
        assert config.q_req == 1e-6
        assert config.seed == 9

    def test_json_config(self, tmp_path):
        path = tmp_path / "system.json"
        payload = {"n_users": 2, "tx_power": 5.0, "noise_power_per_user": [1e-10, 2e-10]}
        path.write_text(json.dumps(payload))
        config = load_config(path)
        assert config.tx_power == 5.0
        assert config.noise_powers().tolist() == [1e-10, 2e-10]

    @pytest.mark.parametrize("text, expected", [
        ("n_users = 2\nn_slots = 1e5\nseed = 3.0\n", (2, 100_000, 3)),
        ('{"n_users": 4.0, "n_slots": 20000, "seed": 0}', (4, 20_000, 0)),
    ])
    def test_integral_numbers_accepted(self, tmp_path, text, expected):
        path = tmp_path / "system.cfg"
        path.write_text(text)
        config = load_config(path)
        assert (config.n_users, config.n_slots, config.seed) == expected
        assert all(type(v) is int for v in expected)

    @pytest.mark.parametrize("text, key", [
        ("n_users = 2.7\n", "n_users"),
        ('{"n_users": true}', "n_users"),
        ('{"n_users": 2, "seed": 2.9}', "seed"),
        ('n_users = 2\nn_slots = "100"\n', "n_slots"),
        ("n_users = 2\nseed = 1, 2\n", "seed"),
        ("n_users = 2\nn_slots = Infinity\n", "n_slots"),
    ])
    def test_non_integers_rejected(self, tmp_path, text, key):
        path = tmp_path / "system.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            load_config(path)

    @pytest.mark.parametrize("key", ["tx_power_dbm", "noise_power_per_user_dbm"])
    @pytest.mark.parametrize("value", [True, "-62", [-62, False], [-62, "-62"]],
                             ids=["bool", "string", "list-bool", "list-string"])
    def test_dbm_key_takes_numbers_only(self, tmp_path, key, value):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"n_users": 2, key: value}))
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_users = 2\nshadowing_db = 8\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_conflicting_dbm_and_watts(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_users = 2\ntx_power = 10\ntx_power_dbm = 40\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_n_users(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("tx_power = 10\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")
