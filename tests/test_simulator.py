import itertools
import sys
import threading
from unittest.mock import Mock, patch

import numpy as np
import pytest
import hypothesis
from hypothesis import given
from hypothesis import strategies as st

from swiptsched import (
    CalibrationSettings,
    ConvergenceError,
    InfeasibleError,
    LinearScheduler,
    calibrate_et,
    calibrate_mt,
    calibrate_pf,
    OrderPolicy,
    SystemConfig,
    default_order_policies,
    draw_block,
    feasible_range,
    jain_index,
    make_order_scheduler,
    read_csv,
    replay,
    run,
    sweep_orders,
    sweep_q_req,
    write_csv,
    write_jsonl,
)
from swiptsched import DualState, calibration, channel, seeds, simulator
from swiptsched.simulator import RunStatistics, SweepPoint

from conftest import make_profiles, profiles_at


class TestJain:
    def test_bounds(self):
        assert jain_index(np.ones(4)) == pytest.approx(1.0)
        assert jain_index(np.array([1.0, 0, 0, 0])) == pytest.approx(0.25)
        mixed = jain_index(np.array([3.0, 1.0, 2.0, 0.5]))
        assert 0.25 <= mixed <= 1.0


class TestRun:
    def test_single_user_degenerate(self):
        config = SystemConfig(n_users=1, seed=4)
        profiles = profiles_at([15.0], config)
        stats = run(LinearScheduler("mt", nu=0.0), profiles, config, 20_000, seed=4)
        assert stats.avg_sum_harvest == 0.0
        assert stats.access_freq.tolist() == [1.0]
        # the average rate is the empirical mean capacity of the only user
        block = draw_block(profiles, config, seeds.substream(4, seeds.RUN), 20_000)
        assert stats.avg_sum_rate == pytest.approx(block.capacities.mean(), rel=1e-12)

    def test_zero_efficiency_zero_harvest(self):
        config = SystemConfig(n_users=3, seed=5, rf_dc_efficiency_per_user=0.0)
        profiles = make_profiles(config)
        stats = run(LinearScheduler("mt", nu=0.0), profiles, config, 10_000, seed=5)
        assert stats.avg_sum_harvest == 0.0

    def test_multiuser_diversity_gain(self):
        config = SystemConfig(n_users=8, seed=6)
        profiles = make_profiles(config)
        stats = run(LinearScheduler("mt", nu=0.0), profiles, config, 100_000, seed=6)
        block = draw_block(profiles, config, seeds.substream(6, seeds.RUN), 100_000)
        marginals = block.capacities.mean(axis=0)
        assert stats.avg_sum_rate > marginals.max()

    def test_statistics_identities(self, table_config, table_profiles):
        stats = run(LinearScheduler("mt", nu=2e5), table_profiles, table_config, 50_000, seed=7)
        assert stats.avg_sum_rate == pytest.approx(stats.per_user_rate.sum(), abs=0)
        assert stats.access_freq.sum() == pytest.approx(1.0, abs=1e-12)
        assert 1 / 5 <= stats.jain_index <= 1.0
        assert stats.slots == 50_000
        assert stats.stderr_sum_rate > 0
        assert stats.stderr_sum_harvest > 0

    def test_reproducible(self, table_config, table_profiles):
        a = run(LinearScheduler("mt", nu=1e5), table_profiles, table_config, 30_000, seed=8)
        b = run(LinearScheduler("mt", nu=1e5), table_profiles, table_config, 30_000, seed=8)
        assert a.avg_sum_rate == b.avg_sum_rate
        assert a.avg_sum_harvest == b.avg_sum_harvest
        assert np.array_equal(a.per_user_rate, b.per_user_rate)

    @hypothesis.settings(max_examples=12, deadline=None)
    @given(chunk=st.integers(min_value=1, max_value=300),
           sub=st.integers(min_value=1, max_value=300),
           n=st.integers(min_value=1, max_value=1500),
           scheme=st.sampled_from(["mt", "order-et"]))
    def test_replay_matches_run_exactly(self, chunk, sub, n, scheme, table_config,
                                        table_profiles):
        # run and replay share the chunks and sub-blocks, so the accumulators
        # agree bit for bit wherever either boundary falls
        if scheme == "mt":
            scheduler = LinearScheduler("mt", nu=3e5)
        else:
            policy = OrderPolicy("order-et", s_a=frozenset({1, 2, 3}))
            scheduler = make_order_scheduler(policy, table_profiles)
        with patch.object(simulator, "CHUNK_SLOTS", chunk), \
                patch.object(channel, "_SUB_BLOCK_BYTES", 8 * 5 * sub):
            stats = run(scheduler, table_profiles, table_config, n, seed=9, keep_log=True)
            again = replay(stats.selections, table_profiles, table_config, seed=9)
        assert again.avg_sum_rate == stats.avg_sum_rate
        assert again.avg_sum_harvest == stats.avg_sum_harvest
        assert np.array_equal(again.per_user_rate, stats.per_user_rate)
        assert np.array_equal(again.access_freq, stats.access_freq)
        assert again.stderr_sum_rate == stats.stderr_sum_rate
        assert again.stderr_sum_harvest == stats.stderr_sum_harvest

    @hypothesis.settings(max_examples=15, deadline=None)
    @given(chunk=st.integers(min_value=1, max_value=5000),
           sub=st.integers(min_value=1, max_value=300))
    def test_chunk_size_invariance(self, chunk, sub, table_config, table_profiles):
        # chunks and sub-blocks redraw no slot: decisions and counts are
        # identical, and the float accumulators differ only by summation order
        schedulers = [
            LinearScheduler("pf", nu=1e5, g=np.linspace(-0.5, 0.5, 5)),
            make_order_scheduler(OrderPolicy("order-et", s_a=frozenset({1, 2})), table_profiles),
        ]
        for scheduler in schedulers:
            base = run(scheduler, table_profiles, table_config, 3000, seed=17, keep_log=True)
            with patch.object(simulator, "CHUNK_SLOTS", chunk), \
                    patch.object(channel, "_SUB_BLOCK_BYTES", 8 * 5 * sub):
                other = run(scheduler, table_profiles, table_config, 3000, seed=17, keep_log=True)
            assert np.array_equal(other.selections, base.selections)
            assert np.array_equal(other.access_freq, base.access_freq)
            assert other.avg_sum_rate == pytest.approx(base.avg_sum_rate, rel=1e-12)
            assert other.avg_sum_harvest == pytest.approx(base.avg_sum_harvest, rel=1e-12)
            assert other.per_user_rate == pytest.approx(base.per_user_rate, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 8, 32])
    def test_sub_blocks_change_no_bit(self, n):
        # N=32 draws 1024-slot sub-blocks; the reference draws, scores and
        # sums whole chunks, as the run loop did before sub-blocks.  Below 8
        # users the sub-blocks sweep user columns, from 8 on they reduce rows.
        config = SystemConfig(n_users=n, seed=21)
        profiles = make_profiles(config)
        scheduler = LinearScheduler("mt", nu=2e5)
        n_slots = simulator.CHUNK_SLOTS + 777
        with patch.object(channel, "draw_block", Mock(wraps=draw_block)) as draws:
            stats = run(scheduler, profiles, config, n_slots, seed=22)
        step = channel._SUB_BLOCK_BYTES // (8 * n)
        assert draws.call_count == -(-simulator.CHUNK_SLOTS // step) + -(-777 // step)
        acc = simulator._Accumulator(n)
        rng = seeds.substream(22, seeds.RUN)
        for start in range(0, n_slots, simulator.CHUNK_SLOTS):
            block = draw_block(profiles, config, rng, min(simulator.CHUNK_SLOTS, n_slots - start))
            selections = scheduler.select_block(block)
            acc.add(selections, *block.outcome(selections))
        expected = acc.finish("mt", None)
        for name in ("slots", "avg_sum_rate", "avg_sum_harvest", "jain_index",
                     "stderr_sum_rate", "stderr_sum_harvest"):
            assert getattr(stats, name) == getattr(expected, name), name
        assert np.array_equal(stats.per_user_rate, expected.per_user_rate)
        assert np.array_equal(stats.access_freq, expected.access_freq)

    def test_draws_ahead_change_no_bit_under_fast_switching(self, table_config, table_profiles):
        # 7-slot sub-blocks while the interpreter switches threads every
        # microsecond: the helper's fill of one block never overtakes the
        # caller's transform and scoring of the other.  9 users take numpy's
        # pairwise row totals and the argmax over rows.
        wide = SystemConfig(n_users=9, seed=12)
        for config, profiles in ((table_config, table_profiles), (wide, make_profiles(wide))):
            n = config.n_users
            schedulers = [
                LinearScheduler("mt", nu=2e5),
                make_order_scheduler(OrderPolicy("order-et", s_a=frozenset({1, 3})), profiles),
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with patch.object(channel, "_SUB_BLOCK_BYTES", 8 * n * 7):
                    runs = [run(s, profiles, config, 3001, seed=25, keep_log=True)
                            for s in schedulers]
            finally:
                sys.setswitchinterval(interval)
            block = draw_block(profiles, config, seeds.substream(25, seeds.RUN), 3001)
            for scheduler, stats in zip(schedulers, runs):
                selections = scheduler.select_block(block, scheduler.start(n))
                rate, idle = block.outcome(selections)
                assert np.array_equal(stats.selections, selections)
                assert stats.avg_sum_harvest == float(idle.sum()) / 3001
                assert np.array_equal(stats.per_user_rate, np.bincount(selections, rate, n) / 3001)

    @pytest.mark.parametrize("n", [5, 9])
    def test_helper_fills_and_caller_transforms(self, n):
        # the one helper thread makes every generator call, in slot order, and
        # the calling thread runs draw_block once per sub-block; 9 users take
        # the row-major argmax
        config = SystemConfig(n_users=n, seed=31)
        profiles = make_profiles(config)
        scheduler = LinearScheduler("mt", nu=2e5)
        rng = seeds.substream(32, seeds.RUN)
        fills, transforms = [], []

        class Recorded:
            def standard_exponential(self, out):
                fills.append((threading.get_ident(), out.shape))
                rng.standard_exponential(out=out)

        def transform(*args):
            transforms.append((threading.get_ident(), args[3]))
            return draw_block(*args)

        with patch.object(channel, "_SUB_BLOCK_BYTES", 8 * n * 40), \
                patch.object(channel, "draw_block", transform):
            chunks = list(channel.slot_outcomes(profiles, config, Recorded(), 250, 100,
                                                lambda _, block: scheduler.select_block(block)))
        sizes = [40, 40, 20, 40, 40, 20, 40, 10]
        assert transforms == [(threading.get_ident(), size) for size in sizes]
        (helper,) = {ident for ident, _ in fills}
        assert helper != threading.get_ident()
        assert [shape for _, shape in fills] == [(size, n) for size in sizes]
        block = draw_block(profiles, config, seeds.substream(32, seeds.RUN), 250)
        selections = scheduler.select_block(block)
        for got, expected in zip(map(np.concatenate, zip(*chunks)),
                                 (selections, *block.outcome(selections))):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layer", ["select_block", "draw_block", "generator"])
    def test_failure_joins_the_draw_thread(self, layer, table_config, table_profiles):
        # a failing selection (third sub-block), draw (second) or generator
        # call (second) ends run with that error and leaves no helper thread
        def fail_on(k, fn):
            calls = itertools.count(1)

            def wrapped(*args, **kwargs):
                if next(calls) == k:
                    raise RuntimeError(f"{layer} failed")
                return fn(*args, **kwargs)
            return wrapped

        scheduler = LinearScheduler("mt", nu=1e5)
        if layer == "select_block":
            target = patch.object(scheduler, "select_block", fail_on(3, scheduler.select_block))
        elif layer == "draw_block":
            target = patch.object(channel, "draw_block", fail_on(2, draw_block))
        else:
            rng = seeds.substream(3, seeds.RUN)
            target = patch.object(seeds, "substream", return_value=Mock(
                standard_exponential=fail_on(2, rng.standard_exponential)))
        before = threading.active_count()
        with target, patch.object(channel, "_SUB_BLOCK_BYTES", 8 * 5 * 100), \
                pytest.raises(RuntimeError, match=f"{layer} failed"):
            run(scheduler, table_profiles, table_config, 1000, seed=3)
        assert threading.active_count() == before

    def test_no_users_rejected(self, table_config):
        with pytest.raises(ValueError, match="profiles must be non-empty"):
            run(LinearScheduler("mt", nu=0.0), [], table_config, 10, seed=1)

    def test_stateful_baseline_runs(self, table_config, table_profiles):
        scheduler = make_order_scheduler(
            OrderPolicy("order-et", s_a=frozenset({1, 2})), table_profiles
        )
        stats = run(scheduler, table_profiles, table_config, 5000, seed=10)
        assert stats.scheme == "order-et"
        assert stats.access_freq.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def small_settings():
    return CalibrationSettings(mc_slots=20_000, seed=11)


@pytest.fixture(scope="module")
def sweep_points(table_config, table_profiles):
    settings = CalibrationSettings(mc_slots=10_000, seed=14)
    return sweep_q_req("mt", [0.0, 1e-7], table_profiles, table_config, settings, 5_000, seed=14)


@pytest.fixture(scope="module")
def et_tail(table_config, table_profiles):
    # 0.994 of the pool maximum is reachable under equal throughput on this
    # pool; 1.002 is above the certified equal-throughput bound plus the
    # energy tolerance, so it is recorded as failed instead of aborting
    settings = CalibrationSettings(mc_slots=20_000, seed=16)
    fr = feasible_range(table_profiles, table_config, settings)
    grid = [0.0, 0.35 * fr.maximum, 0.6 * fr.maximum, 0.994 * fr.maximum,
            1.002 * fr.maximum]
    return settings, sweep_q_req("et", grid, table_profiles, table_config, settings, 20_000,
                                 seed=16)


@pytest.fixture(scope="module")
def pf_above_bound(table_config, table_profiles):
    # the top two targets lie above the equal-access bound (0.980 of the pool
    # maximum here) plus the energy tolerance (0.005 of it), below the maximum
    settings = CalibrationSettings(mc_slots=10_000, seed=12)
    fr = feasible_range(table_profiles, table_config, settings)
    grid = [0.0, 0.5 * fr.maximum, 0.99 * fr.maximum, 0.995 * fr.maximum]
    return settings, sweep_q_req("pf", grid, table_profiles, table_config, settings, 5_000,
                                 seed=12)


@pytest.fixture(scope="module")
def pf_descending(table_config, table_profiles):
    # a descending grid warm-starts each point from a price that overshoots
    # its target: at 0.6 of the pool maximum the price bisects below the
    # previous one, at 0 it drops to 0
    settings = CalibrationSettings(mc_slots=10_000, seed=12)
    fr = feasible_range(table_profiles, table_config, settings)
    grid = [0.95 * fr.maximum, 0.6 * fr.maximum, 0.0]
    return settings, sweep_q_req("pf", grid, table_profiles, table_config, settings, 2_000,
                                 seed=12)


def assert_plain_calibrations(points, profiles, config, settings):
    """Each sweep point is what its calibrator returns outside any sweep, warm-started
    from the previous feasible point: the same duals and residuals, or error text."""
    calibrate = {"mt": calibrate_mt, "pf": calibrate_pf, "et": calibrate_et}[points[0].scheme]
    warm = None
    for point in points:
        kwargs = {} if point.scheme == "mt" else {"warm_start": warm}
        try:
            duals = calibrate(point.q_req, profiles, config, settings, **kwargs)
        except (InfeasibleError, ConvergenceError) as exc:
            assert not point.feasible and str(exc) == point.error
            continue
        assert point.feasible and duals.nu == point.duals.nu
        for name in ("gamma", "theta"):
            mine, swept = getattr(duals, name), getattr(point.duals, name)
            assert (mine is None and swept is None) or np.array_equal(mine, swept)
        assert duals.calibration_residuals == point.duals.calibration_residuals
        warm = point.duals


class TestSweep:
    def test_zero_grid_is_unconstrained(self, table_config, table_profiles, small_settings):
        points = sweep_q_req(
            "mt", [0.0], table_profiles, table_config, small_settings, 20_000, seed=11
        )
        assert len(points) == 1
        assert points[0].feasible
        assert points[0].duals.nu == 0.0

    def test_rate_monotone_and_infeasible_recorded(
        self, table_config, table_profiles, small_settings
    ):
        fr = feasible_range(table_profiles, table_config, small_settings)
        grid = list(np.linspace(0.0, fr.maximum - fr.stderr_maximum, 6)) + [2 * fr.maximum]
        points = sweep_q_req(
            "mt", grid, table_profiles, table_config, small_settings, 40_000, seed=11
        )
        rates = [p.stats.avg_sum_rate for p in points if p.feasible]
        errs = [2 * p.stats.stderr_sum_rate for p in points if p.feasible]
        for i in range(len(rates) - 1):
            assert rates[i + 1] <= rates[i] + errs[i] + errs[i + 1]
        assert not points[-1].feasible
        assert points[-1].error is not None

    def test_parallel_matches_row_order(self, table_config, table_profiles, tmp_path):
        # calibration is sequential and warm-started whatever the worker count,
        # so a threaded sweep writes exactly the rows of a sequential one
        settings = CalibrationSettings(mc_slots=10_000, seed=12)
        fr = feasible_range(table_profiles, table_config, settings)
        grid = np.linspace(0.0, 0.6 * fr.maximum, 4)
        for scheme in ("mt", "pf", "et"):
            rows = []
            for workers in (1, 3):
                points = sweep_q_req(
                    scheme, grid, table_profiles, table_config, settings, 10_000, seed=12,
                    workers=workers,
                )
                path = tmp_path / f"{scheme}_{workers}.csv"
                write_csv(path, points, table_config.n_users)
                rows.append(read_csv(path))
            assert [row["q_req_watts"] for row in rows[0]] == list(grid)
            assert rows[0] == rows[1]

    def test_fairness_scheme_sweep_warm_starts(self, table_config, table_profiles):
        settings = CalibrationSettings(mc_slots=20_000, seed=15)
        fr = feasible_range(table_profiles, table_config, settings)
        grid = [0.0, 0.3 * fr.maximum, 0.5 * fr.maximum]
        for scheme in ("pf", "et"):
            points = sweep_q_req(
                scheme, grid, table_profiles, table_config, settings, 20_000, seed=15
            )
            assert all(p.feasible for p in points)
            rates = [p.stats.avg_sum_rate for p in points]
            assert rates[0] >= rates[-1] - 2 * points[0].stats.stderr_sum_rate

    def test_et_sweep_tail_reports_failure(self, et_tail):
        _, points = et_tail
        assert [p.feasible for p in points] == [True, True, True, True, False]
        assert "equal throughput" in points[-1].error
        assert "above the bound" in points[-1].error

    @pytest.mark.parametrize("scheme", ["mt", "pf", "et"])
    def test_one_pool_per_sweep(self, scheme, table_config, table_profiles, monkeypatch):
        settings = CalibrationSettings(mc_slots=5_000, seed=17)
        fr = feasible_range(table_profiles, table_config, settings)
        pool_of = Mock(wraps=calibration._pool_of)
        monkeypatch.setattr(calibration, "_pool_of", pool_of)
        grid = [0.0, 0.3 * fr.maximum, 0.6 * fr.maximum]
        points = sweep_q_req(scheme, grid, table_profiles, table_config, settings, 2_000, seed=17)
        assert pool_of.call_count == 1
        assert calibration._shared is None  # dropped: the runs hold no pool
        assert_plain_calibrations(points, table_profiles, table_config, settings)

    @pytest.mark.parametrize("sweep", ["et_tail", "pf_above_bound", "pf_descending"])
    def test_points_equal_plain_calibrations(self, sweep, request, table_config, table_profiles):
        settings, points = request.getfixturevalue(sweep)
        if sweep == "pf_above_bound":
            assert [p.feasible for p in points] == [True, True, False, False]
            assert all("equal channel access" in p.error for p in points[2:])
        if sweep == "pf_descending":
            nus = [p.duals.nu for p in points]
            assert nus[0] > nus[1] > nus[2] == 0.0
        assert_plain_calibrations(points, table_profiles, table_config, settings)

    def test_order_sweep_covers_all_ranks(self, table_config, table_profiles):
        points = sweep_orders(
            "order-mt", default_order_policies("order-mt", 5),
            table_profiles, table_config, 10_000, seed=13,
        )
        assert [p.order_j for p in points] == [1, 2, 3, 4, 5]
        harvests = [p.stats.avg_sum_harvest for p in points]
        # scheduling the weakest user leaves everyone else harvesting: with
        # uniform efficiencies, j=N maximizes harvest pointwise per slot
        assert harvests[-1] == max(harvests)
        assert harvests[-1] > harvests[0]


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def curves(draw):
    """(n_users, points): feasible points with arbitrary finite values, then an infeasible one."""
    n = draw(st.integers(min_value=1, max_value=4))
    per_user = st.lists(finite, min_size=n, max_size=n).map(np.array)
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        stats = RunStatistics("mt", 1, draw(finite), draw(finite), draw(per_user),
                              draw(per_user), draw(finite), 0.0, 0.0)
        points.append(SweepPoint(scheme="mt", q_req=draw(finite),
                                 duals=DualState(nu=draw(finite)), stats=stats, feasible=True))
    points.append(SweepPoint(scheme="mt", q_req=draw(finite), duals=None, stats=None,
                             feasible=False, error="infeasible"))
    return n, points


class TestSerialization:
    @hypothesis.settings(max_examples=50, deadline=None)
    @given(curve=curves())
    def test_csv_round_trip_exact(self, tmp_path_factory, curve):
        n_users, points = curve
        path = tmp_path_factory.mktemp("csv") / "curve.csv"
        write_csv(path, points, n_users)
        rows = read_csv(path)
        assert len(rows) == len(points)
        for point, row in zip(points[:-1], rows):
            assert row["scheme"] == "mt"
            assert row["q_req_watts"] == point.q_req
            assert row["nu"] == point.duals.nu
            assert row["avg_sum_rate_bpcu"] == point.stats.avg_sum_rate
            assert row["avg_sum_harvest_watts"] == point.stats.avg_sum_harvest
            assert row["jain_index"] == point.stats.jain_index
            for n in range(n_users):
                assert row[f"per_user_rate_{n}"] == point.stats.per_user_rate[n]
                assert row[f"access_freq_{n}"] == point.stats.access_freq[n]
            assert row["feasible_flag"] == 1
        assert rows[-1]["q_req_watts"] == points[-1].q_req
        assert rows[-1]["feasible_flag"] == 0
        assert rows[-1]["avg_sum_rate_bpcu"] is None

    @hypothesis.settings(max_examples=50, deadline=None)
    @given(curve=curves())
    def test_jsonl_fields_match_csv(self, tmp_path_factory, curve):
        import json

        n_users, points = curve
        directory = tmp_path_factory.mktemp("jsonl")
        write_csv(directory / "curve.csv", points, n_users)
        write_jsonl(directory / "curve.jsonl", points, n_users)
        with open(directory / "curve.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        assert read_csv(directory / "curve.csv") == records

    def test_rate_unit_scaling(self, tmp_path, sweep_points, table_config):
        path = tmp_path / "curve_bps.csv"
        write_csv(path, sweep_points[:1], table_config.n_users,
                  rate_scale=table_config.bandwidth_hz, rate_unit="bps")
        rows = read_csv(path)
        assert rows[0]["avg_sum_rate_bps"] == pytest.approx(
            sweep_points[0].stats.avg_sum_rate * 200e3
        )
