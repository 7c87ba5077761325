"""The benchmark's three workloads and the checks on their outputs.

Every workload pins its scenario: the user geometry and the calibration
slot pool come from fixed geometry seeds.  The pass count of a cold
PF or ET calibration jumps by a factor of two to four between
geometries and pools (for example 349 to 3230 passes), so a scenario
drawn from ``--seed`` would make time to solution swing by tens of
percent from seed to seed.  ``--seed`` draws everything whose cost does
not depend on it: the slot streams of every ``run``, the fresh slots of
every out-of-sample validation, and the oracle's instances.

A workload has three parts.  ``setup`` builds what the timed phase
reuses.  ``round`` is the timed work, the same work every time it is
called, so its counts repeat exactly.  ``check`` validates one round's
outputs (untimed) and returns the text its digest is taken from.

Calls go through the package attributes (``ss.run``, ``ss_cli.main``)
at call time, so the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from pathlib import Path
from statistics import NormalDist

import numpy as np

import swiptsched as ss
import swiptsched.cli as ss_cli
from swiptsched import seeds

# Chance that a statistical check fails on correct code.  At 2
# standard errors a one-sided check fails 2.3 % of the time, and a set
# of runs checks hundreds of values, so correct code would be flagged.
FALSE_ALARM = 3e-5
Z = NormalDist().inv_cdf(1 - FALSE_ALARM)


def z_family(n: int) -> float:
    """Two-sided z for n values checked together at the same false-alarm rate."""
    return NormalDist().inv_cdf(1 - FALSE_ALARM / (2 * n))


POOL_SLOTS = 20_000
VALIDATION_SLOTS = 100_000
SCENARIO_SEED = 11


class Op:
    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Ledger:
    """Counts operations attempted and failed; prints each failure to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def op(self, what: str):
        op = Op()
        self.attempted += 1
        try:
            yield op
        except Exception:
            op.problems.append("raised " + traceback.format_exc())
        if op.problems:
            self.failed += 1
            print(f"FAIL {what}: " + "; ".join(op.problems), file=sys.stderr)


def scenario_config(n_users: int, geometry_seed: int, n_slots: int = 100_000) -> dict:
    """Every SystemConfig field, pinned."""
    return dict(
        n_users=n_users, tx_power=10.0, noise_power_per_user=ss.dbm_to_watts(-62.0),
        rf_dc_efficiency_per_user=0.5, path_loss_exponent=3.6, ref_distance_m=2.0,
        max_distance_m=100.0, ap_antenna_gain_dbi=10.0, ut_antenna_gain_dbi=2.0,
        carrier_hz=915e6, q_req=0.0, n_slots=n_slots, seed=geometry_seed,
        bandwidth_hz=200e3,
    )


def scenario(n_users: int, geometry_seed: int):
    config = ss.SystemConfig(**scenario_config(n_users, geometry_seed))
    profiles = ss.place_users(config, seeds.substream(geometry_seed, seeds.PLACEMENT))
    return config, profiles


def calibration_settings(pool_seed: int, mc_slots: int = POOL_SLOTS) -> ss.CalibrationSettings:
    """Every CalibrationSettings field, pinned (tol_energy=None resolves per instance)."""
    return ss.CalibrationSettings(
        mc_slots=mc_slots, max_iters=6000, step_size=0.5, tol_energy=None,
        tol_access=0.005, tol_rate=0.01, seed=pool_seed,
    )


def target(profiles, config, settings, fraction: float) -> float:
    """Harvest target at ``fraction`` of the way from greedy to maximum harvest."""
    fr = ss.feasible_range(profiles, config, settings)
    return fr.greedy + fraction * (fr.maximum - fr.greedy)


def run_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def calibrate(scheme: str, q_req: float, profiles, config, settings):
    """Calibrated duals, or the ConvergenceError/InfeasibleError raised."""
    fn = {"mt": ss.calibrate_mt, "pf": ss.calibrate_pf, "et": ss.calibrate_et}[scheme]
    try:
        return fn(q_req, profiles, config, settings)
    except (ss.ConvergenceError, ss.InfeasibleError) as exc:
        return exc


# -- checks --------------------------------------------------------------


def check_calibration(op: Op, scheme: str, duals, q_req: float, settings) -> None:
    if isinstance(duals, Exception):
        op.expect(False, f"calibrate_{scheme} raised {type(duals).__name__}: {duals}")
        return
    r = duals.calibration_residuals
    tol_e = r["tol_energy"]
    op.expect(r["converged"], "not converged")
    op.expect(r["qbar_pool"] >= q_req - tol_e, f"pool harvest {r['qbar_pool']} < target - tol")
    op.expect(duals.nu >= 0, "negative nu")
    if duals.nu > 0:  # a priced constraint must bind
        op.expect(r["qbar_pool"] <= q_req + tol_e, "positive nu on a slack constraint")
    if scheme == "pf":
        op.expect(r["access_gap"] <= settings.tol_access, f"access gap {r['access_gap']}")
    if scheme == "et":
        op.expect(r["rate_spread"] <= settings.tol_rate, f"rate spread {r['rate_spread']}")
        theta = np.asarray(duals.theta)
        op.expect(np.all(theta >= 0) and abs(theta.sum() - 1.0) <= 1e-9, "theta off simplex")


def check_run(op: Op, stats, n_slots: int) -> None:
    op.expect(stats.slots == n_slots, f"{stats.slots} slots, expected {n_slots}")
    op.expect(stats.avg_sum_rate == float(stats.per_user_rate.sum()),
              "per-user rates do not sum to avg_sum_rate")
    op.expect(abs(float(stats.access_freq.sum()) - 1.0) <= 1e-12,
              "access frequencies do not sum to 1")
    op.expect(np.all(np.isfinite(stats.per_user_rate)) and math.isfinite(stats.avg_sum_harvest),
              "non-finite statistics")


def harvest_sigma(stats) -> float:
    """Per-slot standard deviation of the sum harvest, from a run."""
    return stats.stderr_sum_harvest * math.sqrt(stats.slots)


def check_harvest(op: Op, harvest: float, q_req: float, tol_e: float,
                  sigma: float, m_fresh: int, m_pool: int) -> None:
    """Out-of-sample harvest meets the target within tol_e + Z standard errors.

    The standard error is that of the difference between the fresh
    estimate and the calibration pool's estimate.
    """
    se = sigma * math.sqrt(1.0 / m_fresh + 1.0 / m_pool)
    op.expect(harvest >= q_req - tol_e - Z * se,
              f"harvest {harvest:.6g} below target {q_req:.6g} - tol {tol_e:.3g} - {Z:.2f} SE {se:.3g}")


def check_equal_access(op: Op, access: np.ndarray, slack: float, m: int, m_pool: int = 0) -> None:
    n = len(access)
    p = 1.0 / n
    var = p * (1 - p) * (1.0 / m + (1.0 / m_pool if m_pool else 0.0))
    bound = slack + z_family(n) * math.sqrt(var)
    gap = float(np.max(np.abs(access - p)))
    op.expect(gap <= bound, f"access gap {gap:.3g} > {bound:.3g}")


def stats_text(stats) -> str:
    values = [stats.avg_sum_rate, stats.avg_sum_harvest, *stats.per_user_rate, *stats.access_freq]
    return " ".join(repr(float(v)) for v in values)


def duals_text(duals) -> str:
    if isinstance(duals, Exception):
        return type(duals).__name__
    parts = [duals.nu]
    for arr in (duals.gamma, duals.theta):
        if arr is not None:
            parts += list(arr)
    return " ".join(repr(float(v)) for v in parts)


def calls_named(calls, name: str):
    return [c for c in calls if c.name == name]


# -- workloads -----------------------------------------------------------


class Workload:
    name = ""
    # Where the workload's calibrate_* calls happen: "round" or "setup".
    calibrates_in = "round"

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def round(self, state):
        raise NotImplementedError

    def check(self, state, out, calls, ledger: Ledger) -> str:
        raise NotImplementedError

    def check_setup(self, state, ledger: Ledger) -> None:
        pass


class CalibEt(Workload):
    """Cold ET calibrations on three geometries, validated out of sample.

    Fairness calibration is the largest cost in the package; here the
    calibration passes are nearly all the work.  The target sits 30 %
    of the way from the greedy to the maximum harvest, where ET's own
    harvest already meets it, so the passes are spent on theta.
    """

    name = "calib-et"
    GEOMETRIES = (11, 12, 13)
    FRACTION = 0.3
    RUN_SLOTS = 200_000

    def setup(self, seed, workdir):
        cases = []
        for g in self.GEOMETRIES:
            config, profiles = scenario(5, g)
            settings = calibration_settings(g)
            q = target(profiles, config, settings, self.FRACTION)
            cases.append((g, config, profiles, settings, q))
        return dict(seed=seed, cases=cases,
                    validation=calibration_settings(seed, VALIDATION_SLOTS))

    def round(self, state):
        out = []
        for k, (g, config, profiles, settings, q) in enumerate(state["cases"]):
            duals = calibrate("et", q, profiles, config, settings)
            est = stats = None
            if not isinstance(duals, Exception):
                est = ss.estimate_constraints(
                    "et", duals, profiles, config, state["validation"],
                    rng=seeds.substream(state["seed"], seeds.VALIDATION, k),
                )
                stats = ss.run(ss.make_optimal_scheduler("et", duals), profiles, config,
                               self.RUN_SLOTS, run_seed(state["seed"], k))
            out.append((duals, est, stats))
        return out

    def check(self, state, out, calls, ledger):
        text = []
        for (g, _, _, settings, q), (duals, est, stats) in zip(state["cases"], out):
            with ledger.op(f"calibrate_et geometry {g}") as op:
                check_calibration(op, "et", duals, q, settings)
            text.append(duals_text(duals))
            if est is None:
                continue
            with ledger.op(f"run et geometry {g}") as op:
                check_run(op, stats, self.RUN_SLOTS)
            with ledger.op(f"estimate_constraints et geometry {g}") as op:
                check_harvest(op, est.mean_sum_harvest, q,
                              duals.calibration_residuals["tol_energy"],
                              harvest_sigma(stats), VALIDATION_SLOTS, settings.mc_slots)
            text += [repr(est.mean_sum_harvest), stats_text(stats)]
        return "\n".join(text)


class RunOnline(Workload):
    """Long runs of calibrated and order-based schedulers at N = 5 and 32.

    The duals are calibrated in setup, so the timed work is draw_block,
    select_block and the run accumulator.  N = 32 grows the per-chunk
    arrays from 2.6 MB to 17 MB, past the 2 MiB per-core L2.  ET is not
    run at N = 32: its calibration there does not converge in 6000
    passes.

    Two reference parts are measured nowhere else: order-ET runs with
    multi-rank eligible sets (the per-slot loop in ``baselines``) and
    brute-force oracle instances checking the MT dual schedule's gap.
    They are kept short.  A Python loop per slot slows down more than
    array code when the shared machine is busy, and as a workload of
    their own their run-to-run spread exceeded 0.3 of the median.
    """

    name = "run-online"
    calibrates_in = "setup"
    GEOMETRY = 12  # its ET calibration takes 768 passes, which keeps set-up short
    FRACTION = 0.6
    ET_FRACTION = 0.3
    PLAN = {5: (("mt", "pf", "et", "order-mt", "order-pf"), 1_000_000),
            32: (("mt", "pf", "order-mt", "order-pf"), 250_000)}
    ORDER_ET_SETS = ((1, 2), (1, 2, 3), (2, 3, 4))
    ORDER_ET_SLOTS = 10_000
    ORACLE_INSTANCES = 16
    ORACLE_USERS = 4
    ORACLE_SLOTS = 8

    def setup(self, seed, workdir):
        jobs = []
        for n, (schemes, slots) in self.PLAN.items():
            config, profiles = scenario(n, self.GEOMETRY)
            settings = calibration_settings(self.GEOMETRY)
            q = target(profiles, config, settings, self.FRACTION)
            q_et = target(profiles, config, settings, self.ET_FRACTION)
            for scheme in schemes:
                job = dict(n=n, scheme=scheme, slots=slots, config=config,
                           profiles=profiles, settings=settings, duals=None)
                if scheme.startswith("order-"):
                    policy = ss.OrderPolicy(scheme, j=2)
                    job["scheduler"] = ss.make_order_scheduler(policy, profiles)
                else:
                    job["q"] = q_et if scheme == "et" else q
                    job["duals"] = calibrate(scheme, job["q"], profiles, config, settings)
                    if not isinstance(job["duals"], Exception):
                        job["scheduler"] = ss.make_optimal_scheduler(scheme, job["duals"])
                jobs.append(job)
        config, profiles = scenario(5, self.GEOMETRY)
        for s_a in self.ORDER_ET_SETS:
            policy = ss.OrderPolicy("order-et", s_a=frozenset(s_a))
            jobs.append(dict(n=5, scheme="order-et {" + ",".join(map(str, s_a)) + "}",
                             slots=self.ORDER_ET_SLOTS, config=config, profiles=profiles,
                             duals=None, scheduler=ss.make_order_scheduler(policy, profiles)))
        return dict(seed=seed, jobs=jobs, oracle=scenario(self.ORACLE_USERS, self.GEOMETRY))

    def check_setup(self, state, ledger):
        for job in state["jobs"]:
            if job["duals"] is not None:
                with ledger.op(f"calibrate_{job['scheme']} N={job['n']}") as op:
                    check_calibration(op, job["scheme"], job["duals"], job["q"], job["settings"])

    def round(self, state):
        out = []
        for k, job in enumerate(state["jobs"]):
            if "scheduler" in job:
                out.append(ss.run(job["scheduler"], job["profiles"], job["config"],
                                  job["slots"], run_seed(state["seed"], k)))
            else:
                out.append(None)
        oracle_config, oracle_profiles = state["oracle"]
        rng = seeds.substream(state["seed"], seeds.VALIDATION)
        instances = []
        for _ in range(self.ORACLE_INSTANCES):
            fraction = float(rng.uniform(0.05, 0.9))
            inst = ss.random_instance(oracle_profiles, oracle_config, rng,
                                      self.ORACLE_SLOTS, fraction)
            instances.append((inst, ss.brute_force_mt(inst), ss.dual_mt_schedule(inst)))
        return out, instances

    def check(self, state, out, calls, ledger):
        out, instances = out
        text = []
        for job, stats in zip(state["jobs"], out):
            scheme, n = job["scheme"], job["n"]
            with ledger.op(f"run {scheme} N={n}") as op:
                op.expect(stats is not None, "no scheduler (calibration failed)")
                check_run(op, stats, job["slots"])
                if scheme in ("mt", "pf", "et"):
                    check_harvest(op, stats.avg_sum_harvest, job["q"],
                                  job["duals"].calibration_residuals["tol_energy"],
                                  harvest_sigma(stats), stats.slots, job["settings"].mc_slots)
                if scheme == "pf":
                    check_equal_access(op, stats.access_freq, job["settings"].tol_access,
                                       stats.slots, job["settings"].mc_slots)
                if scheme == "order-pf":
                    check_equal_access(op, stats.access_freq, 0.0, stats.slots)
            text.append(f"{scheme} {n} " + ("-" if stats is None else stats_text(stats)))
        for i, (inst, brute, dual) in enumerate(instances):
            with ledger.op(f"oracle instance {i}") as op:
                op.expect(brute.feasible and dual is not None, "infeasible instance")
                schedule, _ = dual
                gap = brute.value - inst.rate_of(schedule)
                op.expect(inst.harvest_of(schedule) >= inst.q_req, "dual schedule misses target")
                op.expect(-1e-9 <= gap <= inst.gap_bound(),
                          f"gap {gap:.3g} outside [-1e-9, {inst.gap_bound():.3g}]")
                text.append(f"{brute.value!r} {gap!r}")
        return "\n".join(text)


class SweepPf(Workload):
    """A 20-point PF rate-energy sweep through the CLI, written as CSV.

    Many short calibrations, each warm-started from the previous
    point, and the top target(s) rejected as infeasible after a stall.
    A change that speeds up a cold calibration but breaks warm starts
    or infeasibility detection shows here.
    """

    name = "sweep-pf"
    GRID = "0:auto:20"
    POINTS = 20
    RUN_SLOTS = 100_000

    def setup(self, seed, workdir):
        config_path = workdir / "sweep.json"
        config_path.write_text(json.dumps(scenario_config(5, SCENARIO_SEED, self.RUN_SLOTS)))
        csv_path = workdir / "sweep.csv"
        s = calibration_settings(SCENARIO_SEED)
        argv = ["sweep", "--config", str(config_path), "--scheme", "pf",
                "--grid", self.GRID, "--workers", "1",
                "--mc-slots", str(s.mc_slots), "--max-iters", str(s.max_iters),
                "--step-size", str(s.step_size), "--tol-access", str(s.tol_access),
                "--tol-rate", str(s.tol_rate), "--format", "csv", "--rate-unit", "bpcu",
                "--out", str(csv_path)]
        config, profiles = scenario(5, SCENARIO_SEED)
        return dict(seed=seed, argv=argv, csv=csv_path, config=config, profiles=profiles,
                    settings=s, validation=calibration_settings(seed, VALIDATION_SLOTS))

    def round(self, state):
        state["csv"].unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = ss_cli.main(state["argv"])
        return code

    def check(self, state, out, calls, ledger):
        rows = []
        with ledger.op("cli sweep") as op:
            op.expect(out == 0, f"exit code {out}")
            rows = ss.read_csv(state["csv"])
            op.expect(len(rows) == self.POINTS, f"{len(rows)} rows")
        cals = calls_named(calls, "calibration.calibrate_pf")
        runs = [c.result for c in calls_named(calls, "simulator.run")]
        feasible_q = [r["q_req_watts"] for r in rows if r["feasible_flag"] == 1]
        ok_cals = [c for c in cals if c.error is None]
        text = [state["csv"].read_text() if state["csv"].exists() else "no CSV"]
        with ledger.op("sweep CSV matches the sweep's calls") as op:
            op.expect(len(cals) == len(rows), f"{len(cals)} calibrations for {len(rows)} rows")
            op.expect(len(ok_cals) == len(runs) == len(feasible_q),
                      "feasible rows, calibrations and runs differ in number")
            op.expect(feasible_q, "no feasible point")
        n = state["config"].n_users
        k_feasible = 0
        for k, (row, cal) in enumerate(zip(rows, cals)):
            q = row["q_req_watts"]
            with ledger.op(f"sweep point {k}") as op:
                op.expect(q == cal.result.calibration_residuals["q_req"] if cal.error is None
                          else q == cal.error.q_req, "row and calibration targets differ")
                if row["feasible_flag"] == 0:
                    op.expect(isinstance(cal.error, ss.InfeasibleError),
                              f"calibration ended with {cal.error!r}")
                    op.expect(q > max(feasible_q), "infeasible row below a feasible target")
                    continue
                duals, stats = cal.result, runs[k_feasible]
                k_feasible += 1
                check_calibration(op, "pf", duals, q, state["settings"])
                check_run(op, stats, self.RUN_SLOTS)
                csv_values = [row["avg_sum_rate_bpcu"], row["avg_sum_harvest_watts"],
                              *(row[f"per_user_rate_{u}"] for u in range(n)),
                              *(row[f"access_freq_{u}"] for u in range(n))]
                exact = [stats.avg_sum_rate, stats.avg_sum_harvest,
                         *stats.per_user_rate, *stats.access_freq]
                op.expect(csv_values == [float(v) for v in exact] and row["nu"] == duals.nu,
                          "CSV does not round-trip the run statistics exactly")
                est = ss.estimate_constraints(
                    "pf", duals, state["profiles"], state["config"], state["validation"],
                    rng=seeds.substream(state["seed"], seeds.VALIDATION, k),
                )
                check_harvest(op, est.mean_sum_harvest, q,
                              duals.calibration_residuals["tol_energy"], harvest_sigma(stats),
                              VALIDATION_SLOTS, state["settings"].mc_slots)
                check_equal_access(op, est.access_freq, state["settings"].tol_access,
                                   VALIDATION_SLOTS, state["settings"].mc_slots)
                text.append(repr(est.mean_sum_harvest))
        return "\n".join(text)


WORKLOADS = {w.name: w for w in (CalibEt(), RunOnline(), SweepPf())}
