"""Command-line entry point.

Subcommands
-----------
calibrate     compute duals for a scheme and harvest target, save to JSON
run           simulate one scheduler and emit its statistics
sweep         trace a rate-energy curve (harvest grid or selection orders)
oracle-check  verify the dual-metric schedule against brute force

Exit codes: 0 success, 1 oracle-check failure, 2 configuration error,
3 infeasible harvest target, 4 calibration non-convergence.

All randomness derives from one root seed (``--seed`` or the config's
``seed``) through fixed substreams: user placement, calibration pool,
simulation run, and validation each have their own stream, so results
are reproducible component by component.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import seeds
from .baselines import OrderPolicy, make_order_scheduler
from .calibration import (
    _CALIBRATORS,
    CalibrationSettings,
    ConvergenceError,
    InfeasibleError,
    _pool_share,
    feasible_range,
    load_duals,
    save_duals,
    system_fingerprint,
)
from .channel import ConfigError, SystemConfig, UserProfile, load_config, place_users
from .oracle import brute_force_mt, check_size, dual_mt_schedule, random_instance
from .scheduling import make_optimal_scheduler
from .simulator import (
    OPTIMAL_SCHEMES,
    ORDER_SCHEMES,
    SweepPoint,
    default_order_policies,
    run as run_simulation,
    sweep_orders,
    sweep_q_req,
    write_csv,
    write_jsonl,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4

ALL_SCHEMES = OPTIMAL_SCHEMES + ORDER_SCHEMES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="config file (key=value or JSON)")
    parser.add_argument("--users", type=int, help="override n_users")
    parser.add_argument("--seed", type=int, help="override the root seed")


# Every CalibrationSettings field but the seed is a flag (--mc-slots, ...).
_SETTINGS = [f for f in fields(CalibrationSettings) if f.name != "seed"]


def _add_settings(parser: argparse.ArgumentParser) -> None:
    for f in _SETTINGS:
        parser.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                            type=int if f.type == "int" else float)


def _add_simulation(parser: argparse.ArgumentParser) -> None:
    """The flags of the commands that simulate: run and sweep."""
    parser.add_argument("--slots", type=int, help="override n_slots")
    parser.add_argument("--out", help="output file (default: print a summary)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument(
        "--rate-unit",
        choices=("bpcu", "bps"),
        default="bpcu",
        help="bps multiplies rates by the configured bandwidth",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swipt-sched",
        description="Downlink multiuser scheduling with wireless power transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="calibrate duals for a scheme")
    _add_common(p_cal)
    _add_settings(p_cal)
    p_cal.add_argument("--scheme", choices=OPTIMAL_SCHEMES, required=True)
    p_cal.add_argument("--q-req", type=float, help="harvest target in Watts (default: config)")
    p_cal.add_argument("--out", required=True, help="duals JSON output path")

    p_run = sub.add_parser("run", help="simulate one scheduler")
    _add_common(p_run)
    _add_settings(p_run)
    _add_simulation(p_run)
    p_run.add_argument("--scheme", choices=ALL_SCHEMES, required=True)
    p_run.add_argument("--q-req", type=float, help="harvest target for mt/pf/et")
    p_run.add_argument("--duals", help="reuse a saved calibration instead of calibrating")
    p_run.add_argument("--j", type=int, default=1, help="selection order for order-mt/order-pf")
    p_run.add_argument("--orders", help="eligible orders for order-et, e.g. '1,2'")

    p_sweep = sub.add_parser("sweep", help="trace a rate-energy curve")
    _add_common(p_sweep)
    _add_settings(p_sweep)
    _add_simulation(p_sweep)
    p_sweep.add_argument("--scheme", choices=ALL_SCHEMES, required=True)
    p_sweep.add_argument(
        "--grid",
        default="0:auto:20",
        help="harvest grid lo:hi:count; hi may be 'auto' (mt/pf/et only)",
    )
    p_sweep.add_argument("--workers", type=int, default=1)

    p_oracle = sub.add_parser("oracle-check", help="compare against brute force")
    p_oracle.add_argument("--config", help="optional config file")
    p_oracle.add_argument("--users", type=int, help="override n_users (default 3)")
    p_oracle.add_argument("--seed", type=int, help="override the root seed (default 1)")
    p_oracle.add_argument("--instances", type=int, default=50)
    p_oracle.add_argument("--slots-per-instance", type=int, default=6)
    return parser


def _override(config: SystemConfig, args) -> SystemConfig:
    """``config`` with the values given on the command line."""
    pairs = (("n_users", "users"), ("seed", "seed"), ("n_slots", "slots"), ("q_req", "q_req"))
    return replace(config, **{key: getattr(args, attr) for key, attr in pairs
                              if getattr(args, attr, None) is not None})


def _setup(args) -> tuple[SystemConfig, list[UserProfile], CalibrationSettings]:
    """Config with the command-line overrides, user placement and calibration settings."""
    config = _override(load_config(args.config), args)
    profiles = place_users(config, seeds.substream(config.seed, seeds.PLACEMENT))
    try:
        settings = CalibrationSettings(
            **{f.name: getattr(args, f.name) for f in _SETTINGS}, seed=config.seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, profiles, settings


def _cmd_calibrate(args) -> int:
    config, profiles, settings = _setup(args)
    duals = _CALIBRATORS[args.scheme](config.q_req, profiles, config, settings)
    save_duals(args.out, args.scheme, duals, settings)
    print(f"calibrated {args.scheme}: nu={duals.nu:.6g} -> {args.out}")
    return EXIT_OK


def _parse_orders(text: str) -> frozenset[int]:
    try:
        return frozenset(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse --orders value {text!r}") from None


def _build_scheduler(args, config, profiles, settings):
    """Returns (scheduler, point metadata) for the run subcommand."""
    scheme = args.scheme
    if args.orders is not None and scheme != "order-et":
        raise ConfigError(f"--orders applies to order-et only, not {scheme}")
    if scheme in OPTIMAL_SCHEMES:
        q_req = config.q_req
        if args.duals:
            saved_scheme, duals = load_duals(args.duals)
            if saved_scheme != scheme:
                raise ConfigError(
                    f"duals file holds scheme {saved_scheme!r}, requested {scheme!r}"
                )
            scheduler = make_optimal_scheduler(scheme, duals)
            mult = scheduler.g if scheduler.w is None else scheduler.w
            if mult is not None and len(mult) != config.n_users:
                raise ConfigError(
                    f"duals file holds {len(mult)} multipliers, config has {config.n_users} users"
                )
            if duals.fingerprint != system_fingerprint(config, profiles):
                raise ConfigError(f"duals file was calibrated for another system (fingerprint "
                                  f"{duals.fingerprint!r}): other tx_power or users")
            q_req = duals.calibration_residuals.get("q_req", q_req)
        else:
            duals = _CALIBRATORS[scheme](q_req, profiles, config, settings)
            scheduler = make_optimal_scheduler(scheme, duals)
        return scheduler, dict(q_req=q_req, duals=duals)
    if scheme == "order-et":
        orders = frozenset({args.j}) if args.orders is None else _parse_orders(args.orders)
        policy = OrderPolicy(scheme, s_a=orders)
    else:
        policy = OrderPolicy(scheme, j=args.j)
    try:
        scheduler = make_order_scheduler(policy, profiles)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scheduler, dict(q_req=None, duals=None, order_j=policy.j, order_set=policy.s_a)


def _emit(args, config, points) -> None:
    rate_scale = config.bandwidth_hz if args.rate_unit == "bps" else 1.0
    if args.out:
        writer = write_csv if args.format == "csv" else write_jsonl
        writer(args.out, points, config.n_users, rate_scale, args.rate_unit)
        print(f"wrote {len(points)} point(s) -> {args.out}")
    for point in points:
        if point.stats is None:
            print(f"{point.label}: infeasible ({point.error})")
        else:
            s = point.stats
            print(
                f"{point.label}: rate={s.avg_sum_rate * rate_scale:.6g} {args.rate_unit}, "
                f"harvest={s.avg_sum_harvest:.6g} W, jain={s.jain_index:.4f}"
            )


def _cmd_run(args) -> int:
    config, profiles, settings = _setup(args)
    scheduler, meta = _build_scheduler(args, config, profiles, settings)
    stats = run_simulation(scheduler, profiles, config, config.n_slots, config.seed)
    point = SweepPoint(scheme=scheduler.tag, stats=stats, feasible=True, **meta)
    _emit(args, config, [point])
    return EXIT_OK


def _parse_grid(text: str, profiles, config, settings) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:count, got {text!r}")
    try:
        lo, count = float(parts[0]), int(parts[2])
        hi = None if parts[1] == "auto" else float(parts[1])
    except ValueError:
        raise ConfigError(f"cannot parse grid {text!r}") from None
    if not (math.isfinite(lo) and lo >= 0) or (hi is not None and not math.isfinite(hi)):
        raise ConfigError(f"grid targets must be finite and nonnegative: {text!r}")
    if hi is None:
        fr = feasible_range(profiles, config, settings)
        hi = fr.maximum - fr.stderr_maximum
    if count < 1 or hi < lo:
        raise ConfigError(f"empty grid: {text!r}")
    return list(np.linspace(lo, hi, count))


def _at_least_1(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least 1, "
                              f"got {getattr(args, name)}")


def _cmd_sweep(args) -> int:
    _at_least_1(args, "workers")
    config, profiles, settings = _setup(args)
    if args.scheme in OPTIMAL_SCHEMES:
        with _pool_share():  # lo:auto's pool is the sweep's, which drops it before its runs
            grid = _parse_grid(args.grid, profiles, config, settings)
            points = sweep_q_req(
                args.scheme, grid, profiles, config, settings,
                config.n_slots, config.seed, workers=args.workers,
            )
    else:
        policies = default_order_policies(args.scheme, config.n_users)
        points = sweep_orders(args.scheme, policies, profiles, config, config.n_slots, config.seed)
    _emit(args, config, points)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    config = load_config(args.config) if args.config else SystemConfig(n_users=3, seed=1)
    config = _override(config, args)
    _at_least_1(args, "instances", "slots_per_instance")
    try:
        check_size(args.slots_per_instance, config.n_users)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    profiles = place_users(config, seeds.substream(config.seed, seeds.PLACEMENT))
    rng = seeds.substream(config.seed, seeds.VALIDATION)
    worst_gap, worst_bound = 0.0, 0.0
    failures = 0
    for _ in range(args.instances):
        fraction = float(rng.uniform(0.05, 0.9))
        inst = random_instance(profiles, config, rng, args.slots_per_instance, fraction)
        brute = brute_force_mt(inst)
        dual = dual_mt_schedule(inst)
        if not brute.feasible or dual is None:
            failures += 1
            continue
        schedule, _ = dual
        gap = brute.value - inst.rate_of(schedule)
        bound = inst.gap_bound()
        ok = inst.harvest_of(schedule) >= inst.q_req and -1e-9 <= gap <= bound
        if not ok:
            failures += 1
        if gap > worst_gap:
            worst_gap, worst_bound = gap, bound
    print(
        f"oracle-check: {args.instances - failures}/{args.instances} instances ok, "
        f"worst gap {worst_gap:.6g} (bound {worst_bound:.6g})"
    )
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
