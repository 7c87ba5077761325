"""Downlink multiuser scheduling with simultaneous information and power transfer.

The package simulates an access point that schedules one user per
fading slot for information decoding while the idle users harvest RF
energy, and provides:

  * one linear-metric scheduler covering max-throughput,
    proportional-fair and equal-throughput, whose multipliers are
    calibrated offline against a minimum average harvested-energy
    constraint,
  * three order-based reference schedulers,
  * a Monte-Carlo simulator and rate-energy sweep machinery,
  * an exhaustive finite-horizon optimizer for verification,
  * a command-line interface (``swipt-sched``).
"""

from .baselines import OrderPolicy, make_order_scheduler
from .calibration import (
    CalibrationSettings,
    ConstraintEstimate,
    ConvergenceError,
    FeasibleRange,
    InfeasibleError,
    calibrate_et,
    calibrate_mt,
    calibrate_pf,
    estimate_constraints,
    feasible_range,
    load_duals,
    save_duals,
    system_fingerprint,
)
from .channel import (
    ConfigError,
    SlotBlock,
    SystemConfig,
    UserProfile,
    dbm_to_watts,
    draw_block,
    load_config,
    mean_channel_gain,
    place_users,
)
from .oracle import (
    BruteForceResult,
    FiniteInstance,
    brute_force_et,
    brute_force_mt,
    dual_mt_schedule,
    random_instance,
)
from .scheduling import DualState, LinearScheduler, linear_argmax, make_optimal_scheduler
from .simulator import (
    RunStatistics,
    SweepPoint,
    default_order_policies,
    jain_index,
    read_csv,
    replay,
    run,
    sweep_orders,
    sweep_q_req,
    write_csv,
    write_jsonl,
)

__version__ = "0.1.0"
