"""Long-run simulation of a scheduler and rate-energy sweeps.

A run draws T fading slots, lets the scheduler pick one user per slot
and accumulates the averages the tradeoff curves are made of: the
scheduled users' capacities (average sum rate) and the idle users'
harvests (average sum harvested power).  Chunks of ``CHUNK_SLOTS`` fix
the float summation order.  Within a chunk, ``channel.slot_outcomes``
draws (``channel.draw_sub_blocks``), selects and scores L2-sized
sub-blocks, and no result bit changes.

``sweep_q_req`` traces a rate-energy curve for one of the optimal
schemes by calibrating and running at each harvest target of a grid;
``sweep_orders`` produces the discrete points of the order-based
schemes.  Results serialize to CSV or JSON-lines with a fixed column
order; floats are written with ``repr`` so files parse back to the
exact values.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import seeds
from .baselines import ORDER_SCHEMES, OrderPolicy, make_order_scheduler
from .calibration import (_CALIBRATORS, CalibrationSettings, ConvergenceError,
                          InfeasibleError, _pool_share)
from .channel import SystemConfig, UserProfile, slot_outcomes
from .scheduling import DualState, SlotScheduler, make_optimal_scheduler

CHUNK_SLOTS = 1 << 16

OPTIMAL_SCHEMES = tuple(_CALIBRATORS)


def jain_index(values: np.ndarray) -> float:
    """Jain fairness index (sum x)^2 / (N sum x^2), in [1/N, 1]."""
    values = np.asarray(values, dtype=float)
    denom = len(values) * float(np.sum(values**2))
    if denom == 0.0:
        return 1.0
    return float(np.sum(values)) ** 2 / denom


@dataclass
class RunStatistics:
    """Long-run averages of one simulation run.

    ``avg_sum_rate`` is in bits/channel-use and equals the sum of
    ``per_user_rate``; ``avg_sum_harvest`` is in Watts.  The standard
    errors are per-slot sample standard deviations divided by
    sqrt(slots).  ``selections`` holds the per-slot decision log when
    requested, else None.
    """

    scheme: str
    slots: int
    avg_sum_rate: float
    avg_sum_harvest: float
    per_user_rate: np.ndarray
    access_freq: np.ndarray
    jain_index: float
    stderr_sum_rate: float
    stderr_sum_harvest: float
    selections: np.ndarray | None = None


class _Accumulator:
    def __init__(self, n_users: int):
        self.rate_sums = np.zeros(n_users)
        self.counts = np.zeros(n_users, dtype=np.int64)
        self.rate_sum = 0.0
        self.rate_sumsq = 0.0
        self.harvest_sum = 0.0
        self.harvest_sumsq = 0.0
        self.slots = 0

    def add(self, selections: np.ndarray, picked_c: np.ndarray, harvest: np.ndarray) -> None:
        n = self.rate_sums.shape[0]
        self.rate_sums += np.bincount(selections, weights=picked_c, minlength=n)
        self.counts += np.bincount(selections, minlength=n)
        self.rate_sum += float(picked_c.sum())
        self.rate_sumsq += float((picked_c**2).sum())
        self.harvest_sum += float(harvest.sum())
        self.harvest_sumsq += float((harvest**2).sum())
        self.slots += len(selections)

    def _stderr(self, total: float, total_sq: float) -> float:
        t = self.slots
        if t < 2:
            return 0.0
        var = max(0.0, (total_sq - total**2 / t) / (t - 1))
        return math.sqrt(var / t)

    def finish(self, scheme: str, selections: np.ndarray | None) -> RunStatistics:
        t = self.slots
        per_user_rate = self.rate_sums / t
        return RunStatistics(
            scheme=scheme,
            slots=t,
            avg_sum_rate=float(per_user_rate.sum()),
            avg_sum_harvest=self.harvest_sum / t,
            per_user_rate=per_user_rate,
            access_freq=self.counts / t,
            jain_index=jain_index(per_user_rate),
            stderr_sum_rate=self._stderr(self.rate_sum, self.rate_sumsq),
            stderr_sum_harvest=self._stderr(self.harvest_sum, self.harvest_sumsq),
            selections=selections,
        )


def run(
    scheduler: SlotScheduler,
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    n_slots: int,
    seed: int,
    keep_log: bool = False,
) -> RunStatistics:
    """Simulate ``n_slots`` slots and return the accumulated statistics.

    All randomness comes from the run substream of ``seed``; identical
    arguments reproduce identical statistics bit for bit.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be positive")
    state = scheduler.start(len(profiles))
    acc = _Accumulator(len(profiles))
    log: list[np.ndarray] = []
    for chunk in slot_outcomes(profiles, config, seeds.substream(seed, seeds.RUN), int(n_slots),
                               CHUNK_SLOTS, lambda _, block: scheduler.select_block(block, state)):
        acc.add(*chunk)
        if keep_log:
            log.append(chunk[0])
    return acc.finish(scheduler.tag, np.concatenate(log) if keep_log else None)


def replay(
    selections: np.ndarray,
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    seed: int,
    scheme: str = "replay",
) -> RunStatistics:
    """Recompute run statistics from a decision log.

    Re-draws the same slot stream as ``run`` (same seed, same chunks
    and sub-blocks) and applies the logged selections, so a log taken
    from a run reproduces that run's accumulators exactly.
    """
    if len(selections) < 1:
        raise ValueError("selections must be non-empty")
    acc = _Accumulator(len(profiles))
    for chunk in slot_outcomes(profiles, config, seeds.substream(seed, seeds.RUN),
                               len(selections), CHUNK_SLOTS,
                               lambda start, block: selections[start : start + block.n_slots]):
        acc.add(*chunk)
    return acc.finish(scheme, None)


@dataclass
class SweepPoint:
    """One point of a rate-energy curve."""

    scheme: str
    q_req: float | None
    duals: DualState | None
    stats: RunStatistics | None
    feasible: bool
    error: str | None = None
    order_j: int | None = None
    order_set: frozenset[int] | None = None

    @property
    def label(self) -> str:
        if self.order_j is not None:
            return f"{self.scheme}[j={self.order_j}]"
        if self.order_set is not None:
            orders = ",".join(str(o) for o in sorted(self.order_set))
            return f"{self.scheme}[orders={orders}]"
        return self.scheme


def sweep_q_req(
    scheme: str,
    q_req_grid: Sequence[float],
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    settings: CalibrationSettings,
    n_slots: int,
    seed: int,
    workers: int = 1,
) -> list[SweepPoint]:
    """Calibrate and run one of the optimal schemes over a harvest-target grid.

    The calibration pool and the run stream are shared across grid
    points (common random numbers), so the traced curve is smooth in
    the targets; the pool is drawn and normalized once, in a ``_pool_share``
    dropped before the runs.  The grid is calibrated in order, each point
    warm-started from the previous feasible one; then the feasible
    points are run by ``workers`` threads (at least 1).  The output is
    in grid order and does not depend on ``workers``.  Infeasible
    points are recorded, not fatal.
    """
    if scheme not in OPTIMAL_SCHEMES:
        raise ValueError(f"sweep_q_req expects one of {OPTIMAL_SCHEMES}, got {scheme!r}")
    calibrate = _CALIBRATORS[scheme]
    points: list[SweepPoint] = []
    warm: DualState | None = None
    with _pool_share():
        for q in q_req_grid:
            try:
                if scheme == "mt":
                    duals = calibrate(q, profiles, config, settings)
                else:
                    duals = calibrate(q, profiles, config, settings, warm_start=warm)
            except (InfeasibleError, ConvergenceError) as exc:
                points.append(SweepPoint(scheme=scheme, q_req=q, duals=None, stats=None,
                                         feasible=False, error=str(exc)))
            else:
                warm = duals
                points.append(SweepPoint(scheme=scheme, q_req=q, duals=duals, stats=None,
                                         feasible=True))

    def simulate(point: SweepPoint) -> None:
        scheduler = make_optimal_scheduler(scheme, point.duals)
        point.stats = run(scheduler, profiles, config, n_slots, seed)

    # One worker maps on the calling thread: a pool thread allocates from its own
    # malloc arena, which raised the peak RSS of a 20-point PF sweep by 16 MB.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list((map if workers == 1 else pool.map)(simulate, [p for p in points if p.feasible]))
    return points


def sweep_orders(
    scheme: str,
    policies: Iterable[OrderPolicy],
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    n_slots: int,
    seed: int,
) -> list[SweepPoint]:
    """Run an order-based scheme for each policy (no calibration involved)."""
    if scheme not in ORDER_SCHEMES:
        raise ValueError(f"sweep_orders expects one of {ORDER_SCHEMES}, got {scheme!r}")
    points = []
    for policy in policies:
        scheduler = make_order_scheduler(policy, profiles)
        stats = run(scheduler, profiles, config, n_slots, seed)
        points.append(
            SweepPoint(
                scheme=scheme, q_req=None, duals=None, stats=stats, feasible=True,
                order_j=policy.j, order_set=policy.s_a,
            )
        )
    return points


def default_order_policies(scheme: str, n_users: int) -> list[OrderPolicy]:
    """All selection orders j = 1..N (singleton eligible sets for order-ET)."""
    if scheme == "order-et":
        return [OrderPolicy(scheme, s_a=frozenset({j})) for j in range(1, n_users + 1)]
    return [OrderPolicy(scheme, j=j) for j in range(1, n_users + 1)]


def csv_header(n_users: int, rate_unit: str = "bpcu") -> list[str]:
    """Column names shared by the CSV and JSON-lines outputs."""
    return (
        ["scheme", "n_users", "q_req_watts", "nu", f"avg_sum_rate_{rate_unit}",
         "avg_sum_harvest_watts", "jain_index"]
        + [f"per_user_rate_{n}" for n in range(n_users)]
        + [f"access_freq_{n}" for n in range(n_users)]
        + ["feasible_flag"]
    )


def _point_row(point: SweepPoint, n_users: int, rate_scale: float) -> list[str]:
    row = [point.label, str(n_users)]
    row.append("" if point.q_req is None else repr(float(point.q_req)))
    row.append("" if point.duals is None else repr(float(point.duals.nu)))
    if point.stats is None:
        row += [""] * (3 + 2 * n_users)
    else:
        s = point.stats
        row.append(repr(float(s.avg_sum_rate * rate_scale)))
        row.append(repr(float(s.avg_sum_harvest)))
        row.append(repr(float(s.jain_index)))
        row += [repr(float(r * rate_scale)) for r in s.per_user_rate]
        row += [repr(float(f)) for f in s.access_freq]
    row.append("1" if point.feasible else "0")
    return row


def write_csv(
    path: str | Path,
    points: Sequence[SweepPoint],
    n_users: int,
    rate_scale: float = 1.0,
    rate_unit: str = "bpcu",
) -> None:
    """Write sweep points as CSV; one row per point, grid order preserved.

    ``rate_scale`` together with ``rate_unit`` converts rate columns,
    e.g. scale by the bandwidth to report bits/s.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(n_users, rate_unit))
        for point in points:
            writer.writerow(_point_row(point, n_users, rate_scale))


def write_jsonl(
    path: str | Path,
    points: Sequence[SweepPoint],
    n_users: int,
    rate_scale: float = 1.0,
    rate_unit: str = "bpcu",
) -> None:
    """JSON-lines alternative to ``write_csv`` with the same fields."""
    header = csv_header(n_users, rate_unit)
    with open(path, "w") as fh:
        for point in points:
            record = _typed(zip(header, _point_row(point, n_users, rate_scale)))
            fh.write(json.dumps(record) + "\n")


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def _typed(items) -> dict:
    """Cells as written, parsed back: scheme labels stay text, numbers exact."""
    return {key: (value if key == "scheme" else _parse_cell(value)) for key, value in items}


def read_csv(path: str | Path) -> list[dict]:
    """Parse a sweep CSV back into dicts with exact float values."""
    with open(path, newline="") as fh:
        return [_typed(raw.items()) for raw in csv.DictReader(fh)]
