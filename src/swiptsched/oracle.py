"""Exhaustive finite-horizon reference optimizer.

For a handful of slots and users, every assignment of one scheduled
user per slot can be enumerated, giving the exact optimum of the
constrained scheduling problem on that instance.  This is the ground
truth the dual-metric schedulers are checked against: on a finite
instance the per-slot argmax schedule, with the energy price found on
the same slots by ``calibrate_mt``'s price search, must be feasible,
integral and reach the optimum up to a gap of at most one slot's
maximum capacity divided by the horizon, the worst case a single
fractional time-share could recover.  Instance harvests and rates come
from ``SlotBlock.outcome``; the one enumerator, ``_brute_force``, keeps
its own arithmetic as the independent reference: ``_outer_sums`` turns
any per-slot, per-user array into the totals of every assignment at
once, and each scheme's value is a function of those totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .calibration import _mt_price, _pool_of
from .channel import SlotBlock, SystemConfig, UserProfile, draw_block
from .scheduling import linear_argmax


def check_size(n_slots: int, n_users: int) -> None:
    """Reject an instance brute force cannot enumerate: empty, or beyond 8 slots and 4 users."""
    if n_slots < 1 or n_users < 1:
        raise ValueError("an instance needs at least 1 slot and 1 user")
    if n_slots > 8 or n_users > 4:
        raise ValueError("instance too large: at most 8 slots and 4 users")


@dataclass
class FiniteInstance:
    """A fixed set of slot realizations with a harvest requirement."""

    capacities: np.ndarray  # (T, N)
    harvests: np.ndarray    # (T, N)
    q_req: float

    @property
    def n_slots(self) -> int:
        return self.capacities.shape[0]

    @property
    def n_users(self) -> int:
        return self.capacities.shape[1]

    @property
    def block(self) -> SlotBlock:
        return SlotBlock(None, self.capacities, self.harvests)

    def harvest_of(self, assignment: np.ndarray) -> float:
        """Average sum harvest when ``assignment[i]`` is scheduled in slot i."""
        return self.block.summary(assignment)[0]

    def rate_of(self, assignment: np.ndarray) -> float:
        """Average sum rate of an assignment."""
        return float(self.block.outcome(assignment)[0].sum()) / self.n_slots

    def max_harvest(self) -> float:
        """Largest reachable average harvest (schedule the min-harvest user)."""
        return float(np.mean(self.block.max_harvest()))

    def gap_bound(self) -> float:
        """Worst-case optimality gap of the per-slot argmax schedule."""
        return float(self.capacities.max()) / self.n_slots


def random_instance(
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    rng: np.random.Generator,
    n_slots: int,
    q_req_fraction: float = 0.5,
) -> FiniteInstance:
    """Draw an instance whose target is a fraction of its own maximum harvest."""
    block = draw_block(profiles, config, rng, n_slots)
    inst = FiniteInstance(capacities=block.capacities, harvests=block.harvests, q_req=0.0)
    inst.q_req = q_req_fraction * inst.max_harvest()
    return inst


@dataclass
class BruteForceResult:
    feasible: bool
    schedule: np.ndarray | None
    value: float | None  # avg sum rate (MT) or min per-user avg rate (ET)


def _outer_sums(x: np.ndarray) -> np.ndarray:
    """Per-assignment totals of a (T, N) per-slot, per-user array, shape (N**T,).

    Entry k is the sum over slots i of ``x[i, a_i]``, where a is the k-th
    assignment in lexicographic order, slot 0 most significant.  The
    slots are added in the order of numpy's row sum of the picked
    values: in sequence below 8 slots, pairwise at 8, as
    ``((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))``.
    """
    def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.add.outer(a, b).ravel()

    if len(x) < 8:
        return reduce(add, x[1:], x[0].copy())
    pairs = [add(x[i], x[i + 1]) for i in range(0, 8, 2)]
    return add(add(pairs[0], pairs[1]), add(pairs[2], pairs[3]))


def _brute_force(instance: FiniteInstance, value: Callable) -> BruteForceResult:
    """Enumerate every assignment; keep the best value among those meeting the target.

    ``value(sums)`` is passed ``_outer_sums``, calls it on the (T, N)
    per-slot, per-user arrays it needs, and returns one value per
    assignment in the same table order; ``-inf`` marks an assignment
    that breaks a fairness rule.  It is called only when some assignment meets the
    harvest target.  Ties go to the first best assignment in
    lexicographic order, slot 0 most significant.
    """
    t, n = instance.n_slots, instance.n_users
    check_size(t, n)
    q_total = float(instance.harvests.sum())
    feasible = (q_total - _outer_sums(instance.harvests)) / t >= instance.q_req - 1e-12
    if feasible.any():
        values = np.where(feasible, value(_outer_sums), -np.inf)
        k = int(np.argmax(values))
        if values[k] > -np.inf:
            schedule = np.array(np.unravel_index(k, (n,) * t), dtype=np.int64)
            return BruteForceResult(feasible=True, schedule=schedule, value=float(values[k]))
    return BruteForceResult(feasible=False, schedule=None, value=None)


def brute_force_mt(instance: FiniteInstance) -> BruteForceResult:
    """Enumerate all schedules; maximize average sum rate under the target."""
    return _brute_force(instance, lambda sums: sums(instance.capacities) / instance.n_slots)


def brute_force_et(instance: FiniteInstance) -> BruteForceResult:
    """Enumerate all schedules; maximize the minimum per-user average rate.

    This max-min throughput is what ET means (see ``calibrate_et``).
    """
    caps, users = instance.capacities, np.arange(instance.n_users)

    def min_rate(sums: Callable) -> np.ndarray:
        per_user = (sums(np.where(users == u, caps, 0.0)) for u in users)
        return reduce(np.minimum, per_user) / instance.n_slots

    return _brute_force(instance, min_rate)


def dual_mt_schedule(instance: FiniteInstance) -> tuple[np.ndarray, float] | None:
    """Per-slot argmax schedule with nu tuned on this instance.

    The price comes from calibration's MT search on the instance's
    slots with zero tolerance.  Returns (schedule, nu), or None when
    even the maximum-harvest schedule misses the target.  The returned
    schedule always meets the harvest requirement exactly as stated.
    """
    if instance.max_harvest() < instance.q_req:
        return None
    pool = _pool_of(instance.block)
    nu_t, _ = _mt_price(pool, instance.q_req, 0.0)
    return linear_argmax(pool.cn, pool.qn, nu_t), nu_t * pool.c_scale / pool.q_scale
