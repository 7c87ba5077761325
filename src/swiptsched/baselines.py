"""Order-based reference schedulers.

These schemes rank users within each slot and schedule by rank instead
of optimizing a calibrated metric, so they reach only discrete points
on the rate-energy tradeoff:

  * order-MT: schedule the user whose channel power gain h_n has rank
    j (rank 1 = strongest).  j = 1 is greedy rate maximization; j = N
    schedules the weakest user and maximizes harvested energy.
  * order-PF: rank the mean-normalized gains h_n / omega_n instead.
    The normalized gains are identically distributed, so every user is
    scheduled with frequency 1/N regardless of geometry.
  * order-ET: among the users whose normalized-gain rank falls in an
    eligible set, schedule the one with the lowest throughput
    accumulated so far, steering long-run rates toward equality.

Ranks are descending and ties break toward the lower user index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import SlotBlock, UserProfile, profile_arrays
from .scheduling import SlotScheduler


@dataclass
class OrderPolicy:
    """Selection-order parameters for the order-based schemes."""

    variant: str  # "order-mt" | "order-pf" | "order-et"
    j: int | None = None
    s_a: frozenset[int] | None = None

    def validate(self, n_users: int) -> None:
        if self.variant in ("order-mt", "order-pf"):
            if self.j is None or not 1 <= self.j <= n_users:
                raise ValueError(f"selection order j must be in [1, {n_users}]")
        elif self.variant == "order-et":
            if not self.s_a:
                raise ValueError("eligible order set must be non-empty")
            if any(not 1 <= o <= n_users for o in self.s_a):
                raise ValueError(f"eligible orders must be in [1, {n_users}]")
        else:
            raise ValueError(f"unknown order-based variant: {self.variant!r}")


def _check_j(j: int, n_users: int) -> None:
    if not 1 <= j <= n_users:
        raise ValueError(f"selection order j={j} outside [1, {n_users}]")


@dataclass
class OrderMtScheduler(SlotScheduler):
    j: int
    tag = "order-mt"

    def select_block(self, block: SlotBlock, state=None) -> np.ndarray:
        _check_j(self.j, block.n_users)
        return np.argsort(-block.gains, axis=1, kind="stable")[:, self.j - 1]


@dataclass
class OrderPfScheduler(SlotScheduler):
    j: int
    mean_gains: np.ndarray

    tag = "order-pf"

    def __post_init__(self) -> None:
        self.mean_gains = np.asarray(self.mean_gains, dtype=float)

    def select_block(self, block: SlotBlock, state=None) -> np.ndarray:
        _check_j(self.j, block.n_users)
        normalized = block.gains / self.mean_gains
        return np.argsort(-normalized, axis=1, kind="stable")[:, self.j - 1]


@dataclass
class OrderEtScheduler(SlotScheduler):
    """Stateful baseline: per-run state is each user's cumulative delivered rate.

    Only the scheduled user's total grows each slot.  Selection uses the
    argmin of these totals, which orders users exactly like their average
    throughput over the elapsed slots.
    """

    s_a: frozenset[int]
    mean_gains: np.ndarray

    tag = "order-et"

    def __post_init__(self) -> None:
        self.s_a = frozenset(int(o) for o in self.s_a)
        self.mean_gains = np.asarray(self.mean_gains, dtype=float)

    def start(self, n_users: int) -> np.ndarray:
        if not self.s_a or any(not 1 <= o <= n_users for o in self.s_a):
            raise ValueError(f"eligible orders must be a non-empty subset of [1, {n_users}]")
        return np.zeros(n_users)

    def select_block(self, block: SlotBlock, state: np.ndarray | None = None) -> np.ndarray:
        if state is None:
            raise ValueError("order-et needs per-run state from start()")
        normalized = block.gains / self.mean_gains
        # Rank columns for the whole block at once; the running argmin
        # over cumulative throughput is inherently sequential.
        rank_sorted = np.argsort(-normalized, axis=1, kind="stable")
        eligible_rank = np.zeros(block.n_users + 1, dtype=bool)
        eligible_rank[list(self.s_a)] = True
        selections = np.empty(block.n_slots, dtype=np.int64)
        for i in range(block.n_slots):
            candidates = rank_sorted[i][eligible_rank[1 : block.n_users + 1]]
            candidates.sort()
            chosen = candidates[np.argmin(state[candidates])]
            state[chosen] += block.capacities[i, chosen]
            selections[i] = chosen
        return selections


def make_order_scheduler(
    policy: OrderPolicy, profiles: Sequence[UserProfile]
) -> SlotScheduler:
    """Build the scheduler for an order policy."""
    policy.validate(len(profiles))
    omega, _, _ = profile_arrays(profiles)
    if policy.variant == "order-mt":
        return OrderMtScheduler(j=policy.j)
    if policy.variant == "order-pf":
        return OrderPfScheduler(j=policy.j, mean_gains=omega)
    return OrderEtScheduler(s_a=policy.s_a, mean_gains=omega)
