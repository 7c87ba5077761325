"""Order-based reference schedulers.

These schemes rank users within each slot and schedule by rank instead
of optimizing a calibrated metric, so they reach only discrete points
on the rate-energy tradeoff.  All three are one rank rule:

  * order-ET: among the users whose rank of normalized gain
    h_n / omega_n falls in an eligible set, schedule the one with the
    lowest throughput so far, steering long-run rates toward equality.
  * order-PF with rank j is order-ET with the eligible set {j}.  The
    normalized gains are identically distributed, so every user is
    scheduled with frequency 1/N regardless of geometry.
  * order-MT is order-PF on the raw gains h_n.  j = 1 is greedy rate
    maximization; j = N maximizes harvested energy.

Ranks are descending (rank 1 = strongest) and ties break toward the
lower user index.  Every block becomes one candidate table: per slot,
the users whose rank is eligible, in user-index order, peeled rank by
rank off the nearer end of the ranking instead of sorting each slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import _SWEEP_USERS, SlotBlock, UserProfile, profile_arrays
from .scheduling import SlotScheduler, sweep_argbest

ORDER_SCHEMES = ("order-mt", "order-pf", "order-et")


def check_orders(orders: frozenset[int], n_users: int) -> None:
    """Reject an eligible rank set that is empty or leaves [1, n_users]."""
    if not orders or any(not 1 <= o <= n_users for o in orders):
        raise ValueError(
            f"selection orders {sorted(orders)} must be a non-empty subset of [1, {n_users}]"
        )


@dataclass
class OrderPolicy:
    """Selection-order parameters for the order-based schemes."""

    variant: str  # "order-mt" | "order-pf" | "order-et"
    j: int | None = None
    s_a: frozenset[int] | None = None

    @property
    def orders(self) -> frozenset[int]:
        """Eligible ranks: ``s_a`` for order-et, ``{j}`` otherwise."""
        if self.variant == "order-et":
            return frozenset(self.s_a or ())
        return frozenset(() if self.j is None else (self.j,))

    def validate(self, n_users: int) -> None:
        if self.variant not in ORDER_SCHEMES:
            raise ValueError(f"unknown order-based variant: {self.variant!r}")
        check_orders(self.orders, n_users)


@dataclass
class OrderScheduler(SlotScheduler):
    """Schedules by per-slot rank of the gains, divided by ``mean_gains`` if given.

    A block whose own ``mean_gains`` holds the same omega, tiled to its
    rows by ``channel.slot_outcomes``, is divided by that tile: one loop
    over the block instead of one per slot.  Without ``mean_gains`` the
    gains are copied.

    ``select_block`` reads the block's candidate table.  With one
    eligible rank the table has one column, which is the schedule, and
    the scheduler is stateless.  With several, the per-run state from
    ``start`` is each user's cumulative delivered rate; each slot picks
    the row's candidate with the lowest total (the first on ties) and
    only that total grows, which orders users exactly like their
    average throughput over the elapsed slots.
    """

    tag: str
    orders: frozenset[int]
    mean_gains: np.ndarray | None = None

    def start(self, n_users: int) -> np.ndarray | None:
        return np.zeros(n_users) if len(self.orders) > 1 else None

    def select_block(self, block: SlotBlock, state: np.ndarray | None = None) -> np.ndarray:
        check_orders(self.orders, block.n_users)
        n, orders = block.n_users, self.orders
        top = max(orders) <= n + 1 - min(orders)
        omega, tile = self.mean_gains, block.mean_gains
        if omega is not None and tile is not None and np.array_equal(tile[:1], omega[None]):
            omega = tile  # one loop over the block, not one per slot
        # Peel ranks off the nearer end: the first maximum is the lowest index (stable
        # rank 1), that of the column-reversed minima the highest index (rank N).
        gains = block.gains if top else block.gains[:, ::-1]
        work = gains.copy() if omega is None else gains / (omega if top else omega[..., ::-1])
        flat, rows, columns = work.reshape(-1), np.arange(0, work.size, n), []
        for rank in range(1, max(orders) + 1) if top else range(n, min(orders) - 1, -1):
            if n < _SWEEP_USERS:  # one loop per column, not one per row
                pick = sweep_argbest((work[:, j] for j in range(n)), lowest=not top)
            else:
                pick = work.argmax(axis=1) if top else work.argmin(axis=1)
            flat[rows + pick] = -np.inf if top else np.inf
            if rank in orders:
                columns.append(pick if top else n - 1 - pick)
        # each slot's eligible users, in user-index order
        table = np.stack(columns, axis=1)
        table.sort(axis=1)
        if table.shape[1] == 1:
            return table[:, 0]
        if state is None:
            raise ValueError(f"{self.tag} with several orders needs per-run state from start()")
        # The running argmin over cumulative throughput is inherently sequential,
        # and on Python lists a slot costs less than on numpy scalars.
        totals, selections = state.tolist(), []
        for row, caps in zip(table.tolist(), block.capacities.tolist()):
            chosen = min(row, key=totals.__getitem__)
            totals[chosen] += caps[chosen]
            selections.append(chosen)
        state[:] = totals
        return np.array(selections, dtype=np.int64)


def make_order_scheduler(
    policy: OrderPolicy, profiles: Sequence[UserProfile]
) -> OrderScheduler:
    """Build the scheduler for an order policy; order-mt ranks raw gains."""
    policy.validate(len(profiles))
    omega = None if policy.variant == "order-mt" else profile_arrays(profiles)[0]
    return OrderScheduler(policy.variant, policy.orders, omega)
