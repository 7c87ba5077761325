"""Per-slot user selection of the dual-metric schedulers.

Every scheme scores each user with one linear combination of the
slot's capacity C_n and harvest Q_n and schedules the argmax:

    L_n = w_n * C_n - nu * Q_n - g_n

    scheme                    w_n        g_n
    max-throughput (MT)       1          0
    proportional-fair (PF)    1          gamma_n
    equal-throughput (ET)     theta_n    0

nu >= 0 prices harvested energy against rate, gamma_n equalizes
long-run channel-access shares, and theta_n (nonnegative, summing to
one) equalizes long-run per-user throughput.  The multipliers are
computed offline from channel statistics (see ``calibration``); the
selection itself depends only on the current slot, so the schedulers
run online with no memory.

Decisions are deterministic: ties break toward the lowest user index.
With continuously distributed fading, exact metric ties occur with
probability zero, so the tie rule only pins down reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .channel import _SWEEP_USERS, SlotBlock


@dataclass
class DualState:
    """Calibrated multipliers for one scheduling scheme.

    ``gamma`` is used by PF only and ``theta`` by ET only; both are
    None otherwise.  ``calibration_residuals`` records the constraint
    gaps and iteration diagnostics observed at convergence, and
    ``fingerprint`` the system calibrated for (None when unknown).
    """

    nu: float
    gamma: np.ndarray | None = None
    theta: np.ndarray | None = None
    calibration_residuals: dict = field(default_factory=dict)
    fingerprint: str | None = None


def linear_argmax(
    caps: np.ndarray,
    harvests: np.ndarray,
    nu: float,
    w: np.ndarray | None = None,
    g: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row argmax of ``w * caps - nu * harvests - g``, ties to the lowest index.

    ``caps`` and ``harvests`` are (slots, users) arrays.  An absent
    ``w`` means unit weights, an absent ``g`` zero offsets and ``nu == 0``
    no harvest term; absent terms are skipped, not computed with ones or
    zeros, which for finite harvests changes no score (``s - 0.0 * h``
    is ``s``).

    Both memory layouts give the same result (for scores without NaN).
    User-major (Fortran-order) arrays, such as the calibration pool
    scored thousands of times, and row-major arrays of fewer than
    ``channel._SWEEP_USERS`` users, such as the online schedulers'
    sub-blocks, are scored one user column at a time into a running
    maximum, which allocates only slot-length temporaries.  Wider row-major
    arrays are scored whole by the same ``_score`` and reduced by ``np.argmax``.  The sweep
    is ``sweep_argbest`` of ``score_columns``, so either way ties go to the lowest index.
    """
    n = caps.shape[1]
    if n > 0 and (caps.flags.f_contiguous or n < _SWEEP_USERS):
        return sweep_argbest(score_columns(caps, harvests, nu, w, g))
    return _score(caps, harvests, nu, w, g).argmax(axis=1)  # skips np.argmax's wrapper


def _score(caps, harvests, nu: float, w=None, g=None) -> np.ndarray:
    """``w * caps - nu * harvests - g`` of a user column (scalar ``w``, ``g``) or of (slots, users)
    arrays, absent terms skipped: ``caps`` itself if none applies, else an array allocated here."""
    score = caps if w is None else caps * w
    for term in (nu * harvests if nu else None, g):
        if term is not None:  # in place only once score is no longer caps
            score = np.subtract(score, term, out=None if score is caps else score)
    return score


def score_columns(caps: np.ndarray, harvests: np.ndarray, nu: float, w: np.ndarray | None = None,
                  g: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The ``_score`` of each user column in turn: a view of ``caps`` when no term applies."""
    for j, column in enumerate(caps.T):
        yield _score(column, harvests[:, j], nu, w if w is None else w[j], g if g is None else g[j])


def sweep_argbest(columns: Iterable[np.ndarray], lowest: bool = False,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Per-slot index of the first maximum (minimum if ``lowest``) of a sequence of columns.

    That is ``argmax`` (``argmin``) along the user axis of the stacked
    columns, for scores without NaN.  A column displaces the best so far
    only where strictly better, and the picks keep the running maximum of
    ``j * [better]``: j only grows, so that is the last column to displace
    the best, as a masked copy of j would give, but without its branch.
    The picks are bytes up to column 255.  Only slot-length temporaries
    are allocated.  The running best is kept in ``out`` if given, which
    holds the best before each column while that column is produced and
    the best score at the end.
    """
    better, keep = (np.less, np.minimum) if lowest else (np.greater, np.maximum)
    columns = iter(columns)
    best = next(columns)
    if out is not None:
        out[...], best = best, out
    elif not best.flags.owndata:
        best = best.copy()
    picks = np.zeros(len(best), dtype=np.uint8)
    for j, score in enumerate(columns, 1):
        if j == 256:
            picks = picks.astype(np.intp)
        np.maximum(picks, better(score, best) * picks.dtype.type(j), out=picks)
        keep(best, score, out=best)
    return picks.astype(np.intp)


class SlotScheduler:
    """Interface shared by all schedulers the simulator can run.

    ``select_block`` maps a block of slots to the selected user index
    per slot.  ``start`` creates per-run state; stateless schedulers
    return None and may be shared across concurrent runs.
    """

    tag: str

    def start(self, n_users: int):
        return None

    def select_block(self, block: SlotBlock, state=None) -> np.ndarray:
        raise NotImplementedError


@dataclass
class LinearScheduler(SlotScheduler):
    """Schedules the argmax of ``w * C - nu * Q - g`` in every slot.

    ``tag`` names the scheme (mt, pf or et).  This is the one check of
    the multipliers: ``nu`` finite and nonnegative, ``w`` and ``g``
    finite 1-D vectors, ``w`` nonnegative.  A NaN score would make the
    two layouts of ``linear_argmax`` pick different users.
    """

    tag: str
    nu: float
    w: np.ndarray | None = None
    g: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        for name in ("w", "g"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                if value.ndim != 1 or not np.isfinite(value).all():
                    raise ValueError(f"{name} must be a finite 1-D vector, got {value}")
                setattr(self, name, value)
        if self.w is not None and np.any(self.w < 0):
            raise ValueError("weights w must be nonnegative")

    def select_block(self, block: SlotBlock, state=None) -> np.ndarray:
        for name in ("w", "g"):
            value = getattr(self, name)
            if value is not None and value.shape != (block.n_users,):
                raise ValueError(
                    f"{name} has shape {value.shape}, expected ({block.n_users},)"
                )
        return linear_argmax(block.capacities, block.harvests, self.nu, self.w, self.g)


def make_optimal_scheduler(scheme: str, duals: DualState) -> LinearScheduler:
    """Build the MT/PF/ET scheduler for a calibrated dual state."""
    if scheme == "mt":
        return LinearScheduler("mt", duals.nu)
    if scheme == "pf":
        if duals.gamma is None:
            raise ValueError("pf scheduling needs calibrated gamma")
        return LinearScheduler("pf", duals.nu, g=duals.gamma)
    if scheme == "et":
        if duals.theta is None:
            raise ValueError("et scheduling needs calibrated theta")
        return LinearScheduler("et", duals.nu, w=duals.theta)
    raise ValueError(f"unknown optimal scheme: {scheme!r}")
