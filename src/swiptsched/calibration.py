"""Offline calibration of the scheduling multipliers.

The long-run constraints (minimum average harvested energy, equal
channel access, equal throughput) depend only on channel statistics,
so their multipliers are fitted once, offline, on a fixed Monte-Carlo
pool of fading slots; fresh slots serve only out-of-sample validation
(``estimate_constraints``), which draws them through the run loop,
``channel.slot_outcomes``.

Every calibrator takes the same three steps:

  * Setup: ``_calibration_pool`` draws the pool (once per sweep, in a
    ``_pool_share``; a long one a ``channel.draw_sub_blocks`` sub-block at a
    time), resolves the energy tolerance and rejects a target above its maximum.
  * One price search, ``_price``: the pool harvest does not decrease
    with the energy price nu, so nu is bracketed by doubling and then
    bisected.  An MT probe is one pass (``_mt_price``, which the oracle
    also runs); a PF or ET probe is an inner fairness solve on gamma or
    theta (``_fair_price``), warm-started from the previous probe, whose
    passes each take one quantile step of the multipliers with no step
    size (``_margin_quantiles``).  PF rejects a target above the
    weak-duality ``_fair_bound`` before any pass, ET at a probe below it.
  * ``_result`` writes the residual record and returns the DualState,
    or raises ConvergenceError carrying that record.

Every pass, and each fairness bound (``_fair_bound``), runs the online kernel:
``sweep_argbest`` of ``score_columns``, the scheduler's one score ``w*C - nu*Q - g``
per user column.  A pass computes only what the search reads: an MT probe
the idle harvest, a PF or ET pass (``_fair_pass``) the access shares or the
rates and, for its step, each slot's best and second score; ``_Pool.evaluate``
summarizes the pass that ends a probe.  The pool's normalized arrays, oracle
instances' included, are user-major (Fortran order), swept a contiguous
column at a time; the raw arrays stay row-major.

Capacities are normalized by a typical per-slot maximum capacity and
harvests by the maximum average harvest, so the normalized price is
O(1) in every geometry.  Returned DualState values are physical (gamma
in bits/channel-use, nu in bits per channel-use per Watt); gamma is
zero-mean and theta sums to one, gauges that change no argmax.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import channel, seeds
from .channel import (ConfigError, SlotBlock, SystemConfig, UserProfile, draw_block,
                      draw_sub_blocks, row_reduce, slot_outcomes, summarize)
from .scheduling import (DualState, linear_argmax, make_optimal_scheduler, score_columns,
                         sweep_argbest)

_ACCESS_FIT_SLOTS = 1000
_ONE_BLOCK_POOL = 4  # sub-blocks per array up to which a pool is drawn as one block (README)


class InfeasibleError(RuntimeError):
    """The requested harvest target exceeds what any schedule can reach.

    ``achievable`` is the evidence: the pool maximum, or the PF
    equal-access or ET equal-throughput bound (``_fair_bound``).
    """

    def __init__(self, message: str, q_req: float, achievable: float):
        super().__init__(message)
        self.q_req = q_req
        self.achievable = achievable


class ConvergenceError(RuntimeError):
    """Calibration exhausted its iteration budget; residuals attached."""

    def __init__(self, message: str, residuals: dict):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class CalibrationSettings:
    """Monte-Carlo and iteration controls for the dual search.

    ``tol_energy`` is absolute in Watts; when None it resolves to
    0.005 times the maximum achievable average harvest of the
    instance, keeping the default meaningful across geometries.
    ``tol_access`` is absolute on access frequencies and ``tol_rate``
    is relative on the per-user rate spread.  ``max_iters`` caps the
    pool passes of one calibration: one that needs more raises
    ConvergenceError.  ``step_size`` is validated but unused (no step
    has a step size), kept for the callers that still set it.
    """

    mc_slots: int = 100_000
    max_iters: int = 6000
    step_size: float = 0.5
    tol_energy: float | None = None
    tol_access: float = 0.005
    tol_rate: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mc_slots < 1000:
            raise ValueError("mc_slots must be at least 1000")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if self.tol_energy is not None and not 0 < self.tol_energy < math.inf:
            raise ValueError("tol_energy must be positive and finite")
        if not (0 < self.tol_access < math.inf and 0 < self.tol_rate < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class ConstraintEstimate:
    """Empirical constraint values of a scheduler over fresh slots."""

    mean_sum_harvest: float
    access_freq: np.ndarray
    per_user_rate: np.ndarray


@dataclass
class FeasibleRange:
    """Achievable average-harvest range for the MT family.

    ``greedy`` is the harvest of the unconstrained rate-maximizing
    scheduler (nu = 0); ``maximum`` is the harvest of the
    minimum-harvest-user selection, the largest any scheme can reach.
    """

    greedy: float
    maximum: float
    stderr_maximum: float


@dataclass
class _Pool:
    """Fixed slot pool with its normalized capacities and harvests."""

    block: SlotBlock
    total: np.ndarray      # per-slot harvest sum, reused by every pass
    c_scale: float         # typical per-slot max capacity, or 1.0 when that is 0
    q_max: float           # maximum achievable average harvest
    q_scale: float         # q_max, or 1.0 when that is 0
    stderr_q_max: float    # standard error of q_max, the mean of the per-slot maxima
    cn: np.ndarray         # capacities / c_scale
    qn: np.ndarray         # harvests / q_scale
    rows: np.ndarray       # flat offsets arange(0, M*N, N) of the raw arrays' rows

    def take(self, values: np.ndarray, selections: np.ndarray) -> np.ndarray:
        """Per slot, the selected user's entry of a raw (M, N) array, without a range check."""
        return values.reshape(-1).take(self.rows + selections)

    def evaluate(self, selections: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """``block.summary`` of the pool's own selections."""
        rate = self.take(self.block.capacities, selections)
        idle = self.total - self.take(self.block.harvests, selections)
        return summarize(selections, rate, idle, self.block.n_users)

    @cached_property
    def access_offsets(self) -> np.ndarray:
        """Offsets g of the equal-access ``_fair_bound``, under which the argmin
        of ``qn + g`` over users (PF's schedule at an infinite energy price)
        comes closest to an equal share of the first ``_ACCESS_FIT_SLOTS`` slots.
        PF's own passes and ``_access_step`` fit g on zero capacities at unit
        price from zero offsets, keeping the offsets of the smallest access gap: it
        stops at a gap of 0 (one user at once) or at the first step that does not
        shrink it.  Fitted once per pool, however many PF targets of a sweep ask for it.
        """
        q = self.qn[:_ACCESS_FIT_SLOTS]
        caps, g = np.broadcast_to(0.0, q.shape), np.zeros(q.shape[1])

        def fit(g):  # the access gap at g and what the step reads
            sel, for_step = _fair_pass(caps, q, 1.0, g=g)
            return _PfRule.gap(np.bincount(sel, minlength=len(g)) / len(q)), for_step
        g_gap, for_step = fit(g)
        while g_gap > 0 and (new := fit(new_g := _access_step(caps, q, 1.0, g, for_step)))[0] \
                < g_gap:
            g, (g_gap, for_step) = new_g, new
        return g


def _pool_of(block: SlotBlock, parts=None) -> _Pool:
    """Normalize a block by its mean maximum capacity and maximum average harvest.

    ``parts`` are its (first row, sub-block) pairs as ``draw_sub_blocks`` fills them (by
    default the block alone).  Each is reduced while in cache, then divided, given parts ``cn``
    by a helper while the caller divides ``qn``: elementwise, so no bit depends on the order.
    """
    total, top, c_top = (np.empty(block.n_slots) for _ in range(3))
    spans, order = [], "F" if block.n_users < channel._SWEEP_USERS else "C"  # as row_reduce does
    for start, part in parts or ((0, block),):
        spans.append(rows := slice(start, start + part.n_slots))
        total[rows] = row_reduce(part.harvests)
        np.subtract(total[rows], row_reduce(part.harvests, np.minimum), out=top[rows])
        c_top[rows] = row_reduce(part.capacities, np.maximum)
    q_max, c_max, m = float(np.mean(top)), float(np.mean(c_top)), block.n_slots
    # top.std(ddof=1) in numpy's operation order, in place of the spent c_top
    var = float(np.square(np.subtract(top, q_max, out=c_top), out=c_top).sum()) / (m - 1 or 1)
    # all-zero capacities or efficiencies: price energy against capacity 1:1
    c_scale, q_scale = (scale if scale > 0 else 1.0 for scale in (c_max, q_max))
    cn, qn = (np.empty(block.capacities.shape, order="F") for _ in range(2))  # caller's arena

    def normalize(raw, scale, out):
        for rows in spans:
            np.divide(raw[rows], scale, out=out[rows], order=order)
    if parts is None:  # one block, drawn without a helper thread
        normalize(block.capacities, c_scale, cn)
        normalize(block.harvests, q_scale, qn)
    else:
        with ThreadPoolExecutor(max_workers=1) as helper:
            cn_done = helper.submit(normalize, block.capacities, c_scale, cn)
            normalize(block.harvests, q_scale, qn)
        cn_done.result()
    return _Pool(SlotBlock(None, block.capacities, block.harvests), total, c_scale, q_max,
                 q_scale, math.sqrt(var) / math.sqrt(m) if m > 1 else math.nan,
                 cn, qn, np.arange(0, block.capacities.size, block.n_users))


_shared: dict | None = None  # (fingerprint, seed, mc_slots) -> _Pool, in a _pool_share


@contextmanager
def _pool_share():
    """Within, ``_build_pool`` draws each pool once; a nested entry joins the
    open share and the first exit drops it (a sweep's, before its runs)."""
    global _shared
    _shared = {} if _shared is None else _shared
    try:
        yield
    finally:
        _shared = None


def _build_pool(
    profiles: Sequence[UserProfile], config: SystemConfig, settings: CalibrationSettings
) -> _Pool:
    shared = {} if _shared is None else _shared
    key = (system_fingerprint(config, profiles), settings.seed, settings.mc_slots)
    if key not in shared:
        rng, m = seeds.substream(settings.seed, seeds.CALIBRATION), settings.mc_slots
        if 8 * m * len(profiles) <= _ONE_BLOCK_POOL * channel._SUB_BLOCK_BYTES:
            shared[key] = pool = _pool_of(draw_block(profiles, config, rng, m))
        else:
            block = SlotBlock(None, *(np.empty((m, len(profiles))) for _ in range(2)))
            with closing(draw_sub_blocks(profiles, config, rng, [m], block)) as parts:
                shared[key] = pool = _pool_of(block, parts)
        for a in (pool.block.capacities, pool.block.harvests, pool.total, pool.cn, pool.qn,
                  pool.rows):
            a.flags.writeable = False  # a pass that writes to a shared pool raises ValueError
    return shared[key]


def _calibration_pool(
    q_req: float,
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    settings: CalibrationSettings,
) -> tuple[_Pool, float]:
    """The pool and the resolved energy tolerance; rejects a negative target
    (ValueError) and one above the pool maximum plus tolerance (InfeasibleError)."""
    if q_req < 0:
        raise ValueError(f"q_req must be nonnegative, got {q_req}")
    pool = _build_pool(profiles, config, settings)
    tol_e = settings.tol_energy if settings.tol_energy is not None else 0.005 * pool.q_max
    if q_req > pool.q_max + tol_e:
        raise InfeasibleError(
            f"required harvest {q_req:.6g} W exceeds the achievable maximum "
            f"{pool.q_max:.6g} W for this geometry",
            q_req=q_req,
            achievable=pool.q_max,
        )
    return pool, tol_e


def feasible_range(
    profiles: Sequence[UserProfile], config: SystemConfig, settings: CalibrationSettings
) -> FeasibleRange:
    """Estimate the reachable [greedy, maximum] average-harvest interval."""
    pool = _build_pool(profiles, config, settings)
    greedy, _, _ = pool.evaluate(linear_argmax(pool.cn, pool.qn, 0.0))
    return FeasibleRange(greedy=greedy, maximum=pool.q_max, stderr_maximum=pool.stderr_q_max)


def estimate_constraints(
    scheme: str,
    duals: DualState,
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    settings: CalibrationSettings,
    rng: np.random.Generator | None = None,
) -> ConstraintEstimate:
    """Replay a calibrated scheduler on fresh slots and average the constraints.

    Fresh means independent of the calibration pool: by default the
    validation substream of ``settings.seed`` is used.  The ``settings.mc_slots``
    slots are one chunk of ``channel.slot_outcomes``, whose result is that of
    scheduling and summarizing one block of all the slots, bit for bit.
    """
    if rng is None:
        rng = seeds.substream(settings.seed, seeds.VALIDATION)
    scheduler = make_optimal_scheduler(scheme, duals)
    (outcomes,) = slot_outcomes(profiles, config, rng, settings.mc_slots, settings.mc_slots,
                                lambda _, block: scheduler.select_block(block))
    qbar, access, rates = summarize(*outcomes, len(profiles))
    return ConstraintEstimate(mean_sum_harvest=qbar, access_freq=access, per_user_rate=rates)


def _price(harvest_at, q_req: float, tol: float, nu0: float = 0.0) -> float:
    """Smallest normalized energy price whose harvest reaches ``q_req - tol``.

    ``harvest_at(nu_t)`` is the pool harvest at price nu_t.  A first probe
    at ``nu0`` that reaches the target is the answer if nu0 is 0 or its
    harvest is at most ``q_req + tol``, else [0, nu0] is the bracket
    unless 0 reaches it too; one that misses doubles from nu0 (or 1)
    until the target is reached.  Bisection stops at a harvest at most
    ``q_req + tol`` or a bracket 1e-13 of its top, and returns the top.
    """
    target = q_req - tol
    qbar_hi = harvest_at(nu0)
    if qbar_hi >= target:
        if nu0 == 0.0 or qbar_hi <= q_req + tol:
            return nu0
        if harvest_at(0.0) >= target:
            return 0.0
        lo, hi = 0.0, nu0
    else:
        lo, hi = nu0, 2.0 * nu0 or 1.0
        qbar_hi = harvest_at(hi)
        for _ in range(81):  # beyond that no price is resolvable
            if qbar_hi >= target:
                break
            lo, hi = hi, hi * 2.0
            qbar_hi = harvest_at(hi)
    # invariant: qbar(lo) < target <= qbar(hi)
    for _ in range(200):
        if qbar_hi <= q_req + tol or (hi - lo) <= 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        qbar_mid = harvest_at(mid)
        if qbar_mid >= target:
            hi, qbar_hi = mid, qbar_mid
        else:
            lo = mid
    return hi


def _mt_price(pool: _Pool, q_req: float, tol: float) -> tuple[float, int]:
    """``_price`` of the MT schedule: the price and the number of pool evaluations."""
    probed = []

    def qbar_at(nu_t: float) -> float:
        probed.append(nu_t)
        # the harvest term of ``pool.evaluate`` alone
        idle = pool.total - pool.take(pool.block.harvests, linear_argmax(pool.cn, pool.qn, nu_t))
        return float(idle.sum()) / pool.block.n_slots

    return _price(qbar_at, q_req, tol), len(probed)


def _result(scheme: str, pool: _Pool, q_req: float, tol_e: float, fingerprint: str,
            nu_t: float, summary: Sequence, k: int, ok: bool, fair: tuple = (), why: str = "",
            **duals) -> DualState:
    """The calibrated DualState, or ConvergenceError carrying the same residuals.

    Every scheme's residuals list scheme, q_req, tol_energy, the fairness tolerance,
    energy_gap, the fairness gap, qbar_pool, access_freq_pool, per_user_rate_pool (from
    the reported pass's pool ``summary`` (qbar, access, rates)), iterations, converged,
    c_scale and q_scale.  ``fair`` is (tolerance key, tolerance, gap key, gap), empty
    for MT; ``nu_t`` is normalized; ``why`` ends the ConvergenceError message.
    """
    qbar, access, rates = summary
    tol, gap = ({fair[0]: fair[1]}, {fair[2]: fair[3]}) if fair else ({}, {})
    res = {"scheme": scheme, "q_req": q_req, "tol_energy": tol_e, **tol,
           "energy_gap": qbar - q_req, **gap, "qbar_pool": qbar,
           "access_freq_pool": access.tolist(), "per_user_rate_pool": rates.tolist(),
           "iterations": k, "converged": ok, "c_scale": pool.c_scale, "q_scale": pool.q_scale}
    if not ok:
        what = (f"did not converge in {k} iterations ({fair[2].replace('_', ' ')} {fair[3]:.4g}, "
                if fair else f"price search took {k} passes, more than max_iters (")
        raise ConvergenceError(f"{scheme} calibration {what}energy gap {qbar - q_req:.4g} W){why}",
                               residuals=res)
    return DualState(nu=nu_t * pool.c_scale / pool.q_scale, calibration_residuals=res,
                     fingerprint=fingerprint, **duals)


def calibrate_mt(
    q_req: float,
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    settings: CalibrationSettings,
) -> DualState:
    """Find the smallest energy price nu meeting the harvest target.

    ``_mt_price`` searches the pool with the energy tolerance.  If the
    unconstrained scheduler already meets the target, nu = 0 is
    returned (the harvest constraint is slack at the optimum).  A search
    of more than ``max_iters`` passes raises ConvergenceError.
    """
    pool, tol_e = _calibration_pool(q_req, profiles, config, settings)
    nu_t, evals = _mt_price(pool, q_req, tol_e)
    return _result("mt", pool, q_req, tol_e, system_fingerprint(config, profiles), nu_t,
                   pool.evaluate(linear_argmax(pool.cn, pool.qn, nu_t)), evals,
                   evals <= settings.max_iters)


def _fair_bound(pool: _Pool, lam: np.ndarray, resource, tol: float) -> float:
    """Upper bound (W) on the pool harvest of every schedule, fractional or
    not, whose per-user averages u_n of ``resource`` R (1 or ``pool.cn``)
    lie within ``tol`` of a common value.  By weak duality, for any
    normalized ``lam``, slot shares x_s and slot harvest sums T_s:

        mean_s T_s - mean_s x_s.qn_s <= mean_s T_s - mean_s min_n (qn_sn + lam_n R_sn) + lam.u

    and lam.u <= mean(lam) + tol * sum |lam - median(lam)|: for access
    u sums to one, and ``pool.access_offsets`` make the bound nearly tight;
    for throughput lam must sum to zero, and rates within tol_rate of
    their mean, at most 1/N, give tol = tol_rate / N.
    """
    high = np.empty(len(pool.qn))  # max_n (-lam_n R_sn - qn_sn) = -min_n (qn_sn + lam_n R_sn)
    sweep_argbest(score_columns(np.broadcast_to(resource, pool.qn.shape), pool.qn, 1.0, w=-lam),
                  out=high)
    lam_u = float(lam.mean()) + tol * float(np.abs(lam - np.median(lam)).sum())  # >= lam.u
    return float(pool.total.mean()) + pool.q_scale * (float(high.mean()) + lam_u)


def _reject_above(bound: float, q_req: float, tol_e: float, fairness: str, within: str) -> None:
    """InfeasibleError quoting ``bound`` when ``q_req`` exceeds it by more than ``tol_e``."""
    if q_req - tol_e > bound + 1e-12 * abs(bound):  # margin for rounding
        raise InfeasibleError(f"harvest target {q_req:.6g} W is not reachable under {fairness} "
                              f"(above the bound {bound:.6g} W on every schedule whose {within})",
                              q_req=q_req, achievable=bound)


def _fair_pass(caps, harvests, nu_t: float, w=None, g=None) -> tuple:
    """One PF or ET pass over (M, N) arrays: the selections and, for the step, (best score,
    its lead over the second, selections), kept as the kernel sweeps."""
    best, second = np.full(len(caps), -np.inf), np.full(len(caps), -np.inf)

    def tracked(columns):
        for s in columns:  # best holds the maximum of the columns before s
            np.maximum(second, np.minimum(best, s), out=second)
            yield s

    sel = sweep_argbest(tracked(score_columns(caps, harvests, nu_t, w, g)), out=best)
    return sel, (best, np.subtract(best, second, out=second), sel)


def _margin_quantiles(caps, harvests, nu_t, ks, best, lead, sel, w=None, g=None) -> np.ndarray:
    """Per user j, from a ``_fair_pass`` at (w, g), the ``ks[j]``-th largest over the slots of
    j's margin ``score_j - max_{m != j} score_m`` per unit of its multiplier, by which raising
    g_j or lowering w_j alone leaves j the top score in ks[j] slots.  For w the margin is
    divided by caps_j on the slots where caps_j > 0, and the rest, which add no rate, are
    left out (ks[j] capped at their number; 0 if there are none)."""
    delta = np.zeros(caps.shape[1])
    for j, s in enumerate(score_columns(caps, harvests, nu_t, w, g)):  # each user once
        s -= best  # the margin over the best user: +0.0 where j ties for it, so
        s += (sel == j) * lead  # adding the lead where j is selected is exact
        if w is not None:
            paid = caps[:, j] > 0
            s = s[paid] / caps[:, j][paid]
        if k := min(ks[j], len(s)):
            s.partition(len(s) - k)
            delta[j] = s[len(s) - k]
    return delta


def _access_step(caps, harvests, nu_t: float, g: np.ndarray, for_step: tuple) -> np.ndarray:
    """PF's step of the offsets g from a ``_fair_pass`` at g: ``g += (1 - 1/N) delta``,
    recentred, with delta the ``_margin_quantiles`` at ceil(M/N) slots each, >= 0 for a user
    picked more than 1/N.  The damping allows for the other offsets moving too."""
    m, n = caps.shape
    g = g + (1 - 1 / n) * _margin_quantiles(caps, harvests, nu_t, np.full(n, math.ceil(m / n)),
                                            *for_step, g=g)
    return g - g.mean()


class _PfRule:
    """Equal channel access: per-user offsets g = gamma, kept zero-mean by ``_access_step``."""

    scheme, tol_key, gap_key = "pf", "tol_access", "access_gap"
    step = staticmethod(_access_step)

    def start(self, pool: _Pool, warm: DualState | None) -> np.ndarray:
        if warm is None or warm.gamma is None:
            return np.zeros(pool.block.n_users)
        gamma_t = np.asarray(warm.gamma, dtype=float) / pool.c_scale
        return gamma_t - gamma_t.mean()

    def inner(self, pool: _Pool, nu_t: float, gamma_t: np.ndarray) -> tuple:
        sel, for_step = _fair_pass(pool.cn, pool.qn, nu_t, g=gamma_t)
        return sel, self.gap(np.bincount(sel, minlength=len(gamma_t)) / len(sel)), for_step

    @staticmethod
    def gap(access: np.ndarray) -> float:
        return float(np.max(np.abs(access - 1.0 / len(access))))

    certify = None  # calibrate_pf checks its bound once, before any pass

    def duals(self, gamma_t: np.ndarray, pool: _Pool) -> dict:
        return {"gamma": (gamma_t - gamma_t.mean()) * pool.c_scale}


class _EtRule:
    """Equal throughput: per-user rate weights w = theta on the unit simplex."""

    scheme, tol_key, gap_key = "et", "tol_rate", "rate_spread"

    def start(self, pool: _Pool, warm: DualState | None) -> np.ndarray:
        # inverse mean capacity starts the search close to equal throughput
        inv_cap = 1.0 / np.maximum(pool.block.capacities.mean(axis=0), 1e-30)
        theta = inv_cap if warm is None or warm.theta is None else np.maximum(warm.theta, 0.0)
        return theta / theta.sum() if theta.sum() > 0 else inv_cap / inv_cap.sum()

    def inner(self, pool: _Pool, nu_t: float, theta: np.ndarray) -> tuple:
        """Selections, rate spread and, for the step, counts of paid slots (capacity > 0)."""
        sel, for_step = _fair_pass(pool.cn, pool.qn, nu_t, w=theta)
        picked = pool.take(pool.block.capacities, sel)
        rates = np.bincount(sel, picked, len(theta)) / len(sel)
        return sel, self.gap(rates), (np.bincount(sel, picked > 0, len(theta)), rates, *for_step)

    @staticmethod
    def gap(rates: np.ndarray) -> float:
        mean = float(rates.mean())
        return float((rates.max() - rates.min()) / mean) if mean > 0 else math.inf

    @staticmethod
    def step(caps, harvests, nu_t: float, theta: np.ndarray, for_step: tuple) -> np.ndarray:
        """PF's step on the weights: ``theta -= (1 - 1/N) delta``, floored at theta / 2, which
        keeps every weight positive, and renormalized.  delta is the ``_margin_quantiles`` at
        k_j = rint(count_j mean(r) / r_j) in [1, M], the slots that give j the mean rate at its
        rate per slot (ceil(M/N) at r_j = 0).  Capped at theta, where it meets the floor
        anyway, delta keeps one user's infinite margin out of 0 * inf."""
        (counts, rates, *for_step), (m, n) = for_step, caps.shape
        ks, paid = np.full(n, math.ceil(m / n)), rates > 0
        ks[paid] = np.clip(np.rint(counts[paid] * rates.mean() / rates[paid]), 1, m)
        delta = _margin_quantiles(caps, harvests, nu_t, ks, *for_step, w=theta)
        theta = np.maximum(theta - (1 - 1 / n) * np.minimum(delta, theta), theta / 2)
        return theta / theta.sum()

    def certify(self, pool, nu_t, theta, q_req, tol_e, settings) -> None:
        """InfeasibleError if the equal-throughput ``_fair_bound`` is below the
        target.  The schedule is the argmin of qn - (theta / nu_t) cn, so the
        zero-sum multipliers (mean theta - theta) / nu_t tighten as nu_t grows."""
        bound = _fair_bound(pool, (theta.mean() - theta) / nu_t, pool.cn,
                            settings.tol_rate / pool.block.n_users)
        _reject_above(bound, q_req, tol_e, "equal throughput",
                      f"rate spread is within {settings.tol_rate:g} of the mean rate")

    def duals(self, theta: np.ndarray, pool: _Pool) -> dict:
        return {"theta": theta / theta.sum()}


def _fair_price(rule: _PfRule | _EtRule, pool: _Pool, q_req: float, tol_e: float,
                settings: CalibrationSettings, warm_start: DualState | None,
                fingerprint: str) -> DualState:
    """``_price`` over the scheme's inner fairness solve.

    A probe at nu_t runs passes from the multipliers the last probe ended
    with (first ``warm_start``'s, whose nu is the first probe).  A pass,
    ``rule.inner``, computes the fairness gap and what ``rule.step`` reads;
    the step follows, with no step size, until the gap is within tolerance,
    k counting all passes.  ``pool.evaluate`` summarizes the pass that
    ends the probe.  A probe below the target runs ``rule.certify``.
    ``_result`` gets the last pass when ``max_iters`` run out (after one pass at price 0 on
    all-zero capacities, where every slot scores alike), else the probe at the price found:
    converged if its harvest is within ``tol_e`` of the target, or above it at price 0.
    """
    tol = getattr(settings, rule.tol_key)
    mult, k, probes, last = rule.start(pool, warm_start), 0, {}, None

    def result(nu_t: float, ok: bool, state: tuple, why: str = "") -> DualState:
        mult, *summary, gap = state
        return _result(rule.scheme, pool, q_req, tol_e, fingerprint, nu_t, summary, k, ok,
                       (rule.tol_key, tol, rule.gap_key, gap), why, **rule.duals(mult, pool))

    def harvest_at(nu_t: float) -> float:
        nonlocal mult, k, last
        fair, stuck = False, nu_t == 0 and pool.c_scale == 1.0 and not pool.cn.any()
        budget = min(k + 1, settings.max_iters) if stuck else settings.max_iters
        while not fair and k < budget:
            k += 1
            sel, gap, for_step = rule.inner(pool, nu_t, mult)
            fair = gap <= tol
            if fair or k == budget:  # the pass that ends the probe
                last = (mult, *pool.evaluate(sel), gap)
            if not fair:
                mult = rule.step(pool.cn, pool.qn, nu_t, mult, for_step)
        if rule.certify and last[1] < q_req - tol_e and nu_t > 0:
            rule.certify(pool, nu_t, mult, q_req, tol_e, settings)
        if not fair:  # the budget ran out
            result(nu_t, False, last, ": every pool capacity is 0, so at price 0 no pass "
                   "can change the selection" if stuck else "")
        probes[nu_t] = last
        return last[1]

    nu0 = 0.0 if warm_start is None else warm_start.nu * pool.q_scale / pool.c_scale
    nu_t = _price(harvest_at, q_req, tol_e, nu0)
    qbar = probes[nu_t][1]
    return result(nu_t, q_req - tol_e <= qbar and (nu_t == 0 or qbar <= q_req + tol_e),
                  probes[nu_t])


def calibrate_pf(
    q_req: float,
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    settings: CalibrationSettings,
    warm_start: DualState | None = None,
) -> DualState:
    """Calibrate (nu, gamma) so access is uniform and the harvest target binds.

    A target above the equal-access ``_fair_bound`` at ``pool.access_offsets``,
    fitted by the same ``_access_step``, by more than ``tol_energy`` raises
    InfeasibleError (skipped below an even split of every slot, a floor of
    the bound); then ``_fair_price`` runs with ``_PfRule``.
    """
    pool, tol_e = _calibration_pool(q_req, profiles, config, settings)
    n, tol = pool.block.n_users, settings.tol_access
    if q_req > (1 - 1 / n) * float(pool.total.mean()) + tol_e:
        _reject_above(_fair_bound(pool, pool.access_offsets, 1.0, tol), q_req, tol_e,
                      "equal channel access", f"access shares are within {tol:g} of 1/{n}")
    return _fair_price(_PfRule(), pool, q_req, tol_e, settings, warm_start,
                       system_fingerprint(config, profiles))


def calibrate_et(
    q_req: float,
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    settings: CalibrationSettings,
    warm_start: DualState | None = None,
) -> DualState:
    """Calibrate (nu, theta) so per-user throughputs equalize under the target.

    ET means max-min throughput; theta >= 0 on the unit simplex is the
    dual of every r_n >= min rate, so wherever this converges (rate
    spread within ``tol_rate``) it is equal throughput, with
    ``oracle.brute_force_et`` as exact reference.  It runs ``_fair_price``
    with ``_EtRule``; a probe whose equal-throughput ``_fair_bound`` is
    below the target by more than ``tol_energy`` raises InfeasibleError.
    """
    pool, tol_e = _calibration_pool(q_req, profiles, config, settings)
    return _fair_price(_EtRule(), pool, q_req, tol_e, settings, warm_start,
                       system_fingerprint(config, profiles))


_CALIBRATORS = {"mt": calibrate_mt, "pf": calibrate_pf, "et": calibrate_et}


def settings_hash(settings: CalibrationSettings) -> str:
    """Stable hash of the settings a calibration was run with."""
    payload = json.dumps(asdict(settings), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def system_fingerprint(config: SystemConfig, profiles: Sequence[UserProfile]) -> str:
    """Stable hash of the system duals are calibrated for: the transmit
    power and every field of every user profile, floats written by repr."""
    values = [config.tx_power] + [getattr(p, f.name) for p in profiles for f in fields(p)]
    payload = " ".join(repr(float(v)) for v in values)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def save_duals(
    path: str | Path, scheme: str, duals: DualState, settings: CalibrationSettings
) -> None:
    """Write a calibration record so online scheduling can reuse it."""
    record = {
        "scheme": scheme,
        "nu": duals.nu,
        "gamma": None if duals.gamma is None else np.asarray(duals.gamma).tolist(),
        "theta": None if duals.theta is None else np.asarray(duals.theta).tolist(),
        "residuals": duals.calibration_residuals,
        "settings_hash": settings_hash(settings),
        "fingerprint": duals.fingerprint,
    }
    Path(path).write_text(json.dumps(record, indent=2) + "\n")


def load_duals(path: str | Path) -> tuple[str, DualState]:
    """Read back a calibration record written by ``save_duals``.

    Raises ConfigError when the record or its residuals are not a JSON
    object, when a residual ``q_req`` is not a finite nonnegative
    number, or when ``make_optimal_scheduler`` rejects the record
    (unknown scheme; missing, non-finite, negative or 2-D multipliers).
    """
    try:
        record = json.loads(Path(path).read_text())
        scheme, nu = record["scheme"], float(record["nu"])
        gamma, theta = (
            None if record.get(key) is None else np.asarray(record[key], dtype=float)
            for key in ("gamma", "theta")
        )
        residuals = record.get("residuals", {})
        fingerprint = record.get("fingerprint")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed duals file {path}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(residuals, dict):
        raise ConfigError(f"duals file {path}: residuals must be an object, got {residuals!r}")
    q_req = residuals.get("q_req", 0.0)
    if isinstance(q_req, bool) or not isinstance(q_req, numbers.Real) or not 0 <= q_req < math.inf:
        raise ConfigError(f"duals file {path}: residuals.q_req must be a finite nonnegative "
                          f"number, got {q_req!r}")
    duals = DualState(nu=nu, gamma=gamma, theta=theta,
                      calibration_residuals=residuals, fingerprint=fingerprint)
    try:
        make_optimal_scheduler(scheme, duals)
    except ValueError as exc:
        raise ConfigError(f"duals file {path}: {exc}") from exc
    return scheme, duals
