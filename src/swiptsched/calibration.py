"""Offline calibration of the scheduling multipliers.

The long-run constraints (minimum average harvested energy, equal
channel access, equal throughput) depend only on channel statistics,
so their multipliers are fitted once, offline, on a fixed Monte-Carlo
pool of fading slots; fresh slots serve only out-of-sample validation
(``estimate_constraints``), which draws them one sub-block ahead on a
helper thread through the run loop, ``channel.slot_outcomes``.

Every calibrator takes the same three steps:

  * Setup: ``_calibration_pool`` draws the pool (once per sweep, in a
    ``_pool_share``), resolves the energy tolerance and rejects a target
    above the pool maximum.
  * One price search, ``_price``: the pool harvest does not decrease
    with the energy price nu, so nu is bracketed by doubling and then
    bisected.  An MT probe is one pass (``_mt_price``, which the oracle
    also runs); a PF or ET probe is an inner fairness solve on gamma or
    theta (``_fair_price``), warm-started from the previous probe.  PF
    rejects a target above the weak-duality ``_fair_bound`` before any
    pass, ET at a probe below the target.
  * ``_result`` writes the residual record and returns the DualState,
    or raises ConvergenceError carrying that record.

Every pass schedules the pool with ``scheduling.linear_argmax``, the
online kernel, and scores it with ``SlotBlock.summary``.  The pool's
normalized arrays are user-major (Fortran order), oracle instances
included, which the kernel sweeps a contiguous column at a time without
a branch per slot; on a 5-user ET pool that is five times as fast as a
whole-array argmax, and four times a masked copy of each column's picks,
whose branch mispredicts when the picks spread evenly over the users.
The raw arrays stay row-major.

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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import seeds
from .channel import (ConfigError, SlotBlock, SystemConfig, UserProfile, draw_block,
                      row_reduce, slot_outcomes, summarize)
from .scheduling import DualState, linear_argmax, make_optimal_scheduler

_ACCESS_FIT_SLOTS = 1000


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
    ConvergenceError.  ``step_size`` drives ET's theta step only.
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
    c_scale: float         # typical per-slot max capacity
    q_max: float           # maximum achievable average harvest
    q_scale: float         # q_max, or 1.0 when that is 0
    cn: np.ndarray         # capacities / c_scale
    qn: np.ndarray         # harvests / q_scale

    def evaluate(self, selections: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        return self.block.summary(selections, self.total)

    @cached_property
    def access_offsets(self) -> np.ndarray:
        """Offsets g of the equal-access ``_fair_bound``, under which the argmin
        of ``qn + g`` over users (PF's schedule at an infinite energy price)
        comes closest to an equal share of the first ``_ACCESS_FIT_SLOTS`` slots.
        PF's own ``_access_step`` fits g on zero capacities at unit price from
        zero offsets, keeping the offsets of the smallest access gap: it stops at
        a gap of 0 (one user at once) or at the first step that does not shrink
        it.  Fitted once per pool, however many PF targets of a sweep ask for it.
        """
        q = self.qn[:_ACCESS_FIT_SLOTS]
        (m, n), caps = q.shape, np.broadcast_to(0.0, q.shape)

        def gap(g: np.ndarray) -> float:
            return _PfRule.gap(np.bincount(linear_argmax(caps, q, 1.0, g=g), minlength=n) / m)

        g = np.zeros(n)
        g_gap = gap(g)
        while g_gap > 0 and (new_gap := gap(new := _access_step(caps, q, 1.0, g))) < g_gap:
            g, g_gap = new, new_gap
        return g


def _pool_of(block: SlotBlock) -> _Pool:
    """Normalize a block by its mean maximum capacity and maximum average harvest."""
    total = row_reduce(block.harvests)
    q_max = float(np.mean(block.max_harvest(total)))
    c_scale = float(np.mean(row_reduce(block.capacities, np.maximum)))
    # all-zero efficiencies: price energy against capacity 1:1
    q_scale = q_max if q_max > 0 else 1.0
    # No pass reads the gains; dropping them also frees their memory.
    return _Pool(SlotBlock(None, block.capacities, block.harvests), total,
                 c_scale, q_max, q_scale, np.divide(block.capacities, c_scale, order="F"),
                 np.divide(block.harvests, q_scale, order="F"))


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
        rng = seeds.substream(settings.seed, seeds.CALIBRATION)
        shared[key] = pool = _pool_of(draw_block(profiles, config, rng, settings.mc_slots))
        for a in (pool.block.capacities, pool.block.harvests, pool.total, pool.cn, pool.qn):
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
    per_slot_max = pool.block.max_harvest(pool.total)
    stderr = float(per_slot_max.std(ddof=1) / math.sqrt(settings.mc_slots))
    return FeasibleRange(greedy=greedy, maximum=pool.q_max, stderr_maximum=stderr)


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
    validation substream of ``settings.seed`` is used.  The
    ``settings.mc_slots`` slots are one chunk of ``channel.slot_outcomes``:
    a helper thread draws them one sub-block ahead and is the only reader
    of ``rng``, at most two sub-blocks are alive at once, and the result is
    that of scheduling and summarizing one block of all the slots, bit for bit.
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
        # the harvest term of ``pool.evaluate``, without its two bincounts
        idle = pool.block.outcome(linear_argmax(pool.cn, pool.qn, nu_t), pool.total)[1]
        return float(idle.sum()) / pool.block.n_slots

    return _price(qbar_at, q_req, tol), len(probed)


def _result(scheme: str, pool: _Pool, q_req: float, tol_e: float, fingerprint: str,
            nu_t: float, qbar: float, k: int, ok: bool, pooled: dict, fair: tuple = (),
            **duals) -> DualState:
    """The calibrated DualState, or ConvergenceError carrying the same residuals.

    The residuals list scheme, q_req, tol_energy, the fairness tolerance,
    energy_gap, the fairness gap, qbar_pool, the ``pooled`` fields,
    iterations, converged, c_scale and q_scale.  ``fair`` is (tolerance
    key, tolerance, gap key, gap), empty for MT; ``nu_t`` is normalized.
    """
    tol, gap = ({fair[0]: fair[1]}, {fair[2]: fair[3]}) if fair else ({}, {})
    res = {"scheme": scheme, "q_req": q_req, "tol_energy": tol_e, **tol,
           "energy_gap": qbar - q_req, **gap, "qbar_pool": qbar, **pooled, "iterations": k,
           "converged": ok, "c_scale": pool.c_scale, "q_scale": pool.q_scale}
    if not ok:
        why = (f"did not converge in {k} iterations ({fair[2].replace('_', ' ')} {fair[3]:.4g}, "
               if fair else f"price search took {k} passes, more than max_iters (")
        raise ConvergenceError(f"{scheme} calibration {why}energy gap {qbar - q_req:.4g} W)",
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
    qbar, access, rates = pool.evaluate(linear_argmax(pool.cn, pool.qn, nu_t))
    return _result("mt", pool, q_req, tol_e, system_fingerprint(config, profiles), nu_t, qbar,
                   evals, evals <= settings.max_iters, {"access_freq_pool": access.tolist(),
                                                         "per_user_rate_pool": rates.tolist()})


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
    resource = np.broadcast_to(resource, pool.qn.shape)
    low = pool.qn[:, 0] + lam[0] * resource[:, 0]
    for u in range(1, len(lam)):  # running minimum: slot-length temporaries only
        np.minimum(low, pool.qn[:, u] + lam[u] * resource[:, u], out=low)
    lam_u = float(lam.mean()) + tol * float(np.abs(lam - np.median(lam)).sum())  # >= lam.u
    return float(pool.total.mean()) - pool.q_scale * (float(low.mean()) - lam_u)


def _reject_above(bound: float, q_req: float, tol_e: float, fairness: str, within: str) -> None:
    """InfeasibleError quoting ``bound`` when ``q_req`` exceeds it by more than ``tol_e``."""
    if q_req - tol_e > bound + 1e-12 * abs(bound):  # margin for rounding
        raise InfeasibleError(f"harvest target {q_req:.6g} W is not reachable under {fairness} "
                              f"(above the bound {bound:.6g} W on every schedule whose {within})",
                              q_req=q_req, achievable=bound)


def _access_step(caps, harvests, nu_t: float, g: np.ndarray) -> np.ndarray:
    """PF's step of the offsets g of the scores ``caps - nu_t harvests - g``, (M, N) arrays:
    ``g_n += (1 - 1/N) delta_n``, recentred, with delta_n the ceil(M/N)-th largest
    over the M slots of user n's margin ``score_n - max_{m != n} score_m``.  That rise
    alone would leave n the top score in 1/N of the slots, so delta_n >= 0 for a user
    picked more than 1/N and <= 0 for one picked less.  It needs no step size at any
    price; the damping allows for the other offsets moving too.
    """
    def score(j: int) -> np.ndarray:
        s = caps[:, j] - nu_t * harvests[:, j]
        s -= g[j]
        return s

    (m, n), best, second = caps.shape, score(0), np.full(len(caps), -np.inf)
    for j in range(1, n):  # user-major: slot-length temporaries only
        s = score(j)
        np.maximum(second, np.minimum(best, s), out=second)
        np.maximum(best, s, out=best)
    delta, k = np.empty(n), m - math.ceil(m / n)
    for j in range(n):
        s = score(j)
        rival = s - second  # kept only where j holds the best score
        rival *= s == best
        s -= best  # +0.0 where j holds the best, so adding the rival is exact
        s += rival  # the margin over the best user, or the best's over the second
        s.partition(k)
        delta[j] = s[k]
    g = g + (1 - 1 / n) * delta
    return g - g.mean()


class _PfRule:
    """Equal channel access: per-user offsets g = gamma, kept zero-mean by ``_access_step``."""

    scheme, tol_key, gap_key = "pf", "tol_access", "access_gap"

    def start(self, pool: _Pool, warm: DualState | None) -> np.ndarray:
        if warm is None or warm.gamma is None:
            return np.zeros(pool.block.n_users)
        gamma_t = np.asarray(warm.gamma, dtype=float) / pool.c_scale
        return gamma_t - gamma_t.mean()

    def select(self, pool: _Pool, nu_t: float, gamma_t: np.ndarray) -> np.ndarray:
        return linear_argmax(pool.cn, pool.qn, nu_t, g=gamma_t)

    @staticmethod
    def gap(access: np.ndarray, rates: np.ndarray | None = None) -> float:
        return float(np.max(np.abs(access - 1.0 / len(access))))

    def step(self, pool, nu_t, gamma_t, step, rates) -> np.ndarray:
        return _access_step(pool.cn, pool.qn, nu_t, gamma_t)

    certify = None  # calibrate_pf checks its bound once, before any pass

    def fields(self, access: np.ndarray, rates: np.ndarray, gamma_t: np.ndarray) -> dict:
        return {"access_freq_pool": access.tolist(), "per_user_rate_pool": rates.tolist()}

    def duals(self, gamma_t: np.ndarray, pool: _Pool) -> dict:
        return {"gamma": (gamma_t - gamma_t.mean()) * pool.c_scale}


class _EtRule:
    """Equal throughput: per-user rate weights w = theta on the unit simplex.

    The ET dual E[max_n (theta_n C_n - nu Q_n)] is convex on the simplex
    with the rates as gradient, so theta takes an exponentiated-gradient
    step ``theta_n *= exp(-step (r_n - min r) / mean r)``, renormalized.
    The factor is in (0, 1], largest at the minimum rate, so no weight
    reaches zero (a user of zero weight would never be scheduled again).
    """

    scheme, tol_key, gap_key = "et", "tol_rate", "rate_spread"

    def start(self, pool: _Pool, warm: DualState | None) -> np.ndarray:
        # inverse mean capacity starts the search close to equal throughput
        inv_cap = 1.0 / np.maximum(pool.block.capacities.mean(axis=0), 1e-30)
        theta = inv_cap if warm is None or warm.theta is None else np.maximum(warm.theta, 0.0)
        return theta / theta.sum() if theta.sum() > 0 else inv_cap / inv_cap.sum()

    def select(self, pool: _Pool, nu_t: float, theta: np.ndarray) -> np.ndarray:
        return linear_argmax(pool.cn, pool.qn, nu_t, w=theta)

    def gap(self, access: np.ndarray, rates: np.ndarray) -> float:
        mean = float(rates.mean())
        return float((rates.max() - rates.min()) / mean) if mean > 0 else math.inf

    def step(self, pool, nu_t, theta, step, rates) -> np.ndarray:
        rate_scale = max(float(rates.mean()), 1e-30)
        theta = theta * np.exp(-step * (rates - rates.min()) / rate_scale)
        return theta / theta.sum()

    def certify(self, pool, nu_t, theta, q_req, tol_e, settings) -> None:
        """InfeasibleError if the equal-throughput ``_fair_bound`` is below the
        target.  The schedule is the argmin of qn - (theta / nu_t) cn, so the
        zero-sum multipliers (mean theta - theta) / nu_t tighten as nu_t grows."""
        bound = _fair_bound(pool, (theta.mean() - theta) / nu_t, pool.cn,
                            settings.tol_rate / pool.block.n_users)
        _reject_above(bound, q_req, tol_e, "equal throughput",
                      f"rate spread is within {settings.tol_rate:g} of the mean rate")

    def fields(self, access: np.ndarray, rates: np.ndarray, theta: np.ndarray) -> dict:
        return {"per_user_rate_pool": rates.tolist(), "theta_sum": float(theta.sum())}

    def duals(self, theta: np.ndarray, pool: _Pool) -> dict:
        return {"theta": theta / theta.sum()}


def _fair_price(rule: _PfRule | _EtRule, pool: _Pool, q_req: float, tol_e: float,
                settings: CalibrationSettings, warm_start: DualState | None,
                fingerprint: str) -> DualState:
    """``_price`` over the scheme's inner fairness solve.

    A probe at nu_t runs passes from the multipliers the last probe ended
    with (first ``warm_start``'s, whose nu is the first probe), each
    scheduling with ``rule.select`` and, until the fairness gap is within
    tolerance, stepping with ``rule.step`` at ``step_size / sqrt(k)``, k
    counting all passes.  A probe below the target runs ``rule.certify``.
    ``_result`` gets the last pass when ``max_iters`` run out, else the
    probe at the price found: converged if its harvest is within
    ``tol_e`` of the target, or above it at price 0.
    """
    tol = getattr(settings, rule.tol_key)
    mult, k, probes, last = rule.start(pool, warm_start), 0, {}, None

    def result(nu_t: float, ok: bool, state: tuple) -> DualState:
        mult, qbar, access, rates, gap = state
        return _result(rule.scheme, pool, q_req, tol_e, fingerprint, nu_t, qbar, k, ok,
                       rule.fields(access, rates, mult), (rule.tol_key, tol, rule.gap_key, gap),
                       **rule.duals(mult, pool))

    def harvest_at(nu_t: float) -> float:
        nonlocal mult, k, last
        fair = False
        while not fair and k < settings.max_iters:
            k += 1
            qbar, access, rates = pool.evaluate(rule.select(pool, nu_t, mult))
            last = (mult, qbar, access, rates, rule.gap(access, rates))
            fair = last[4] <= tol
            if not fair:
                mult = rule.step(pool, nu_t, mult, settings.step_size / math.sqrt(k), rates)
        if rule.certify and last[1] < q_req - tol_e and nu_t > 0:
            rule.certify(pool, nu_t, mult, q_req, tol_e, settings)
        if not fair:  # max_iters ran out
            result(nu_t, False, last)
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
