"""Offline calibration of the scheduling multipliers.

The long-run constraints (minimum average harvested energy, equal
channel access, equal throughput) depend only on channel statistics,
so their multipliers are computed once, offline, by Monte-Carlo:
a fixed pool of fading slots estimates every constraint as an
empirical average, and the duals are adjusted until the estimates
meet their targets.

Every calibrator takes the same three steps:

  * Setup: ``_calibration_pool`` draws the pool, resolves the energy
    tolerance and rejects a target above the pool maximum.
  * Its own search.  MT has the single multiplier nu; the pool
    estimate of harvested energy is non-decreasing in nu, so nu is
    found by bisection (``_mt_price``, which the oracle also runs on
    its instances).  PF and ET add one multiplier per user (gamma /
    theta) and share one subgradient loop, ``_subgradient``, with step
    c/sqrt(k); a rule supplies only the scheme's maths.  PF steps gamma
    additively; ET steps theta multiplicatively (exponentiated
    gradient), the geometry of its unit simplex.
    PF first rejects a target above ``_access_bound``: a weak-duality
    bound on the harvest of any schedule whose access shares are all
    within ``tol_access`` of 1/N, at offsets found by
    ``_access_offsets``.  ET alone may end stalled below the target,
    a guess that has no certificate yet.
  * ``_result`` writes the residual record and returns the DualState,
    or raises ConvergenceError carrying that record.

Every pass schedules the pool's normalized arrays with
``scheduling.linear_argmax``, the kernel the online schedulers use,
and scores the selection with ``SlotBlock.summary`` like every caller.
The normalized arrays are user-major (Fortran order), the oracle's
instances included: the kernel scores such arrays one contiguous user
column at a time, on a calibration pool about twice as fast as a
whole-array argmax.  The raw arrays stay row-major, as drawn.

The same slot pool is reused across all dual iterates (common random
numbers); fresh slots are drawn only for out-of-sample validation via
``estimate_constraints``.

Internally the duals are scale-normalized: capacities are divided by
a typical per-slot maximum capacity and harvests by the maximum
achievable average harvest, which makes the subgradient steps
dimensionless and O(1) even though the physical nu spans orders of
magnitude across geometries.  Returned DualState values are in
physical units (gamma in bits/channel-use, nu in bits per
channel-use per Watt).

Non-uniqueness gauges: gamma is reported zero-mean and theta is
renormalized to sum to one; neither changes any argmax decision.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import seeds
from .channel import ConfigError, SlotBlock, SystemConfig, UserProfile, draw_block
from .scheduling import DualState, linear_argmax, make_optimal_scheduler

_NU_CAP = 1e6  # normalized; beyond this the selection is pure minimum-harvest
_STALL_WINDOW = 400  # ET only
_SINKHORN_SLOTS = 1000
_SINKHORN_TAUS = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
_SINKHORN_SCALINGS = 10  # per temperature


class InfeasibleError(RuntimeError):
    """The requested harvest target exceeds what any schedule can reach.

    ``achievable`` is the evidence: the pool maximum, the PF
    equal-access bound, or, for ET, the best pool harvest before a stall.
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
    is relative on the per-user rate spread.
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


def _pool_of(block: SlotBlock) -> _Pool:
    """Normalize a block by its mean maximum capacity and maximum average harvest."""
    q_max = float(np.mean(block.max_harvest()))
    c_scale = float(np.mean(block.capacities.max(axis=1)))
    # all-zero efficiencies: price energy against capacity 1:1
    q_scale = q_max if q_max > 0 else 1.0
    # No pass reads the gains; dropping them also frees their memory.
    return _Pool(SlotBlock(None, block.capacities, block.harvests), block.harvests.sum(axis=1),
                 c_scale, q_max, q_scale, np.divide(block.capacities, c_scale, order="F"),
                 np.divide(block.harvests, q_scale, order="F"))


def _build_pool(
    profiles: Sequence[UserProfile], config: SystemConfig, settings: CalibrationSettings
) -> _Pool:
    rng = seeds.substream(settings.seed, seeds.CALIBRATION)
    return _pool_of(draw_block(profiles, config, rng, settings.mc_slots))


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
    per_slot_max = pool.block.max_harvest()
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
    validation substream of ``settings.seed`` is used.
    """
    if rng is None:
        rng = seeds.substream(settings.seed, seeds.VALIDATION)
    scheduler = make_optimal_scheduler(scheme, duals)
    block = draw_block(profiles, config, rng, settings.mc_slots)
    qbar, access, rates = block.summary(scheduler.select_block(block))
    return ConstraintEstimate(mean_sum_harvest=qbar, access_freq=access, per_user_rate=rates)


def _mt_price(pool: _Pool, q_req: float, tol: float) -> tuple[float, int]:
    """Smallest normalized energy price whose pool harvest reaches ``q_req - tol``.

    The harvest is non-decreasing in the price: bracket by doubling from
    1, then bisect until the harvest is at most ``q_req + tol`` or the
    bracket is 1e-13 of its top.  Returns the price (0 when the unpriced
    schedule reaches the target) and the number of pool evaluations.
    """
    target = q_req - tol
    evals = 0

    def qbar_at(nu_t: float) -> float:
        nonlocal evals
        evals += 1
        # the harvest term of ``pool.evaluate``, without its two bincounts
        idle = pool.block.outcome(linear_argmax(pool.cn, pool.qn, nu_t), pool.total)[1]
        return float(idle.sum()) / pool.block.n_slots

    if qbar_at(0.0) >= target:
        return 0.0, evals
    lo, hi = 0.0, 1.0
    qbar_hi = qbar_at(hi)
    for _ in range(81):  # beyond that no price is resolvable
        if qbar_hi >= target:
            break
        lo, hi = hi, hi * 2.0
        qbar_hi = qbar_at(hi)
    # invariant: qbar(lo) < target <= qbar(hi)
    for _ in range(200):
        if qbar_hi <= q_req + tol or (hi - lo) <= 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        qbar_mid = qbar_at(mid)
        if qbar_mid >= target:
            hi, qbar_hi = mid, qbar_mid
        else:
            lo = mid
    return hi, evals


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
        raise ConvergenceError(
            f"{scheme} calibration did not converge in {k} iterations "
            f"({fair[2].replace('_', ' ')} {fair[3]:.4g}, energy gap {qbar - q_req:.4g} W)",
            residuals=res,
        )
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
    returned (the harvest constraint is slack at the optimum).
    """
    pool, tol_e = _calibration_pool(q_req, profiles, config, settings)
    nu_t, evals = _mt_price(pool, q_req, tol_e)
    qbar, access, rates = pool.evaluate(linear_argmax(pool.cn, pool.qn, nu_t))
    return _result("mt", pool, q_req, tol_e, system_fingerprint(config, profiles), nu_t, qbar,
                   evals, True, {"access_freq_pool": access.tolist(),
                                 "per_user_rate_pool": rates.tolist()})


def _access_bound(pool: _Pool, g: np.ndarray, tol_access: float) -> float:
    """Upper bound (W) on the pool harvest of every schedule, fractional or
    not, whose access shares all lie within ``tol_access`` of 1/N.

    Weak duality, for any normalized offsets ``g``: a schedule with slot
    shares x_s and access a harvests, over q_scale,

        mean_s T_s - mean_s x_s.qn_s <= mean_s T_s - mean_s min_n (qn_sn + g_n) + g.a

    where T_s is the slot's harvest sum over q_scale, and
    g.a = mean(g) + (g - c).(a - 1/N) <= mean(g) + tol_access * sum |g - c|
    for any c, because the deviations sum to zero; c = median(g) is
    the best.  The offsets decide only how tight the bound is.
    """
    low = pool.qn[:, 0] + g[0]
    for u in range(1, len(g)):  # running minimum: slot-length temporaries only
        np.minimum(low, pool.qn[:, u] + g[u], out=low)
    spread = tol_access * float(np.abs(g - np.median(g)).sum())
    return float(pool.total.mean()) - pool.q_scale * (float(low.mean()) - float(g.mean()) - spread)


def _logsumexp(z: np.ndarray, axis: int) -> np.ndarray:
    top = z.max(axis=axis, keepdims=True)
    return top + np.log(np.exp(z - top).sum(axis=axis, keepdims=True))


def _access_offsets(qn: np.ndarray) -> np.ndarray:
    """Offsets g under which the soft minimum of ``qn + g`` over users gives
    every user an equal share of the first ``_SINKHORN_SLOTS`` slots.

    Annealed Sinkhorn scaling (Cuturi, "Sinkhorn distances", 2013) on the
    semi-discrete equal-access problem, in the log domain so that no
    offset becomes infinite.  As the temperature falls, g approaches
    the offsets that make ``_access_bound`` tight on those slots.
    """
    q = qn[:_SINKHORN_SLOTS]
    m, n = q.shape
    g = np.zeros(n)
    for tau in _SINKHORN_TAUS:
        for _ in range(_SINKHORN_SCALINGS):
            log_p = (q + g) / -tau
            log_p -= _logsumexp(log_p, axis=1)
            # raise the offset of a user picked more than 1/N, and vice versa
            g += tau * (_logsumexp(log_p, axis=0)[0] - math.log(m / n))
    return g


class _PfRule:
    """Equal channel access: per-user offsets g = gamma, kept zero-mean."""

    scheme, tol_key, gap_key = "pf", "tol_access", "access_gap"

    def start(self, pool: _Pool, warm: DualState | None) -> np.ndarray:
        if warm is None or warm.gamma is None:
            return np.zeros(pool.block.n_users)
        gamma_t = np.asarray(warm.gamma, dtype=float) / pool.c_scale
        return gamma_t - gamma_t.mean()

    def select(self, pool: _Pool, nu_t: float, gamma_t: np.ndarray) -> np.ndarray:
        return linear_argmax(pool.cn, pool.qn, nu_t, g=gamma_t)

    def gap(self, access: np.ndarray, rates: np.ndarray) -> float:
        return float(np.max(np.abs(access - 1.0 / len(access))))

    def step(self, gamma_t, step, access, rates) -> np.ndarray:
        gamma_t = gamma_t + step * (access - 1.0 / len(access))
        return gamma_t - gamma_t.mean()

    def fields(self, access: np.ndarray, rates: np.ndarray, gamma_t: np.ndarray) -> dict:
        return {"access_freq_pool": access.tolist(), "per_user_rate_pool": rates.tolist()}

    def duals(self, gamma_t: np.ndarray, pool: _Pool) -> dict:
        return {"gamma": (gamma_t - gamma_t.mean()) * pool.c_scale}


class _EtRule:
    """Equal throughput: per-user rate weights w = theta on the unit simplex.

    The ET dual E[max_n (theta_n C_n - nu Q_n)] is convex on the simplex
    and its gradient is the vector of per-user rates, so theta takes an
    exponentiated-gradient (entropic mirror descent) step: each weight
    is multiplied by a factor in (0, 1], the largest for the users at the
    minimum rate, and the result renormalized.  No weight reaches zero,
    which matters because a user of zero weight is never scheduled again
    and its rate could not recover.
    """

    scheme, tol_key, gap_key = "et", "tol_rate", "rate_spread"

    def start(self, pool: _Pool, warm: DualState | None) -> np.ndarray:
        # inverse mean capacity starts the search close to equal throughput
        inv_cap = 1.0 / np.maximum(pool.block.capacities.mean(axis=0), 1e-30)
        if warm is None or warm.theta is None:
            return inv_cap / inv_cap.sum()
        theta = np.maximum(np.asarray(warm.theta, dtype=float), 0.0)
        return theta / theta.sum() if theta.sum() > 0 else inv_cap / inv_cap.sum()

    def select(self, pool: _Pool, nu_t: float, theta: np.ndarray) -> np.ndarray:
        return linear_argmax(pool.cn, pool.qn, nu_t, w=theta)

    def gap(self, access: np.ndarray, rates: np.ndarray) -> float:
        mean = float(rates.mean())
        if mean <= 0:
            return math.inf
        return float((rates.max() - rates.min()) / mean)

    def step(self, theta, step, access, rates) -> np.ndarray:
        rate_scale = max(float(rates.mean()), 1e-30)
        theta = theta * np.exp(-step * (rates - rates.min()) / rate_scale)
        return theta / theta.sum()

    def fields(self, access: np.ndarray, rates: np.ndarray, theta: np.ndarray) -> dict:
        return {"per_user_rate_pool": rates.tolist(), "theta_sum": float(theta.sum())}

    def duals(self, theta: np.ndarray, pool: _Pool) -> dict:
        return {"theta": theta / theta.sum()}


def _subgradient(rule: _PfRule | _EtRule, pool: _Pool, q_req: float, tol_e: float,
                 settings: CalibrationSettings, warm_start: DualState | None,
                 fingerprint: str, stalls: bool = False) -> DualState:
    """Subgradient steps on nu and one multiplier per user.

    Every pass schedules the fixed pool with ``rule.select``, then
    steps with ``step_size / sqrt(k)``: nu += step * (q_req - harvest),
    clamped to [0, _NU_CAP], and the multiplier by ``rule.step``.
    ``rule`` supplies all that differs between PF and ET: the start and
    warm start, the kernel call, its step, the fairness gap and
    tolerance, the residual fields and the duals.  The loop stops once
    the fairness gap and the harvest target both hold, or when the
    budget ends, and hands the last pass to ``_result``.  With
    ``stalls`` (ET) it also raises InfeasibleError quoting the best
    harvest when that stays below the target for ``_STALL_WINDOW``
    passes without rising.
    """
    tol = getattr(settings, rule.tol_key)
    nu_t = 0.0 if warm_start is None else warm_start.nu * pool.q_scale / pool.c_scale
    mult = rule.start(pool, warm_start)
    best, best_k = -math.inf, 0
    for k in range(1, settings.max_iters + 1):
        qbar, access, rates = pool.evaluate(rule.select(pool, nu_t, mult))
        gap = rule.gap(access, rates)
        # complementary slackness: a strictly positive price must bind
        ok = gap <= tol and q_req - tol_e <= qbar and (nu_t <= 1e-9 or qbar <= q_req + tol_e)
        if ok:
            break
        # ET stall: the energy price only pushes the pool harvest up, so a
        # best harvest that stops rising for a whole window below the target
        # is taken to mean the target is out of reach.  An iterate that
        # reached the target proves reachability, so the check then stays
        # quiet for good.
        if qbar > best + 0.1 * tol_e:
            best, best_k = qbar, k
        if stalls and best < q_req - tol_e and k - best_k >= _STALL_WINDOW:
            raise InfeasibleError(
                f"harvest target {q_req:.6g} W is not reachable under equal throughput "
                f"(best average harvest observed: {best:.6g} W)",
                q_req=q_req,
                achievable=best,
            )
        if k == settings.max_iters:
            break  # report the iterate just evaluated
        step = settings.step_size / math.sqrt(k)
        nu_t = min(max(0.0, nu_t + step * (q_req - qbar) / pool.q_scale), _NU_CAP)
        mult = rule.step(mult, step, access, rates)
    return _result(rule.scheme, pool, q_req, tol_e, fingerprint, nu_t, qbar, k, ok,
                   rule.fields(access, rates, mult), (rule.tol_key, tol, rule.gap_key, gap),
                   **rule.duals(mult, pool))


def calibrate_pf(
    q_req: float,
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    settings: CalibrationSettings,
    warm_start: DualState | None = None,
) -> DualState:
    """Calibrate (nu, gamma) so access is uniform and the harvest target binds.

    After the pool setup, a target above ``_access_bound`` by more than
    ``tol_energy`` raises InfeasibleError quoting the bound, which holds
    for every schedule whose access shares are within ``tol_access`` of
    1/N.  The bound is at least the harvest of an even split of every
    slot (exactly equal access), so below that the check is skipped.
    Any other target runs the shared subgradient loop with the step

        gamma_n += step * (access_n - 1/N)          (then recentred)

    and ends converged or in ConvergenceError; PF has no stall rule.
    """
    pool, tol_e = _calibration_pool(q_req, profiles, config, settings)
    n, tol = pool.block.n_users, settings.tol_access
    if q_req > (1 - 1 / n) * float(pool.total.mean()) + tol_e:
        bound = _access_bound(pool, _access_offsets(pool.qn), tol)
        if q_req - tol_e > bound + 1e-12 * abs(bound):  # margin for rounding
            raise InfeasibleError(
                f"harvest target {q_req:.6g} W is not reachable under equal channel access "
                f"(above the bound {bound:.6g} W on every schedule whose access shares "
                f"are within {tol:g} of 1/{n})",
                q_req=q_req,
                achievable=bound,
            )
    return _subgradient(_PfRule(), pool, q_req, tol_e, settings, warm_start,
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
    ``oracle.brute_force_et`` as exact reference.  A target whose
    max-min optimum leaves a user above the minimum ends in
    ConvergenceError, or InfeasibleError when the stall fires.

    After the pool setup it runs the shared subgradient loop with the
    stall rule on and the multiplicative step

        theta_n *= exp(-step * (r_n - min r) / mean r)   (then renormalized)

    on each user's pool rate r_n.  At N users one step shrinks a weight
    by at most exp(-step * N), and a user at the minimum rate never
    loses weight relative to another.  The initial theta weights each
    user by the inverse of its mean pool capacity, which starts the
    search close to the equal-throughput region.
    """
    pool, tol_e = _calibration_pool(q_req, profiles, config, settings)
    return _subgradient(_EtRule(), pool, q_req, tol_e, settings, warm_start,
                        system_fingerprint(config, profiles), stalls=True)


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
