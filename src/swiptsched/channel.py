"""Channel model for a downlink multiuser system with RF energy harvesting.

One access point serves N single-antenna user terminals over block-fading
channels.  In every slot the channel power gain of user n is

    h_n = omega_n * e_n,

where omega_n is the mean gain set by distance-dependent path loss plus
antenna gains, and e_n is unit-mean exponential (Rayleigh amplitude
fading, independent across users and slots).  From the gain we derive

    capacity   C_n = log2(1 + P * h_n / sigma_n^2)   [bits/channel use]
    harvest    Q_n = xi_n * P * h_n                  [Watts]

where P is the transmit power, sigma_n^2 the receiver noise power and
xi_n the RF-to-DC conversion efficiency.  Slots are unit length, so
harvested power and harvested energy coincide.

``draw_sub_blocks`` is the one prefetching draw loop.  It draws sub-blocks
of about 256 KiB per array, which stay in L2 cache, while a helper thread
fills the exponential variates of the next one; only that thread reads the
generator, in slot order, so no variate changes.  ``slot_outcomes``, the slot
loop of long runs, their replays and out-of-sample validation, selects and
scores each sub-block.  A calibration pool of more than four sub-blocks is
written a sub-block at a time, each reduced while in cache, with no gains array.

With a handful of users a numpy call over the user axis of each slot
pays its per-loop cost once per slot, so the loop makes none where that
is faster: the per-user factors omega, sigma^2 and xi * P are tiled to
the sub-block's shape, and below ``_SWEEP_USERS`` users the row totals
(``row_reduce``) and the argmax (``scheduling.sweep_argbest``) sweep
whole user columns.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT = 299792458.0
_SUB_BLOCK_BYTES = 1 << 18
# Below this many users per-slot reductions sweep the user columns; numpy
# adds fewer than 8 terms in sequence, so row totals keep every bit.
_SWEEP_USERS = 8


class ConfigError(ValueError):
    """Invalid or unreadable system configuration."""


def dbm_to_watts(x: float) -> float:
    """Convert a power level in dBm to Watts."""
    return 10.0 ** ((x - 30.0) / 10.0)


@dataclass
class SystemConfig:
    """Physical and simulation parameters.

    Defaults correspond to a 915 MHz microwave-powered deployment:
    10 W transmit power, -62 dBm receiver noise, 0.5 conversion
    efficiency, path-loss exponent 3.6 between a 2 m reference distance
    and a 100 m maximum service distance, 10 dBi / 2 dBi antenna gains.

    ``noise_power_per_user`` and ``rf_dc_efficiency_per_user`` accept a
    scalar (applied to every user) or a sequence of length ``n_users``.
    ``bandwidth_hz`` is reporting metadata only: rates are computed in
    bits/channel-use and can be scaled to bits/s on output.
    """

    n_users: int
    tx_power: float = 10.0
    noise_power_per_user: float | Sequence[float] = dbm_to_watts(-62.0)
    rf_dc_efficiency_per_user: float | Sequence[float] = 0.5
    path_loss_exponent: float = 3.6
    ref_distance_m: float = 2.0
    max_distance_m: float = 100.0
    ap_antenna_gain_dbi: float = 10.0
    ut_antenna_gain_dbi: float = 2.0
    carrier_hz: float = 915e6
    q_req: float = 0.0
    n_slots: int = 100_000
    seed: int = 1
    bandwidth_hz: float = 200e3

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for names, kind, what in ((_INT_FIELDS, numbers.Integral, "an integer"),
                                  (_REAL_FIELDS, numbers.Real, "a number")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")
        for name in _FLOAT_FIELDS:
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise ConfigError(f"{name} must be finite")
        if self.n_users < 1:
            raise ConfigError("n_users must be at least 1")
        if self.tx_power <= 0:
            raise ConfigError("tx_power must be positive")
        if np.any(self.noise_powers() <= 0):
            raise ConfigError("noise power must be positive")
        xi = self.efficiencies()
        if np.any(xi < 0) or np.any(xi > 1):
            raise ConfigError("rf_dc_efficiency_per_user must lie in [0, 1]")
        if self.ref_distance_m <= 0:
            raise ConfigError("ref_distance_m must be positive")
        # Equal reference and maximum distance is allowed: it pins every
        # user to the reference ring.
        if self.max_distance_m < self.ref_distance_m:
            raise ConfigError("max_distance_m must be >= ref_distance_m")
        if self.path_loss_exponent < 0:
            raise ConfigError("path_loss_exponent must be nonnegative")
        if self.carrier_hz <= 0:
            raise ConfigError("carrier_hz must be positive")
        if self.q_req < 0:
            raise ConfigError("q_req must be nonnegative")
        if self.n_slots < 1:
            raise ConfigError("n_slots must be at least 1")
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be positive")

    def _per_user(self, value: float | Sequence[float], name: str) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        if arr.size == 1:
            return np.full(self.n_users, float(arr[0]))
        if arr.size != self.n_users:
            raise ConfigError(f"{name} must be a scalar or have length n_users={self.n_users}")
        return arr.astype(float)

    def noise_powers(self) -> np.ndarray:
        """Per-user noise power sigma_n^2 in Watts, shape (n_users,)."""
        return self._per_user(self.noise_power_per_user, "noise_power_per_user")

    def efficiencies(self) -> np.ndarray:
        """Per-user RF-to-DC conversion efficiency xi_n, shape (n_users,)."""
        return self._per_user(self.rf_dc_efficiency_per_user, "rf_dc_efficiency_per_user")


_INT_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.type == "int")
_FLOAT_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.type != "int")
_REAL_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.type == "float")


@dataclass
class UserProfile:
    """Static per-user parameters fixed for a whole simulation run."""

    distance_m: float
    mean_gain: float
    efficiency: float
    noise_power: float


@dataclass
class SlotBlock:
    """Channel state of a contiguous block of slots, one row per slot.

    ``gains`` may be None for a block given only by capacities and
    harvests (the oracle's instances); the order schedulers need it.
    ``mean_gains`` is the omega the gains were drawn with, a (1, users)
    row or a tile of one row per slot, or None when unknown; an order
    scheduler dividing by the same omega divides by it.
    """

    gains: np.ndarray | None
    capacities: np.ndarray
    harvests: np.ndarray
    mean_gains: np.ndarray | None = None

    @property
    def n_slots(self) -> int:
        return self.capacities.shape[0]

    @property
    def n_users(self) -> int:
        return self.capacities.shape[1]

    def outcome(self, selections: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot capacity of the scheduled user and summed harvest of the idle users.

        One user per slot decodes, every other user harvests.  A selection
        outside ``[0, n_users)`` raises IndexError, and one that is not one
        entry per slot ValueError.
        """
        selections = np.asarray(selections)
        n = self.n_users
        if selections.shape != (self.n_slots,):
            raise ValueError(f"selections must have shape ({self.n_slots},), got {selections.shape}")
        # the flat index of a user outside [0, n) would read a neighbouring slot
        if selections.size and (selections[selections.argmin()] < 0
                                or selections[selections.argmax()] >= n):
            raise IndexError(f"selections must lie in [0, {n}), got "
                             f"{selections.min()}..{selections.max()}")
        flat = np.arange(0, len(selections) * n, n)
        flat += selections
        return (self.capacities.reshape(-1).take(flat),
                row_reduce(self.harvests) - self.harvests.reshape(-1).take(flat))

    def summary(self, selections: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Mean idle harvest, access shares and per-user rates of a selection."""
        return summarize(selections, *self.outcome(selections), self.n_users)

    def max_harvest(self) -> np.ndarray:
        """Largest idle harvest of each slot: the weakest harvester is scheduled."""
        return row_reduce(self.harvests) - row_reduce(self.harvests, np.minimum)


def row_reduce(values: np.ndarray, ufunc: np.ufunc = np.add) -> np.ndarray:
    """``ufunc.reduce(values, axis=1)`` for np.add, np.minimum or np.maximum.

    That is ``values.sum``, ``min`` or ``max(axis=1)``, bit for bit up to
    the sign of a NaN: in a row with NaNs of both signs the column sweep's
    min or max may be the other one.  numpy reduces fewer than 8 terms of a
    row in sequence but runs one loop per row; below ``_SWEEP_USERS``
    columns the same sequence over whole columns is one loop per column.
    One row goes to numpy: an in-place add of one element can keep the
    other operand's NaN.
    """
    m, n = values.shape
    if m < 2 or not 0 < n < _SWEEP_USERS:
        return ufunc.reduce(values, axis=1)
    # numpy's sum starts from +0.0, which turns a -0.0 into +0.0
    out = values[:, 0] + 0.0 if ufunc is np.add else values[:, 0].copy()
    for j in range(1, n):
        ufunc(out, values[:, j], out=out)
    return out


def summarize(selections: np.ndarray, rate: np.ndarray, idle: np.ndarray, n_users: int
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean idle harvest, access shares and per-user rates of per-slot outcomes."""
    m = len(selections)
    counts = np.bincount(selections, minlength=n_users)
    return float(idle.sum()) / m, counts / m, np.bincount(selections, rate, n_users) / m


def mean_channel_gain(distance_m: float, config: SystemConfig) -> float:
    """Mean channel power gain omega at the given distance.

    Free-space gain at the reference distance d0, then a d^-alpha
    power law:

        omega(d) = G_ap * G_ut * (lambda / (4 pi d0))^2 * (d0 / d)^alpha

    with antenna gains converted from dBi.  Distances inside the
    reference distance are outside the model's validity region.
    """
    if distance_m < config.ref_distance_m:
        raise ValueError(
            f"distance {distance_m} m is below the reference distance "
            f"{config.ref_distance_m} m"
        )
    wavelength = SPEED_OF_LIGHT / config.carrier_hz
    gains_lin = 10.0 ** ((config.ap_antenna_gain_dbi + config.ut_antenna_gain_dbi) / 10.0)
    d0 = config.ref_distance_m
    ref_gain = gains_lin * (wavelength / (4.0 * math.pi * d0)) ** 2
    return ref_gain * (d0 / distance_m) ** config.path_loss_exponent


def place_users(config: SystemConfig, rng: np.random.Generator) -> list[UserProfile]:
    """Draw user distances uniformly on [ref_distance, max_distance].

    Placements are fully determined by the generator state, so a fixed
    seed reproduces the same geometry.
    """
    distances = rng.uniform(config.ref_distance_m, config.max_distance_m, config.n_users)
    noise = config.noise_powers()
    xi = config.efficiencies()
    return [
        UserProfile(
            distance_m=float(d),
            mean_gain=mean_channel_gain(float(d), config),
            efficiency=float(xi[n]),
            noise_power=float(noise[n]),
        )
        for n, d in enumerate(distances)
    ]


def profile_arrays(profiles: Sequence[UserProfile]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack per-user (mean_gain, efficiency, noise_power) into arrays."""
    omega = np.array([p.mean_gain for p in profiles])
    xi = np.array([p.efficiency for p in profiles])
    sigma2 = np.array([p.noise_power for p in profiles])
    return omega, xi, sigma2


def user_factors(profiles: Sequence[UserProfile], config: SystemConfig, rows: int = 1
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-user factors (omega, sigma^2, xi * P) of ``draw_block``, as (rows, N) tiles.

    Against a block of as many rows a tile is one loop over the block;
    against a per-user vector numpy runs one loop of N per slot.
    """
    omega, xi, sigma2 = profile_arrays(profiles)
    return tuple(np.tile(f, (rows, 1)) for f in (omega, sigma2, xi * config.tx_power))


def draw_block(
    profiles: Sequence[UserProfile],
    config: SystemConfig,
    rng: np.random.Generator,
    n_slots: int,
    out: SlotBlock | None = None,
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> SlotBlock:
    """Draw ``n_slots`` independent fading slots for all users at once.

    The exponential variates are consumed from ``rng`` in slot-major
    order, so drawing one block of T slots and drawing consecutive
    blocks of a and T - a slots from the same generator state produce
    identical realizations.  Given ``out``, a block of at least
    ``n_slots`` rows, the slots are written into its first rows and the
    returned block views them.  ``factors`` are ``user_factors`` of at
    least ``n_slots`` rows, computed here (one row) when absent; the
    block's ``mean_gains`` views their omega.
    """
    if not profiles:
        raise ValueError("profiles must be non-empty")
    if factors is None:
        factors = user_factors(profiles, config)
    omega, sigma2, xi_power = (f[:n_slots] for f in factors)
    if out is None:
        out = SlotBlock(*(np.empty((n_slots, len(profiles))) for _ in range(3)))
    gains, capacities, harvests = (a[:n_slots] for a in (out.gains, out.capacities, out.harvests))
    # In place, in the operation order of log2(1 + P * h / sigma2) and
    # xi * P * h, so the values do not change by a bit.
    rng.standard_exponential(out=gains)
    gains *= omega
    np.multiply(config.tx_power, gains, out=capacities)
    capacities /= sigma2
    capacities += 1.0
    np.log2(capacities, out=capacities)
    np.multiply(xi_power, gains, out=harvests)
    return SlotBlock(gains, capacities, harvests, omega)


def draw_sub_blocks(profiles: Sequence[UserProfile], config: SystemConfig,
                    rng: np.random.Generator, chunks: Sequence[int], out: SlotBlock | None = None):
    """(first slot, block) of each ``draw_block`` sub-block of ``chunks`` (slot counts).

    A single helper thread fills the exponential variates of sub-block i + 1 while the
    caller transforms and uses sub-block i; it is joined when the loop ends, raises or is
    closed.  Capacities and harvests overwrite the last sub-block's, or fill ``out``'s rows.
    """
    step = max(1, _SUB_BLOCK_BYTES // (8 * len(profiles) or 1))  # no users: draw_block raises
    sizes = [min(step, m - lo) for m in chunks for lo in range(0, m, step)]
    shape, first = (max(sizes), len(profiles)), 0
    spare, dest = np.empty((2, *shape)), out or SlotBlock(None, *np.empty((2, *shape)))
    factors = user_factors(profiles, config, shape[0])  # tiled once, to the sub-block shape
    with ThreadPoolExecutor(max_workers=1) as helper:
        # fill i + 1, submitted before sub-block i is transformed, reuses block i - 1
        fills = (helper.submit(rng.standard_exponential, out=spare[i % 2][:size])
                 for i, size in enumerate(sizes))
        pending = next(fills)
        for i, size in enumerate(sizes):
            fill, pending, at = pending, next(fills, None), first if out else 0
            into = SlotBlock(spare[i % 2], dest.capacities[at:], dest.harvests[at:])
            # draw_block, looked up per call so that a wrapper sees every one, waits for the fill
            filled = SimpleNamespace(standard_exponential=lambda out, fill=fill: fill.result())
            yield first, draw_block(profiles, config, filled, size, into, factors)
            first += size


def slot_outcomes(profiles: Sequence[UserProfile], config: SystemConfig,
                  rng: np.random.Generator, n_slots: int, chunk_slots: int, choose):
    """Per chunk of ``chunk_slots`` slots, its (selections, rate, idle) buffers.

    Each chunk is filled one ``draw_sub_blocks`` sub-block at a time:
    ``choose(start, block)`` selects in the sub-block whose first slot is
    ``start`` and ``SlotBlock.outcome`` scores it.
    """
    chunks = [min(chunk_slots, n_slots - start) for start in range(0, n_slots, chunk_slots)]
    with closing(draw_sub_blocks(profiles, config, rng, chunks)) as blocks:
        for m in chunks:
            out, lo = (np.empty(m, dtype=np.int64), np.empty(m), np.empty(m)), 0
            while lo < m:
                start, block = next(blocks)
                selections = choose(start, block)
                for buf, part in zip(out, (selections, *block.outcome(selections))):
                    buf[lo : lo + block.n_slots] = part
                lo += block.n_slots
            yield out


# Keys accepted in configuration files: the SystemConfig fields.
_CONFIG_KEYS = {f.name for f in fields(SystemConfig)}
_DBM_KEYS = {
    "tx_power_dbm": "tx_power",
    "noise_power_per_user_dbm": "noise_power_per_user",
}


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise ConfigError(f"cannot parse config value: {text!r}") from None


def _parse_keyvalue(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if "," in val and not val.startswith("["):
            values[key] = [_parse_scalar(v.strip()) for v in val.split(",")]
        else:
            values[key] = _parse_scalar(val)
    return values


def load_config(path: str | Path) -> SystemConfig:
    """Load a SystemConfig from a flat key-value or JSON file.

    Keys match the SystemConfig field names.  Powers may be given in
    dBm via the suffixed keys ``tx_power_dbm`` and
    ``noise_power_per_user_dbm``; the plain keys take Watts.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config {path}: {exc}") from exc
    else:
        values = _parse_keyvalue(text)

    kwargs: dict = {}
    try:
        for key, value in values.items():
            if key in _DBM_KEYS:
                target = _DBM_KEYS[key]
                if target in values:
                    raise ConfigError(f"both {key} and {target} given")
                levels = value if isinstance(value, list) else [value]
                if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in levels):
                    raise ConfigError(f"{key} must be a number, got {value!r}")
                watts = [dbm_to_watts(float(v)) for v in levels]
                kwargs[target] = watts if isinstance(value, list) else watts[0]
            elif key in _CONFIG_KEYS:
                # an integral float (n_slots = 1e5) is an int; SystemConfig rejects other values
                if key in _INT_FIELDS and isinstance(value, float) and value.is_integer():
                    value = int(value)
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config key: {key!r}")
        if "n_users" not in kwargs:
            raise ConfigError("config must set n_users")
        return SystemConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc

