"""Spans around the public entry points of swiptsched, from outside the package.

``Tracer.install`` replaces each entry point with a timing wrapper by
rebinding every name that refers to it in the loaded ``swiptsched``
modules (module globals and module-level dicts such as a table of
calibrators), and ``select_block`` on every scheduler class.  Nothing in
the package changes; ``uninstall`` puts the originals back.

Each call is a span.  A span's self time is its duration minus the
time its child spans cover, so ``simulator.run`` self time is the run
loop and accumulator without ``draw_block`` and ``select_block``.

Two target sets exist:

* ``PROBE``: the calibrators and ``simulator.run``.  End-to-end runs use
  only these, to read calibration passes and the seconds spent inside
  ``run`` calls that happen inside other calls (a CLI sweep).  A probe
  costs a few microseconds per call; the probed calls take
  milliseconds to seconds.
* ``FULL``: every layer boundary the per-layer metrics need.  A
  ``select_block`` entry wraps that method on every scheduler class of
  its module, named ``<module>.select_block.<tag>`` after the
  scheduler's tag at call time.  ``calibration._build_pool`` is private;
  its span only splits a calibration's pool build from its passes.

A target whose name no longer exists is listed in ``absent`` and its
metrics are left out; nothing fails.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "swiptsched"

CALIBRATORS = ("calibrate_mt", "calibrate_pf", "calibrate_et")

# (module, function name, span name)
PROBE = tuple(("calibration", c, f"calibration.{c}") for c in CALIBRATORS) + (
    ("simulator", "run", "simulator.run"),
)
FULL = PROBE + (
    ("channel", "draw_block", "channel.draw_block"),
    ("calibration", "estimate_constraints", "calibration.estimate_constraints"),
    ("calibration", "feasible_range", "calibration.feasible_range"),
    ("simulator", "sweep_q_req", "simulator.sweep_q_req"),
    ("simulator", "write_csv", "simulator.write"),
    ("simulator", "write_jsonl", "simulator.write"),
    ("oracle", "brute_force_mt", "oracle.brute_force_mt"),
    ("oracle", "dual_mt_schedule", "oracle.dual_mt_schedule"),
    ("cli", "main", "cli.main"),
    ("calibration", "_build_pool", "calibration._build_pool"),
    ("scheduling", "select_block", "scheduling.select_block"),
    ("baselines", "select_block", "baselines.select_block"),
)
POOL = "calibration._build_pool"


@dataclass
class Call:
    """One finished call of a recorded (probe) target."""

    name: str
    seconds: float
    result: object
    error: BaseException | None


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


def _module(name: str):
    return sys.modules.get(f"{PACKAGE}.{name}")


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def _count(stat: Stat, name: str, args, kwargs, result, error, frame) -> None:
    """Add the work counters of one call to its span's statistics."""
    c = stat.counts
    if name == "channel.draw_block" and result is not None:
        c["slot_users"] += result.gains.size
        # Computed from array sizes: the exponential draws and the three
        # returned arrays, each written once.  Temporaries and cache
        # misses are not counted.
        c["bytes"] += 4 * result.gains.nbytes
    elif ".select_block." in name:
        block = args[1] if len(args) > 1 else kwargs["block"]
        c["slots"] += block.n_slots
        c["slot_users"] += block.n_slots * block.n_users
    elif name == "simulator.run" and result is not None:
        c["slots"] += result.slots
    elif name.startswith("calibration.calibrate_"):
        c["pool_s"] += frame.by_name.get(POOL, 0.0)
        residuals = getattr(result, "calibration_residuals", None)
        if residuals is None:
            residuals = getattr(error, "residuals", None)
        if residuals is None:  # InfeasibleError: passes are not visible
            c["infeasible_s"] += frame.duration
            return
        passes = residuals["iterations"]
        c["passes"] += passes
        c["passes_known_s"] += frame.duration
        c["passes_known_pool_s"] += frame.by_name.get(POOL, 0.0)
        c["converged"] += bool(residuals.get("converged")) and error is None
        if kwargs.get("warm_start") is not None:
            c["warm_passes"] += passes
    elif name == "oracle.brute_force_mt":
        inst = args[0] if args else kwargs["instance"]
        c["assignments"] += inst.n_users ** inst.n_slots


class _Frame:
    __slots__ = ("child", "by_name", "duration")

    def __init__(self):
        self.child = 0.0
        self.by_name: dict[str, float] = {}
        self.duration = 0.0


class Tracer:
    """Installs timing wrappers and aggregates spans per round."""

    def __init__(self, targets=PROBE):
        self.targets = targets
        self.recorded = {span for _, _, span in PROBE}
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.calls: list[Call] = []
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[_Frame] = []
        self._undo: list = []
        # Called after each outermost span ends, outside every span's time.
        self.after_call = None

    # -- spans ---------------------------------------------------------

    def _wrap(self, fn, span):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span(args) if callable(span) else span
            frame = _Frame()
            tracer._stack.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                frame.duration = perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent.child += frame.duration
                    parent.by_name[name] = parent.by_name.get(name, 0.0) + frame.duration
                tracer._finish(name, args, kwargs, result, error, frame)
                if not tracer._stack and tracer.after_call is not None:
                    tracer.after_call()

        return wrapper

    def _finish(self, name, args, kwargs, result, error, frame) -> None:
        stat = self.stats[name]
        stat.calls += 1
        stat.s += frame.duration
        stat.self_s += frame.duration - frame.child
        _count(stat, name, args, kwargs, result, error, frame)
        if name in self.recorded:
            self.calls.append(Call(name, frame.duration, result, error))

    def take(self) -> tuple[dict[str, Stat], list[Call]]:
        """Return and clear what was recorded since the last ``take``."""
        stats, calls = dict(self.stats), self.calls
        self.stats, self.calls = defaultdict(Stat), []
        return stats, calls

    # -- installation --------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for module in _package_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._undo.append((namespace, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = replacement
                            self._undo.append((value, k, original))

    def install(self) -> "Tracer":
        for module_name, attr, span in self.targets:
            module = _module(module_name)
            if attr == "select_block":
                self._install_select_blocks(module, span)
                continue
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._rebind(original, self._wrap(original, span))
            self.installed.add(span)
        return self

    def _install_select_blocks(self, module, span) -> None:
        classes = [] if module is None else [
            cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and "select_block" in vars(cls)]
        if not classes:
            self.absent.append(f"{span.split('.')[0]}.*.select_block")
            return
        for cls in classes:
            original = vars(cls)["select_block"]
            wrapped = self._wrap(
                original, lambda args, p=span + ".": p + str(getattr(args[0], "tag", "?")))
            self._undo.append((cls, "select_block", original))
            setattr(cls, "select_block", wrapped)
        self.installed.add(span)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, type):
                setattr(holder, key, original)
            else:
                holder[key] = original
        self._undo.clear()


def _stat(stats: dict, name: str) -> Stat:
    return stats.get(name) or Stat()


def _per(a: float, b: float, scale: float = 1.0) -> float:
    return a / b * scale if b else 0.0


def _layer_table():
    """(metric, unit, better, span that must be installed, value from stats)."""
    rows = []

    def add(metric, unit, better, span, fn):
        rows.append((metric, unit, better, span, fn))

    d = "channel.draw_block"
    add(f"{d}.calls", "count", "lower", d, lambda s: _stat(s, d).calls)
    add(f"{d}.slot_users", "count", "lower", d, lambda s: _stat(s, d).counts["slot_users"])
    add(f"{d}.s", "s", "lower", d, lambda s: _stat(s, d).s)
    add(f"{d}.ns_per_slot_user", "ns", "lower", d,
        lambda s: _per(_stat(s, d).s, _stat(s, d).counts["slot_users"], 1e9))
    add(f"{d}.bytes_computed", "B", "lower", d, lambda s: _stat(s, d).counts["bytes"])
    for tag in ("mt", "pf", "et"):
        n = f"scheduling.select_block.{tag}"
        add(f"{n}.s", "s", "lower", "scheduling.select_block", lambda s, n=n: _stat(s, n).s)
        add(f"{n}.ns_per_slot_user", "ns", "lower", "scheduling.select_block",
            lambda s, n=n: _per(_stat(s, n).s, _stat(s, n).counts["slot_users"], 1e9))
    r = "simulator.run"
    add(f"{r}.calls", "count", "lower", r, lambda s: _stat(s, r).calls)
    add(f"{r}.slots", "count", "lower", r, lambda s: _stat(s, r).counts["slots"])
    add(f"{r}.self_s", "s", "lower", r, lambda s: _stat(s, r).self_s)
    add(f"{r}.self_ns_per_slot", "ns", "lower", r,
        lambda s: _per(_stat(s, r).self_s, _stat(s, r).counts["slots"], 1e9))
    w = "simulator.sweep_q_req"
    add(f"{w}.self_s", "s", "lower", w, lambda s: _stat(s, w).self_s)
    add("simulator.write.s", "s", "lower", "simulator.write",
        lambda s: _stat(s, "simulator.write").s)
    for c in CALIBRATORS:
        n = f"calibration.{c}"
        add(f"{n}.calls", "count", "lower", n, lambda s, n=n: _stat(s, n).calls)
        add(f"{n}.s", "s", "lower", n, lambda s, n=n: _stat(s, n).s)
        add(f"{n}.pool_build_s", "s", "lower", n,
            lambda s, n=n: _stat(s, n).counts["pool_s"])
        add(f"{n}.iterate_s", "s", "lower", n,
            lambda s, n=n: _stat(s, n).s - _stat(s, n).counts["pool_s"])
        add(f"{n}.passes", "count", "lower", n, lambda s, n=n: _stat(s, n).counts["passes"])
        add(f"{n}.pass_ms", "ms", "lower", n, lambda s, n=n: _per(
            _stat(s, n).counts["passes_known_s"] - _stat(s, n).counts["passes_known_pool_s"],
            _stat(s, n).counts["passes"], 1e3))
        add(f"{n}.converged_ratio", "ratio", "higher", n,
            lambda s, n=n: _per(_stat(s, n).counts["converged"], _stat(s, n).calls))
    for c in CALIBRATORS[1:]:
        n = f"calibration.{c}"
        add(f"{n}.warm_passes", "count", "lower", n,
            lambda s, n=n: _stat(s, n).counts["warm_passes"])
        add(f"{n}.infeasible_s", "s", "lower", n,
            lambda s, n=n: _stat(s, n).counts["infeasible_s"])
    for n in ("calibration.estimate_constraints", "calibration.feasible_range"):
        add(f"{n}.s", "s", "lower", n, lambda s, n=n: _stat(s, n).s)
    for tag in ("order-mt", "order-pf", "order-et"):
        n = f"baselines.select_block.{tag}"
        add(f"{n}.s", "s", "lower", "baselines.select_block", lambda s, n=n: _stat(s, n).s)
    oe = "baselines.select_block.order-et"
    add("baselines.order-et.us_per_slot", "us", "lower", "baselines.select_block",
        lambda s: _per(_stat(s, oe).s, _stat(s, oe).counts["slots"], 1e6))
    b = "oracle.brute_force_mt"
    add(f"{b}.calls", "count", "lower", b, lambda s: _stat(s, b).calls)
    add(f"{b}.s", "s", "lower", b, lambda s: _stat(s, b).s)
    add(f"{b}.assignments", "count", "lower", b, lambda s: _stat(s, b).counts["assignments"])
    add(f"{b}.ns_per_assignment", "ns", "lower", b,
        lambda s: _per(_stat(s, b).s, _stat(s, b).counts["assignments"], 1e9))
    o = "oracle.dual_mt_schedule"
    add(f"{o}.s", "s", "lower", o, lambda s: _stat(s, o).s)
    m = "cli.main"
    add(f"{m}.calls", "count", "lower", m, lambda s: _stat(s, m).calls)
    add(f"{m}.self_s", "s", "lower", m, lambda s: _stat(s, m).self_s)
    return rows


LAYER_METRICS = _layer_table()
# Computed by the runner from the untraced and traced rounds of one run.
OVERHEAD_METRICS = (("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower"))


def layer_metrics(stats: dict, installed: set) -> dict[str, float]:
    """Per-layer metric values of one round; spans not installed are left out."""
    return {metric: float(fn(stats)) for metric, _, _, span, fn in LAYER_METRICS
            if span in installed}
