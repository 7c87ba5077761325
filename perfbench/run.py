"""Benchmark of swiptsched: three workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Workloads (see ``workloads.py`` for why each):
``calib-et``, ``run-online``, ``sweep-pf``.

The run sets up ``SETUP_REPEATS`` times, then repeats the workload's
round (the same work every time) until the rounds' timed work adds up
to ``--seconds``, and checks every round's outputs between rounds.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (operations checked and failed) and
``metrics``:

* ``--trace 0``: end-to-end metrics over the rounds (or set-ups).
  Times are normalized to the host's speed (``reference.py``): a fixed
  reference kernel runs about once a second between the timed calls,
  outside their time, and every time is scaled by how fast it ran.
  The raw times are printed on the lines before.
* ``--trace 1``: untraced rounds for the first half of the time, then
  rounds with every layer boundary wrapped; per-layer metrics are
  medians over the traced rounds, and ``trace.overhead_*`` compares
  the two halves.

Operations failed as a share of attempted (``ops_failed_frac``), the
output digest and the environment are printed on the lines before.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("slots_per_norm_s", "1/s"),
    ("calib_norm_s", "s"),
    ("calib_passes", "count"),
    ("peak_rss_mb", "MB"),
)
EXACT_UNITS = ("count", "B")  # layer metrics that must repeat exactly


@dataclass
class Round:
    wall: float
    calls: list
    digest: str
    traced: bool
    layers: dict  # per-layer metric values; empty for untraced rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git files; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def passes_of(call) -> int:
    """Full-pool passes of one calibrate call; 0 when it raised InfeasibleError."""
    residuals = getattr(call.result, "calibration_residuals", None)
    if residuals is None:
        residuals = getattr(call.error, "residuals", None)
    return int(residuals["iterations"]) if residuals is not None else 0


def release(calls) -> None:
    """Drop the tracebacks of the errors recorded in checked ``calls``.

    A traceback keeps the frames of the call that raised, and with them
    its data (a calibration's slot pool), alive for the rest of the run,
    so peak_rss_mb would grow with the number of rounds.
    """
    for call in calls:
        if call.error is not None:
            call.error.__traceback__ = None


def calibrations(calls):
    return [c for c in calls if c.name.startswith("calibration.calibrate_")]


def median_of(values):
    return statistics.median(values) if values else float("nan")


class Bench:
    def __init__(self, workload, args, ledger, workdir, import_s, speed):
        self.workload = workload
        self.args = args
        self.ledger = ledger
        self.workdir = workdir
        self.import_s = import_s
        self.speed = speed
        self.rounds: list[Round] = []
        self.setup_times: list[float] = []
        self.setup_calls: list[list] = []
        self.state = None

    def setup(self, tracer) -> None:
        # Set-up is short, so the host's speed is sampled after every
        # outermost probed call instead of once a second.
        tracer.after_call = lambda: self.speed.sample("setup")
        for _ in range(SETUP_REPEATS):
            spent = self.speed.spent
            t0 = perf_counter()
            self.state = self.workload.setup(self.args.seed, self.workdir)
            self.setup_times.append(perf_counter() - t0 - (self.speed.spent - spent))
            self.speed.sample("setup")
            self.setup_calls.append(tracer.take()[1])
            self.workload.check_setup(self.state, self.ledger)
            release(self.setup_calls[-1])
            tracer.take()

    def run_rounds(self, tracer, seconds: float, traced: bool) -> bool:
        """Rounds until their timed work adds up to ``seconds`` (at least one).

        The untimed checks between rounds do not count, so a run of a
        workload with heavy checks still times ``seconds`` of work.
        Untraced rounds sample the host's speed after outermost probed
        calls, at most once a second; traced rounds only after each
        round, so that no
        reference kernel runs inside a traced span.
        """
        phase = "traced" if traced else "rounds"
        tracer.after_call = None if traced else lambda: self.speed.maybe_sample(phase)
        timed = 0.0
        while True:
            spent = self.speed.spent
            t0 = perf_counter()
            try:
                out = self.workload.round(self.state)
            except Exception:
                self.ledger.attempted += 1
                self.ledger.failed += 1
                print("FAIL round raised " + traceback.format_exc(), file=sys.stderr)
                return False
            wall = perf_counter() - t0 - (self.speed.spent - spent)
            if traced:
                self.speed.sample(phase)
            else:
                self.speed.maybe_sample(phase)
            timed += wall
            stats, calls = tracer.take()
            text = self.workload.check(self.state, out, calls, self.ledger)
            release(calls)
            tracer.take()
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            layers = tr.layer_metrics(stats, tracer.installed) if traced else {}
            self.rounds.append(Round(wall, calls, digest, traced, layers))
            if timed >= seconds:
                return True

    def check_repeats(self) -> None:
        """Every round must reproduce the first round's outputs and counts."""
        exact = {m for m, unit, _, _, _ in tr.LAYER_METRICS if unit in EXACT_UNITS}
        first = self.rounds[0]
        first_traced = next((r for r in self.rounds if r.traced), None)
        for i, r in enumerate(self.rounds[1:], start=2):
            with self.ledger.op(f"round {i} repeats round 1") as op:
                op.expect(r.digest == first.digest, "output digest differs")
                op.expect(sum(map(passes_of, calibrations(r.calls)))
                          == sum(map(passes_of, calibrations(first.calls))),
                          "calibration passes differ")
                if r.traced:
                    op.expect(all(r.layers[m] == first_traced.layers[m]
                                  for m in exact & r.layers.keys()), "layer counts differ")
        for i, calls in enumerate(self.setup_calls[1:], start=2):
            with self.ledger.op(f"set-up {i} repeats set-up 1") as op:
                op.expect(sum(map(passes_of, calibrations(calls)))
                          == sum(map(passes_of, calibrations(self.setup_calls[0]))),
                          "set-up calibration passes differ")

    def raw_end_to_end(self) -> dict:
        """End-to-end figures of the untraced rounds, in raw seconds.

        Times are means over the run, not medians over rounds: a run
        holds as few as five rounds, and the median of a few rounds
        varied from run to run about half again as much as their mean.
        """
        untraced = [r for r in self.rounds if not r.traced]
        runs = [c for r in untraced for c in r.calls
                if c.name == "simulator.run" and c.error is None]
        run_seconds = sum(c.seconds for c in runs)
        if self.workload.calibrates_in == "setup":
            units = self.setup_calls
        else:
            units = [r.calls for r in untraced]
        cals = [c for calls in units for c in calibrations(calls)]
        passes = [sum(map(passes_of, calibrations(calls))) for calls in units]
        return {
            "setup_s": self.import_s + median_of(self.setup_times),
            "wall_s": statistics.fmean(r.wall for r in untraced),
            "slots_per_s": (sum(c.result.slots for c in runs) / run_seconds
                            if run_seconds > 0 else float("nan")),
            "calib_s": (sum(c.seconds for c in cals) / len(cals) if cals else float("nan")),
            "calib_passes": passes[0] if passes else 0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def end_to_end(self, raw: dict) -> dict:
        """The raw figures with every time normalized to the host's speed."""
        rounds = self.speed.factor("rounds")
        setup = self.speed.factor("setup")
        calib = setup if self.workload.calibrates_in == "setup" else rounds
        return {
            "setup_s": raw["setup_s"] * setup,
            "wall_norm_s": raw["wall_s"] * rounds,
            "slots_per_norm_s": raw["slots_per_s"] / rounds,
            "calib_norm_s": raw["calib_s"] * calib,
            "calib_passes": raw["calib_passes"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }


def measure(workload, args, ledger, workdir, import_s, speed):
    bench = Bench(workload, args, ledger, workdir, import_s, speed)
    probe = tr.Tracer(tr.PROBE).install()
    absent = list(probe.absent)
    try:
        bench.setup(probe)
        ok = bench.run_rounds(probe, args.seconds / 2 if args.trace else args.seconds,
                              traced=False)
    finally:
        probe.uninstall()
    if args.trace and ok:
        full = tr.Tracer(tr.FULL).install()
        absent = list(full.absent)
        try:
            bench.run_rounds(full, args.seconds / 2, traced=True)
        finally:
            full.uninstall()
    if bench.rounds:
        bench.check_repeats()
    return bench, absent


def report(bench, absent, args) -> dict:
    untraced = [r.wall for r in bench.rounds if not r.traced]
    traced = [r.wall for r in bench.rounds if r.traced]
    ledger = bench.ledger
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"set-up: import {bench.import_s:.4f} s, set-up "
          + " ".join(f"{t:.4f}" for t in bench.setup_times) + " s")
    print(f"rounds: {len(untraced)} untraced [" + " ".join(f"{w:.4f}" for w in untraced)
          + f"] s, {len(traced)} traced [" + " ".join(f"{w:.4f}" for w in traced) + "] s")
    speed = bench.speed
    print("host speed: reference kernel mean by phase: " + speed.summary())
    metrics = {}
    if args.trace:
        units = {m: u for m, u, _, _, _ in tr.LAYER_METRICS}
        for metric in units:
            values = [r.layers[metric] for r in bench.rounds if metric in r.layers]
            if values:
                metrics[metric] = {"value": statistics.median(values), "unit": units[metric]}
        if untraced and traced:
            base = statistics.fmean(untraced) * speed.factor("rounds")
            with_trace = statistics.fmean(traced) * speed.factor("traced")
            metrics["trace.overhead_s"] = {"value": with_trace - base, "unit": "s"}
            metrics["trace.overhead_frac"] = {"value": (with_trace - base) / base,
                                              "unit": "ratio"}
    elif bench.rounds:
        raw = bench.raw_end_to_end()
        print("raw: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        values = bench.end_to_end(raw)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"metric ops_failed_frac {frac:.6g} ratio ({ledger.failed}/{ledger.attempted})")
    digests = sorted({r.digest for r in bench.rounds})
    print("digest " + " ".join(digests))
    print("absent " + (" ".join(absent) if absent else "-"))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "digest": digests, "ops_failed_frac": frac, "env": environment()}
    print("record " + json.dumps(record, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swiptsched" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'swiptsched'}; run inside a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import swiptsched
    import swiptsched.cli  # noqa: F401
    import_s = perf_counter() - t0
    if Path(swiptsched.__file__).resolve().parent != (SRC / "swiptsched").resolve():
        print(f"error: swiptsched imported from {swiptsched.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from reference import HostSpeed

    speed = HostSpeed()
    speed.sample("setup")

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ledger = workloads.Ledger()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench, absent = measure(
            workloads.WORKLOADS[args.workload], args, ledger, workdir, import_s, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = report(bench, absent, args)
    print(json.dumps({"correct": ledger.failed == 0 and bool(bench.rounds),
                      "attempted": max(ledger.attempted, 1), "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
