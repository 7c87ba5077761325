"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, printing one PASS/FAIL line each and exiting 1 on any FAIL:

1. ``BENCHMARK.json`` lists exactly the metrics the runner reports.
2. The counts that do not depend on the machine (``calib_passes``,
   ``channel.draw_block.slot_users``, ``oracle.brute_force_mt.assignments``,
   ``simulator.run.slots``) repeat exactly across two runs of every
   workload at one seed, and every run's outputs are correct.
3. An entry point that no longer exists leaves its layer metrics out
   instead of failing.
4. With only ``BENCHMARK.json`` and the benchmark's own files present,
   the runner exits non-zero and prints no result.

It takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
REPEATED = ("calib_passes", "channel.draw_block.slot_users",
            "oracle.brute_force_mt.assignments", "simulator.run.slots")

failures = 0


def report(name: str, ok: bool, detail: str = "") -> None:
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""), flush=True)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_declared_metrics(spec: dict) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import tracer

    declared = [m["name"] for m in spec["end_to_end"]]
    report("end_to_end metrics match the runner", declared == [m for m, _ in run.END_TO_END])
    layers = [(m, u, b) for m, u, b, _, _ in tracer.LAYER_METRICS] + list(tracer.OVERHEAD_METRICS)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    report("per_layer metrics match the tracer", declared == layers)


def test_repeats(spec: dict) -> None:
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs = [result(bench(w, trace)) for _ in range(2)]
            if not all(runs):
                report(f"{w} trace {trace} prints a result", False)
                continue
            report(f"{w} trace {trace} outputs correct", all(r["correct"] for r in runs))
            keys = [k for k in REPEATED if k in runs[0]["metrics"]]
            values = [[r["metrics"].get(k, {}).get("value") for k in keys] for r in runs]
            report(f"{w} trace {trace} counts repeat", values[0] == values[1],
                   ", ".join(f"{k}={v}" for k, v in zip(keys, values[0])))


def test_absent_name() -> None:
    import swiptsched.oracle as oracle
    import tracer

    original = oracle.brute_force_mt
    del oracle.brute_force_mt
    try:
        t = tracer.Tracer(tracer.FULL).install()
        values = tracer.layer_metrics({}, t.installed)
        t.uninstall()
        report("missing entry point is reported absent",
               "oracle.brute_force_mt" in t.absent
               and not any(k.startswith("oracle.brute_force_mt.") for k in values)
               and "channel.draw_block.calls" in values)
    finally:
        oracle.brute_force_mt = original


def test_without_source() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("sweep-pf", 0, cwd=bare)
        report("without the package the runner fails without a result",
               proc.returncode != 0 and result(proc) is None, f"exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_declared_metrics(spec)
    test_absent_name()
    test_without_source()
    test_repeats(spec)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
