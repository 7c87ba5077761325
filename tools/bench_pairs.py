"""Alternating parent/change pairs of the benchmark, summarized per metric.

    python tools/bench_pairs.py --against REV --workload W --pairs K --out BENCH.json
                                [--seed S]
    python tools/bench_pairs.py --against REV --layers --pairs K --out BENCH.json

Builds two trees side by side in one temporary directory: ``parent``
holds REV's ``src`` from ``git archive`` and ``change`` a copy of this
checkout's ``src``, and each gets a copy of this checkout's
``perfbench``, so both sides run identical benchmark code from the same
kind of place (where the tree lies moves ``setup_s``, which is mostly
the package import).  Then it runs ``perfbench/run.py --workload W`` K
times on each side at BENCHMARK.json's ``run_seconds``, pair i at seed
S + i (S defaults to 1), alternating which side runs first.

For every end-to-end metric of BENCHMARK.json the summary gives each
side's median and quartiles, the share of pairs the change wins (ties
count for neither side) and a verdict:

* ``gain``: at least 10 pairs ran, the change wins at least 9 in 10 of
  them and the medians differ, in the better direction, by more than
  the parent's interquartile range;
* ``unresolved``: not a gain, and either side's interquartile range is
  wider than the metric's bound (relative to the parent's median),
  unless every run of the change reads better than every run of the
  parent;
* ``regression`` or ``no regression``: whether the change's median is
  worse than the parent's by more than the bound.

The entry also records failed operations, whether the output digests
of every pair are equal, and both revisions, with whether the change's
``src`` matched HEAD when it was copied.  An existing OUT gets the entry
appended, so one file can hold several workloads and revisions; its
``environment`` is that of the last run set.

``--layers`` pairs in-process timings instead: each run is one
``tools/layer_passes.py`` subprocess on a side's tree, which times one
calibration pass per scheme (an MT probe, a PF pass that steps, an ET
pass) and one whole binding ET calibration on the benchmark's pinned
pool, ``select_block`` on one run-loop sub-block per scheme at N=5
and N=32, and one pool build at N=5 and at N=32.  Its metrics are the
milliseconds per pass, calibration, call or build, summarized as above
with the bound ``LAYER_BOUND``, and its digest is each layer's pass
count, hash of its selections or hash of its pool, equal on both sides
unless the change moves a pass count, a calibrated dual or a pool bit; the
entry's ``digests_differ`` lists the layers whose digest differs in any
pair.  A per-pass time carries its calibration's once-per-run work, so
a change that cuts passes raises it (``layer_passes.py`` says by how
much); ``et_binding_ms`` shows the trade.
The entry's workload is ``layers``.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9
MIN_PAIRS = 10  # fewer pairs can show no gain
LAYER_TOOL = ROOT / "tools" / "layer_passes.py"
LAYERS = ("mt_probe_ms", "pf_step_pass_ms", "et_pass_ms", "et_binding_ms", "select_mt_n5_ms",
          "select_pf_n5_ms", "select_et_n5_ms", "select_mt_n32_ms", "select_pf_n32_ms",
          "pool_build_n5_ms", "pool_build_n32_ms")
LAYER_BOUND = 0.25  # as the end-to-end seconds metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); all equal for one value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric; ``parent[i]`` and ``change[i]`` form pair i.

    ``better`` is "lower" or "higher"; ``bound`` is the worsening of the
    median, relative to the parent's median, that counts as a regression.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is better
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    scale = abs(p_med) if p_med else 1.0
    worse = sign * (c_med - p_med) / scale  # positive: the change's median is worse
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (len(parent) >= MIN_PAIRS and wins >= GAIN_SHARE * len(parent)
            and -worse * scale > p3 - p1):
        verdict = "gain"
    elif max(p3 - p1, c3 - c1) / scale > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return {
        "parent": {"median": p_med, "q1": p1, "q3": p3, "runs": parent},
        "change": {"median": c_med, "q1": c1, "q3": c3, "runs": change},
        "win_fraction": wins / len(parent),
        "relative_change": (c_med - p_med) / scale,
        "bound": bound,
        "better": better,
        "verdict": verdict,
    }


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _run_result(argv: list[str], root: Path, where: str, parse) -> dict:
    """``parse(result, lines)`` of a subprocess run in ``root``, whose last output line
    must be its result object in strict JSON: ``NaN`` and ``Infinity``, which
    ``json.dumps`` writes for a non-finite metric, are rejected like any other line
    that is not a result."""
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{where} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return parse(json.loads(lines[-1], parse_constant=_reject_constant), lines)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RuntimeError(f"{where}: last line is not a result ({exc}): {lines[-1]!r}") from exc


def run_bench(root: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``: its metric values, failures and digests."""
    def parse(result: dict, lines: list[str]) -> dict:
        record = next(json.loads(line[len("record "):]) for line in lines
                      if line.startswith("record "))
        return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                **{key: result[key] for key in ("attempted", "failed", "correct")},
                "digest": record["digest"], "env": record["env"]}

    return _run_result([sys.executable, str(root / "perfbench" / "run.py"), "--workload",
                        workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       root, f"{side} benchmark, workload {workload}, seed {seed}", parse)


def run_layers(root: Path, side: str) -> dict:
    """One ``tools/layer_passes.py`` run on ``root``, shaped as ``run_bench``'s result:
    the milliseconds per pass, call or build of ``LAYERS`` and, as the digest, each
    layer's pool hash, hash of its selections or else its pass count."""
    def parse(result: dict, lines: list[str]) -> dict:
        layers = {name: result["layers"][name] for name in LAYERS}
        return {"metrics": {name: float(v["value"]) for name, v in layers.items()},
                "attempted": len(layers), "failed": 0, "correct": True,
                "digest": {name: v.get("digest", v.get("selections", v.get("passes")))
                           for name, v in layers.items()},
                "env": result["env"]}

    return _run_result([sys.executable, str(LAYER_TOOL), str(root)], root,
                       f"{side} layer timing", parse)


def archive_src(rev: str) -> bytes | None:
    """A tar archive of REV's ``src`` from ``git archive``, or None once git's error is shown."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode())
        return None
    return archive.stdout


def make_trees(tmp: Path, parent_src_tar: bytes) -> dict[str, Path]:
    """The parent's and the change's trees, ``tmp/parent`` and ``tmp/change``.

    ``parent_src_tar`` is a tar archive of the parent's ``src``; the
    change's ``src`` and both sides' ``perfbench`` are copied from this
    checkout.
    """
    roots = {"parent": tmp / "parent", "change": tmp / "change"}
    with tarfile.open(fileobj=io.BytesIO(parent_src_tar)) as tar:
        tar.extractall(roots["parent"], filter="data")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", roots["change"] / "src", ignore=skip)
    for root in roots.values():
        shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=skip)
    return roots


@contextlib.contextmanager
def sigterm_exits():
    """Within, SIGTERM raises SystemExit (status 143), so that a run stopped by ``kill`` still
    removes its temporary trees; the previous handler is restored on the way out."""
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, help="parent revision")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--layers", action="store_true",
                      help="pair in-process timings of one calibration pass per scheme")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    archive = archive_src(args.against)
    if archive is None:
        return 2
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with sigterm_exits(), tempfile.TemporaryDirectory() as tmp:
        # taken as the change's src is copied, which an edit during the runs cannot move
        revisions = {"parent": git("rev-parse", args.against), "change": git("rev-parse", "HEAD"),
                     "change_src_matches_head": git("status", "--porcelain", "src") == ""}
        roots = make_trees(Path(tmp), archive)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_layers(roots[side], side) if args.layers else
                                  run_bench(roots[side], side, args.workload, args.seed + i,
                                            seconds))
                print(f"pair {i + 1}/{args.pairs} seed {args.seed + i} {side}: "
                      + json.dumps(runs[side][-1]["metrics"]), file=sys.stderr)
    metrics = {}
    specs = ([{"name": name, "better": "lower", "bound": LAYER_BOUND} for name in LAYERS]
             if args.layers else bench["end_to_end"])
    for spec in specs:
        name = spec["name"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        if any(not math.isfinite(v) for v in parent + change):
            metrics[name] = {"parent": parent, "change": change, "verdict": "not measured"}
        else:
            metrics[name] = summarize(parent, change, spec["better"], spec["bound"])
    entry = {
        "workload": "layers" if args.layers else args.workload,
        "seeds": None if args.layers else [args.seed, args.seed + args.pairs - 1],
        "pairs": args.pairs,
        "run_seconds": None if args.layers else seconds,
        "revisions": revisions,
        "first_in_pair": "parent on odd pairs (1st, 3rd, ...), change on even pairs",
        "metrics": metrics,
        "ops_failed": {side: [f"{r['failed']}/{r['attempted']}" for r in rs]
                       for side, rs in runs.items()},
        "digests_equal": all(p["digest"] == c["digest"]
                             for p, c in zip(runs["parent"], runs["change"])),
    }
    if args.layers:
        entry["digests_differ"] = [name for name in LAYERS if any(
            p["digest"][name] != c["digest"][name] for p, c in zip(runs["parent"], runs["change"]))]
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {"entries": []}
    # both trees lie outside git, so the runs' own git_commit reads "unknown"
    doc["environment"] = {**{k: v for k, v in runs["change"][0]["env"].items()
                             if k != "git_commit"}, "tool_python": platform.python_version()}
    doc["entries"].append(entry)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{entry['workload']} {name}: {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
