"""Time one calibration pass per scheme and one online selection, in process.

    python tools/layer_passes.py ROOT

ROOT is a tree holding ``src`` and ``perfbench``, as ``bench_pairs.py``
builds them; the package is imported from ROOT/src.  The pool is that of
the sweep-pf workload and of calib-et's geometry 11: N=5 users placed by
geometry seed 11 and a 20000-slot pool.  Three layers are timed through
the public calibrators, so any revision can be timed by the same code:

* ``mt_probe_ms``: a binding MT price search (a target 60 % of the way
  from the greedy to the maximum harvest), per probe;
* ``pf_step_pass_ms``: PF passes that each step, from zero offsets at the
  binding PF price of that target, cut off after 3 passes, per pass;
* ``et_pass_ms``: calib-et's ET calibration at geometry 11 (a target 30 %
  of the way), per pass;
* ``et_binding_ms``: a binding ET calibration on that pool (a target 90 %
  of the way), per calibration, so that a step that trades fewer passes
  for dearer ones shows on one number.

A per-pass time includes its calibration's once-per-run work (the final
summary and the residual record), so ``et_pass_ms`` rises per pass when
the pass count falls: at 3 passes a calibration spreads that work over 3
passes, not 40.  An ET pass also keeps each slot's second-best score for
the quantile step, which an exponentiated-gradient pass did not need.

Five more layers time ``select_block`` on one 256 KiB sub-block of the
run loop (``SUB_BLOCK_BYTES`` per array: 6553 slots at N=5, 1024 at
N=32), drawn row-major from a fixed generator at the run-online
workload's geometry 12, with the duals that workload calibrates in its
set-up: ``select_{mt,pf,et}_n5_ms`` and ``select_{mt,pf}_n32_ms``, per call.

Two more time ``calibration._build_pool`` on a 20000-slot pool outside a
``_pool_share``, so that every call draws and normalizes the pool, per
build: ``pool_build_n5_ms`` at calib-et's geometry 11 with N=5 and
``pool_build_n32_ms`` at run-online's geometry 12 with N=32.

Each layer runs once to warm up, then ``REPS`` times.  The last line
printed is a JSON object: per layer the median milliseconds per pass,
call or build and, as the layer's digest, the passes of one calibration
run, a hash of the selections or a hash of the pool's arrays and scales;
then the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

GEOMETRY = 11
PF_PASSES = 3
REPS = 100
SELECT_GEOMETRY = 12  # run-online's
SELECT_PLAN = {5: ("mt", "pf", "et"), 32: ("mt", "pf")}
POOL_PLAN = {"pool_build_n5_ms": (5, GEOMETRY), "pool_build_n32_ms": (32, SELECT_GEOMETRY)}
SUB_BLOCK_BYTES = 1 << 18


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    import numpy as np

    import swiptsched as ss
    import workloads
    from swiptsched import calibration

    src = (args.root / "src" / "swiptsched").resolve()
    if Path(ss.__file__).resolve().parent != src:
        print(f"error: swiptsched imported from {ss.__file__}, not {src}", file=sys.stderr)
        return 2
    config, profiles = workloads.scenario(5, GEOMETRY)
    settings = workloads.calibration_settings(GEOMETRY)
    with calibration._pool_share():  # one pool draw for every run
        q_binding = workloads.target(profiles, config, settings, 0.6)
        q_et = workloads.target(profiles, config, settings, 0.3)
        q_et_binding = workloads.target(profiles, config, settings, 0.9)
        warm = ss.DualState(nu=ss.calibrate_pf(q_binding, profiles, config, settings).nu,
                            gamma=np.zeros(config.n_users))
        cut = replace(settings, max_iters=PF_PASSES)
        layers = {  # name: (calibration, timed per pass)
            "mt_probe_ms": (lambda: ss.calibrate_mt(q_binding, profiles, config, settings), True),
            "pf_step_pass_ms": (lambda: ss.calibrate_pf(q_binding, profiles, config, cut,
                                                        warm_start=warm), True),
            "et_pass_ms": (lambda: ss.calibrate_et(q_et, profiles, config, settings), True),
            "et_binding_ms": (lambda: ss.calibrate_et(q_et_binding, profiles, config, settings),
                              False),
        }
        result = {}
        for name, (calibrate, per_pass) in layers.items():
            times = []
            for _ in range(REPS + 1):
                t0 = perf_counter()
                try:
                    residuals = calibrate().calibration_residuals
                except ss.ConvergenceError as exc:
                    residuals = exc.residuals
                times.append((perf_counter() - t0) * 1e3
                             / (residuals["iterations"] if per_pass else 1))
            result[name] = {"value": statistics.median(times[1:]),
                            "passes": residuals["iterations"]}
    for n, schemes in SELECT_PLAN.items():  # duals as run-online's set-up calibrates them
        config, profiles = workloads.scenario(n, SELECT_GEOMETRY)
        settings = workloads.calibration_settings(SELECT_GEOMETRY)
        q = workloads.target(profiles, config, settings, workloads.RunOnline.FRACTION)
        q_et = workloads.target(profiles, config, settings, workloads.RunOnline.ET_FRACTION)
        block = ss.draw_block(profiles, config, np.random.default_rng(SELECT_GEOMETRY),
                              SUB_BLOCK_BYTES // (8 * n))
        for scheme in schemes:
            scheduler = ss.make_optimal_scheduler(scheme, workloads.calibrate(
                scheme, q_et if scheme == "et" else q, profiles, config, settings))
            per_call = []
            for _ in range(REPS + 1):
                t0 = perf_counter()
                selections = scheduler.select_block(block)
                per_call.append((perf_counter() - t0) * 1e3)
            digest = hashlib.sha256(np.asarray(selections, dtype=np.int64).tobytes())
            result[f"select_{scheme}_n{n}_ms"] = {"value": statistics.median(per_call[1:]),
                                                  "selections": digest.hexdigest()[:16]}
    for name, (n, geometry) in POOL_PLAN.items():  # outside a _pool_share: every call draws
        config, profiles = workloads.scenario(n, geometry)
        settings = workloads.calibration_settings(geometry)
        per_build = []
        for _ in range(REPS + 1):
            t0 = perf_counter()
            pool = calibration._build_pool(profiles, config, settings)
            per_build.append((perf_counter() - t0) * 1e3)
        digest = hashlib.sha256(repr((pool.c_scale, pool.q_max, pool.q_scale)).encode())
        for a in (pool.block.capacities, pool.block.harvests, pool.total, pool.cn, pool.qn):
            digest.update(a.tobytes())
        result[name] = {"value": statistics.median(per_build[1:]),
                        "digest": digest.hexdigest()[:16]}
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine()}
    print(json.dumps({"layers": result, "env": env}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
