"""Time one calibration pass per scheme, in process, on the benchmark's pinned pool.

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
  of the way), per pass.

A per-pass time includes its calibration's once-per-run work (the final
summary and the residual record).  Each layer runs once to warm up, then
``REPS`` times.  The last line printed is a JSON object: per layer the
median milliseconds per pass, the passes of one run, and the environment.
"""

from __future__ import annotations

import argparse
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
        warm = ss.DualState(nu=ss.calibrate_pf(q_binding, profiles, config, settings).nu,
                            gamma=np.zeros(config.n_users))
        cut = replace(settings, max_iters=PF_PASSES)
        layers = {
            "mt_probe_ms": lambda: ss.calibrate_mt(q_binding, profiles, config, settings),
            "pf_step_pass_ms": lambda: ss.calibrate_pf(q_binding, profiles, config, cut,
                                                       warm_start=warm),
            "et_pass_ms": lambda: ss.calibrate_et(q_et, profiles, config, settings),
        }
        result = {}
        for name, calibrate in layers.items():
            per_pass = []
            for _ in range(REPS + 1):
                t0 = perf_counter()
                try:
                    residuals = calibrate().calibration_residuals
                except ss.ConvergenceError as exc:
                    residuals = exc.residuals
                per_pass.append((perf_counter() - t0) * 1e3 / residuals["iterations"])
            result[name] = {"value": statistics.median(per_pass[1:]),
                            "passes": residuals["iterations"]}
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine()}
    print(json.dumps({"layers": result, "env": env}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
