"""Run a fixed set of CLI commands and hash everything they write.

    python tools/behaviour_gate.py OUTDIR
    python tools/behaviour_gate.py --against REV OUTDIR

Runs ``python -m swiptsched.cli`` from this checkout's ``src`` on an
N=4, seed-19 config: ``calibrate`` for mt/pf/et and for pf targets
above the equal-access bound at 4 and 32 users, ``run --duals`` on each saved
calibration, ``run`` and ``sweep`` for every scheme, runs of several
chunks and of 12 users, runs of mt, pf, et and order-pf and
calibrations of mt, pf and et at 7 and 8 users, and ``oracle-check``.
OUTDIR receives the config, every output file, ``stdout.txt`` and
``stderr.txt`` (each command line, its output and its exit code) and
``SHA256SUMS``.  Commands run inside OUTDIR with relative paths, so the
logs do not depend on where OUTDIR is.

With ``--against REV`` the script extracts REV's ``src`` with
``git archive``, runs the same commands on both trees into
``OUTDIR/this`` and ``OUTDIR/against``, prints each file whose sha256
differs (with a unified diff for text files) and exits 1 on any
difference.
"""

from __future__ import annotations

import difflib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """\
n_users = 4
tx_power_dbm = 40
noise_power_per_user_dbm = -62
rf_dc_efficiency_per_user = 0.5
n_slots = 20000
seed = 19
"""

CAL = ["--mc-slots", "20000"]
SWEEP = ["--mc-slots", "10000"]
COMMANDS = [
    ["calibrate", "--scheme", "mt", "--q-req", "5e-5", *CAL, "--out", "cal_mt.json"],
    ["calibrate", "--scheme", "pf", "--q-req", "6e-5", *CAL, "--out", "cal_pf.json"],
    ["calibrate", "--scheme", "et", "--q-req", "8e-5", *CAL, "--out", "cal_et.json"],
    # above the equal-access bound: exit 3 before any pass
    ["calibrate", "--scheme", "pf", "--q-req", "9.5692e-05", *SWEEP,
     "--out", "cal_pf_infeasible.json"],
    # 32 users above the equal-access bound but below the pool maximum: exit 3
    ["calibrate", "--scheme", "pf", "--users", "32", "--seed", "5", "--q-req", "0.01312", *CAL,
     "--out", "cal_pf_n32.json"],
    ["run", "--scheme", "mt", "--duals", "cal_mt.json", "--out", "run_mt.csv"],
    ["run", "--scheme", "pf", "--duals", "cal_pf.json", "--out", "run_pf_duals.csv"],
    ["run", "--scheme", "et", "--duals", "cal_et.json", "--out", "run_et_duals.csv"],
    ["run", "--scheme", "pf", "--q-req", "6e-5", *CAL, "--rate-unit", "bps",
     "--out", "run_pf.csv"],
    ["run", "--scheme", "et", "--q-req", "8e-5", *CAL, "--format", "jsonl",
     "--out", "run_et.jsonl"],
    ["run", "--scheme", "order-mt", "--j", "2", "--out", "run_order_mt.csv"],
    ["run", "--scheme", "order-pf", "--j", "3", "--out", "run_order_pf.csv"],
    ["run", "--scheme", "order-et", "--orders", "1,2", "--out", "run_order_et.csv"],
    ["run", "--scheme", "order-et", "--orders", "2,3,4", "--out", "run_order_et_234.csv"],
    # several run chunks; order ranks peeled from the bottom (j=11 of 12) and the top
    ["run", "--scheme", "mt", "--duals", "cal_mt.json", "--slots", "150000",
     "--out", "run_mt_150k.csv"],
    ["run", "--scheme", "order-pf", "--j", "3", "--slots", "150000",
     "--out", "run_order_pf_150k.csv"],
    ["run", "--scheme", "order-mt", "--users", "12", "--j", "11", "--slots", "70000",
     "--out", "run_order_mt_n12.csv"],
    ["run", "--scheme", "order-et", "--users", "12", "--orders", "2,3,4", "--slots", "70000",
     "--out", "run_order_et_n12.csv"],
    ["sweep", "--scheme", "mt", "--grid", "0:auto:5", *SWEEP, "--out", "sweep_mt.csv"],
    ["sweep", "--scheme", "pf", "--grid", "0:auto:5", *SWEEP, "--out", "sweep_pf.csv"],
    ["sweep", "--scheme", "pf", "--grid", "0:auto:5", *SWEEP, "--max-iters", "300",
     "--out", "sweep_pf_iters300.csv"],
    ["sweep", "--scheme", "et", "--grid", "0:auto:4", *SWEEP, "--format", "jsonl",
     "--out", "sweep_et.jsonl"],
    ["sweep", "--scheme", "order-mt", "--out", "sweep_order_mt.csv"],
    ["sweep", "--scheme", "order-pf", "--out", "sweep_order_pf.csv"],
    ["sweep", "--scheme", "order-et", "--out", "sweep_order_et.csv"],
]
# Both sides of the 8-user threshold below which per-slot reductions sweep
# user columns: binding mt, pf and et targets, a slack et target (nu = 0) and
# order-pf runs, and calibrations of the binding targets, whose saved residuals
# (c_scale, q_scale, qbar_pool) hash the pool build.
BINDING = (("mt", ["--q-req", "8e-5"]), ("pf", ["--q-req", "8e-5"]), ("et", ["--q-req", "9e-5"]))
COMMANDS += [["run", "--scheme", scheme, "--users", str(n), *args, *CAL,
              "--out", f"run_{name}_n{n}.csv"]
             for n in (7, 8)
             for scheme, name, args in [(s, s, a) for s, a in BINDING] + [
                 ("et", "et_slack", ["--q-req", "5e-5"]),
                 ("order-pf", "order_pf", ["--j", "3"])]]
COMMANDS += [["calibrate", "--scheme", scheme, "--users", str(n), *args, *CAL,
              "--out", f"cal_{scheme}_n{n}.json"]
             for n in (7, 8) for scheme, args in BINDING]
ORACLE = [["oracle-check"], ["oracle-check", "--users", "4", "--slots-per-instance", "8"]]


def run_gate(src: Path, out: Path) -> str:
    """Run the commands with ``src`` on the path; write the outputs and return SHA256SUMS."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "system.cfg").write_text(CONFIG)
    env = dict(os.environ, PYTHONPATH=str(src))
    stdout, stderr = [], []
    for args in [c[:1] + ["--config", "system.cfg"] + c[1:] for c in COMMANDS] + ORACLE:
        proc = subprocess.run([sys.executable, "-m", "swiptsched.cli", *args], cwd=out,
                              env=env, capture_output=True, text=True)
        for log, text in ((stdout, proc.stdout), (stderr, proc.stderr)):
            log.append(f"$ swipt-sched {' '.join(args)}\n{text}exit {proc.returncode}\n")
    (out / "stdout.txt").write_text("".join(stdout))
    (out / "stderr.txt").write_text("".join(stderr))
    files = sorted(p for p in out.iterdir() if p.is_file() and p.name != "SHA256SUMS")
    sums = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in files)
    (out / "SHA256SUMS").write_text(sums)
    return sums


def compare(old: Path, new: Path) -> list[str]:
    """Report every file of either directory whose bytes differ, with a diff for text.

    ``SHA256SUMS`` is skipped: it only repeats the digests reported here.
    """
    report = []
    names = {p.name for d in (old, new) for p in d.iterdir() if p.is_file()} - {"SHA256SUMS"}
    for name in sorted(names):
        a, b = (d / name for d in (old, new))
        data = [p.read_bytes() if p.is_file() else None for p in (a, b)]
        if data[0] == data[1]:
            continue
        digests = [hashlib.sha256(d).hexdigest() if d is not None else "missing" for d in data]
        report.append(f"differs: {name} ({digests[0]} -> {digests[1]})\n")
        try:
            lines = [(d or b"").decode().splitlines(keepends=True) for d in data]
        except UnicodeDecodeError:
            continue
        report.extend(difflib.unified_diff(*lines, str(a), str(b)))
    return report


def main(argv: list[str]) -> int:
    rev = None
    if len(argv) == 3 and argv[0] == "--against":
        rev, argv = argv[1], argv[2:]
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if rev is None:
        print(run_gate(SRC, out), end="")
        return 0
    archive = subprocess.run(["git", "-C", str(SRC.parent), "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode())
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        run_gate(Path(tmp) / "src", out / "against")
    run_gate(SRC, out / "this")
    report = compare(out / "against", out / "this")
    sys.stdout.write("".join(report) or f"no difference against {rev}\n")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
