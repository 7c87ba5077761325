import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize
LAYERS = bench_pairs.LAYERS

PARENT = [10.0, 10.5, 11.0, 9.5, 10.2, 10.8, 9.8, 10.1, 10.4, 10.6]


class TestSummarize:
    def test_quartiles_and_median(self):
        s = summarize(PARENT, PARENT, "lower", 0.25)
        assert s["parent"]["median"] == pytest.approx(10.3)
        assert (s["parent"]["q1"], s["parent"]["q3"]) == pytest.approx((10.025, 10.575))
        assert s["win_fraction"] == 0.0  # ties count for neither side
        assert s["verdict"] == "no regression"

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        change = [p - 2.0 for p in PARENT]
        assert summarize(PARENT, change, "lower", 0.25)["verdict"] == "gain"
        change[0] = PARENT[0] + 0.1   # 9 of 10 wins: still a gain
        assert summarize(PARENT, change, "lower", 0.25)["win_fraction"] == 0.9
        assert summarize(PARENT, change, "lower", 0.25)["verdict"] == "gain"
        change[1] = PARENT[1] + 0.1   # 8 of 10
        assert summarize(PARENT, change, "lower", 0.25)["verdict"] == "no regression"

    def test_gain_needs_ten_pairs(self):
        change = [p - 2.0 for p in PARENT]
        assert summarize(PARENT[:9], change[:9], "lower", 0.25)["verdict"] == "no regression"

    def test_gain_needs_more_than_the_parent_spread(self):
        # wins every pair, but by less than the parent's interquartile range
        change = [p - 0.1 for p in PARENT]
        s = summarize(PARENT, change, "lower", 0.25)
        assert s["win_fraction"] == 1.0 and s["verdict"] == "no regression"

    def test_higher_is_better(self):
        change = [p + 2.0 for p in PARENT]
        assert summarize(PARENT, change, "higher", 0.25)["verdict"] == "gain"
        assert summarize(PARENT, change, "lower", 0.25)["verdict"] == "no regression"
        assert summarize(PARENT, [p + 3.0 for p in PARENT], "lower", 0.25)["verdict"] \
            == "regression"

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        wide = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
        assert summarize(PARENT, wide, "lower", 0.25)["verdict"] == "unresolved"
        # quartiles 12 and 20: too wide to call, and a change by less than that is no gain
        parent = [12.0, 20.0] * 2 + [16.0, 16.0] + [12.0, 20.0] * 2
        assert summarize(parent, [12.1] * 10, "lower", 0.25)["verdict"] == "unresolved"
        assert summarize(parent, [11.9] * 10, "lower", 0.25)["verdict"] == "no regression"

    def test_mismatched_runs_rejected(self):
        with pytest.raises(ValueError):
            summarize(PARENT, PARENT[:-1], "lower", 0.25)


class TestRunBench:
    RECORD = 'record {"digest": ["abc"], "env": {}}'

    def fake_run(self, monkeypatch, last_line):
        stdout = "\n".join(["metric wall_norm_s 1 s", self.RECORD, last_line]) + "\n"
        monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kw:
                            subprocess.CompletedProcess(argv, 0, stdout, ""))

    def test_result_line_parsed(self, monkeypatch):
        self.fake_run(monkeypatch, '{"correct": true, "attempted": 3, "failed": 0, '
                                   '"metrics": {"wall_norm_s": {"value": 1.5, "unit": "s"}}}')
        out = bench_pairs.run_bench(Path("."), "change", "calib-et", 4, 27)
        assert out["metrics"] == {"wall_norm_s": 1.5} and out["digest"] == ["abc"]

    @pytest.mark.parametrize("last_line", [
        '{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"wall_norm_s": {"value": NaN, "unit": "s"}}}',
        '{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"wall_norm_s": {"value": -Infinity, "unit": "s"}}}',
        "Exception ignored in thread started by: <function>",
        '["not", "a", "result"]',
        '{"correct": true, "metrics": {"wall_norm_s": {"value": 1.5, "unit": "s"}}}',
    ], ids=["NaN", "-Infinity", "text", "list", "no counts"])
    def test_line_that_is_not_a_result_names_the_run(self, monkeypatch, last_line):
        self.fake_run(monkeypatch, last_line)
        with pytest.raises(RuntimeError) as err:
            bench_pairs.run_bench(Path("."), "parent", "calib-et", 4, 27)
        message = str(err.value)
        assert "parent benchmark, workload calib-et, seed 4" in message
        assert repr(last_line) in message


def parent_src_tar(data: bytes) -> bytes:
    """A tar archive holding ``src/swiptsched/__init__.py`` with ``data``."""
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        info = tarfile.TarInfo("src/swiptsched/__init__.py")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return buffer.getvalue()


class TestMakeTrees:
    def test_both_sides_side_by_side_with_the_same_perfbench(self, tmp_path):
        data = b"PARENT = True\n"
        roots = bench_pairs.make_trees(tmp_path, parent_src_tar(data))
        assert roots == {"parent": tmp_path / "parent", "change": tmp_path / "change"}
        assert (roots["parent"] / "src/swiptsched/__init__.py").read_bytes() == data
        checkout = bench_pairs.ROOT
        for name in ("__init__.py", "oracle.py"):
            assert (roots["change"] / "src/swiptsched" / name).read_bytes() == (
                checkout / "src/swiptsched" / name).read_bytes()
        for root in roots.values():
            assert (root / "perfbench/run.py").read_bytes() == (
                checkout / "perfbench/run.py").read_bytes()
            assert not list(root.rglob("__pycache__"))


class TestLayerMode:
    LINE = json.dumps({"layers": {name: {"value": 0.5, "passes": 3} for name in LAYERS},
                       "env": {"numpy": "2"}})

    def fake_run(self, monkeypatch, last_line):
        monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kw:
                            subprocess.CompletedProcess(argv, 0, last_line + "\n", ""))

    def test_result_line_parsed(self, monkeypatch):
        self.fake_run(monkeypatch, self.LINE)
        out = bench_pairs.run_layers(Path("."), "change")
        assert out["metrics"] == dict.fromkeys(LAYERS, 0.5)
        assert out["digest"] == dict.fromkeys(LAYERS, 3) and out["failed"] == 0

    def test_selection_hash_is_the_digest_where_given(self, monkeypatch):
        layers = {name: {"value": 0.5, "passes": 3} for name in LAYERS}
        layers["select_pf_n32_ms"] = {"value": 0.5, "selections": "0123abcd"}
        layers["pool_build_n32_ms"] = {"value": 0.5, "digest": "4567cdef"}  # a pool's hash
        self.fake_run(monkeypatch, json.dumps({"layers": layers, "env": {}}))
        digest = bench_pairs.run_layers(Path("."), "change")["digest"]
        assert digest == {**dict.fromkeys(LAYERS, 3), "select_pf_n32_ms": "0123abcd",
                          "pool_build_n32_ms": "4567cdef"}

    @pytest.mark.parametrize("last_line", [
        LINE.replace("0.5", "NaN", 1),
        json.dumps({"layers": {"mt_probe_ms": {"value": 0.5, "passes": 9}}, "env": {}}),
        "Traceback (most recent call last):",
    ], ids=["NaN", "missing layer", "text"])
    def test_line_that_is_not_a_result_names_the_run(self, monkeypatch, last_line):
        self.fake_run(monkeypatch, last_line)
        with pytest.raises(RuntimeError) as err:
            bench_pairs.run_layers(Path("."), "parent")
        assert "parent layer timing" in str(err.value) and repr(last_line) in str(err.value)

    def test_pairs_alternate_and_are_summarized_per_layer(self, monkeypatch, tmp_path):
        sides = []

        def fake_layers(root, side):
            sides.append(side)
            assert root.name == side and (root / "src/swiptsched/calibration.py").is_file()
            ms = (1.0 if side == "parent" else 0.5) + 0.01 * len(sides)
            return {"metrics": dict.fromkeys(LAYERS, ms), "attempted": 3, "failed": 0,
                    "correct": True, "digest": dict.fromkeys(LAYERS, 3), "env": {}}

        monkeypatch.setattr(bench_pairs, "run_layers", fake_layers)
        out = tmp_path / "bench.json"
        argv = ["--against", "HEAD", "--layers", "--pairs", "10", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        assert sides[:4] == ["parent", "change", "change", "parent"] and len(sides) == 20
        entry = json.loads(out.read_text())["entries"][0]
        assert entry["workload"] == "layers" and entry["digests_equal"]
        assert entry["digests_differ"] == []
        assert set(entry["metrics"]) == set(LAYERS)
        assert all(m["verdict"] == "gain" and m["win_fraction"] == 1.0
                   for m in entry["metrics"].values())

    def test_digests_differ_names_the_one_layer_that_differs(self, monkeypatch, tmp_path):
        # select_et_n5_ms's selections differ in the second of three pairs only
        runs = []

        def fake_layers(root, side):
            runs.append(side)
            digest = dict.fromkeys(LAYERS, 3)
            if side == "change" and len(runs) in (3, 4):
                digest["select_et_n5_ms"] = "0123abcd"
            return {"metrics": dict.fromkeys(LAYERS, 1.0), "attempted": len(LAYERS),
                    "failed": 0, "correct": True, "digest": digest, "env": {}}

        monkeypatch.setattr(bench_pairs, "run_layers", fake_layers)
        out = tmp_path / "bench.json"
        argv = ["--against", "HEAD", "--layers", "--pairs", "3", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        entry = json.loads(out.read_text())["entries"][0]
        assert not entry["digests_equal"]
        assert entry["digests_differ"] == ["select_et_n5_ms"]

    def test_layer_tool_times_this_checkout(self):
        proc = subprocess.run([sys.executable, str(bench_pairs.LAYER_TOOL), str(bench_pairs.ROOT)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
        assert set(layers) == set(LAYERS) and all(v["value"] > 0 for v in layers.values())
        assert layers["pf_step_pass_ms"]["passes"] == 3  # cut off by max_iters: every pass steps
        selects = [v for name, v in layers.items() if name.startswith("select_")]
        assert len(selects) == 5 and all(len(v["selections"]) == 16 for v in selects)
        pools = [v for name, v in layers.items() if name.startswith("pool_build_")]
        assert len(pools) == 2 and all(len(v["digest"]) == 16 for v in pools)


class TestSigterm:
    def test_terminated_run_removes_its_trees(self, monkeypatch, tmp_path):
        trees = []

        def terminated(root, side):
            trees.append(root.parent)
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(30)  # the handler interrupts this
            raise AssertionError("SIGTERM did not stop the run")

        monkeypatch.setattr(bench_pairs, "run_layers", terminated)
        monkeypatch.setattr(bench_pairs.tempfile, "tempdir", str(tmp_path))
        before = signal.getsignal(signal.SIGTERM)
        argv = ["--against", "HEAD", "--layers", "--pairs", "1", "--out", str(tmp_path / "b.json")]
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 128 + signal.SIGTERM
        assert len(trees) == 1 and not trees[0].exists() and list(tmp_path.iterdir()) == []
        assert signal.getsignal(signal.SIGTERM) is before


class TestRevisions:
    def test_each_appended_entry_keeps_its_revisions(self, monkeypatch, tmp_path):
        # src is edited while the runs go on: the flag reads the tree as it was copied
        state = {"head": "", "dirty": False}
        tar = parent_src_tar(b"PARENT = True\n")

        def fake_run(argv, **kw):
            command = argv[3:]
            if command[0] == "archive":
                return subprocess.CompletedProcess(argv, 0, tar, b"")
            out = {"rev-parse": state["head"] if command[-1] == "HEAD" else "p-" + command[-1],
                   "status": " M src/swiptsched/scheduling.py" if state["dirty"] else ""}
            return subprocess.CompletedProcess(argv, 0, out[command[0]], "")

        def fake_layers(root, side):
            state["dirty"] = True
            return {"metrics": dict.fromkeys(LAYERS, 1.0), "attempted": len(LAYERS),
                    "failed": 0, "correct": True, "digest": dict.fromkeys(LAYERS, 3), "env": {}}

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        monkeypatch.setattr(bench_pairs, "run_layers", fake_layers)
        out = tmp_path / "bench.json"
        for head in ("c1", "c2"):
            state.update(head=head, dirty=False)
            argv = ["--against", "base", "--layers", "--pairs", "1", "--out", str(out)]
            assert bench_pairs.main(argv) == 0
        assert [e["revisions"] for e in json.loads(out.read_text())["entries"]] == [
            {"parent": "p-base", "change": head, "change_src_matches_head": True}
            for head in ("c1", "c2")]
