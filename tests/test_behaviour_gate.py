import importlib.util
import os
import signal
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "behaviour_gate.py"
_spec = importlib.util.spec_from_file_location("behaviour_gate", _PATH)
behaviour_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(behaviour_gate)


def make_tree(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, data in files.items():
        (root / name).write_bytes(data)
    return root


class TestCompare:
    def test_identical_trees_report_nothing(self, tmp_path):
        files = {"a.csv": b"x,y\n1,2\n", "b.bin": bytes(range(256)), "SHA256SUMS": b"1\n"}
        old = make_tree(tmp_path / "old", files)
        new = make_tree(tmp_path / "new", {**files, "SHA256SUMS": b"2\n"})
        assert behaviour_gate.compare(old, new) == []

    def test_text_difference_has_a_unified_diff(self, tmp_path):
        old = make_tree(tmp_path / "old", {"out.txt": b"same\nold line\n"})
        new = make_tree(tmp_path / "new", {"out.txt": b"same\nnew line\n"})
        report = behaviour_gate.compare(old, new)
        assert report[0].startswith("differs: out.txt (")
        assert "-old line\n" in report
        assert "+new line\n" in report

    def test_binary_difference_names_the_file_only(self, tmp_path):
        old = make_tree(tmp_path / "old", {"b.bin": b"\xff\x00"})
        new = make_tree(tmp_path / "new", {"b.bin": b"\xff\x01"})
        report = behaviour_gate.compare(old, new)
        assert len(report) == 1 and report[0].startswith("differs: b.bin (")

    def test_file_on_one_side_is_reported(self, tmp_path):
        old = make_tree(tmp_path / "old", {"gone.csv": b"1\n"})
        new = make_tree(tmp_path / "new", {"added.csv": b"2\n"})
        report = "".join(behaviour_gate.compare(old, new))
        assert "differs: added.csv (missing -> " in report
        assert "differs: gone.csv (" in report and "-> missing)" in report
        assert "+2\n" in report and "-1\n" in report


class TestUsage:
    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["-h"], 0), (["--against", "HEAD", "--help"], 0),
        (["-o"], 2), (["--out", "x"], 2), (["--against", "HEAD", "--verbose"], 2),
        (["--against", "-x", "out"], 2), ([], 2), (["a", "b"], 2),
    ])
    def test_options_print_the_usage_and_run_nothing(self, argv, code, tmp_path, monkeypatch,
                                                      capsys):
        def no_run(*args, **kwargs):
            raise AssertionError(f"ran {args}")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(behaviour_gate.subprocess, "run", no_run)
        monkeypatch.setattr(behaviour_gate, "run_gate", no_run)
        assert behaviour_gate.main(argv) == code
        out, err = capsys.readouterr()
        assert "python tools/behaviour_gate.py OUTDIR" in (out if code == 0 else err)
        assert list(tmp_path.iterdir()) == []


class TestAgainst:
    def test_both_sides_run_from_copies_side_by_side(self, monkeypatch, tmp_path):
        # the live src is copied once, so an edit made during the run reaches neither side
        calls = []

        def fake_gate(src, out):
            calls.append((src, out, (src / "swiptsched/calibration.py").read_bytes()))
            out.mkdir(parents=True)

        monkeypatch.setattr(behaviour_gate, "run_gate", fake_gate)
        out = tmp_path / "out"
        assert behaviour_gate.main(["--against", "HEAD", str(out)]) == 0
        (against, against_out, _), (this, this_out, this_data) = calls
        assert (against_out, this_out) == (out / "against", out / "this")
        assert against.parent.parent == this.parent.parent
        assert (against.parent.name, this.parent.name) == ("parent", "change")
        assert this != behaviour_gate.SRC and not this.exists()
        assert this_data == (behaviour_gate.SRC / "swiptsched/calibration.py").read_bytes()


class TestSigterm:
    def test_terminated_run_removes_its_trees(self, monkeypatch, tmp_path):
        trees = []

        def terminated(src, out):
            trees.append(src.parent.parent)
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(30)  # the handler interrupts this
            raise AssertionError("SIGTERM did not stop the run")

        monkeypatch.setattr(behaviour_gate, "run_gate", terminated)
        monkeypatch.setattr(behaviour_gate.tempfile, "tempdir", str(tmp_path))
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(SystemExit) as exc:
            behaviour_gate.main(["--against", "HEAD", str(tmp_path / "out")])
        assert exc.value.code == 128 + signal.SIGTERM
        assert len(trees) == 1 and not trees[0].exists() and list(tmp_path.iterdir()) == []
        assert signal.getsignal(signal.SIGTERM) is before
