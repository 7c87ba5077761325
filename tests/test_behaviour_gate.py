import importlib.util
from pathlib import Path

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
