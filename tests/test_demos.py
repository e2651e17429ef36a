import re
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
TRANSCRIPTS = Path(__file__).resolve().parent / "demo_output"


def run_demo(name, tmp_path, monkeypatch, capsys):
    """A demo's standard output, with its temporary directory written as <tmpdir>."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    return re.sub(re.escape(str(tmp_path)) + r"/gradedrings_demo_[^/\s]+", "<tmpdir>", out)


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_prints_its_recorded_transcript(name, tmp_path, monkeypatch, capsys):
    expected = (TRANSCRIPTS / f"{name}.txt").read_text(encoding="utf-8")
    assert run_demo(name, tmp_path, monkeypatch, capsys) == expected


def test_files_demo_removes_its_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / "05_files_and_reports.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert f"wrote {tmp_path}" in out
    assert list(tmp_path.iterdir()) == []
