import runpy
import tempfile
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_files_demo_removes_its_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / "05_files_and_reports.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert f"wrote {tmp_path}" in out
    assert list(tmp_path.iterdir()) == []
