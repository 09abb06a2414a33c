"""Smoke test: the demo scripts and the README's library quickstart run to
completion."""

import json
import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_simulate_regimes_runs(capsys):
    runpy.run_path(str(DEMOS / "simulate_regimes.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "regime"
    assert len(lines) == 5


def test_identify_from_simulation_runs(capsys):
    runpy.run_path(str(DEMOS / "identify_from_simulation.py"),
                   run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "param"
    assert [line.split()[0] for line in lines[1:]] == [
        "a", "b", "beta", "c", "d"]


def test_forecast_day_runs(tmp_path, monkeypatch, capsys):
    # the demo writes its artifacts under ./demo_run
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "forecast_day.py"), run_name="__main__")
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_test"] > 0 and summary["skipped"] == []
    assert (tmp_path / "demo_run" / "out" / "summary.json").exists()


def test_readme_library_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block, = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
