"""Smoke test: the demo scripts run to completion."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_simulate_regimes_runs(capsys):
    runpy.run_path(str(DEMOS / "simulate_regimes.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "regime"
    assert len(lines) == 5
