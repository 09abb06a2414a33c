"""Smoke test: the demo scripts, the README's library quickstart and its
command-line block run to completion."""

import ast
import json
import re
import runpy
import shlex
from pathlib import Path

import pvsde
from pvsde.cli import main as cli_main

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


def test_every_public_name_is_used_outside_the_tests():
    # a name, attribute or import of each pvsde.__all__ entry in the
    # package's modules (its __init__ lists them all), the demos, the
    # benchmark or the README's python block
    files = [p for p in (*(ROOT / "src" / "pvsde").glob("*.py"),
                         *DEMOS.glob("*.py"),
                         *(ROOT / "pvsdebench").glob("*.py"))
             if p.name != "__init__.py" and not p.name.startswith("test_")]
    sources = [p.read_text() for p in files] + re.findall(
        r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
        re.M | re.S)
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    used = {getattr(node, field[type(node)]) for text in sources
            for node in ast.walk(ast.parse(text)) if type(node) in field}
    assert sorted(set(pvsde.__all__) - used) == []


def test_no_module_reads_an_array_with_np_load():
    # every .npy artifact is read by ensemble._read_array, which checks the
    # header before it allocates
    calls = [f"{p.name}:{node.lineno}"
             for p in (ROOT / "src" / "pvsde").glob("*.py")
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "load"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")]
    assert calls == []


def test_readme_library_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block, = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # every `pvsde ...` line of the README's command-line block, in order,
    # through the CLI on a small config, exits 0
    lines = [line.split("#", 1)[0] for line in
             (ROOT / "README.md").read_text().splitlines()
             if line.startswith("pvsde ")]
    assert [shlex.split(line)[1] for line in lines] == [
        "synth", "identify", "train", "predict", "simulate", "evaluate",
        "e2e"]
    (tmp_path / "run.cfg").write_text(
        "n_days = 20\nm = 3\nstart_hour = 9\nn_members = 10\n"
        "hidden_size = 10\nn_paths = 50\ndump_paths = 10\n")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = ["--config", "run.cfg"] + shlex.split(line)[1:]
        assert cli_main(argv) == 0, (line, capsys.readouterr().err)
    assert len(json.loads((tmp_path / "eval.json").read_text())) == 20
