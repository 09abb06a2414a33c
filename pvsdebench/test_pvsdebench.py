"""Tests of the benchmark itself: span arithmetic, patching, the gap
generator, the metric lists in BENCHMARK.json, and a tiny-size smoke run
of every workload (small ensemble and fans, fewest days that train)."""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace

import numpy as np
import pytest

import bootstrap

if str(bootstrap.SRC) not in sys.path:
    sys.path.insert(0, str(bootstrap.SRC))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pvsde import ensemble, estimation, pipeline  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    tr.begin("pipeline.cmd")            # 0 .. 10
    clock.now = 1.0
    tr.begin("estimation.day")          # 1 .. 7
    clock.now = 2.0
    tr.begin("sde.kernel")              # 2 .. 5
    clock.now = 5.0
    tr.end()
    clock.now = 7.0
    tr.end()
    clock.now = 8.0
    tr.begin("metrics.evaluate")        # 8 .. 9
    clock.now = 9.0
    tr.end()
    clock.now = 10.0
    tr.end()
    clock.now = 12.0
    tr.begin("pipeline.io")             # 12 .. 13, second root
    clock.now = 13.0
    tr.end()

    assert tr.get("pipeline.cmd").total == 10.0
    assert tr.get("pipeline.cmd").self_time == 10.0 - 6.0 - 1.0
    assert tr.get("estimation.day").self_time == 6.0 - 3.0
    assert tr.get("sde.kernel").self_time == 3.0
    assert tr.covered == 11.0
    assert tr.layer_self_time("pipeline") == 3.0 + 1.0
    assert sum(s.self_time for s in tr.stats.values()) == tr.covered

    again = spans.Tracer.from_dict(json.loads(json.dumps(tr.to_dict())))
    assert again.to_dict() == tr.to_dict()


def test_patched_wraps_imported_names_and_restores_them():
    original = pipeline.identify_day
    assert original is estimation.identify_day
    tr = spans.Tracer()
    with spans.patched(tr):
        assert pipeline.identify_day is estimation.identify_day
        assert pipeline.identify_day is not original
        pipeline.split_days(["2018-01-02", "2018-01-01"], 0.5, 0)
    assert pipeline.identify_day is original
    assert tr.get("pipeline.split_days").calls == 1
    assert "estimation.minimize" in tr.installed


def test_removed_name_reports_metric_missing(monkeypatch):
    monkeypatch.delattr(ensemble, "predict_params_batch")
    tr = spans.Tracer()
    with spans.patched(tr, layers.PROBES):
        pass
    out = layers.layer_metrics(tr, [1.0], spans.Tracer(), 1, [1.0])
    m = out["ensemble.predict_ms_per_day"]
    assert m["value"] is None
    assert m["missing"] == ["ensemble.predict_params_batch"]
    assert out["elm.solves"]["value"] == 0.0


def test_overhead_pairs_each_traced_pass_with_its_untraced_twin():
    out = layers.layer_metrics(spans.Tracer(), [1.1, 4.4, 3.0],
                               spans.Tracer(), 1, [1.0, 4.0, 3.0])
    assert out["trace.overhead_frac"]["value"] == pytest.approx(0.1)


def test_benchmark_json_names_every_metric():
    with open(bootstrap.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    names = list(layers.METRICS) + list(layers.TRACE_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == names
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def _pv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_gap_generator_is_seeded_and_keeps_days_alive(tmp_path):
    cfg = replace(pipeline.RunConfig(), n_days=4, seed=5)
    pipeline.cmd_synth(cfg, str(tmp_path / "a"))
    pipeline.cmd_synth(cfg, str(tmp_path / "b"))
    props = workloads.mask_blocks(str(tmp_path / "a" / "pv.csv"), 5, cfg.m)
    assert props == workloads.mask_blocks(str(tmp_path / "b" / "pv.csv"),
                                          5, cfg.m)
    rows = _pv_rows(tmp_path / "a" / "pv.csv")
    assert rows == _pv_rows(tmp_path / "b" / "pv.csv")
    valid = np.array([r["valid"] == "1" for r in rows]).reshape(4, cfg.m, 120)
    masked_power = [float(r["power"]) for r in rows if r["valid"] == "0"]
    assert masked_power and not any(masked_power)
    assert props["masked_share"] == pytest.approx(1 - valid.mean())
    per_hour = valid.sum(axis=2)
    assert (per_hour <= 60).sum() == props["heavy_hours"] == 2
    gapped = per_hour[(per_hour > 60) & (per_hour < 120)]
    assert gapped.size == props["scattered_gap_hours"] > 0
    assert (gapped == 120 - workloads.BLOCK * workloads.SCATTER_BLOCKS).all()
    assert (per_hour > 60).any(axis=1).all()        # no day fully masked


@pytest.mark.parametrize("name,n_days,trace", [
    ("e2e", 15, 0), ("identify_gappy", 1, 1), ("forecast", 15, 1)])
def test_workload_smoke(name, n_days, trace):
    cfg = replace(workloads.config(name, 3), n_days=n_days, n_members=4,
                  hidden_size=8, n_paths=40, dump_paths=10)
    result, lines = run.run_workload(name, 3, 0, trace, cfg=cfg,
                                     setup_reps=1)
    assert result["correct"], lines
    assert result["attempted"] > 0 and result["failed"] == 0
    expected = (list(layers.METRICS) + list(layers.TRACE_METRICS) if trace
                else list(run.END_TO_END))
    assert list(result["metrics"]) == expected
    assert all(m["value"] is not None for m in result["metrics"].values())
    assert any(line.startswith("# env ") for line in lines)
    if name == "identify_gappy":
        props = json.loads(next(line for line in lines
                                if line.startswith("# properties "))[13:])
        assert props["interpolated_hours"] == props["heavy_hours"]
