"""Per-layer metrics derived from the traced run.

Each figure is computed from the timed phase, per timed pass.  A layer
that does its work only during set-up (``synth`` everywhere, training on
``forecast``) is read from the set-up trace instead, per set-up pass.  A
layer that does no work on a workload reports 0.  A metric whose wrapped
program name no longer exists reports ``None`` and lists the missing
names, so a rename shows up without crashing the run.
"""

from __future__ import annotations

import os

import numpy as np

FLAGS = ("interpolated", "bootstrap-rescaled", "variance-matched-high",
         "variance-matched-low", "boundary-pinned-high",
         "boundary-pinned-low", "non-volatile", "degenerate")
SELF_TIME_LAYERS = ("weather", "pipeline", "estimation", "elm", "ensemble",
                    "sde", "metrics")


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _flag_counts(counters, args, kwargs, result):
    for report in result[1]:
        for flag in report.flags:
            counters[f"flag.{flag}"] += 1


def _nonconverged(counters, args, kwargs, result):
    counters["nonconverged_hours"] += int(not result.converged)


PROBES = {
    "synth.synth_generate": lambda c, a, k, r: c.update(
        synth_path_steps=sum(np.size(pv) for pv in r[2])),
    "estimation.identify_day": _flag_counts,
    "estimation.identify_hour": _nonconverged,
    "estimation.minimize": lambda c, a, k, r: c.update(nm_iters=int(r.nit)),
    "sde.simulate_hour": lambda c, a, k, r: c.update(
        match_path_steps=np.size(r)),
    "sde.make_fan": lambda c, a, k, r: c.update(fan_path_steps=r.paths.size),
    "pipeline.write_fan_csv": lambda c, a, k, r: c.update(
        fan_bytes=os.path.getsize(a[0])),
    "ensemble.predict_params_batch": lambda c, a, k, r: c.update(
        predicted_days=len(r)),
    "ensemble.save_ensemble": lambda c, a, k, r: c.update(
        model_bytes=_dir_bytes(a[1])),
}


def _ratio(num, den):
    return float(num) / den if den else 0.0


class View:
    """One phase's trace, normalized per pass."""

    def __init__(self, tracer, passes: int):
        self.t, self.passes = tracer, max(passes, 1)

    def calls(self, name):
        return self.t.get(name).calls

    def total(self, name):
        return self.t.get(name).total

    def per_pass(self, value):
        return float(value) / self.passes

    def mean_ms(self, name):
        s = self.t.get(name)
        return _ratio(1e3 * s.total, s.calls)

    def pct_ms(self, name, q):
        d = self.t.get(name).durations
        return float(1e3 * np.percentile(d, q)) if d else 0.0

    def count(self, key):
        return self.t.counters.get(key, 0)


# name -> (unit, span names it needs, phase, formula over a View).  Phase
# "timed" reads the timed passes only; "work" reads the timed passes when
# the first needed span ran there and the set-up passes otherwise.
METRICS = {
    "synth.path_steps_per_s": (
        "steps/s", ["synth.synth_generate"], "work",
        lambda v: _ratio(v.count("synth_path_steps"),
                         v.total("synth.synth_generate"))),
    "weather.ingest_s": (
        "s", ["weather.ingest_weather", "weather.impute_days"], "timed",
        lambda v: v.per_pass(v.total("weather.ingest_weather")
                             + v.total("weather.impute_days"))),
    "pipeline.ingest_pv_s": (
        "s", ["pipeline.ingest_pv"], "timed",
        lambda v: v.per_pass(v.total("pipeline.ingest_pv"))),
    "pipeline.params_io_s": (
        "s", ["pipeline.read_params_json", "pipeline.write_params_json"],
        "timed",
        lambda v: v.per_pass(v.total("pipeline.read_params_json")
                             + v.total("pipeline.write_params_json"))),
    "pipeline.fan_write_ms": (
        "ms", ["pipeline.write_fan_csv"], "timed",
        lambda v: v.mean_ms("pipeline.write_fan_csv")),
    "pipeline.fan_read_ms": (
        "ms", ["pipeline.read_fan_csv"], "timed",
        lambda v: v.mean_ms("pipeline.read_fan_csv")),
    "pipeline.fan_bytes": (
        "bytes", ["pipeline.write_fan_csv"], "timed",
        lambda v: _ratio(v.count("fan_bytes"),
                         v.calls("pipeline.write_fan_csv"))),
    "estimation.identify_hour_ms_p50": (
        "ms", ["estimation.identify_hour"], "timed",
        lambda v: v.pct_ms("estimation.identify_hour", 50)),
    "estimation.identify_hour_ms_p90": (
        "ms", ["estimation.identify_hour"], "timed",
        lambda v: v.pct_ms("estimation.identify_hour", 90)),
    "estimation.nm_fits_per_hour": (
        "count", ["estimation.minimize", "estimation.identify_hour"], "timed",
        lambda v: _ratio(v.calls("estimation.minimize"),
                         v.calls("estimation.identify_hour"))),
    "estimation.nm_iters_per_fit": (
        "count", ["estimation.minimize"], "timed",
        lambda v: _ratio(v.count("nm_iters"),
                         v.calls("estimation.minimize"))),
    "estimation.match_path_steps_per_hour": (
        "count", ["sde.simulate_hour", "estimation.identify_hour"], "timed",
        lambda v: _ratio(v.count("match_path_steps"),
                         v.calls("estimation.identify_hour"))),
    **{f"estimation.flag.{flag}": (
        "count", ["estimation.identify_day"], "timed",
        lambda v, key=f"flag.{flag}": v.per_pass(v.count(key)))
       for flag in FLAGS},
    "estimation.nonconverged_hours": (
        "count", ["estimation.identify_hour"], "timed",
        lambda v: v.per_pass(v.count("nonconverged_hours"))),
    "elm.solves": (
        "count", ["elm.elm_train"], "work",
        lambda v: v.per_pass(v.calls("elm.elm_train"))),
    "elm.solves_per_s": (
        "1/s", ["elm.elm_train"], "work",
        lambda v: _ratio(v.calls("elm.elm_train"), v.total("elm.elm_train"))),
    "ensemble.train_s": (
        "s", ["ensemble.train_ensemble"], "work",
        lambda v: v.per_pass(v.total("ensemble.train_ensemble"))),
    "ensemble.load_s": (
        "s", ["ensemble.load_ensemble"], "timed",
        lambda v: v.per_pass(v.total("ensemble.load_ensemble"))),
    "ensemble.predict_ms_per_day": (
        "ms", ["ensemble.predict_params_batch"], "timed",
        lambda v: _ratio(1e3 * v.total("ensemble.predict_params_batch"),
                         v.count("predicted_days"))),
    "ensemble.model_bytes": (
        "bytes", ["ensemble.save_ensemble"], "work",
        lambda v: _ratio(v.count("model_bytes"),
                         v.calls("ensemble.save_ensemble"))),
    "sde.fan_ms_per_day": (
        "ms", ["sde.make_fan"], "timed",
        lambda v: v.mean_ms("sde.make_fan")),
    "sde.fan_path_steps_per_s": (
        "steps/s", ["sde.make_fan"], "timed",
        lambda v: _ratio(v.count("fan_path_steps"), v.total("sde.make_fan"))),
    "sde.match_path_steps_per_s": (
        "steps/s", ["sde.simulate_hour"], "timed",
        lambda v: _ratio(v.count("match_path_steps"),
                         v.total("sde.simulate_hour"))),
    "metrics.evaluate_ms_per_day": (
        "ms", ["metrics.evaluate"], "timed",
        lambda v: v.mean_ms("metrics.evaluate")),
    **{f"{layer}.self_s": (
        "s", [], "timed",
        lambda v, layer=layer: v.per_pass(v.t.layer_self_time(layer)))
       for layer in SELF_TIME_LAYERS},
}
TRACE_METRICS = ("trace.overhead_frac", "trace.unaccounted_frac")


def layer_metrics(timed, traced_walls, setup, setup_passes: int,
                  untraced_walls) -> dict:
    """Every per-layer metric as ``{name: {"value", "unit"[, "missing"]}}``.

    ``traced_walls``/``untraced_walls`` are the timed passes' wall times
    with tracing on and off, pair ``k`` of both on the same input; the
    median ratio of the pairs gives the tracing overhead.
    """
    views = dict(timed=View(timed, len(traced_walls)),
                 setup=View(setup, setup_passes))
    out = {}
    for name, (unit, needs, phase, formula) in METRICS.items():
        missing = [n for n in needs
                   if n not in timed.installed | setup.installed]
        if missing:
            out[name] = dict(value=None, unit=unit, missing=missing)
            continue
        view = views["timed"]
        if phase == "work" and view.calls(needs[0]) == 0:
            view = views["setup"]
        out[name] = dict(value=float(formula(view)), unit=unit)
    overhead, unaccounted = TRACE_METRICS
    out[overhead] = dict(
        value=float(np.median([_ratio(t, u) for t, u
                               in zip(traced_walls, untraced_walls)])) - 1,
        unit="fraction")
    out[unaccounted] = dict(
        value=_ratio(sum(traced_walls) - timed.covered, sum(traced_walls)),
        unit="fraction")
    return out
