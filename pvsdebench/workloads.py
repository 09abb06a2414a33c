"""The benchmark's three workloads: inputs, timed phase, checks, quality.

Every workload keeps the ``RunConfig()`` defaults (m=12, 200 members,
hidden 100, ridge 2, hour-local, 1000 paths, 30 s step) and changes only
the number of synthetic days, so the work per day matches the 400-day
acceptance run.  Inputs come from ``cmd_synth`` under the benchmark seed;
the program sees only the generated files.

* ``e2e`` -- ``cmd_e2e`` on a clean dataset: every layer, estimation first.
* ``identify_gappy`` -- ``cmd_identify`` on a ``pv.csv`` rewritten with
  seeded masked blocks, the way real telemetry looks: estimation and its
  matching simulations only.
* ``forecast`` -- the daily operator path on held-out days: ``cmd_predict``,
  ``cmd_simulate`` (fans written with dumped paths), ``cmd_evaluate`` (fans
  read back), with the model trained during set-up.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from pvsde import pipeline
from pvsde.ensemble import load_ensemble
from pvsde.pipeline import RunConfig

WORKLOADS = ("e2e", "identify_gappy", "forecast")
# e2e: 20 days leave 14 training days, above the 10 trusted days per hour
# the ensemble needs.  identify_gappy and forecast run one day per pass, as
# a daily operator does, so a run covers many passes and distinct days;
# forecast's 33 days split into 23 training and 10 held-out days.
N_DAYS = {"e2e": 20, "identify_gappy": 50, "forecast": 33}
PARAM_NAMES = ("a", "b", "beta", "c", "d")
SAMPLES_PER_HOUR = 120

# gap generator: a few hours lose most of their samples (interpolated);
# about half of the others lose four 5-minute blocks (40 of 120 samples)
# and stay valid -- the masked-block case the ROADMAP measured the
# gap-splicing bias on.  The shares of heavy and gapped hours are
# assumptions: no real telemetry is at hand to take them from.
HEAVY_SHARE = 0.05
HEAVY_MASK = (72, 108)          # masked samples of a heavy hour, > half
SCATTER_PROB = 0.5
SCATTER_BLOCKS = 4
BLOCK = 10                      # 5 minutes of 30 s samples


def config(name: str, seed: int) -> RunConfig:
    return replace(RunConfig(), n_days=N_DAYS[name], seed=seed)


def paths(work: str) -> dict:
    """Fixed layout of a workload's working directory."""
    join = os.path.join
    return dict(dataset=join(work, "dataset"),
                pv=join(work, "dataset", "pv.csv"),
                weather=join(work, "dataset", "weather.csv"),
                truth=join(work, "dataset", "true_params.json"),
                train_weather=join(work, "train", "weather.csv"),
                train_params=join(work, "train", "params.json"),
                model=join(work, "model"),
                inputs=join(work, "inputs"))


def inputs(work: str) -> list:
    """The input directories passes cycle through, in order."""
    root = paths(work)["inputs"]
    return [os.path.join(root, d)
            for d in sorted(os.listdir(root), key=int)]


def days_in(inp: str) -> list:
    """Dates of one input's PV table, which every pass reads."""
    with open(os.path.join(inp, "pv.csv")) as f:
        next(f)
        return sorted({line[:10] for line in f})


# ---------------------------------------------------------------------------
# set-up


def prepare(name: str, cfg: RunConfig, work: str) -> dict:
    """Build one workload's inputs under ``work``; returns its properties."""
    p = paths(work)
    shutil.rmtree(p["inputs"], ignore_errors=True)
    pipeline.cmd_synth(cfg, p["dataset"])
    with open(p["truth"]) as f:
        dates = sorted(json.load(f)["days"])
    if name == "e2e":
        shutil.copytree(p["dataset"], os.path.join(p["inputs"], "0"))
        return {}
    if name == "identify_gappy":
        props = mask_blocks(p["pv"], cfg.seed, cfg.m)
        _split_inputs(p, [[d] for d in dates], ("pv.csv",))
        return props
    train, test = pipeline.split_days(dates, cfg.split, cfg.seed)
    _split_inputs(p, [[d] for d in test], ("pv.csv", "weather.csv"))
    _train(cfg, p, train)
    return dict(train_days=len(train), heldout_days=len(test))


def _split_inputs(p: dict, groups, files) -> None:
    """One input directory per group of dates, with those dates' rows."""
    for k, group in enumerate(groups):
        keep = set(group)
        for name in files:
            _filter_lines(os.path.join(p["dataset"], name),
                          os.path.join(p["inputs"], str(k), name), keep)


def mask_blocks(pv_path: str, seed: int, m: int) -> dict:
    """Rewrite ``pv.csv`` with seeded masked blocks (power 0, valid 0).

    Exactly ``round(HEAVY_SHARE * hours)`` hours (at least one, at most one
    per day) get more than half their samples masked, so identification
    interpolates them; no day is fully masked.  Each other hour, with
    probability ``SCATTER_PROB``, loses ``SCATTER_BLOCKS`` distinct
    5-minute blocks and stays valid.
    """
    rng = np.random.default_rng([seed, 0x9A95])
    with open(pv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    dates = sorted({r[0] for r in rows})
    n_day = m * SAMPLES_PER_HOUR
    mask = np.ones((len(dates), n_day), dtype=bool)
    n_heavy = min(len(dates), max(1, round(HEAVY_SHARE * len(dates) * m)))
    heavy = {(int(d), int(rng.integers(m)))
             for d in rng.choice(len(dates), n_heavy, replace=False)}
    for d in range(len(dates)):
        for h in range(m):
            base = h * SAMPLES_PER_HOUR
            if (d, h) in heavy:
                n = int(rng.integers(HEAVY_MASK[0], HEAVY_MASK[1] + 1))
                start = base + int(rng.integers(SAMPLES_PER_HOUR - n + 1))
                mask[d, start:start + n] = False
            elif rng.random() < SCATTER_PROB:
                slots = rng.choice(SAMPLES_PER_HOUR // BLOCK, SCATTER_BLOCKS,
                                   replace=False)
                for s in BLOCK * slots:
                    mask[d, base + s:base + s + BLOCK] = False
    index = {date: j for j, date in enumerate(dates)}
    tmp = pv_path + ".tmp"
    with open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for date, step, power, valid in rows:
            if not mask[index[date], int(step)]:
                power, valid = "0.0", "0"
            writer.writerow([date, step, power, valid])
    os.replace(tmp, pv_path)
    hour_masked = (~mask).reshape(len(dates), m, SAMPLES_PER_HOUR).sum(axis=2)
    return dict(masked_share=float((~mask).mean()), heavy_hours=n_heavy,
                scattered_gap_hours=int((hour_masked == BLOCK
                                         * SCATTER_BLOCKS).sum()))


def _filter_lines(src: str, dst: str, keep) -> None:
    """Copy a CSV keeping the header and the rows whose date is in ``keep``."""
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(src) as f_in, open(dst, "w") as f_out:
        f_out.write(f_in.readline())
        for line in f_in:
            if line[:10] in keep:
                f_out.write(line)


def _train(cfg: RunConfig, p: dict, train) -> None:
    """Train the model from the generating parameters of the train days."""
    with open(p["truth"]) as f:
        truth = json.load(f)
    _filter_lines(p["weather"], p["train_weather"], set(train))
    doc = dict(truth, days={d: truth["days"][d] for d in train})
    with open(p["train_params"], "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
    pipeline.cmd_train(cfg, p["train_weather"], p["train_params"], p["model"])


# ---------------------------------------------------------------------------
# timed phase


@dataclass
class Outcome:
    """What one pass of the timed phase produced."""

    attempted: int
    failed: int = 0
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def run_once(name: str, cfg: RunConfig, work: str, inp: str, out: str):
    """The timed call sequence on one input; returns a handle for ``check``."""
    os.makedirs(out, exist_ok=True)
    if name == "e2e":
        return pipeline.cmd_e2e(cfg, inp, out)
    if name == "identify_gappy":
        return pipeline.cmd_identify(cfg, os.path.join(inp, "pv.csv"),
                                     os.path.join(out, "params.json"))
    if name == "forecast":
        pred = os.path.join(out, "predicted.json")
        fans = os.path.join(out, "fans")
        pv = os.path.join(inp, "pv.csv")
        pipeline.cmd_predict(cfg, paths(work)["model"],
                             os.path.join(inp, "weather.csv"), pred)
        pipeline.cmd_simulate(cfg, pred, fans, pv)
        return pipeline.cmd_evaluate(cfg, fans, pv,
                                     os.path.join(out, "eval.json"))
    raise ValueError(f"unknown workload {name!r}")


def check(name: str, cfg: RunConfig, work: str, inp: str, out: str,
          result) -> Outcome:
    """Untimed checks and quality figures of one pass."""
    if name == "e2e":
        return _check_e2e(cfg, out, result)
    if name == "identify_gappy":
        return _check_identify(cfg, paths(work), out, result)
    return _check_forecast(cfg, inp, out)


def _read_params(path: str, problems: list, m: int) -> dict:
    """Parse a params file the way ``cmd_train``/``cmd_simulate`` do."""
    try:
        doc = pipeline.read_params_json(path)
        days = {d: pipeline.obj_to_day_params(obj)
                for d, obj in doc["days"].items()}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{os.path.basename(path)} unreadable: {exc!r}")
        return {}
    bad = [d for d, (day, _) in days.items() if day.m != m]
    if bad:
        problems.append(f"{os.path.basename(path)}: wrong hour count on {bad}")
    return days


def _rel_rmse(pred: dict, truth: dict, hours=None) -> float:
    """Mean over the five parameters of the RMSE over (day, hour) cells,
    each relative to the mean |truth|; ``hours`` selects cells."""
    dates = sorted(pred)
    P = np.stack([pred[d][0].as_matrix() for d in dates])     # (days, 5, m)
    T = np.stack([truth[d][0].as_matrix() for d in dates])
    sel = np.ones((P.shape[0], P.shape[2]), bool) if hours is None else hours
    if not sel.any():
        return math.nan
    return float(np.mean([
        np.sqrt(np.mean((P[:, i][sel] - T[:, i][sel]) ** 2))
        / np.abs(T[:, i][sel]).mean() for i in range(len(PARAM_NAMES))]))


def _check_e2e(cfg, out, summary) -> Outcome:
    problems = []
    identified = _read_params(os.path.join(out, "params_identified.json"),
                              problems, cfg.m)
    predicted = _read_params(os.path.join(out, "params_predicted.json"),
                             problems, cfg.m)
    if len(identified) != summary["n_train"]:
        problems.append("params_identified.json misses training days")
    if len(predicted) != summary["n_test"]:
        problems.append("params_predicted.json misses test days")
    try:
        load_ensemble(os.path.join(out, "model"))
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"model unreadable: {exc!r}")
    quality = dict(picp90_gap=abs(summary["picp90_mean"] - 0.90),
                   nd_mean=summary["nd_mean"], kl_mean=summary["kl_mean"],
                   slot_rmse_max=max(summary["slot_rmse"].values()))
    return Outcome(attempted=summary["n_days"], quality=quality,
                   problems=problems)


def _check_identify(cfg, p, out, result) -> Outcome:
    problems = []
    ident = _read_params(os.path.join(out, "params.json"), problems, cfg.m)
    truth = _read_params(p["truth"], problems, cfg.m)
    rejected = len(result["rejected"])
    quality = {}
    if ident and truth:
        quality = dict(id_rel_rmse=_rel_rmse(ident, truth))
    return Outcome(attempted=len(ident) + rejected, failed=rejected,
                   quality=quality, problems=problems)


def identify_summary(cfg: RunConfig, work: str, outs) -> dict:
    """Interpolated hours and the identification error on valid hours with
    and without gaps, over every day identified.

    Keeps the gap-splicing defect visible: valid hours whose masked samples
    are spliced out are fitted worse than hours with no gap.
    """
    p = paths(work)
    problems = []
    truth = _read_params(p["truth"], problems, cfg.m)
    ident = {}
    for out in outs:
        ident.update(_read_params(os.path.join(out, "params.json"),
                                  problems, cfg.m))
    if not ident or not truth:
        return {}
    masked = {}
    with open(p["pv"], newline="") as f:
        for row in csv.DictReader(f):
            if row["valid"] == "0":
                key = (row["date"], int(row["step"]) // SAMPLES_PER_HOUR)
                masked[key] = masked.get(key, 0) + 1
    dates = sorted(ident)
    n_masked = np.array([[masked.get((d, h), 0) for h in range(cfg.m)]
                         for d in dates])
    gapped = (n_masked > 0) & (n_masked <= SAMPLES_PER_HOUR // 2)
    return dict(
        interpolated_hours=sum("interpolated" in fl for _, flags
                               in ident.values() for fl in flags),
        id_rel_rmse_clean_hours=_rel_rmse(ident, truth, n_masked == 0),
        id_rel_rmse_gapped_hours=_rel_rmse(ident, truth, gapped))


def _check_forecast(cfg, inp, out) -> Outcome:
    problems = []
    predicted = _read_params(os.path.join(out, "predicted.json"), problems,
                             cfg.m)
    fans_dir = os.path.join(out, "fans")
    n_fans = 0
    for date in predicted:
        try:
            fan = pipeline.read_fan_csv(
                os.path.join(fans_dir, f"fan_{date}.csv"), cfg.step_seconds)
        except (OSError, ValueError) as exc:
            problems.append(f"fan {date} unreadable: {exc!r}")
            continue
        n_fans += 1
        if (fan.paths.shape[0] != min(cfg.dump_paths, cfg.n_paths)
                or not np.isfinite(fan.quantiles).all()):
            problems.append(f"fan {date}: bad shape or values")
    try:
        with open(os.path.join(out, "eval.json")) as f:
            rows = json.load(f)
    except (OSError, ValueError) as exc:
        problems.append(f"eval.json unreadable: {exc!r}")
        rows = {}
    attempted = len(days_in(inp))
    if n_fans != attempted:
        problems.append(f"{n_fans} readable fans for {attempted} days")
    quality = {}
    if rows:
        quality = dict(
            picp90_gap=abs(float(np.mean([r["picp90"] for r in rows.values()]))
                           - 0.90),
            nd_mean=float(np.mean([r["nd"] for r in rows.values()])),
            kl_mean=float(np.mean([r["kl"] for r in rows.values()])))
    return Outcome(attempted=attempted, failed=attempted - len(rows),
                   quality=quality, problems=problems)


def finite(values: dict) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values.values())
