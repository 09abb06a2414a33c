"""Batch workflow: dataset generation, identification, mapping training,
prediction, simulation, and evaluation.

All commands are deterministic under a master seed: day-level estimation
seeds, ensemble member streams, and simulation path streams all derive
from it.  Every artifact is written atomically (temp file + rename) and is
re-ingestible by the command that consumes it.  The workflow operates on
the discrete 30-second Euler transition end to end — the data generator,
the estimator's internal matching simulations, and the forecast fans all
step the same chain — so identified parameters mean the same thing at
every stage.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .ensemble import (WeatherDay, load_ensemble, predict_params_batch,
                       save_ensemble, train_ensemble)
from .estimation import AllHoursInvalidError, identify_day
from .metrics import EvalInput, evaluate, kl_divergence, nd as nd_metric
from .sde import DayParams, SimulationFan, make_fan, project_params
from .solar import SiteConfig
from .synth import SyntheticSpec, synth_generate
from .weather import HourGrid, impute_days, ingest_weather, write_weather_csv

EVAL_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95)
PARAMS_SCHEMA_VERSION = 1

# hours whose parameters were not genuinely fitted from data are kept for
# simulation but excluded from mapping training
UNTRUSTED_FLAGS = frozenset({"interpolated", "degenerate", "non-volatile"})


def _untrusted(flags) -> bool:
    return bool(UNTRUSTED_FLAGS & set(flags))


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; defaults follow the reference experiment."""

    latitude: float = 22.13
    longitude: float = 113.54
    utc_offset: float = 8.0
    rated_kw: float = 2.9
    m: int = 12
    start_hour: int = 7
    hidden_size: int = 100
    n_members: int = 200
    seed: int = 0
    split: float = 0.70
    n_paths: int = 1000
    step_seconds: float = 30.0
    n_days: int = 400
    noise_level: float = 0.0
    ridge: float = 2.0
    hour_local: bool = True
    dump_paths: int = 200

    def __post_init__(self):
        if not 0.0 < self.split < 1.0:
            raise ValueError("split must be in (0, 1)")
        if self.dump_paths < 1:
            # a fan file with no sample paths cannot be evaluated
            raise ValueError("dump_paths must be >= 1")

    @property
    def grid(self) -> HourGrid:
        return HourGrid(start_hour=self.start_hour, m=self.m)

    @property
    def site(self) -> SiteConfig:
        return SiteConfig(latitude=self.latitude, longitude=self.longitude,
                          utc_offset=self.utc_offset,
                          rated_power=self.rated_kw)


def load_config(path: str | None, overrides=None) -> RunConfig:
    """Read a flat ``key = value`` config file; later overrides win."""
    values = {}
    if path is not None:
        types = {f.name: f.type for f in fields(RunConfig)}
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected key = value")
                key, _, raw = line.partition("=")
                key, raw = key.strip(), raw.strip()
                if key not in types:
                    raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = _parse_value(raw, types[key])
    cfg = RunConfig(**values)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _parse_value(raw: str, type_name):
    t = type_name if isinstance(type_name, str) else type_name.__name__
    if t == "bool":
        return raw.lower() in ("1", "true", "yes", "on")
    if t == "int":
        return int(raw)
    if t == "float":
        return float(raw)
    return raw


def _atomic_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _day_seed(master: int, index: int) -> int:
    return master * 100003 + index


# ---------------------------------------------------------------------------
# parameter-set JSON (identification export / prediction output)


def day_params_to_obj(day: DayParams, flags=None):
    out = []
    for i, th in enumerate(day.hours):
        entry = dict(a=th.a, b=th.b, beta=th.beta, c=th.c, d=th.d,
                     flags=list(flags[i]) if flags is not None else [])
        out.append(entry)
    return out


def obj_to_day_params(obj) -> tuple[DayParams, list]:
    hours = [project_params(e["a"], e["b"], e["beta"], e["c"], e["d"])
             for e in obj]
    flags = [tuple(e.get("flags", ())) for e in obj]
    return DayParams(hours=tuple(hours)), flags


def write_params_json(path: str, days: dict, step_seconds: float, m: int):
    doc = dict(schema_version=PARAMS_SCHEMA_VERSION,
               step_seconds=step_seconds, m=m,
               days={date: obj for date, obj in sorted(days.items())})
    _atomic_text(path, json.dumps(doc, sort_keys=True, indent=1))


def read_params_json(path: str):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != PARAMS_SCHEMA_VERSION:
        raise ValueError("unsupported parameter file schema")
    return doc


# ---------------------------------------------------------------------------
# PV CSV


def write_pv_csv(path: str, dates, pv_days, masks=None) -> None:
    with open(path + ".tmp", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["date", "step", "power", "valid"])
        for j, date in enumerate(dates):
            mask = (masks[j] if masks is not None
                    else np.ones(len(pv_days[j]), dtype=bool))
            for i, (v, ok) in enumerate(zip(pv_days[j], mask)):
                w.writerow([date, i, repr(float(v)), int(ok)])
    os.replace(path + ".tmp", path)


def ingest_pv(path: str):
    """Read the per-day normalized PV table -> {date: (values, mask)}."""
    per_day: dict[str, list] = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        need = {"date", "step", "power", "valid"}
        if not need <= set(reader.fieldnames or ()):
            raise ValueError(f"PV CSV must have columns {sorted(need)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                per_day.setdefault(row["date"], []).append(
                    (int(row["step"]), float(row["power"]),
                     bool(int(row["valid"]))))
            except (TypeError, ValueError):
                raise ValueError(f"line {line_no}: malformed PV row") from None
    out = {}
    for date, rows in per_day.items():
        rows.sort()
        out[date] = (np.array([r[1] for r in rows]),
                     np.array([r[2] for r in rows], dtype=bool))
    return out


# ---------------------------------------------------------------------------
# fan CSV (quantile block + optional raw path block)


def write_fan_csv(path: str, fan: SimulationFan, n_dump: int) -> None:
    with open(path + ".tmp", "w") as f:
        fan.to_csv(f, n_dump)
    os.replace(path + ".tmp", path)


def read_fan_csv(path: str, step_seconds: float) -> SimulationFan:
    quantiles, paths = [], []
    with open(path) as f:
        header = f.readline().strip().split(",")
        levels = [int(name[1:]) / 100.0 for name in header[2:]]
        for line in f:
            cells = line.rstrip("\n").split(",")
            if cells[0] == "P":
                paths.append([float(v) for v in cells[1:]])
            else:
                quantiles.append([float(v) for v in cells[1:]])
    q = np.array(quantiles)
    if not paths:
        raise ValueError(f"{path}: fan file carries no sample paths")
    return SimulationFan(paths=np.array(paths),
                         step_seconds=step_seconds,
                         quantile_levels=tuple(levels),
                         quantiles=q[:, 1:].T, mean=q[:, 0])


def _fan_for_day(day: DayParams, p0: float, cfg: RunConfig, seed: int):
    return make_fan(day, p0, step_seconds=cfg.step_seconds,
                    n_paths=cfg.n_paths, seed=seed,
                    quantile_levels=EVAL_QUANTILE_LEVELS, substeps=1)


# ---------------------------------------------------------------------------
# weather helpers


def _weather_csv_rows(dates, weather_days):
    for date, rows in zip(dates, weather_days):
        for r in rows:
            yield dict(timestamp=f"{date}T{r['hour']:02d}:00",
                       temperature=r["temperature"], humidity=r["humidity"],
                       pressure=r["pressure"],
                       precipitation=r["precipitation"],
                       wind_speed=r["wind_speed"],
                       wind_direction=r["wind_direction"],
                       cloud=r["cloud"], irradiance=r["irradiance"])


def _load_weather_days(path: str, cfg: RunConfig, medians=None):
    raw_days, dropped = ingest_weather(path, cfg.grid)
    days, medians = impute_days(raw_days, medians)
    return {d.date: d for d in days}, medians, dropped


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig, out_dir: str) -> dict:
    """Generate a synthetic dataset directory."""
    os.makedirs(out_dir, exist_ok=True)
    spec = SyntheticSpec(n_days=cfg.n_days, grid=cfg.grid,
                         step_seconds=cfg.step_seconds,
                         noise_level=cfg.noise_level)
    dates, weather, pv, params = synth_generate(
        spec, np.random.default_rng(cfg.seed))
    write_weather_csv(os.path.join(out_dir, "weather.csv") + ".tmp",
                      _weather_csv_rows(dates, weather))
    os.replace(os.path.join(out_dir, "weather.csv") + ".tmp",
               os.path.join(out_dir, "weather.csv"))
    write_pv_csv(os.path.join(out_dir, "pv.csv"), dates, pv)
    write_params_json(os.path.join(out_dir, "true_params.json"),
                      {date: day_params_to_obj(day)
                       for date, day in zip(dates, params)},
                      cfg.step_seconds, cfg.m)
    return dict(n_days=len(dates), out=out_dir)


def cmd_identify(cfg: RunConfig, pv_path: str, out_path: str) -> dict:
    """Identify per-hour parameters for every day of a PV table."""
    pv = ingest_pv(pv_path)
    days, rejected = {}, []
    for i, date in enumerate(sorted(pv)):
        values, mask = pv[date]
        try:
            day, reports = identify_day(values, mask,
                                        step_seconds=cfg.step_seconds,
                                        m=cfg.m,
                                        seed=_day_seed(cfg.seed, i))
        except AllHoursInvalidError:
            rejected.append(date)
            continue
        days[date] = day_params_to_obj(day, [r.flags for r in reports])
    write_params_json(out_path, days, cfg.step_seconds, cfg.m)
    return dict(identified=len(days), rejected=rejected, out=out_path)


def cmd_train(cfg: RunConfig, weather_path: str, params_path: str,
              out_dir: str) -> dict:
    """Train the weather-to-parameter ensemble from identified days."""
    t0 = time.time()
    weather, medians, dropped = _load_weather_days(weather_path, cfg)
    doc = read_params_json(params_path)
    pairs, flags = [], []
    for date, obj in sorted(doc["days"].items()):
        if date not in weather:
            continue
        day, day_flags = obj_to_day_params(obj)
        pairs.append((weather[date], day))
        flags.append([_untrusted(fl) for fl in day_flags])
    model = train_ensemble(pairs, hidden_size=cfg.hidden_size,
                           n_members=cfg.n_members, master_seed=cfg.seed,
                           flags=flags, ridge=cfg.ridge,
                           hour_local=cfg.hour_local)
    save_ensemble(model, out_dir)
    _atomic_text(os.path.join(out_dir, "impute.json"),
                 json.dumps(dict(medians=list(map(float, medians))),
                            sort_keys=True))
    return dict(days=len(pairs), dropped=dropped,
                seconds=round(time.time() - t0, 2), out=out_dir)


def cmd_predict(cfg: RunConfig, model_dir: str, weather_path: str,
                out_path: str) -> dict:
    """Map weather days to predicted parameters with a trained ensemble."""
    model = load_ensemble(model_dir)
    with open(os.path.join(model_dir, "impute.json")) as f:
        medians = np.array(json.load(f)["medians"])
    weather, _, dropped = _load_weather_days(weather_path, cfg, medians)
    dates = sorted(weather)
    preds = predict_params_batch(model, [weather[d] for d in dates])
    days = {}
    for date, day in zip(dates, preds):
        days[date] = day_params_to_obj(day, [() for _ in day.hours])
    write_params_json(out_path, days, cfg.step_seconds, cfg.m)
    return dict(predicted=len(days), dropped=dropped, out=out_path)


def cmd_simulate(cfg: RunConfig, params_path: str, out_dir: str,
                 pv_path: str | None = None) -> dict:
    """Simulate a forecast fan per day of a parameter file.

    The initial state is the day's first valid PV sample when a PV table
    is supplied, otherwise the midpoint of the first hour's bounds.
    """
    os.makedirs(out_dir, exist_ok=True)
    doc = read_params_json(params_path)
    pv = ingest_pv(pv_path) if pv_path else {}
    written = []
    for i, (date, obj) in enumerate(sorted(doc["days"].items())):
        day, _ = obj_to_day_params(obj)
        first = day.hours[0]
        p0 = 0.5 * (first.c + first.d)
        if date in pv:
            values, mask = pv[date]
            if mask.any():
                p0 = float(values[np.argmax(mask)])
        fan = _fan_for_day(day, p0, cfg, seed=_day_seed(cfg.seed, i) + 1)
        out = os.path.join(out_dir, f"fan_{date}.csv")
        write_fan_csv(out, fan, cfg.dump_paths)
        written.append(out)
    return dict(days=len(written), out=out_dir)


def cmd_evaluate(cfg: RunConfig, fan_dir: str, pv_path: str,
                 out_path: str) -> dict:
    """Score every day with both a fan file and actual PV."""
    pv = ingest_pv(pv_path)
    rows = {}
    for date in sorted(pv):
        fan_path = os.path.join(fan_dir, f"fan_{date}.csv")
        if not os.path.exists(fan_path):
            continue
        fan = read_fan_csv(fan_path, cfg.step_seconds)
        values, mask = pv[date]
        rep = evaluate(EvalInput(fan=fan, actual=values, mask=mask))
        rows[date] = rep.__dict__
    _atomic_text(out_path, json.dumps(rows, sort_keys=True, indent=1))
    return dict(evaluated=len(rows), out=out_path)


def split_days(dates, split: float, seed: int):
    """Deterministic disjoint/exhaustive train-test split of sorted dates."""
    dates = sorted(dates)
    perm = np.random.default_rng(seed).permutation(len(dates))
    n_train = int(round(split * len(dates)))
    train = [dates[i] for i in sorted(perm[:n_train])]
    test = [dates[i] for i in sorted(perm[n_train:])]
    return train, test


def cmd_e2e(cfg: RunConfig, dataset_dir: str, out_dir: str) -> dict:
    """Full chain on a dataset directory: identify, train, predict,
    simulate, evaluate, and compare against a climatology baseline."""
    t_start = time.time()
    os.makedirs(out_dir, exist_ok=True)
    pv = ingest_pv(os.path.join(dataset_dir, "pv.csv"))
    weather, medians, _ = _load_weather_days(
        os.path.join(dataset_dir, "weather.csv"), cfg)
    dates = sorted(set(pv) & set(weather))
    train_dates, test_dates = split_days(dates, cfg.split, cfg.seed)

    # identify the training days; a day with no valid hour is not trained on
    id_days = {}
    id_flags = {}
    for i, date in enumerate(dates):
        if date not in train_dates:
            continue
        values, mask = pv[date]
        try:
            day, reports = identify_day(values, mask,
                                        step_seconds=cfg.step_seconds,
                                        m=cfg.m, seed=_day_seed(cfg.seed, i))
        except AllHoursInvalidError:
            continue
        id_days[date] = day
        id_flags[date] = [r.flags for r in reports]
    train_dates = [d for d in train_dates if d in id_days]
    write_params_json(os.path.join(out_dir, "params_identified.json"),
                      {d: day_params_to_obj(id_days[d], id_flags[d])
                       for d in train_dates},
                      cfg.step_seconds, cfg.m)

    # train the mapping
    model = train_ensemble([(weather[d], id_days[d]) for d in train_dates],
                           hidden_size=cfg.hidden_size,
                           n_members=cfg.n_members, master_seed=cfg.seed,
                           flags=[[_untrusted(fl) for fl in id_flags[d]]
                                  for d in train_dates],
                           ridge=cfg.ridge, hour_local=cfg.hour_local)
    save_ensemble(model, os.path.join(out_dir, "model"))
    _atomic_text(os.path.join(out_dir, "model", "impute.json"),
                 json.dumps(dict(medians=list(map(float, medians))),
                            sort_keys=True))

    # predict test days
    preds = predict_params_batch(model, [weather[d] for d in test_dates])
    write_params_json(os.path.join(out_dir, "params_predicted.json"),
                      {d: day_params_to_obj(p)
                       for d, p in zip(test_dates, preds)},
                      cfg.step_seconds, cfg.m)

    # climatology baseline from the training days
    train_pv = np.stack([pv[d][0] for d in train_dates])
    clim_median = np.median(train_pv, axis=0)
    clim_pool = train_pv.ravel()

    # simulate and evaluate each test day
    reports = {}
    beats_nd = beats_kl = 0
    for k, date in enumerate(test_dates):
        values, mask = pv[date]
        p0 = float(values[np.argmax(mask)])
        fan = _fan_for_day(preds[k], p0, cfg,
                           seed=_day_seed(cfg.seed, 70000 + k))
        rep = evaluate(EvalInput(fan=fan, actual=values, mask=mask))
        reports[date] = rep
        if rep.nd < nd_metric(clim_median, values, mask):
            beats_nd += 1
        if rep.kl < kl_divergence(values[mask], clim_pool):
            beats_kl += 1

    # slot accuracy against the dataset's generating parameters, if known
    slot_rmse = None
    true_path = os.path.join(dataset_dir, "true_params.json")
    if os.path.exists(true_path):
        doc = read_params_json(true_path)
        T = np.stack([obj_to_day_params(doc["days"][d])[0].as_matrix()
                      for d in test_dates])
        P = np.stack([p.as_matrix() for p in preds])
        slot_rmse = {
            name: float(np.sqrt(np.mean((P[:, i, :] - T[:, i, :]) ** 2))
                        / np.abs(T[:, i, :]).mean())
            for i, name in enumerate(("a", "b", "beta", "c", "d"))}

    # summary artifacts
    header = ("date,picp90,kl,risk50,risk90,nd,nrmse,acf_mismatch\n")
    lines = [f"{d},{reports[d].to_csv_row()}" for d in test_dates]
    _atomic_text(os.path.join(out_dir, "metrics.csv"),
                 header + "\n".join(lines) + "\n")
    n_test = len(test_dates)
    summary = dict(
        n_days=len(dates), n_train=len(train_dates), n_test=n_test,
        picp90_mean=float(np.mean([r.picp90 for r in reports.values()])),
        nd_mean=float(np.mean([r.nd for r in reports.values()])),
        kl_mean=float(np.mean([r.kl for r in reports.values()])),
        nrmse_mean=float(np.mean([r.nrmse for r in reports.values()])),
        acf_mismatch_mean=float(np.mean([r.acf_mismatch
                                         for r in reports.values()])),
        beats_climatology_nd=beats_nd / n_test,
        beats_climatology_kl=beats_kl / n_test,
        slot_rmse=slot_rmse,
        train_rmse_mean=float(np.mean(list(model.train_rmse.values()))),
    )
    _atomic_text(os.path.join(out_dir, "summary.json"),
                 json.dumps(summary, sort_keys=True, indent=1))
    # wall-clock time is reported but kept out of the on-disk artifact so
    # seeded re-runs reproduce the output directory byte for byte
    return dict(summary, seconds=round(time.time() - t_start, 2))
