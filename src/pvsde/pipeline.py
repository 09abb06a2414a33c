"""Batch workflow: dataset generation, identification, mapping training,
prediction, simulation, and evaluation.

All commands are deterministic under a master seed.  A day's parameters
are a function of its PV samples alone and its fan's seed one of (master
seed, date label) alone, so neither depends on the other days of its
input file; the ensemble's member streams derive from the master seed.
Every artifact is written atomically (temp file + rename) and is
re-ingestible by the command that consumes it.  A fan is a CSV under the
one header ``_FAN_HEADER`` and its paths as ``.npy``, which the model's
``_read_array`` reads.  Every stage steps the same discrete 30-second
Euler chain, so identified parameters mean the same thing throughout, and
each hour's parameters are predicted from that hour's weather alone.  A
day's parameters stay one ``DayParams`` between the stages; their file is
read by ``_params_days`` alone and written from ``day_params_to_obj``.
``cmd_e2e`` runs every stage through the helpers its command uses.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from operator import itemgetter

import numpy as np

from .ensemble import (DEFAULT_HIDDEN, DEFAULT_MEMBERS, MIN_SLOT_PAIRS,
                       PARAM_NAMES, _atomic, _read_array, _read_object,
                       load_ensemble, predict_params_batch, save_ensemble,
                       train_ensemble)
# no stage calls identify_day; pvsdebench's tracer patches it under this
# module's name
from .estimation import (UNTRUSTED_FLAGS, identify_day,  # noqa: F401
                         identify_days)
from .metrics import (EvalInput, MetricReport, evaluate, kl_divergence,
                      nd as nd_metric)
from .sde import (DEFAULT_QUANTILE_LEVELS, DayParams, SimulationFan,
                  make_fan, samples_per_hour)
from .synth import synth_generate
from .weather import (CSV_COLUMNS, HourGrid, _open_utf8, ingest_weather,
                      nanmedian, write_weather_csv)

PARAMS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; defaults follow the reference experiment."""

    m: int = 12
    start_hour: int = 7
    hidden_size: int = DEFAULT_HIDDEN
    n_members: int = DEFAULT_MEMBERS
    seed: int = 0
    split: float = 0.70
    n_paths: int = 1000
    step_seconds: float = 30.0
    n_days: int = 400
    dump_paths: int = 200

    def __post_init__(self):
        if not 0.0 < self.split < 1.0:
            raise ValueError("split must be in (0, 1)")
        # a size below one would fail only deep inside a command, e.g. a
        # fan file with no sample paths cannot be evaluated
        for name in ("m", "hidden_size", "n_members", "n_paths", "n_days",
                     "dump_paths"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.step_seconds <= 3600:   # at least a sample an hour
            raise ValueError("step_seconds must be in (0, 3600]")
        if not 0 <= self.start_hour <= 24 - self.m:     # inside one day
            raise ValueError(f"start_hour must be in [0, 24 - m] (m = "
                             f"{self.m}), got {self.start_hour}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def grid(self) -> HourGrid:
        return HourGrid(start_hour=self.start_hour, m=self.m)

    @property
    def day_length(self) -> int:    # samples in a day of the grid
        return self.m * samples_per_hour(self.step_seconds)


def load_config(path: str | None, overrides=None) -> RunConfig:
    """Read a flat ``key = value`` config file; later overrides win."""
    values = {}
    if path is not None:
        # every field is an int or a float (annotations are strings here)
        types = {f.name: int if f.type == "int" else float
                 for f in fields(RunConfig)}
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
                try:
                    values[key] = types[key](raw)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
    cfg = RunConfig(**values)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _day_seed(master: int, date: str) -> int:
    """The seed of a day's fan, a function of the master seed and the date
    label alone.  The label is hashed as text, not parsed: synthetic
    labels such as 2018-02-30 are not calendar dates."""
    return int(np.random.SeedSequence([master, *date.encode()])
               .generate_state(1)[0])


# ---------------------------------------------------------------------------
# parameter-set JSON (identification export / prediction output)


def day_params_to_obj(day: DayParams, flags=None):
    return [dict(zip(PARAM_NAMES, col),
                 flags=list(flags[i]) if flags is not None else [])
            for i, col in enumerate(day.theta.T.tolist())]


def obj_to_day_params(obj) -> tuple[DayParams, list]:
    """A parameter file's day, a list of hour objects, as its ``DayParams``
    and each hour's flags.  An hour that is not an object holding five
    finite numbers a, b, beta, c and d, or whose ``flags`` is present but
    not a list of strings, is refused by its index."""
    for i, hour in enumerate(obj):
        # a bool is no number; NaN, infinities and ints past the largest
        # double fail the bound
        if not (isinstance(hour, dict) and all(
                type(hour.get(k)) in (int, float)
                and abs(hour[k]) <= sys.float_info.max for k in PARAM_NAMES)):
            raise ValueError(f"hour {i} is not an object of five finite "
                             "numbers a, b, beta, c and d")
        flags = hour.get("flags", [])
        if not (isinstance(flags, list)
                and all(isinstance(f, str) for f in flags)):
            raise ValueError(f"hour {i} has flags that are not a list of "
                             "strings")
    return (DayParams([[hour[k] for hour in obj] for k in PARAM_NAMES]),
            [tuple(hour.get("flags", ())) for hour in obj])


def write_params_json(path: str, days: dict, step_seconds: float, m: int):
    """Write the days ``{date: (DayParams, flags or None)}``."""
    doc = dict(schema_version=PARAMS_SCHEMA_VERSION,
               step_seconds=step_seconds, m=m,
               days={date: day_params_to_obj(day, flags)
                     for date, (day, flags) in sorted(days.items())})
    with _atomic(path) as f:
        f.write(json.dumps(doc, sort_keys=True, indent=1))


def read_params_json(path: str):
    """The parameter file at ``path`` as its JSON object, refused with its
    name unless it is of this schema and its ``days`` is an object."""
    doc = _read_object(path)
    if doc.get("schema_version") != PARAMS_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported parameter file schema")
    if not isinstance(doc.get("days"), dict):
        raise ValueError(f"{path}: days is not an object of dates")
    return doc


def _params_days(cfg: RunConfig, path: str) -> dict:
    """The days ``{date: (DayParams, flags)}`` of the parameter file at
    ``path``, refused unless it was written on the config's hour grid
    (``m`` and ``step_seconds``) and every day is a list of ``m`` hours
    that ``obj_to_day_params`` reads; a refusal names the file, and the
    day and hour at fault."""
    doc = read_params_json(path)
    grid = (doc.get("m"), doc.get("step_seconds"))
    if grid != (cfg.m, cfg.step_seconds):
        raise ValueError(f"{path}: written for m = {grid[0]}, step_seconds = "
                         f"{grid[1]}; the config has m = {cfg.m}, "
                         f"step_seconds = {cfg.step_seconds}")
    days = {}
    for date, obj in sorted(doc["days"].items()):
        n = len(obj) if isinstance(obj, list) else "no list of"
        if n != cfg.m:
            raise ValueError(f"{path}: day {date} holds {n} hours, "
                             f"m = {cfg.m}")
        try:
            days[date] = obj_to_day_params(obj)
        except ValueError as exc:
            raise ValueError(f"{path}: day {date} {exc}") from None
    return days


# ---------------------------------------------------------------------------
# PV CSV


def write_pv_csv(path: str, dates, pv_days, masks=None) -> None:
    """Write ``date,step,power,valid`` rows, CRLF-terminated, each power as
    ``repr`` of its float (which round-trips it) and valid as 0 or 1."""
    steps = [f",{i}," for i in range(max(map(len, pv_days), default=0))]
    with _atomic(path, newline="") as f:
        f.write("date,step,power,valid\r\n")
        for j, date in enumerate(dates):
            values = np.asarray(pv_days[j], dtype=float).tolist()
            valid = ([1] * len(values) if masks is None else np.asarray(
                masks[j], dtype=bool).astype(np.uint8).tolist())
            f.write("".join([f"{date}{s}{v!r},{ok}\r\n"
                             for s, v, ok in zip(steps, values, valid)]))


def ingest_pv(path: str, dates, day_length: int):
    """Read the per-day normalized PV table -> {date: (values, mask)}.

    ``dates``, a set of date labels, keeps the rows of those days only
    (None keeps every day): the rows of other days are dropped once their
    date cell is read, so nothing else of them is checked.  Every day is
    ``day_length`` samples, each at its ``step`` index; a step a day lacks,
    past its last row too, is masked (value 0).  A malformed row, a step
    at or past ``day_length``, a repeated (date, step) or a valid sample
    whose power is not finite is reported as ``path:line``, before any day
    is sized.

    Lines are read about a megabyte at a time, split by ``_pv_cells`` (a
    quoted cell may not span lines), and a chunk's rows become arrays
    before the next is read.  Only a table that fails a check is read
    again, to name its first bad line.
    """
    need = ("date", "step", "power", "valid")
    with _open_utf8(path) as f:         # \r\n and \r are read as \n
        header = next(csv.reader([f.readline()]), [])
        if not set(need) <= set(header):
            raise ValueError(f"PV CSV must have columns {sorted(need)}")
        spec = ([header.index(name) for name in need], len(header), dates)
        index, chunks = {}, []
        try:
            while lines := f.readlines(1 << 20):
                day, step, power, valid = _pv_cells(lines, *spec)
                n = len(day)
                chunks.append((_day_codes(day, index),
                               np.fromiter(map(int, step), np.int64, n),
                               np.fromiter(map(float, power), float, n),
                               np.fromiter(map(int, valid), bool, n)))
        except (IndexError, ValueError, OverflowError):
            _pv_locate(path, *spec, day_length)
    if not index:                   # no row kept
        return {}
    day, step, power, valid = map(np.concatenate, zip(*chunks))
    del chunks                      # before the repeat check's arrays
    if (step.min() < 0 or step.max() >= day_length
            or np.bincount(day * day_length + step).max() > 1
            or (valid & ~np.isfinite(power)).any()):
        _pv_locate(path, *spec, day_length)
    values = np.zeros((len(index), day_length))
    mask = np.zeros((len(index), day_length), dtype=bool)
    values[day, step], mask[day, step] = power, valid
    return {date: (values[k], mask[k]) for date, k in index.items()}


def _day_codes(dates, index: dict):
    """Each date's number in ``index``, which numbers new dates in order of
    first appearance."""
    for date in dict.fromkeys(dates):
        index.setdefault(date, len(index))
    return np.fromiter(map(index.__getitem__, dates), np.intp, len(dates))


def _pv_cells(lines, cols, width: int, keep) -> list:
    """Lists of the date, step, power and valid cells (at ``cols``) of the
    rows of ``lines`` whose date is in ``keep``, or of every row.  A line is
    split at its commas, by ``csv.reader`` if it holds a quote; blank lines
    are skipped; a row without a cell at ``cols`` raises IndexError."""
    get, cells = itemgetter(*cols), []
    for line in filter(None, "".join(lines).split("\n")):
        row = (next(csv.reader([line])) if '"' in line
               else line.split(",", width))
        if keep is None or row[cols[0]] in keep:
            cells += get(row)
    return [cells[k::4] for k in range(4)]


def _pv_locate(path: str, cols, width: int, keep, day_length: int) -> None:
    """Raise with the ``path:line`` of the first row ``ingest_pv`` rejects:
    a kept row without the four cells, a cell that does not parse, a step
    outside 0 <= step < 2**63 or past the day, a repeated (date, step) or
    a valid sample whose power is not finite."""
    seen = set()
    with _open_utf8(path) as f:
        next(f)                                         # the header
        for line_no, line in enumerate(f, start=2):
            try:
                date, step, power, valid = _pv_cells([line], cols, width, keep)
                if not date:                    # blank or dropped
                    continue
                key = (date[0], int(step[0]))
                finite = math.isfinite(float(power[0])) or not int(valid[0])
            except (IndexError, ValueError):
                key = (None, -1)
            if not 0 <= key[1] < 2 ** 63:               # int64 steps
                raise ValueError(f"{path}:{line_no}: malformed PV row")
            if not finite:
                raise ValueError(f"{path}:{line_no}: valid sample {key[1]} "
                                 f"of {key[0]} has power {power[0]}, which "
                                 "is not finite")
            if key[1] >= day_length:
                raise ValueError(f"{path}:{line_no}: step {key[1]} is past "
                                 f"the day's {day_length} samples")
            if key in seen:
                raise ValueError(f"{path}:{line_no}: repeated step "
                                 f"{key[1]} of {key[0]}")
            seen.add(key)


# ---------------------------------------------------------------------------
# fan files: a CSV quantile block and the dumped paths as .npy next to it

_FAN_HEADER = "step,mean," + ",".join(
    "q%02d" % round(100 * lv) for lv in DEFAULT_QUANTILE_LEVELS)


def write_fan_csv(path: str, fan: SimulationFan) -> None:
    """Write the paths as little-endian float64 ``.npy`` next to ``path``,
    then ``path``: ``_FAN_HEADER`` and a row per step in ``%.17g``, which
    round-trips any finite double.  A fan whose CSV exists is whole; a fan
    with no path, which ``read_fan_csv`` would refuse, is not written."""
    if len(fan.paths) < 1:
        raise ValueError(f"{path}: a fan file needs at least one path")
    with _atomic(os.path.splitext(path)[0] + ".npy", "wb") as f:
        np.save(f, np.ascontiguousarray(fan.paths, dtype="<f8"))
    row = "%d" + ",%.17g" * _FAN_HEADER.count(",") + "\n"
    # one format for the block; %d writes the float step as an integer
    block = np.column_stack([np.arange(len(fan.mean)), fan.mean,
                             fan.quantiles.T])
    with _atomic(path) as f:
        f.write(_FAN_HEADER + "\n")
        f.write(row * len(block) % tuple(block.ravel().tolist()))


def read_fan_csv(path: str, step_seconds: float) -> SimulationFan:
    """Read the fan ``write_fan_csv`` wrote to ``path``.  Another header, a
    malformed cell or row, or a step column that does not count the rows
    from 0, is reported as ``path:line``; ``_read_array`` reads the paths
    as float64 (n >= 1, CSV rows), naming the ``.npy`` if it refuses them.
    The block is converted in one call over one split of its text: a row
    with a missing or extra cell shifts the step column, so only a block
    that fails is parsed again row by row, to find the line to name."""
    width = _FAN_HEADER.count(",") + 1
    with open(path) as f:
        if f.readline().strip() != _FAN_HEADER:
            raise ValueError(f"{path}:1: fan header must be {_FAN_HEADER}")
        body = f.read()
    if body and not body.endswith("\n"):
        body += "\n"
    n = body.count("\n")
    try:
        q = np.array(body.replace("\n", ",").split(",")[:-1],
                     dtype=np.float64).reshape(n, width)
        if not (q[:, 0] == np.arange(n)).all():
            raise ValueError("step column out of order")
    except ValueError:
        for step, line in enumerate(body.split("\n")[:-1]):
            try:
                cells = np.array(line.split(","), dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}:{step + 2}: {exc}") from None
            if cells.size != width:
                raise ValueError(f"{path}:{step + 2}: quantile row has "
                                 f"{cells.size} cells, the header "
                                 f"{width}") from None
            if cells[0] != step:
                raise ValueError(f"{path}:{step + 2}: step {cells[0]:g}, "
                                 f"expected {step}") from None
        raise
    paths = _read_array(os.path.splitext(path)[0] + ".npy", (None, n))
    return SimulationFan(paths=paths, step_seconds=step_seconds,
                         quantiles=q[:, 2:].T, mean=q[:, 1])


def _day_fan(cfg: RunConfig, date: str, day: DayParams, p0: float):
    """A day's fan as its file carries it: quantiles and mean over all
    ``n_paths`` paths, and the first ``dump_paths`` paths, C-contiguous as
    ``make_fan`` keeps them (a strided slice of the paths can score
    differently in the last bit from the read-back fan)."""
    return make_fan(day, p0, step_seconds=cfg.step_seconds,
                    n_paths=cfg.n_paths, seed=_day_seed(cfg.seed, date),
                    n_keep=cfg.dump_paths)


# ---------------------------------------------------------------------------
# weather helpers


def _weather_csv_rows(dates, weather_days):
    for date, rows in zip(dates, weather_days):
        for r in rows:
            yield dict(timestamp=f"{date}T{r['hour']:02d}:00",
                       **{k: r[k] for k in CSV_COLUMNS[1:]})


def _load_weather_days(path: str, cfg: RunConfig):
    """``{date: feature row}`` of the weather file's usable days, NaN
    marking a missing cell, and the dates dropped."""
    days, dropped = ingest_weather(path, cfg.grid)
    if not days:
        raise ValueError(f"{path}: no usable weather day ({len(dropped)} "
                         f"dropped for missing fields)")
    return dict(days), dropped


# ---------------------------------------------------------------------------
# stages: each has one implementation, shared by its command and cmd_e2e


def _identify_days(cfg: RunConfig, pv: dict, dates):
    """The identified days ``{date: (DayParams, flags)}`` of ``dates`` and
    the dates that had no valid hour."""
    found = identify_days([pv[date] for date in dates], cfg.step_seconds,
                          cfg.m)
    return ({date: (res[0], [r.flags for r in res[1]])
             for date, res in zip(dates, found) if res is not None},
            [date for date, res in zip(dates, found) if res is None])


def _train(cfg: RunConfig, weather: dict, days: dict, out_dir: str):
    """Train the ensemble on the days ``{date: (DayParams, flags)}`` that
    have weather and save it under ``out_dir``; returns the model and the
    number of days trained on."""
    dates = sorted(set(days) & set(weather))
    model = train_ensemble(
        [weather[d] for d in dates], [days[d][0].theta for d in dates],
        hidden_size=cfg.hidden_size, n_members=cfg.n_members,
        master_seed=cfg.seed,
        flags=[[bool(UNTRUSTED_FLAGS & set(fl)) for fl in days[d][1]]
               for d in dates])
    save_ensemble(model, out_dir)   # manifest.json last: the model is whole
    return model, len(dates)


def _predict(cfg: RunConfig, model, weather: dict, dates, out_path: str):
    """Predict and write the parameters of ``dates``; returns them."""
    preds = predict_params_batch(model, [weather[d] for d in dates])
    write_params_json(out_path, {d: (p, None) for d, p in zip(dates, preds)},
                      cfg.step_seconds, cfg.m)
    return preds


def _initial_state(day: DayParams, values=None, mask=None) -> float:
    """A fan's start: the day's first valid PV sample, else the mid-point
    of the first hour's bounds."""
    if mask is not None and mask.any():
        return float(values[np.argmax(mask)])
    return float(0.5 * day.theta[3:, 0].sum())


def _scorable(values, mask) -> bool:
    """Whether the metrics are defined on a day's actual series: the
    variogram score needs two consecutive valid samples, the normalized
    errors and the rho-risk a nonzero valid sample."""
    return bool((mask[1:] & mask[:-1]).any()
                and np.abs(values[mask]).sum() > 0)


def _evaluate_days(pv: dict, dates, fan_of, out_path: str):
    """Score each of ``dates`` against its actual PV with the fan
    ``fan_of(date)`` and write the reports to ``out_path`` (eval.json).
    Returns the reports and the dates skipped because ``pv`` has no rows of
    them or the metrics are undefined on their actual series; a skipped
    day's fan is not built."""
    reports, skipped = {}, []
    for date in dates:
        if date not in pv or not _scorable(*pv[date]):
            skipped.append(date)
            continue
        values, mask = pv[date]
        reports[date] = evaluate(EvalInput(fan=fan_of(date), actual=values,
                                           mask=mask))
    with _atomic(out_path) as f:
        f.write(json.dumps({d: r.__dict__ for d, r in reports.items()},
                           sort_keys=True, indent=1))
    return reports, skipped


def _climatology(pv: dict, dates):
    """Per-step median and pool of the valid PV samples of ``dates``; a
    step no day observed takes the median interpolated between its
    neighbours."""
    values = np.stack([pv[d][0] for d in dates])
    valid = np.stack([pv[d][1] for d in dates])
    seen = valid.any(axis=0)
    steps = np.arange(values.shape[1])
    median = nanmedian(np.where(valid, values, np.nan)[:, seen])
    return np.interp(steps, steps[seen], median), values[valid]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig, out_dir: str) -> dict:
    """Generate a synthetic dataset directory."""
    os.makedirs(out_dir, exist_ok=True)
    dates, weather, pv, params = synth_generate(
        np.random.default_rng(cfg.seed), cfg.n_days, cfg.grid,
        cfg.step_seconds)
    with _atomic(os.path.join(out_dir, "weather.csv"), newline="") as f:
        write_weather_csv(f, _weather_csv_rows(dates, weather))
    write_pv_csv(os.path.join(out_dir, "pv.csv"), dates, pv)
    write_params_json(os.path.join(out_dir, "true_params.json"),
                      {date: (day, None) for date, day in zip(dates, params)},
                      cfg.step_seconds, cfg.m)
    return dict(n_days=len(dates), out=out_dir)


def cmd_identify(cfg: RunConfig, pv_path: str, out_path: str) -> dict:
    """Identify per-hour parameters for every day of a PV table."""
    pv = ingest_pv(pv_path, None, cfg.day_length)
    days, rejected = _identify_days(cfg, pv, sorted(pv))
    write_params_json(out_path, days, cfg.step_seconds, cfg.m)
    return dict(identified=len(days), rejected=rejected, out=out_path)


def cmd_train(cfg: RunConfig, weather_path: str, params_path: str,
              out_dir: str) -> dict:
    """Train the weather-to-parameter ensemble from identified days."""
    t0 = time.perf_counter()
    days = _params_days(cfg, params_path)
    weather, dropped = _load_weather_days(weather_path, cfg)
    _, n_days = _train(cfg, weather, days, out_dir)
    return dict(days=n_days, dropped=dropped,
                seconds=round(time.perf_counter() - t0, 2), out=out_dir)


def cmd_predict(cfg: RunConfig, model_dir: str, weather_path: str,
                out_path: str) -> dict:
    """Map weather days to predicted parameters with a trained ensemble."""
    model = load_ensemble(model_dir)
    weather, dropped = _load_weather_days(weather_path, cfg)
    preds = _predict(cfg, model, weather, sorted(weather), out_path)
    return dict(predicted=len(preds), dropped=dropped, out=out_path)


def cmd_simulate(cfg: RunConfig, params_path: str, out_dir: str,
                 pv_path: str | None = None) -> dict:
    """Simulate a forecast fan per day of a parameter file.

    The initial state is the day's first valid PV sample when a PV table
    is supplied, otherwise the midpoint of the first hour's bounds.  Only
    the PV rows of the parameter file's days are read.
    """
    days = _params_days(cfg, params_path)
    os.makedirs(out_dir, exist_ok=True)
    pv = ingest_pv(pv_path, set(days), cfg.day_length) if pv_path else {}
    for date, (day, _) in sorted(days.items()):
        fan = _day_fan(cfg, date, day, _initial_state(day, *pv.get(date, ())))
        write_fan_csv(os.path.join(out_dir, f"fan_{date}.csv"), fan)
    return dict(days=len(days), out=out_dir)


def cmd_evaluate(cfg: RunConfig, fan_dir: str, pv_path: str,
                 out_path: str) -> dict:
    """Score every day with a fan file against its actual PV, reading only
    those days' PV rows; days without PV rows or that the metrics are
    undefined on are listed as skipped, and a fan of another step count
    than the config's day is refused."""
    fans = {os.path.basename(f)[4:-4]: f for f in glob.glob(
        os.path.join(glob.escape(fan_dir), "fan_*.csv"))}

    def fan_of(date):
        fan = read_fan_csv(fans[date], cfg.step_seconds)
        if fan.n_steps != cfg.day_length:
            raise ValueError(
                f"{fans[date]}: fan has {fan.n_steps} steps, the config's "
                f"day {cfg.day_length} (m = {cfg.m} hours of "
                f"{samples_per_hour(cfg.step_seconds)} samples)")
        return fan

    pv = ingest_pv(pv_path, set(fans), cfg.day_length)
    reports, skipped = _evaluate_days(pv, sorted(fans), fan_of, out_path)
    return dict(evaluated=len(reports), skipped=skipped, out=out_path)


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
    simulate, evaluate, and compare against a climatology baseline.

    Every artifact equals its stage command's; the held-out fans are
    scored in memory into the ``eval.json`` that ``cmd_simulate`` +
    ``cmd_evaluate`` write.  A training day with no valid hour is not
    trained on; a held-out day whose actual series cannot be scored is
    listed as skipped and left out of ``n_test`` and the means.
    """
    t_start = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    pv = ingest_pv(os.path.join(dataset_dir, "pv.csv"), None, cfg.day_length)
    weather, _ = _load_weather_days(
        os.path.join(dataset_dir, "weather.csv"), cfg)
    dates = sorted(set(pv) & set(weather))
    train_dates, test_dates = split_days(dates, cfg.split, cfg.seed)
    if not test_dates:
        raise ValueError(f"split = {cfg.split} leaves no held-out day of "
                         f"{len(dates)} days")
    if len(train_dates) < MIN_SLOT_PAIRS:
        raise ValueError(f"split = {cfg.split} leaves {len(train_dates)} "
                         f"training days of {len(dates)} days, training "
                         f"needs >= {MIN_SLOT_PAIRS}")
    true_path, truth = os.path.join(dataset_dir, "true_params.json"), None
    if os.path.exists(true_path):       # generating parameters: slot RMSE
        truth = _params_days(cfg, true_path)
        if lacking := sorted(set(test_dates) - set(truth)):
            raise ValueError(f"{true_path}: lacks held-out days {lacking}")

    identified, _ = _identify_days(cfg, pv, train_dates)
    write_params_json(os.path.join(out_dir, "params_identified.json"),
                      identified, cfg.step_seconds, cfg.m)
    model, n_train = _train(cfg, weather, identified,
                            os.path.join(out_dir, "model"))
    preds = _predict(cfg, model, weather, test_dates,
                     os.path.join(out_dir, "params_predicted.json"))
    clim_median, clim_pool = _climatology(pv, sorted(identified))

    pred_of = dict(zip(test_dates, preds))
    reports, skipped = _evaluate_days(
        pv, test_dates,
        lambda d: _day_fan(cfg, d, pred_of[d],
                           _initial_state(pred_of[d], *pv[d])),
        os.path.join(out_dir, "eval.json"))
    if not reports:
        raise ValueError("no held-out day can be scored")
    beats_nd = sum(rep.nd < nd_metric(clim_median, *pv[d])
                   for d, rep in reports.items())
    beats_kl = sum(rep.kl < kl_divergence(pv[d][0][pv[d][1]], clim_pool)
                   for d, rep in reports.items())

    slot_rmse = None
    if truth is not None:
        T = np.stack([truth[d][0].theta for d in test_dates])
        P = np.stack([p.theta for p in preds])
        slot_rmse = {
            name: float(np.sqrt(np.mean((P[:, i, :] - T[:, i, :]) ** 2))
                        / np.abs(T[:, i, :]).mean())
            for i, name in enumerate(PARAM_NAMES)}

    n_test = len(reports)
    summary = dict(
        n_days=len(dates), n_train=n_train, n_test=n_test,
        **{f"{f.name}_mean": float(np.mean([getattr(r, f.name)
                                            for r in reports.values()]))
           for f in fields(MetricReport)},
        beats_climatology_nd=beats_nd / n_test,
        beats_climatology_kl=beats_kl / n_test,
        slot_rmse=slot_rmse,
        train_rmse_mean=float(np.mean(list(model.train_rmse.values()))),
    )
    with _atomic(os.path.join(out_dir, "summary.json")) as f:
        f.write(json.dumps(summary, sort_keys=True, indent=1))
    # wall-clock time is reported but kept out of the on-disk artifact so
    # seeded re-runs reproduce the output directory byte for byte
    return dict(summary, skipped=skipped,
                seconds=round(time.perf_counter() - t_start, 2))
