"""Weather-report CSV ingestion and feature encoding.

Hourly rows carry temperature, humidity, pressure, precipitation, wind
speed and direction, cloud okta, and irradiance.  Wind direction (a
16-point compass label or degrees) is encoded as (sin, cos) of the compass
angle measured clockwise from north, giving 9 numeric features per hour;
a day is the hour-major concatenation over the daytime hour grid.  Missing
numeric fields become NaN at parse time; ``ensemble`` alone fills them,
with its training days' medians (``impute_days``).
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

FEATURE_NAMES = ("temperature", "humidity", "pressure", "precipitation",
                 "wind_speed", "wind_sin", "wind_cos", "cloud", "irradiance")
CSV_COLUMNS = ("timestamp", "temperature", "humidity", "pressure",
               "precipitation", "wind_speed", "wind_direction", "cloud",
               "irradiance")
MAX_MISSING_FRACTION = 0.20

# 16-point compass, degrees clockwise from north.
COMPASS_DEGREES = {
    "N": 0.0, "NNE": 22.5, "NE": 45.0, "ENE": 67.5, "E": 90.0,
    "ESE": 112.5, "SE": 135.0, "SSE": 157.5, "S": 180.0, "SSW": 202.5,
    "SW": 225.0, "WSW": 247.5, "W": 270.0, "WNW": 292.5, "NW": 315.0,
    "NNW": 337.5,
}


class WeatherFormatError(ValueError):
    """Malformed weather CSV content; message carries ``path:line``."""


@dataclass(frozen=True)
class HourGrid:
    """The m consecutive clock hours treated as daytime."""

    start_hour: int = 7
    m: int = 12

    def hours(self):
        return range(self.start_hour, self.start_hour + self.m)


@contextmanager
def _open_utf8(path: str, newline=None):
    """The CSV file at ``path`` read as UTF-8, refused by its path if not."""
    with open(path, encoding="utf-8", newline=newline) as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 ({exc.reason})") from None


def wind_to_angle(token: str, where: str) -> float:
    """Compass degrees of a wind-direction cell; ``where`` (``path:line``)
    prefixes a refusal."""
    token = token.strip()
    if token.upper() in COMPASS_DEGREES:
        return COMPASS_DEGREES[token.upper()]
    try:
        deg = float(token)
    except ValueError:
        raise WeatherFormatError(
            f"{where}: unknown wind direction {token!r}") from None
    if math.isinf(deg):
        raise WeatherFormatError(
            f"{where}: wind_direction {token!r} is not finite")
    return deg % 360.0


def encode_hour(temperature, humidity, pressure, precipitation, wind_speed,
                wind_angle_deg, cloud, irradiance) -> np.ndarray:
    """One hour's 9-feature slice in FEATURE_NAMES order."""
    rad = math.radians(wind_angle_deg)     # NaN (missing) stays NaN
    return np.array([temperature, humidity, pressure, precipitation,
                     wind_speed, math.sin(rad), math.cos(rad), cloud,
                     irradiance], dtype=float)


def _float_field(row, key, where):
    raw = (row.get(key) or "").strip()
    if raw == "":
        return math.nan
    try:
        value = float(raw)
    except ValueError:
        raise WeatherFormatError(
            f"{where}: bad numeric value {raw!r} for {key}") from None
    if math.isinf(value):
        raise WeatherFormatError(f"{where}: {key} {raw!r} is not finite")
    return value


def _validate(row_vals, where):
    hum, precip, cloud = (row_vals["humidity"], row_vals["precipitation"],
                          row_vals["cloud"])
    if np.isfinite(hum) and not 0.0 <= hum <= 100.0:
        raise WeatherFormatError(f"{where}: humidity {hum} out of [0, 100]")
    if np.isfinite(precip) and precip < 0:
        raise WeatherFormatError(f"{where}: negative precipitation {precip}")
    if np.isfinite(cloud) and not 0.0 <= cloud <= 9.0:
        raise WeatherFormatError(f"{where}: cloud okta {cloud} out of [0, 9]")


def ingest_weather(path: str, grid: HourGrid = HourGrid()):
    """Parse a weather CSV into per-day raw feature matrices.

    Returns ``(days, dropped)``: ``days`` is a list of ``(date, features)``
    with features of shape (m * 9,) possibly containing NaN for missing
    fields; ``dropped`` lists dates discarded for exceeding 20% missing.
    A missing column, a malformed row, a numeric cell that reads as an
    infinity or a repeated (date, hour) raises ``WeatherFormatError``
    with ``path:line``; an empty cell is missing.
    """
    per_day: dict[str, dict[int, np.ndarray]] = {}
    with _open_utf8(path, newline="") as f:
        reader = csv.DictReader(f)
        if missing := set(CSV_COLUMNS) - set(reader.fieldnames or ()):
            raise WeatherFormatError(
                f"{path}:1: missing columns {sorted(missing)}")
        for line, row in enumerate(reader, start=2):
            where = f"{path}:{line}"
            ts = (row.get("timestamp") or "").strip()
            date, hour = ts[:10], ts[11:13]
            if (len(ts) < 13 or ts[10] not in "T " or not hour.isdecimal()
                    or int(hour) > 23):
                raise WeatherFormatError(f"{where}: bad timestamp {ts!r}")
            hour = int(hour)
            vals = {k: _float_field(row, k, where)
                    for k in ("temperature", "humidity", "pressure",
                              "precipitation", "wind_speed", "cloud",
                              "irradiance")}
            _validate(vals, where)
            wd_raw = (row.get("wind_direction") or "").strip()
            angle = wind_to_angle(wd_raw, where) if wd_raw else math.nan
            day = per_day.setdefault(date, {})
            if hour in day:
                raise WeatherFormatError(
                    f"{where}: repeated hour {hour:02d} of {date}")
            day[hour] = encode_hour(
                vals["temperature"], vals["humidity"], vals["pressure"],
                vals["precipitation"], vals["wind_speed"], angle,
                vals["cloud"], vals["irradiance"])

    days, dropped = [], []
    for date in sorted(per_day):
        feats = np.full((grid.m, len(FEATURE_NAMES)), np.nan)
        for i, hour in enumerate(grid.hours()):
            if hour in per_day[date]:
                feats[i] = per_day[date][hour]
        if np.isnan(feats).mean() > MAX_MISSING_FRACTION:
            dropped.append(date)
        else:
            days.append((date, feats.ravel()))
    return days, dropped


def nanmedian(X):
    """Column medians of the non-NaN entries of X (N, k), NaN for a column
    with none: ``np.nanmedian(X, axis=0)`` bit for bit below 600 rows,
    without its ``numpy.ma`` import.  The middle pair of the sorted column
    (NaN last) is summed from +0.0, as ``numpy.ma.median`` sums, so a tie of
    -0.0 and 0.0 gives 0.0."""
    n = len(X) - np.isnan(X).sum(axis=0)
    mid = np.take_along_axis(np.sort(X, axis=0),
                             np.stack([(n - 1) // 2, n // 2]), axis=0)
    with np.errstate(all="ignore"):
        return mid.sum(axis=0) / 2


def impute_days(X, medians=None):
    """Fill the NaN features of the day rows of ``X`` (N, m * p) with
    medians; returns the filled matrix and the medians.

    ``medians`` (per flattened feature position) defaults to the medians of
    the given days' valid values (0.0 where a position has none or the
    median is not finite), and is returned so a training-set fit can be
    reused on test days.
    """
    X = np.asarray(X, dtype=float)
    if medians is None:
        medians = nanmedian(X)
        medians = np.where(np.isfinite(medians), medians, 0.0)
    return np.where(np.isnan(X), medians, X), medians


def write_weather_csv(f, rows) -> None:
    """Inverse of ingest_weather for generated datasets: write ``rows``,
    dicts keyed by CSV_COLUMNS, to the text file ``f`` (opened with
    ``newline=""``)."""
    writer = csv.DictWriter(f, fieldnames=list(CSV_COLUMNS))
    writer.writeheader()
    writer.writerows(rows)
