"""Synthetic weather-and-PV dataset generator with a known smooth
weather-to-parameter map.

Each day draws a weather regime on a clear-to-overcast continuum, renders
hourly weather reports around it, maps each hour's (humidity, cloud,
irradiance) through fixed bounded sums of sigmoids to Jacobi-diffusion
parameters, and simulates the day's normalized PV series from those
parameters.  Humidity is the dominant driver, so days that differ mainly
in humidity order their parameters the way real clear and cloudy hours do
(higher mean level and lower volatility when dry).
"""

from __future__ import annotations

import math

import numpy as np

from .sde import (A_CAP_UNITS, TIME_UNIT_SECONDS, DayParams, euler_paths,
                  samples_per_hour)
from .weather import COMPASS_DEGREES, HourGrid

IRRADIANCE_SCALE = 3.5      # MJ/m^2 roughly spanning the observed range
_COMPASS = tuple(COMPASS_DEGREES)


def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def _raw_params(humidity, cloud, irradiance):
    """Ground-truth smooth map from one hour's weather to a, b, beta, c, d,
    before ``DayParams`` projects them."""
    uh = humidity / 100.0
    uc = cloud / 9.0
    ui = irradiance / IRRADIANCE_SCALE
    g = _sig(4.5 - 7.0 * uh + 1.2 * ui - 0.8 * uc)          # clearness
    b = 0.12 + 0.76 * g
    beta = 0.06 + 0.14 * _sig(6.0 * uh - 3.6 + 1.0 * uc)
    a = 0.14 + 0.22 * _sig(2.0 * ui - 1.5 * uh + 0.2)
    # smooth proportional gaps keep 0 < c < b < d < 1 without clipping
    c = b * (0.88 - 0.45 * _sig(3.0 * (uc + uh) - 3.3))
    d = b + 1.4 * b * (1.0 - b) * (0.30 + 0.50 * _sig(1.5 - 3.0 * uh))
    return a, b, beta, c, d


def _day_weather(rng, grid: HourGrid):
    """Hourly weather rows for one day on a clear-to-overcast continuum."""
    r = rng.uniform(0.0, 1.0)                     # regime: 0 clear, 1 foul
    temp0 = rng.uniform(16.0, 30.0)
    press0 = rng.uniform(995.0, 1020.0) - 6.0 * r
    wind0 = rng.uniform(1.0, 13.0)
    direction = _COMPASS[rng.integers(0, len(_COMPASS))]
    rows = []
    m = grid.m
    for i, hour in enumerate(grid.hours()):
        frac = (i + 0.5) / m
        bell = math.sin(math.pi * frac)           # midday irradiance bump
        humidity = min(max(35.0 + 58.0 * r + rng.normal(0.0, 4.0), 15.0),
                       100.0)
        cloud = float(min(max(round(9.0 * _sig(5.0 * (r - 0.4))
                                    + rng.normal(0.0, 0.7)), 0), 9))
        irradiance = min(max(3.3 * bell * (1.0 - 0.75 * r)
                             + rng.normal(0.0, 0.08), 0.02), IRRADIANCE_SCALE)
        precip = float(max(rng.exponential(4.0) if r > 0.85 else 0.0, 0.0))
        rows.append(dict(
            hour=hour,
            temperature=round(temp0 + 4.0 * bell + rng.normal(0.0, 0.4), 2),
            humidity=round(humidity, 1),
            pressure=round(press0 + rng.normal(0.0, 0.5), 1),
            precipitation=round(precip, 1),
            wind_speed=round(abs(wind0 + rng.normal(0.0, 1.0)), 3),
            wind_direction=direction,
            cloud=cloud,
            irradiance=round(irradiance, 3),
        ))
    return rows


def synth_generate(rng, n_days: int = 400, grid: HourGrid = HourGrid(),
                   step_seconds: float = 30.0):
    """Generate ``(dates, weather_rows, pv_days, true_params)`` for n_days.

    ``weather_rows``: per day, a list of hourly dicts (1-hour reports);
    ``pv_days``: per day, the normalized PV array of m * 3600/step samples;
    ``true_params``: per day, the generating DayParams, its a at most
    ``A_CAP_UNITS / dt`` so that one Euler step per sample stays stable.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    m = grid.m
    n_hour = samples_per_hour(step_seconds)
    dt = step_seconds / TIME_UNIT_SECONDS
    weather_days, params_days = [], []
    params = np.empty((m, 5, n_days))
    noise = np.empty((m * n_hour, n_days))
    for j in range(n_days):
        rows = _day_weather(rng, grid)
        theta = np.transpose([_raw_params(r["humidity"], r["cloud"],
                                          r["irradiance"]) for r in rows])
        theta[0] = np.minimum(theta[0], A_CAP_UNITS / dt)
        day = DayParams(theta)
        params[:, :, j] = day.theta.T
        noise[:, j] = rng.standard_normal(m * n_hour)
        weather_days.append(rows)
        params_days.append(day)
    # Every day is one path of the kernel, started mid-way between its
    # first hour's bounds.  One Euler step per sample: the generated series
    # follows the same discrete-time transition the identification stage
    # inverts.
    p0 = 0.5 * (params[0, 3] + params[0, 4])
    pv = euler_paths(params, p0, dt, n_hour, [1] * m, noise)
    pv_days = list(np.ascontiguousarray(pv.T))
    dates = [_date_label(j) for j in range(n_days)]
    return dates, weather_days, pv_days, params_days


def _date_label(day_idx: int) -> str:
    """Synthetic calendar labels: sequential days starting 2018-01-01."""
    # 30-day months keep the labels simple and strictly ordered.
    year = 2018 + day_idx // 360
    month = (day_idx % 360) // 30 + 1
    day = day_idx % 30 + 1
    return f"{year:04d}-{month:02d}-{day:02d}"
