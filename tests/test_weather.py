"""Tests for weather CSV ingestion and feature encoding."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsde.weather import (COMPASS_DEGREES, FEATURE_NAMES, HourGrid,
                           WeatherFormatError, encode_hour, impute_days,
                           ingest_weather, wind_to_angle, write_weather_csv)

HEADER = ("timestamp,temperature,humidity,pressure,precipitation,"
          "wind_speed,wind_direction,cloud,irradiance\n")


def _write(tmp_path, body):
    path = tmp_path / "weather.csv"
    path.write_text(HEADER + body)
    return str(path)


def _full_day(date, start=7, m=3, **overrides):
    lines = []
    for h in range(start, start + m):
        row = dict(temperature=24.1, humidity=57, pressure=1004.4,
                   precipitation=0, wind_speed=11.3, wind_direction="E",
                   cloud=6, irradiance=2.27)
        row.update(overrides)
        lines.append(f"{date}T{h:02d}:00," + ",".join(
            str(row[k]) for k in ("temperature", "humidity", "pressure",
                                  "precipitation", "wind_speed",
                                  "wind_direction", "cloud", "irradiance")))
    return "\n".join(lines) + "\n"


GRID = HourGrid(start_hour=7, m=3)


class TestWindEncoding:
    def test_sixteen_point_compass(self):
        assert wind_to_angle("N", 1) == 0.0
        assert wind_to_angle("E", 1) == 90.0
        assert wind_to_angle("S", 1) == 180.0
        assert wind_to_angle("ssw", 1) == 202.5

    def test_numeric_degrees_accepted(self):
        assert wind_to_angle("423.5", 1) == pytest.approx(63.5)

    def test_unknown_token_has_line_number(self):
        with pytest.raises(WeatherFormatError, match="line 12"):
            wind_to_angle("EAST?", 12)

    def test_east_maps_to_unit_sin(self):
        feats = encode_hour(24.1, 57, 1004.4, 0, 11.3,
                            COMPASS_DEGREES["E"], 6, 2.27)
        i_sin = FEATURE_NAMES.index("wind_sin")
        i_cos = FEATURE_NAMES.index("wind_cos")
        assert feats[i_sin] == pytest.approx(1.0)
        assert feats[i_cos] == pytest.approx(0.0, abs=1e-12)


class TestIngest:
    def test_parses_full_day(self, tmp_path):
        days, dropped = ingest_weather(
            _write(tmp_path, _full_day("2018-01-05")), GRID)
        assert dropped == []
        assert len(days) == 1
        date, feats = days[0]
        assert date == "2018-01-05"
        assert feats.shape == (3 * 9,)
        assert feats[FEATURE_NAMES.index("humidity")] == 57.0
        assert np.isfinite(feats).all()

    def test_missing_hour_becomes_nan(self, tmp_path):
        # one of five hours missing = exactly 20%, which is still kept
        body = "\n".join(_full_day("2018-01-05", m=5).splitlines()[:-1])
        grid5 = HourGrid(start_hour=7, m=5)
        days, dropped = ingest_weather(_write(tmp_path, body + "\n"), grid5)
        assert dropped == []
        _, feats = days[0]
        assert np.isnan(feats[4 * 9:]).all()
        assert np.isfinite(feats[:4 * 9]).all()

    def test_mostly_missing_day_dropped(self, tmp_path):
        body = _full_day("2018-01-05").splitlines()[0] + "\n"
        days, dropped = ingest_weather(_write(tmp_path, body), GRID)
        assert days == [] and dropped == ["2018-01-05"]

    def test_repeated_hour_rejected_with_line(self, tmp_path):
        body = _full_day("2018-01-01")
        again = body.splitlines()[0].replace("24.1", "30.0")
        path = _write(tmp_path, body + again + "\n")
        with pytest.raises(WeatherFormatError,
                           match="^line 5: repeated hour 07 of 2018-01-01$"):
            ingest_weather(path, GRID)

    def test_bad_okta_rejected_with_line(self, tmp_path):
        path = _write(tmp_path, _full_day("2018-01-05", cloud=10))
        with pytest.raises(WeatherFormatError, match="line 2.*okta"):
            ingest_weather(path, GRID)

    def test_bad_humidity_rejected(self, tmp_path):
        path = _write(tmp_path, _full_day("2018-01-05", humidity=101))
        with pytest.raises(WeatherFormatError, match="humidity"):
            ingest_weather(path, GRID)

    def test_negative_precipitation_rejected(self, tmp_path):
        path = _write(tmp_path, _full_day("2018-01-05", precipitation=-1))
        with pytest.raises(WeatherFormatError, match="precipitation"):
            ingest_weather(path, GRID)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("timestamp,temperature\n2018-01-05T07:00,20\n")
        with pytest.raises(WeatherFormatError, match="missing columns"):
            ingest_weather(str(path), GRID)

    def test_bad_timestamp_rejected(self, tmp_path):
        path = _write(tmp_path, "garbage,1,2,3,4,5,E,6,7\n")
        with pytest.raises(WeatherFormatError, match="timestamp"):
            ingest_weather(path, GRID)

    @pytest.mark.parametrize("ts", ["2018-01-05Tab:00", "2018-01-05T31:00",
                                    "2018-01-05T24:00"])
    def test_timestamp_hour_outside_the_day_rejected(self, tmp_path, ts):
        path = _write(tmp_path, f"{ts},1,2,3,4,5,E,6,7\n")
        with pytest.raises(WeatherFormatError,
                           match=f"line 2: bad timestamp '{ts}'"):
            ingest_weather(path, GRID)

    def test_round_trip_through_writer(self, tmp_path):
        rows = [dict(timestamp=f"2018-01-05T{h:02d}:00", temperature=24.1,
                     humidity=57, pressure=1004.4, precipitation=0,
                     wind_speed=11.3, wind_direction="E", cloud=6,
                     irradiance=2.27) for h in range(7, 10)]
        path = str(tmp_path / "w.csv")
        with open(path, "w", newline="") as f:
            write_weather_csv(f, rows)
        days, dropped = ingest_weather(path, GRID)
        assert len(days) == 1 and dropped == []


class TestImpute:
    def test_fills_nan_with_median(self, tmp_path):
        X, medians = impute_days([[1.0, np.nan], [3.0, 10.0], [5.0, 20.0]])
        assert medians[1] == 15.0
        assert X[0, 1] == 15.0

    def test_training_medians_reused(self):
        _, medians = impute_days([[1.0, 4.0], [3.0, 8.0]])
        X, _ = impute_days([[np.nan, np.nan]], medians)
        np.testing.assert_array_equal(X[0], medians)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 30), f=st.integers(1, 12),
           nan_share=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_medians_are_nanmedians_bit_for_bit(self, n, f, nan_share,
                                                 seed):
        # odd and even valid counts, all-NaN columns and ties of -0.0 and
        # 0.0 against np.nanmedian with its non-finite medians set to 0.0
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 10.0, (n, f))
        tied = rng.random(f) < 0.3
        X[:, tied] = np.round(X[:, tied] / 25.0)
        X[rng.random((n, f)) < nan_share] = np.nan
        X[:, rng.random(f) < 0.2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = np.nanmedian(X, axis=0)
        want = np.where(np.isfinite(want), want, 0.0)
        _, got = impute_days(X)
        assert got.tobytes() == want.tobytes()
