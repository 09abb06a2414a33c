"""Tests for the dataset generator, batch pipeline, and CLI."""

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvsde
from pvsde.cli import main as cli_main
from pvsde.pipeline import (RunConfig, _day_fan, cmd_e2e, cmd_evaluate,
                            cmd_identify, cmd_predict, cmd_simulate,
                            cmd_synth, cmd_train, ingest_pv, load_config,
                            obj_to_day_params, read_fan_csv,
                            read_params_json, split_days, write_fan_csv,
                            write_params_json, write_pv_csv)
from pvsde.ensemble import TrainingError
from pvsde.estimation import identify_day
from pvsde.metrics import MetricReport
from pvsde.sde import (A_CAP_UNITS, DayParams, SdeParams, SimulationFan,
                       make_fan, project_rows)
from pvsde.synth import _raw_params, synth_generate
from pvsde.weather import HourGrid, ingest_weather, write_weather_csv

SMALL = RunConfig(n_days=6, m=3, start_hour=9, n_members=3, hidden_size=10,
                  n_paths=50, seed=1)
E2E = RunConfig(n_days=20, m=3, start_hour=9, n_members=3, hidden_size=10,
                n_paths=50, seed=4, split=0.75, dump_paths=10)
# a bad cell, a missing cell, a negative step and a step past int64
MALFORMED_PV_ROWS = ("2018-01-01,0,oops,1", "2018-01-01,0,0.5",
                     "2018-01-01,-1,0.5,1", f"2018-01-01,{2 ** 63},0.5,1")


class TestSynth:
    def test_shapes_and_determinism(self):
        grid = HourGrid(start_hour=9, m=3)
        d1 = synth_generate(np.random.default_rng(7), 4, grid)
        d2 = synth_generate(np.random.default_rng(7), 4, grid)
        dates, weather, pv, params = d1
        assert len(dates) == len(weather) == len(pv) == len(params) == 4
        assert pv[0].shape == (3 * 120,)
        assert params[0].m == 3
        np.testing.assert_array_equal(pv[0], d2[2][0])

    def test_pv_within_hourly_bounds(self):
        _, _, pv, params = synth_generate(np.random.default_rng(8), 3,
                                          HourGrid(start_hour=9, m=3))
        for series, day in zip(pv, params):
            for i, (c, d) in enumerate(day.theta[3:].T):
                seg = series[i * 120:(i + 1) * 120]
                assert (seg >= c).all() and (seg <= d).all()

    def test_param_map_humidity_ordering(self):
        # drier reports map to higher, steadier production
        clear, cloudy = (SdeParams(*project_rows(_raw_params(*w)).tolist())
                         for w in ((57.0, 6.0, 2.27), (75.0, 6.0, 2.39)))
        assert clear.b > cloudy.b
        assert clear.beta < cloudy.beta

    def test_param_map_outputs_valid(self):
        for h in (0.0, 40.0, 80.0, 100.0):
            for c in (0.0, 5.0, 9.0):
                th = SdeParams(*project_rows(_raw_params(h, c, 1.5))
                               .tolist())
                assert th.c < th.b < th.d and 0 <= th.beta <= 1

    def test_synth_dataset_bytes(self, tmp_path):
        # digests of the np.clip-based generator's files: 40 days whose
        # weather clamps humidity at 100, cloud at 0 and 9 oktas and
        # irradiance at 0.02 (no hour reaches the other two bounds)
        cmd_synth(RunConfig(seed=4, n_days=40), str(tmp_path))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in ("pv.csv", "weather.csv",
                                             "true_params.json")}
        assert digests == {
            "pv.csv": "4de12595b4516ec8f896701781e05b0f"
                      "cf898c6e4a5a1f1f9a78499885cb668a",
            "weather.csv": "5d31af7d723792e8b5d85ca19dae766b"
                           "c8c25b26ddec7d340ca17b0a03e74484",
            "true_params.json": "363e59cedb930499af54e1adf8679a0b"
                                "485701ca2a7e106a44a3071eb9952d12"}


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.m == 12 and cfg.n_members == 50 and cfg.split == 0.70

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n_days = 17\nn_members = 7  # comment\n\n"
                     "# full-line comment\nsplit = 0.5\n")
        cfg = load_config(str(p), dict(seed=9))
        assert cfg.n_days == 17 and cfg.n_members == 7
        assert cfg.split == 0.5 and cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        # ridge is no key: the commands train at ensemble.DEFAULT_RIDGE
        p = tmp_path / "run.cfg"
        for text, line in (("frobnicate = 3\n", 1), ("m = 4\nridge = 2\n", 2)):
            p.write_text(text)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:"
                                                 rf"{line}: unknown key"):
                load_config(str(p))

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(split=1.5)

    @pytest.mark.parametrize("key,bad", [
        ("n_paths", 0), ("n_members", 0), ("hidden_size", 0), ("m", 0),
        ("n_days", 0), ("step_seconds", 0.0), ("step_seconds", -30.0),
        ("start_hour", -1), ("start_hour", 13), ("seed", -1)])
    def test_sizes_that_fail_inside_a_command_rejected(self, key, bad):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: bad})

    def test_malformed_number_names_file_and_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("m = 4\nn_days = 1O\n")
        with pytest.raises(ValueError, match=rf"^{p}:2: invalid literal"):
            load_config(str(p))

    def test_dump_paths_below_one_rejected(self, tmp_path, capsys):
        # fan files with no sample paths cannot be read back for evaluation
        for bad in (0, -1):
            with pytest.raises(ValueError, match="dump_paths"):
                RunConfig(dump_paths=bad)
        p = tmp_path / "run.cfg"
        p.write_text("dump_paths = 0\n")
        with pytest.raises(ValueError, match="dump_paths"):
            load_config(str(p))
        rc = cli_main(["--config", str(p), "synth",
                       "--out", str(tmp_path / "ds")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "dump_paths" in err["message"]
        assert not (tmp_path / "ds").exists()

    def test_step_longer_than_an_hour_rejected(self, tmp_path, capsys):
        # round(3600 / 7200) is 0 samples an hour: such a grid gives a PV
        # table with a header and no rows, which no command can use
        with pytest.raises(ValueError, match="step_seconds"):
            RunConfig(step_seconds=7200.0)
        with pytest.raises(ValueError, match="without a sample"):
            make_fan(DayParams(np.tile([[0.2], [0.5], [0.1], [0.0], [1.0]],
                                       3)), 0.5, step_seconds=7200.0)
        with pytest.raises(ValueError, match="without a sample"):
            identify_day(np.full(3, 0.5), step_seconds=7200.0)
        p = tmp_path / "run.cfg"
        p.write_text("step_seconds = 7200\n")
        rc = cli_main(["--config", str(p), "synth",
                       "--out", str(tmp_path / "ds")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "step_seconds" in err["message"]
        assert not (tmp_path / "ds").exists()


class TestSplit:
    def test_deterministic_and_exhaustive(self):
        dates = [f"d{i:02d}" for i in range(20)]
        tr1, te1 = split_days(dates, 0.7, seed=3)
        tr2, te2 = split_days(list(reversed(dates)), 0.7, seed=3)
        assert tr1 == tr2 and te1 == te2
        assert len(tr1) == 14 and len(te1) == 6
        assert sorted(tr1 + te1) == dates

    def test_different_seeds_differ(self):
        dates = [f"d{i:02d}" for i in range(30)]
        assert split_days(dates, 0.7, 0)[0] != split_days(dates, 0.7, 1)[0]


class TestPvCsv:
    def test_round_trip_with_mask(self, tmp_path):
        path = str(tmp_path / "pv.csv")
        values = np.random.default_rng(0).uniform(0.2, 0.8, 40)
        mask = np.ones(40, dtype=bool)
        mask[5:9] = False
        write_pv_csv(path, ["2018-01-01"], [values], [mask])
        got = ingest_pv(path, None, 40)
        np.testing.assert_array_equal(got["2018-01-01"][0], values)
        np.testing.assert_array_equal(got["2018-01-01"][1], mask)

    def test_synth_table_bytes(self, tmp_path):
        # digest of the table the csv.writer-based writer wrote
        cmd_synth(RunConfig(seed=3, n_days=2, m=2), str(tmp_path))
        data = (tmp_path / "pv.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "152e3fdf0be82aa09328b456124c4d91b5b7c72b4d56a323fd3dcdb9fa01c93e")

    def test_quoted_and_ragged_tables_read_like_plain(self, tmp_path):
        # the row-by-row reader takes quoted cells and rows longer than
        # the header, with any line ending, as csv does
        rows = ["2018-01-02,1,0.7,0", "2018-01-01,0,0.1,1",
                "2018-01-02,0,0.6,1"]
        variants = {
            "plain": "\n".join(rows),
            "quoted": "\r\n".join(f'"{r[:10]}"{r[10:]}' for r in rows),
            "ragged": "\r".join(r + ",x" for r in rows)}
        got = {}
        for name, body in variants.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("date,step,power,valid\n" + body + "\n",
                            newline="")
            got[name] = ingest_pv(str(path), None, 2)
        assert list(got["plain"]) == ["2018-01-02", "2018-01-01"]
        for name in ("quoted", "ragged"):
            assert list(got[name]) == list(got["plain"])
            for date, (values, mask) in got["plain"].items():
                np.testing.assert_array_equal(got[name][date][0], values)
                np.testing.assert_array_equal(got[name][date][1], mask)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "pv.csv"
        for row in ("2018-01-01,0,oops,1", "2018-01-01,0,0.5",
                    "2018-01-01,-1,0.5,1", f"2018-01-01,{2 ** 63},0.5,1"):
            path.write_text(f"date,step,power,valid\n\n{row}\n")
            with pytest.raises(ValueError,
                               match=f"^{path}:3: malformed PV row"):
                ingest_pv(str(path), None, 2)

    def test_a_day_is_read_onto_the_grid(self, tmp_path):
        # rows that stop at step 999 read as 1440-sample days, masked from
        # step 1000 on
        path = str(tmp_path / "pv.csv")
        values = np.random.default_rng(1).uniform(0.2, 0.8, (2, 1000))
        write_pv_csv(path, ["2018-01-01", "2018-01-02"], values)
        got = ingest_pv(path, None, RunConfig().day_length)
        for j, (day, mask) in enumerate(got.values()):
            np.testing.assert_array_equal(day, np.pad(values[j], (0, 440)))
            np.testing.assert_array_equal(mask, np.arange(1440) < 1000)

    def test_sample_sits_at_its_step(self, tmp_path):
        # a step missing from one day is masked, not filled by the next
        # sample; every day is as long as the day length asked for
        path = tmp_path / "pv.csv"
        path.write_text("date,step,power,valid\n"
                        "2018-01-01,0,0.1,1\n2018-01-01,1,0.2,1\n"
                        "2018-01-01,2,0.3,1\n2018-01-01,4,0.5,1\n"
                        "2018-01-02,1,0.7,0\n2018-01-02,0,0.6,1\n")
        got = ingest_pv(str(path), None, 5)
        np.testing.assert_array_equal(got["2018-01-01"][0],
                                      [0.1, 0.2, 0.3, 0.0, 0.5])
        np.testing.assert_array_equal(got["2018-01-01"][1],
                                      [True, True, True, False, True])
        np.testing.assert_array_equal(got["2018-01-02"][0],
                                      [0.6, 0.7, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(got["2018-01-02"][1],
                                      [True, False, False, False, False])

    @pytest.mark.parametrize("order", ["date,step,power,valid",
                                       "step,power,date,valid"])
    def test_one_day_of_a_table_reads_like_its_own_file(self, tmp_path,
                                                        order):
        rng = np.random.default_rng(4)
        dates = [f"2018-01-{d:02d}" for d in range(1, 8)]
        values = rng.uniform(0.0, 1.0, (len(dates), 50))
        masks = rng.random((len(dates), 50)) > 0.2
        write_pv_csv(str(tmp_path / "all.csv"), dates, values, masks)
        write_pv_csv(str(tmp_path / "one.csv"), dates[3:4], values[3:4],
                     masks[3:4])
        cols = order.split(",")
        for name in ("all.csv", "one.csv"):     # reorder the columns
            rows = [r.split(",") for r in
                    (tmp_path / name).read_text().splitlines()]
            at = [rows[0].index(c) for c in cols]
            (tmp_path / name).write_text("".join(
                ",".join(r[i] for i in at) + "\n" for r in rows))
        got = ingest_pv(str(tmp_path / "all.csv"), {dates[3]}, 50)
        want = ingest_pv(str(tmp_path / "one.csv"), None, 50)
        assert list(got) == list(want) == [dates[3]]
        for a, b in zip(got[dates[3]], want[dates[3]]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("power", ["nan", "inf", "-inf", "NaN"])
    def test_valid_sample_that_is_not_finite_names_its_line(self, tmp_path,
                                                            power):
        # a valid sample must hold a number; a masked one may hold any,
        # and only the kept days are checked
        path = tmp_path / "pv.csv"
        write_pv_csv(str(path), ["2018-01-01", "2018-01-02"],
                     np.full((2, 240), 0.5))
        lines = path.read_text().splitlines()
        at = lines.index("2018-01-02,59,0.5,1")
        lines[at] = f"2018-01-02,59,{power},1"
        lines[3] = f"2018-01-01,2,{power},0"
        path.write_text("\n".join(lines) + "\n")
        match = (f"^{re.escape(str(path))}:{at + 1}: valid sample 59 of "
                 f"2018-01-02 has power {power}, which is not finite$")
        for dates in (None, {"2018-01-02"}):
            with pytest.raises(ValueError, match=match):
                ingest_pv(str(path), dates, 240)
        got = ingest_pv(str(path), {"2018-01-01"}, 240)
        assert not got["2018-01-01"][1][2]
        cfg = RunConfig(m=2)
        with pytest.raises(ValueError, match=match):
            cmd_identify(cfg, str(path), str(tmp_path / "params.json"))
        day = DayParams(np.transpose([(0.2, 0.5, 0.1, 0.1, 0.9)] * 2))
        write_params_json(str(tmp_path / "day.json"),
                          {"2018-01-02": (day, None)}, 30.0, 2)
        with pytest.raises(ValueError, match=match):
            cmd_simulate(cfg, str(tmp_path / "day.json"),
                         str(tmp_path / "fans"), str(path))

    def test_repeated_step_rejected(self, tmp_path):
        path = tmp_path / "pv.csv"
        path.write_text("date,step,power,valid\n2018-01-01,0,0.1,1\n"
                        "2018-01-01,1,0.2,1\n2018-01-01,1,0.2,1\n")
        with pytest.raises(ValueError, match=f"^{path}:4: repeated step 1"):
            ingest_pv(str(path), None, 2)

    @pytest.mark.parametrize("row", MALFORMED_PV_ROWS)
    def test_malformed_row_is_checked_only_when_its_day_is_kept(
            self, tmp_path, row):
        # line 6, below blank lines and the rows of a day the filter drops
        path = tmp_path / "pv.csv"
        path.write_text("date,step,power,valid\n\n2018-01-02,0,0.1,1\n"
                        f"2018-01-02,1,0.2,1\n\n{row}\n2018-01-01,1,0.3,1\n")
        got = ingest_pv(str(path), {"2018-01-02"}, 2)
        assert list(got) == ["2018-01-02"]
        for dates in ({"2018-01-01"}, None):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:6:"
                                                 " malformed PV row$"):
                ingest_pv(str(path), dates, 2)

    @pytest.mark.parametrize("row", MALFORMED_PV_ROWS)
    def test_malformed_row_of_a_quoted_table_names_its_line(self, tmp_path,
                                                           row):
        lines = ["date,step,power,valid", "", "2018-01-02,0,0.1,1",
                 "2018-01-02,1,0.2,1", "", row, "2018-01-01,1,0.3,1"]
        quoted = [",".join(f'"{c}"' for c in line.split(",")) if line else ""
                  for line in lines]
        path = tmp_path / "pv.csv"
        path.write_text("\r\n".join(quoted) + "\r\n", newline="")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:6:"
                                             " malformed PV row$"):
            ingest_pv(str(path), None, 2)

    def test_step_past_the_day_names_its_line_before_sizing_a_day(
            self, tmp_path, peak_bytes):
        # a stray step must not size every day of the table, nor overflow
        # the repeat check's (day, step) codes: 240- and 1440-sample days
        path, big = tmp_path / "pv.csv", 2 ** 62
        cases = [(2, "2018-01-01,0,0.1,1\n2018-01-01,1,0.2,1\n"
                     f"2018-01-01,{step},0.3,1\n2018-01-02,0,0.4,1\n", 4, step)
                 for step in (2_000_000, 2 * 10 ** 9)]
        cases += [(12, f"2018-01-01,0,0.1,1\n2018-01-02,{big},0.3,1\n", 3,
                   big), (12, f"2018-01-01,{big},0.3,1\n", 2, big)]
        for m, rows, line, step in cases:
            cfg = RunConfig(m=m)
            path.write_text("date,step,power,valid\n" + rows)
            match = (f"^{re.escape(str(path))}:{line}: step {step} is past "
                     f"the day's {cfg.day_length} samples$")
            with pytest.raises(ValueError, match=match):
                cmd_identify(cfg, str(path), str(tmp_path / "params.json"))

            def read():
                with pytest.raises(ValueError, match=match):
                    ingest_pv(str(path), None, cfg.day_length)
            assert peak_bytes(read) < 1 << 20

    def test_repeated_step_past_the_first_megabyte_names_its_line(
            self, tmp_path):
        rng = np.random.default_rng(8)
        dates = [f"2018-01-{d:02d}" for d in range(1, 31)]
        path = tmp_path / "pv.csv"
        write_pv_csv(str(path), dates, rng.uniform(0.0, 1.0, (30, 1440)))
        lines = path.read_text().splitlines(keepends=True)
        at = 1 + 25 * 1440                  # after the rows of 25 days
        lines.insert(at, "2018-01-03,7,0.5,1\r\n")
        path.write_text("".join(lines), newline="")
        assert len("".join(lines[:at])) > 1 << 20
        for keep in (None, {"2018-01-03"}):
            with pytest.raises(ValueError, match=(
                    f"^{re.escape(str(path))}:{at + 1}: repeated step 7 "
                    "of 2018-01-03$")):
                ingest_pv(str(path), keep, 1440)


class TestFanCsv:
    def test_round_trip(self, tmp_path):
        day = DayParams(np.transpose([(0.2, 0.5, 0.1, 0.1, 0.9)]))
        fan = make_fan(day, 0.5, n_paths=40, seed=2)
        path = str(tmp_path / "fan.csv")
        write_fan_csv(path, replace(fan, paths=fan.paths[:10]))
        got = read_fan_csv(path, 30.0)
        assert got.paths.shape == (10, 120)
        np.testing.assert_array_equal(got.paths, fan.paths[:10])
        np.testing.assert_array_equal(got.quantiles, fan.quantiles)
        np.testing.assert_array_equal(got.mean, fan.mean)
        assert got.quantile_levels == fan.quantile_levels


# sha256 of a day fan's paths, quantiles and mean, with dump_paths below,
# equal to and above n_paths = 300; fixed when a fan's seed became
# SeedSequence([seed, *date.encode()]), with no stage tag
DAY_FAN_SHA256 = {
    7: "58e59f691c9ea90f1b5abbfca206826d9db156938bf37f91af3f641d6f79969b",
    300: "d4ee88a38132b00da198e956db82d1244b3b37d2be9719327a84c60ff609299f",
    500: "d4ee88a38132b00da198e956db82d1244b3b37d2be9719327a84c60ff609299f",
}


@pytest.mark.parametrize("dump_paths", sorted(DAY_FAN_SHA256))
def test_day_fan_bits(dump_paths):
    cfg = RunConfig(m=2, n_paths=300, dump_paths=dump_paths, seed=5)
    day = DayParams(np.transpose([(0.2, 0.6, 0.15, 0.1, 0.95),
                                  (0.3, 0.4, 0.25, 0.05, 0.8)]))
    fan = _day_fan(cfg, "2018-03-04", day, 0.5)
    assert fan.paths.shape == (min(dump_paths, 300), 240)
    assert fan.paths.flags.c_contiguous
    h = hashlib.sha256()
    for x in (fan.paths, fan.quantiles, fan.mean):
        h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    assert h.hexdigest() == DAY_FAN_SHA256[dump_paths]


# doubles whose shortest repr is short, long, subnormal, signed or huge
EDGE_FLOATS = (5e-324, -5e-324, -0.0, 0.0, 1 / 3, 0.1, 1e308, -1e308,
               2.2250738585072014e-308, 0.30000000000000004)


def _fan_file(tmp_path, n_paths=4, n_steps=6):
    day = DayParams(np.transpose([(0.2, 0.5, 0.1, 0.1, 0.9)]))
    fan = make_fan(day, 0.5, n_paths=n_paths, seed=1)
    fan = SimulationFan(paths=fan.paths[:, :n_steps], step_seconds=30.0,
                        quantile_levels=fan.quantile_levels,
                        quantiles=fan.quantiles[:, :n_steps],
                        mean=fan.mean[:n_steps])
    path = tmp_path / "fan.csv"
    write_fan_csv(str(path), fan)
    return path, path.read_text().splitlines()


class TestFanCsvErrors:
    def test_malformed_cell_names_file_and_line(self, tmp_path):
        path, lines = _fan_file(tmp_path)
        cells = lines[3].split(",")
        cells[2] = "oops"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{path}:4: .*oops"):
            read_fan_csv(str(path), 30.0)

    def test_malformed_header_names_file_and_line(self, tmp_path):
        path, lines = _fan_file(tmp_path)
        lines[0] = lines[0].replace("q50", "median")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{path}:1: "):
            read_fan_csv(str(path), 30.0)

    def test_fan_is_a_quantile_csv_and_a_float64_npy(self, tmp_path):
        path, lines = _fan_file(tmp_path)
        assert len(lines) == 1 + 6
        assert [line.split(",")[0] for line in lines[1:]] == list(
            map(str, range(6)))
        paths = np.load(tmp_path / "fan.npy", allow_pickle=False)
        assert paths.dtype == np.dtype("<f8") and paths.shape == (4, 6)
        assert paths.flags.c_contiguous

    def test_row_with_a_cell_moved_to_the_next_names_file_and_line(
            self, tmp_path):
        # the block keeps its size, so only the shifted step column shows it
        path, lines = _fan_file(tmp_path)
        cells = lines[2].split(",")
        lines[2], lines[3] = ",".join(cells[:-1]), lines[3] + "," + cells[-1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{path}:3: quantile row has "
                                             "7 cells, the header 8$"):
            read_fan_csv(str(path), 30.0)

    def test_rows_out_of_order_name_file_and_line(self, tmp_path):
        path, lines = _fan_file(tmp_path)
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{path}:3: step 2, "
                                             "expected 1$"):
            read_fan_csv(str(path), 30.0)

    def test_block_is_formatted_row_by_row_and_read_without_last_eol(
            self, tmp_path):
        path, lines = _fan_file(tmp_path, n_steps=12)
        fan = read_fan_csv(str(path), 30.0)
        row = "%d" + ",%.17g" * 7
        assert lines[1:] == [row % (i, m, *q) for i, (m, q) in enumerate(
            zip(fan.mean, fan.quantiles.T))]
        path.write_text("\n".join(lines))
        again = read_fan_csv(str(path), 30.0)
        assert again.quantiles.tobytes() == fan.quantiles.tobytes()
        assert again.mean.tobytes() == fan.mean.tobytes()

    def test_path_row_of_the_old_layout_names_file_and_line(self, tmp_path):
        # a fan file from before the .npy layout carries P rows
        path, lines = _fan_file(tmp_path)
        lines.append("P" + ",0.5" * 6)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{path}:{len(lines)}: .*'P'"):
            read_fan_csv(str(path), 30.0)

    def test_quantile_block_of_wrong_length_names_the_npy(self, tmp_path):
        path, lines = _fan_file(tmp_path)
        path.write_text("\n".join(lines[:-1]) + "\n")  # last row gone
        npy = tmp_path / "fan.npy"
        with pytest.raises(ValueError, match=f"^{npy}: .*\\(4, 6\\), need "
                                             "float64 \\(n >= 1, 5\\)"):
            read_fan_csv(str(path), 30.0)

    @pytest.mark.parametrize("paths", [
        np.full((4, 6), 0.5, dtype=np.float32),
        np.full(6, 0.5),                            # 1-D
        np.empty((0, 6)),                           # no path
    ], ids=["float32", "1-D", "empty"])
    def test_paths_of_wrong_shape_or_dtype_name_the_npy(self, tmp_path,
                                                        paths):
        path, _ = _fan_file(tmp_path)
        npy = tmp_path / "fan.npy"
        np.save(npy, paths)
        with pytest.raises(ValueError, match=f"^{npy}: fan paths are "):
            read_fan_csv(str(path), 30.0)

    def test_missing_paths_name_the_npy(self, tmp_path):
        path, _ = _fan_file(tmp_path)
        npy = tmp_path / "fan.npy"
        npy.unlink()
        with pytest.raises(ValueError, match=f"^{npy}: unreadable"):
            read_fan_csv(str(path), 30.0)

    @pytest.mark.parametrize("levels, n_keep, why", [
        ((0.025, 0.5, 0.975), None,
         "quantile level 0.025 is not a whole percent"),
        (None, 0, "a fan file needs at least one path"),
    ], ids=["level", "no-path"])
    def test_fan_that_would_not_read_back_is_not_written(self, tmp_path,
                                                         levels, n_keep, why):
        # q02 would read back as 0.02; a (0, n) .npy is refused on reading
        day = DayParams(np.transpose([(0.2, 0.5, 0.1, 0.1, 0.9)]))
        fan = make_fan(day, 0.5, n_paths=4, seed=1, n_keep=n_keep)
        if levels is not None:
            fan = replace(fan, quantile_levels=levels,
                          quantiles=np.quantile(fan.paths, levels, axis=0))
        path = tmp_path / "fan.csv"
        with pytest.raises(ValueError, match=f"^{path}: {why}"):
            write_fan_csv(str(path), fan)
        assert list(tmp_path.iterdir()) == []

    def test_pickled_paths_are_refused(self, tmp_path):
        path, _ = _fan_file(tmp_path)
        npy = tmp_path / "fan.npy"
        np.save(npy, np.array([[0.5] * 6] * 4, dtype=object),
                allow_pickle=True)
        with pytest.raises(ValueError, match=f"^{npy}: unreadable.*pickle"):
            read_fan_csv(str(path), 30.0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fan_file_round_trip_is_bit_exact(tmp_path_factory, data):
    n_paths = data.draw(st.integers(1, 4))
    n_steps = data.draw(st.integers(1, 8))
    cell = st.one_of(st.sampled_from(EDGE_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False))
    grid = st.lists(cell, min_size=n_steps * (n_paths + 6),
                    max_size=n_steps * (n_paths + 6))
    values = np.array(data.draw(grid)).reshape(n_paths + 6, n_steps)
    fan = SimulationFan(paths=values[:n_paths], step_seconds=30.0,
                        quantile_levels=(0.05, 0.25, 0.5, 0.75, 0.95),
                        quantiles=values[n_paths:-1], mean=values[-1])
    path = str(tmp_path_factory.mktemp("fan") / "fan.csv")
    write_fan_csv(path, fan)
    got = read_fan_csv(path, 30.0)
    assert got.paths.tobytes() == fan.paths.tobytes()
    assert got.quantiles.tobytes() == fan.quantiles.tobytes()
    assert got.mean.tobytes() == fan.mean.tobytes()
    assert got.quantile_levels == fan.quantile_levels


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pv_table_variants_read_like_the_plain_table(tmp_path_factory,
                                                     data):
    # a table written by write_pv_csv, then rewritten with its columns
    # reordered, cells quoted, another line ending, extra trailing cells
    # and blank lines, reads bit for bit like the table it came from
    dates = [d.isoformat() for d in data.draw(
        st.lists(st.dates(), min_size=1, max_size=4, unique=True))]
    n_steps = data.draw(st.integers(1, 6))
    cell = st.one_of(st.sampled_from(EDGE_FLOATS),
                     st.floats(allow_nan=False))
    values = np.array(data.draw(st.lists(
        cell, min_size=len(dates) * n_steps,
        max_size=len(dates) * n_steps))).reshape(len(dates), n_steps)
    # an infinite power is read only in a masked sample
    masks = np.array(data.draw(st.lists(
        st.booleans(), min_size=values.size,
        max_size=values.size))).reshape(values.shape) & np.isfinite(values)
    root = tmp_path_factory.mktemp("pv")
    write_pv_csv(str(root / "plain.csv"), dates, values, masks)
    order = data.draw(st.permutations(range(4)))
    quote = data.draw(st.floats(0.0, 1.0))
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = []
    for i, line in enumerate((root / "plain.csv").read_text().splitlines()):
        cells = [line.split(",")[k] for k in order]
        if i:
            cells += data.draw(st.lists(st.sampled_from(["x", "", '"y,z"']),
                                        max_size=2))
        out.append(",".join(c if '"' in c or data.draw(st.floats(0.0, 1.0))
                            >= quote else f'"{c}"' for c in cells))
        out += [""] * data.draw(st.integers(0, 1))
    (root / "variant.csv").write_text(eol.join(out) + eol, newline="")
    keep = set(data.draw(st.lists(st.sampled_from(dates))))
    plain = ingest_pv(str(root / "plain.csv"), None, n_steps)
    assert list(plain) == dates
    for j, date in enumerate(dates):
        assert plain[date][0].tobytes() == values[j].tobytes()
        assert plain[date][1].tobytes() == masks[j].tobytes()
    for dates_kept in (None, keep):
        want = ingest_pv(str(root / "plain.csv"), dates_kept, n_steps)
        got = ingest_pv(str(root / "variant.csv"), dates_kept, n_steps)
        assert list(got) == list(want)
        for date in want:
            for a, b in zip(got[date], want[date]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCommands:
    def test_synth_then_identify(self, tmp_path):
        out = cmd_synth(SMALL, str(tmp_path / "ds"))
        assert out["n_days"] == 6
        for name in ("weather.csv", "pv.csv", "true_params.json"):
            assert (tmp_path / "ds" / name).exists()
        res = cmd_identify(SMALL, str(tmp_path / "ds" / "pv.csv"),
                           str(tmp_path / "params.json"))
        assert res["identified"] == 6
        doc = read_params_json(str(tmp_path / "params.json"))
        assert len(doc["days"]) == 6
        day, flags = obj_to_day_params(next(iter(doc["days"].values())))
        assert day.m == 3

    def test_simulate_writes_one_csv_and_one_npy_per_day(self, tmp_path):
        # the .npy and the CSV are each renamed into place: no .tmp is left
        ds, fans = tmp_path / "ds", tmp_path / "fans"
        cmd_synth(SMALL, str(ds))
        res = cmd_simulate(SMALL, str(ds / "true_params.json"), str(fans),
                           str(ds / "pv.csv"))
        dates = read_params_json(str(ds / "true_params.json"))["days"]
        assert res["days"] == len(dates) == 6
        assert sorted(os.listdir(fans)) == sorted(
            f"fan_{d}.{ext}" for d in dates for ext in ("csv", "npy"))

    def test_fast_reversion_is_capped_not_rejected(self, tmp_path):
        # a = 0.6 steps a·dt = 0.6 past the Euler bound of 0.5; the fan
        # runs at the estimator's cap a = 0.45 instead of raising
        ds = tmp_path / "ds"
        cmd_synth(SMALL, str(ds))
        doc = read_params_json(str(ds / "true_params.json"))
        for a in (0.6, 0.45):
            for hours in doc["days"].values():
                for hour in hours:
                    hour["a"] = a
            (tmp_path / f"a{a}.json").write_text(json.dumps(doc))
            cmd_simulate(SMALL, str(tmp_path / f"a{a}.json"),
                         str(tmp_path / f"fans{a}"), str(ds / "pv.csv"))
        for date in doc["days"]:
            fast, capped = (read_fan_csv(str(tmp_path / f"fans{a}"
                                             / f"fan_{date}.csv"), 30.0)
                            for a in (0.6, 0.45))
            assert np.isfinite(fast.paths).all()
            assert np.isfinite(fast.quantiles).all()
            assert fast.paths.tobytes() == capped.paths.tobytes()
            assert fast.quantiles.tobytes() == capped.quantiles.tobytes()

    def test_a_parameter_file_on_another_hour_grid_is_refused(self, tmp_path):
        # a 3-hour, 30 s file read under m = 2 or 60 s steps, and a file
        # with a 2-hour day: train and simulate name the file and write
        # nothing
        ds = tmp_path / "ds"
        cmd_synth(E2E, str(ds))
        good = str(ds / "true_params.json")
        doc = read_params_json(good)
        date = sorted(doc["days"])[1]
        doc["days"][date] = doc["days"][date][:2]
        short = str(tmp_path / "short.json")
        Path(short).write_text(json.dumps(doc))
        for cfg, path, why in (
                (replace(E2E, m=2), good, "written for m = 3, step_seconds "
                 "= 30.0; the config has m = 2, step_seconds = 30.0"),
                (replace(E2E, step_seconds=60.0), good, "the config has m = "
                 "3, step_seconds = 60.0"),
                (E2E, short, f"day {date} holds 2 hours, m = 3")):
            match = f"^{re.escape(path)}: .*{re.escape(why)}$"
            with pytest.raises(ValueError, match=match):
                cmd_train(cfg, str(ds / "weather.csv"), path,
                          str(tmp_path / "model"))
            with pytest.raises(ValueError, match=match):
                cmd_simulate(cfg, path, str(tmp_path / "fans"))
        assert sorted(os.listdir(tmp_path)) == ["ds", "short.json"]

    @pytest.mark.parametrize("hour,why", [
        ([0.2, 0.5, 0.1, 0.1, 0.9], "a list"), ("a", "a string"),
        (dict(a=0.2, beta=0.1, c=0.1, d=0.9), "no b"),
        (dict(a=0.2, b=None, beta=0.1, c=0.1, d=0.9), "a null b"),
        (dict(a=0.2, b="0.5", beta=0.1, c=0.1, d=0.9), "a string b"),
        (dict(a=0.2, b=True, beta=0.1, c=0.1, d=0.9), "a boolean b"),
        (dict(a=0.2, b=0.5, beta=float("inf"), c=0.1, d=0.9), "beta inf"),
        (dict(a=0.2, b=0.5, beta=0.1, c=0.1, d=10 ** 400), "a huge d")])
    def test_a_parameter_file_hour_without_five_numbers_is_refused(
            self, tmp_path, hour, why):
        # train, simulate and the CLI name the file, the date and the hour
        ds = tmp_path / "ds"
        cmd_synth(E2E, str(ds))
        doc = read_params_json(str(ds / "true_params.json"))
        date = sorted(doc["days"])[3]
        doc["days"][date][1] = hour
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        match = (f"^{re.escape(str(path))}: day {date} hour 1 is not an "
                 "object of five finite numbers a, b, beta, c and d$")
        with pytest.raises(ValueError, match=match):
            cmd_train(E2E, str(ds / "weather.csv"), str(path),
                      str(tmp_path / "model"))
        with pytest.raises(ValueError, match=match):
            cmd_simulate(E2E, str(path), str(tmp_path / "fans"))
        assert sorted(os.listdir(tmp_path)) == ["bad.json", "ds"], why
        (tmp_path / "run.cfg").write_text(
            "n_days = 20\nm = 3\nstart_hour = 9\n")
        assert cli_main(["--config", str(tmp_path / "run.cfg"), "simulate",
                         "--params", str(path),
                         "--out", str(tmp_path / "fans")]) == 2

    @pytest.mark.parametrize("flags", [None, "pinned", ["pinned", 3], {}])
    def test_a_parameter_file_hour_with_bad_flags_is_refused(
            self, tmp_path, capsys, flags):
        # flags that are null, a string (not split into letters), a list
        # holding a number or an object: train, simulate and the CLI name
        # the file, the date and the hour, and the CLI exits 2
        ds = tmp_path / "ds"
        cmd_synth(E2E, str(ds))
        doc = read_params_json(str(ds / "true_params.json"))
        date = sorted(doc["days"])[2]
        doc["days"][date][0]["flags"] = flags
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        why = (f"{path}: day {date} hour 0 has flags that are not a list "
               "of strings")
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            cmd_train(E2E, str(ds / "weather.csv"), str(path),
                      str(tmp_path / "model"))
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            cmd_simulate(E2E, str(path), str(tmp_path / "fans"))
        (tmp_path / "run.cfg").write_text(
            "n_days = 20\nm = 3\nstart_hour = 9\n")
        capsys.readouterr()
        assert cli_main(["--config", str(tmp_path / "run.cfg"), "simulate",
                         "--params", str(path),
                         "--out", str(tmp_path / "fans")]) == 2
        assert json.loads(capsys.readouterr().err) == dict(
            error="ValueError", message=why)
        assert sorted(os.listdir(tmp_path)) == ["bad.json", "ds", "run.cfg"]

    @pytest.mark.parametrize("doc,why", [
        ([], "the top level is not a JSON object"),
        ("days", "the top level is not a JSON object"),
        (dict(schema_version=1, m=3, step_seconds=30.0),
         "days is not an object of dates"),
        (dict(schema_version=1, m=3, step_seconds=30.0, days=[]),
         "days is not an object of dates"),
        (b"{not json", "not JSON (Expecting property name enclosed in "
                       "double quotes: line 1 column 2 (char 1))"),
        (b'{"days": {', "not JSON (Expecting property name enclosed in "
                        "double quotes: line 1 column 11 (char 10))")])
    def test_a_parameter_file_that_is_not_an_object_is_refused(
            self, tmp_path, capsys, doc, why):
        # train, simulate and the CLI name the file, and the CLI exits 2;
        # bytes are the file's text as it stands, not JSON at all
        path = tmp_path / "bad.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc))
        why = f"{path}: {why}"
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            cmd_train(E2E, str(tmp_path / "weather.csv"), str(path),
                      str(tmp_path / "model"))
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            cmd_simulate(E2E, str(path), str(tmp_path / "fans"))
        (tmp_path / "run.cfg").write_text("m = 3\nstart_hour = 9\n")
        capsys.readouterr()
        assert cli_main(["--config", str(tmp_path / "run.cfg"), "simulate",
                         "--params", str(path),
                         "--out", str(tmp_path / "fans")]) == 2
        assert json.loads(capsys.readouterr().err) == dict(
            error="ValueError", message=why)

    @pytest.mark.parametrize("name", ["manifest.json"])
    def test_a_model_file_that_is_not_an_object_is_refused(
            self, tmp_path, capsys, name):
        ds, model = tmp_path / "ds", tmp_path / "model"
        cmd_synth(E2E, str(ds))
        cmd_train(E2E, str(ds / "weather.csv"), str(ds / "true_params.json"),
                  str(model))
        (tmp_path / "run.cfg").write_text("m = 3\nstart_hour = 9\n")
        for text, why in (
                ("[0.5, 1.5]", "the top level is not a JSON object"),
                ("{not json", "not JSON (Expecting property name enclosed "
                              "in double quotes: line 1 column 2 (char 1))")):
            (model / name).write_text(text)
            capsys.readouterr()
            assert cli_main(["--config", str(tmp_path / "run.cfg"),
                             "predict", "--model", str(model), "--weather",
                             str(ds / "weather.csv"),
                             "--out", str(tmp_path / "pred.json")]) == 2
            assert json.loads(capsys.readouterr().err) == dict(
                error="ValueError", message=f"{model / name}: {why}")
            assert not (tmp_path / "pred.json").exists()

    def test_evaluate_skips_a_fan_whose_day_has_no_pv_rows(self, tmp_path):
        # three fans, a PV table without one of their days: two are
        # scored, the third is listed as skipped, eval.json unchanged
        ds, fans = tmp_path / "ds", tmp_path / "fans"
        cfg = replace(SMALL, n_days=3)
        cmd_synth(cfg, str(ds))
        cmd_simulate(cfg, str(ds / "true_params.json"), str(fans))
        pv = ingest_pv(str(ds / "pv.csv"), None, cfg.day_length)
        dates = sorted(pv)
        res = cmd_evaluate(cfg, str(fans), str(ds / "pv.csv"),
                           str(tmp_path / "all.json"))
        assert res["evaluated"] == 3 and res["skipped"] == []
        kept = [dates[0], dates[2]]
        write_pv_csv(str(tmp_path / "two.csv"), kept,
                     [pv[d][0] for d in kept], [pv[d][1] for d in kept])
        res = cmd_evaluate(cfg, str(fans), str(tmp_path / "two.csv"),
                           str(tmp_path / "two.json"))
        assert res["evaluated"] == 2 and res["skipped"] == [dates[1]]
        scores = json.loads((tmp_path / "all.json").read_text())
        del scores[dates[1]]
        assert (tmp_path / "two.json").read_text() == json.dumps(
            scores, sort_keys=True, indent=1)

    def test_evaluate_refuses_a_fan_without_a_level_it_reads(self, tmp_path):
        # evaluate reads q05, q50, q90 and q95; this fan has no q90
        day = DayParams(np.transpose([(0.2, 0.5, 0.1, 0.1, 0.9)]))
        fan = make_fan(day, 0.5, n_paths=40, seed=2)
        fan = replace(fan, quantile_levels=fan.quantile_levels[:4]
                      + fan.quantile_levels[5:],
                      quantiles=np.delete(fan.quantiles, 4, axis=0))
        path = tmp_path / "fans" / "fan_2018-01-01.csv"
        path.parent.mkdir()
        write_fan_csv(str(path), fan)
        write_pv_csv(str(tmp_path / "pv.csv"), ["2018-01-01"],
                     [np.linspace(0.2, 0.8, 120)])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "
                                             ".*\\[0\\.9\\]"):
            cmd_evaluate(RunConfig(), str(path.parent),
                         str(tmp_path / "pv.csv"), str(tmp_path / "ev.json"))

    def test_evaluate_refuses_a_fan_of_another_day_length(self, tmp_path):
        # a fan simulated at m = 4 is 480 steps; the config's day at
        # m = 12 is 1440, as is the day's PV
        day = DayParams(np.tile([[0.2], [0.5], [0.1], [0.1], [0.9]], 4))
        path = tmp_path / "fans" / "fan_2018-01-01.csv"
        path.parent.mkdir()
        write_fan_csv(str(path), make_fan(day, 0.5, n_paths=40, seed=2))
        write_pv_csv(str(tmp_path / "pv.csv"), ["2018-01-01"],
                     [np.linspace(0.2, 0.8, 1440)])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: fan "
                                             "has 480 steps, .* 1440 \\(m = "
                                             "12 hours of 120 samples\\)$"):
            cmd_evaluate(RunConfig(), str(path.parent),
                         str(tmp_path / "pv.csv"), str(tmp_path / "ev.json"))
        assert not (tmp_path / "ev.json").exists()

    def test_weather_with_no_usable_day_names_the_file(self, tmp_path):
        ds = tmp_path / "ds"
        cmd_synth(E2E, str(ds))
        cmd_train(E2E, str(ds / "weather.csv"),
                  str(ds / "true_params.json"), str(tmp_path / "model"))
        path = tmp_path / "weather.csv"
        header = (ds / "weather.csv").read_text().splitlines()[0]
        one_hour = "2018-01-05T09:00,24,57,1004,0,11,E,6,2.3"   # 2 of 3 gone
        for body, n_dropped in (("", 0), (one_hour, 1)):
            path.write_text(header + "\n" + body)
            match = f"^{path}: no usable weather day \\({n_dropped} dropped"
            with pytest.raises(ValueError, match=match):
                cmd_train(E2E, str(path), str(ds / "true_params.json"),
                          str(tmp_path / "model2"))
            with pytest.raises(ValueError, match=match):
                cmd_predict(E2E, str(tmp_path / "model"), str(path),
                            str(tmp_path / "pred.json"))

    def test_training_days_without_weather_raise_training_error(self,
                                                                tmp_path):
        # a parameter file that shares no date with the weather file
        ds = tmp_path / "ds"
        cmd_synth(E2E, str(ds))
        doc = read_params_json(str(ds / "true_params.json"))
        doc["days"] = {"2030" + d[4:]: obj for d, obj in doc["days"].items()}
        (tmp_path / "other.json").write_text(json.dumps(doc))
        with pytest.raises(TrainingError, match="need >= 10 training days, "
                                                "got 0"):
            cmd_train(E2E, str(ds / "weather.csv"),
                      str(tmp_path / "other.json"), str(tmp_path / "model"))

    def test_e2e_trains_on_no_held_out_weather(self, tmp_path):
        # two datasets with the same training days, one humidity cell of
        # them blank, and differently humid held-out days: the model, its
        # medians included, comes from the training days alone
        ds = tmp_path / "ds"
        cmd_synth(E2E, str(ds))
        train, test = split_days(
            ingest_pv(str(ds / "pv.csv"), None, E2E.day_length), E2E.split,
            E2E.seed)
        with open(ds / "weather.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        rows[[r["timestamp"][:10] for r in rows].index(train[0])][
            "humidity"] = ""
        for tag, scale in (("a", 1.0), ("b", 0.5)):
            shutil.copytree(ds, tmp_path / tag)
            with open(tmp_path / tag / "weather.csv", "w", newline="") as f:
                write_weather_csv(f, [
                    dict(r, humidity=repr(float(r["humidity"]) * scale))
                    if r["timestamp"][:10] in test else r for r in rows])
            cmd_e2e(E2E, str(tmp_path / tag), str(tmp_path / f"run_{tag}"))
        model_a, model_b = tmp_path / "run_a/model", tmp_path / "run_b/model"
        names = sorted(p.name for p in model_a.iterdir())
        assert names == sorted(p.name for p in model_b.iterdir())
        for name in names:
            assert ((model_a / name).read_bytes()
                    == (model_b / name).read_bytes()), name
        assert (tmp_path / "a" / "weather.csv").read_bytes() != (
            tmp_path / "b" / "weather.csv").read_bytes()
        weather = dict(ingest_weather(str(tmp_path / "a" / "weather.csv"),
                                      E2E.grid)[0])
        assert np.isnan(weather[train[0]][1])
        assert json.loads((model_a / "manifest.json").read_text())[
            "medians"] == np.nanmedian([weather[d] for d in train],
                                       axis=0).tolist()

    def test_e2e_refuses_a_split_that_holds_no_day_out(self, tmp_path,
                                                        capsys):
        # split = 0.99 keeps all 20 days for training: refused before
        # identification, not after training
        ds, run = tmp_path / "ds", tmp_path / "run"
        cmd_synth(E2E, str(ds))
        (tmp_path / "run.cfg").write_text(
            "m = 3\nstart_hour = 9\nn_members = 3\nhidden_size = 10\n"
            "n_paths = 50\nseed = 4\nsplit = 0.99\n")
        capsys.readouterr()
        assert cli_main(["--config", str(tmp_path / "run.cfg"), "e2e",
                         "--dataset", str(ds), "--out", str(run)]) == 2
        assert json.loads(capsys.readouterr().err) == dict(
            error="ValueError",
            message="split = 0.99 leaves no held-out day of 20 days")
        assert not (run / "params_identified.json").exists()

    def test_e2e_refuses_a_split_that_trains_too_few_days(self, tmp_path,
                                                          capsys):
        # split = 0.3 trains 6 of 20 days, under the ensemble's 10: refused
        # before identification, not after it
        ds, run = tmp_path / "ds", tmp_path / "run"
        cmd_synth(E2E, str(ds))
        (tmp_path / "run.cfg").write_text(
            "m = 3\nstart_hour = 9\nn_members = 3\nhidden_size = 10\n"
            "n_paths = 50\nseed = 4\nsplit = 0.3\n")
        capsys.readouterr()
        assert cli_main(["--config", str(tmp_path / "run.cfg"), "e2e",
                         "--dataset", str(ds), "--out", str(run)]) == 2
        assert json.loads(capsys.readouterr().err) == dict(
            error="ValueError",
            message="split = 0.3 leaves 6 training days of 20 days, "
                    "training needs >= 10")
        assert not (run / "params_identified.json").exists()

    def test_e2e_refuses_truth_that_lacks_a_held_out_day(self, tmp_path):
        # the slot RMSE needs every held-out day's generating parameters;
        # a truth file without some is refused before any stage runs
        ds, run = tmp_path / "ds", tmp_path / "run"
        cmd_synth(E2E, str(ds))
        _, test = split_days(
            ingest_pv(str(ds / "pv.csv"), None, E2E.day_length), E2E.split,
            E2E.seed)
        path = ds / "true_params.json"
        doc = read_params_json(str(path))
        for d in test[1:3]:
            del doc["days"][d]
        path.write_text(json.dumps(doc))
        why = f"{path}: lacks held-out days {test[1:3]}"
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            cmd_e2e(E2E, str(ds), str(run))
        assert not (run / "params_identified.json").exists()
        assert not (run / "eval.json").exists()

    def test_synth_and_e2e_at_a_60_s_step(self, tmp_path):
        # the generating map gives a up to 0.36 per 30 s, a·dt = 0.72 at
        # 60 s; synth caps a at A_CAP_UNITS / dt, as fits and fans do, and
        # writes the capped a it stepped
        cfg = replace(E2E, step_seconds=60.0)
        cmd_synth(cfg, str(tmp_path / "ds"))
        doc = read_params_json(str(tmp_path / "ds" / "true_params.json"))
        a = [hour["a"] for day in doc["days"].values() for hour in day]
        assert max(a) == A_CAP_UNITS / 2.0
        res = cmd_e2e(cfg, str(tmp_path / "ds"), str(tmp_path / "out"))
        assert res["n_test"] == 5 and np.isfinite(res["picp90_mean"])

    def test_cli_chain_and_error_json(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_days = 14\nm = 3\nstart_hour = 9\n"
                       "n_members = 3\nhidden_size = 10\nn_paths = 50\n"
                       "split = 0.75\ndump_paths = 20\n")
        ds = str(tmp_path / "ds")
        args = ["--config", str(cfg), "--seed", "3"]
        assert cli_main(args + ["synth", "--out", ds]) == 0
        assert cli_main(args + ["e2e", "--dataset", ds,
                                "--out", str(tmp_path / "run")]) == 0
        summary = json.loads(
            (tmp_path / "run" / "summary.json").read_text())
        assert summary["n_train"] + summary["n_test"] == 14
        assert 0.0 <= summary["picp90_mean"] <= 1.0
        assert (tmp_path / "run" / "eval.json").exists()
        assert (tmp_path / "run" / "model" / "manifest.json").exists()
        capsys.readouterr()
        # failures produce machine-readable JSON on stderr, nonzero exit
        rc = cli_main(args + ["identify", "--pv", "/nonexistent.csv",
                              "--out", str(tmp_path / "x.json")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] and err["message"]

    def test_e2e_keeps_estimation_flags(self, tmp_path):
        from pvsde.pipeline import cmd_e2e
        cfg = RunConfig(n_days=14, m=3, start_hour=9, n_members=3,
                        hidden_size=10, n_paths=50, seed=4, split=0.75,
                        dump_paths=10)
        ds = str(tmp_path / "ds")
        cmd_synth(cfg, ds)
        cmd_identify(cfg, os.path.join(ds, "pv.csv"),
                     str(tmp_path / "params.json"))
        cmd_e2e(cfg, ds, str(tmp_path / "run"))
        ident = read_params_json(str(tmp_path / "params.json"))["days"]
        e2e = read_params_json(
            str(tmp_path / "run" / "params_identified.json"))["days"]
        assert e2e and set(e2e) < set(ident)
        flags = {d: [h["flags"] for h in obj] for d, obj in e2e.items()}
        assert flags == {d: [h["flags"] for h in ident[d]] for d in e2e}
        assert any(fl for day in flags.values() for fl in day)

    def test_e2e_skips_training_days_with_no_valid_hour(self, tmp_path):
        from pvsde.pipeline import cmd_e2e
        cfg = RunConfig(n_days=20, m=3, start_hour=9, n_members=3,
                        hidden_size=10, n_paths=50, seed=4, split=0.75,
                        dump_paths=10)
        ds = str(tmp_path / "ds")
        cmd_synth(cfg, ds)
        pv_path = os.path.join(ds, "pv.csv")
        pv = ingest_pv(pv_path, None, cfg.day_length)
        dates = sorted(pv)
        train, _ = split_days(dates, cfg.split, cfg.seed)
        dead = set(train[:2])
        write_pv_csv(pv_path, dates, [pv[d][0] for d in dates],
                     [pv[d][1] & (d not in dead) for d in dates])
        res = cmd_identify(cfg, pv_path, str(tmp_path / "params.json"))
        assert set(res["rejected"]) == dead
        summary = cmd_e2e(cfg, ds, str(tmp_path / "run"))
        assert summary["n_train"] == len(train) - 2
        e2e = read_params_json(
            str(tmp_path / "run" / "params_identified.json"))["days"]
        assert set(e2e) == set(train) - dead

    def test_summary_means_are_the_metric_fields(self, tmp_path):
        # every MetricReport field has its mean in summary.json, and no
        # other key of the held-out scores does
        ds, run = str(tmp_path / "ds"), tmp_path / "run"
        cmd_synth(E2E, ds)
        cmd_e2e(E2E, ds, str(run))
        summary = json.loads((run / "summary.json").read_text())
        scores = json.loads((run / "eval.json").read_text()).values()
        means = {k for k in summary if k.endswith("_mean")}
        assert means - {"train_rmse_mean"} == {
            f"{f.name}_mean" for f in fields(MetricReport)}
        for f in fields(MetricReport):
            assert summary[f"{f.name}_mean"] == np.mean(
                [r[f.name] for r in scores])

    def test_e2e_equals_the_stage_chain(self, tmp_path):
        ds, run = str(tmp_path / "ds"), tmp_path / "run"
        cmd_synth(E2E, ds)
        cmd_e2e(E2E, ds, str(run))
        train, test = split_days(
            ingest_pv(os.path.join(ds, "pv.csv"), None, E2E.day_length),
            E2E.split, E2E.seed)
        cmd_identify(E2E, os.path.join(ds, "pv.csv"),
                     str(tmp_path / "params.json"))
        ident = read_params_json(str(tmp_path / "params.json"))
        e2e_ident = read_params_json(str(run / "params_identified.json"))
        assert e2e_ident == dict(ident, days={d: ident["days"][d]
                                              for d in train})
        weather = os.path.join(ds, "weather.csv")
        cmd_train(E2E, weather, str(run / "params_identified.json"),
                  str(tmp_path / "model"))
        names = sorted(p.name for p in (run / "model").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "model").iterdir())
        assert "hidden_weights.npy" in names and "impute.json" not in names
        for name in names:
            assert ((tmp_path / "model" / name).read_bytes()
                    == (run / "model" / name).read_bytes()), name
        cmd_predict(E2E, str(tmp_path / "model"), weather,
                    str(tmp_path / "pred.json"))
        pred = read_params_json(str(tmp_path / "pred.json"))
        assert read_params_json(str(run / "params_predicted.json")) == dict(
            pred, days={d: pred["days"][d] for d in test})
        pv = os.path.join(ds, "pv.csv")
        cmd_simulate(E2E, str(run / "params_predicted.json"),
                     str(tmp_path / "fans"), pv)
        cmd_evaluate(E2E, str(tmp_path / "fans"), pv,
                     str(tmp_path / "eval.json"))
        assert ((tmp_path / "eval.json").read_bytes()
                == (run / "eval.json").read_bytes())

    def test_a_day_does_not_depend_on_its_neighbours(self, tmp_path):
        # a day's identified parameters and its fan are the same whether
        # the input files hold it alone or among other days
        ds = tmp_path / "ds"
        cmd_synth(SMALL, str(ds))
        pv = ingest_pv(str(ds / "pv.csv"), None, SMALL.day_length)
        date = sorted(pv)[2]
        write_pv_csv(str(tmp_path / "alone.csv"), [date], [pv[date][0]],
                     [pv[date][1]])
        for tag, pv_path in (("all", ds / "pv.csv"),
                             ("alone", tmp_path / "alone.csv")):
            cmd_identify(SMALL, str(pv_path), str(tmp_path / f"{tag}.json"))
            cmd_simulate(SMALL, str(tmp_path / f"{tag}.json"),
                         str(tmp_path / f"fans_{tag}"), str(pv_path))
        entries = [json.dumps(read_params_json(
            str(tmp_path / f"{tag}.json"))["days"][date])
            for tag in ("all", "alone")]
        assert entries[0] == entries[1]
        for ext in ("csv", "npy"):
            fans = [(tmp_path / f"fans_{tag}" / f"fan_{date}.{ext}")
                    .read_bytes() for tag in ("all", "alone")]
            assert fans[0] == fans[1], ext

    def test_a_day_under_two_labels_is_identified_alike(self, tmp_path):
        # one gappy day, some of whose hours are variance-matched, under
        # two date labels: the matching noise is keyed by an hour's samples,
        # not by its date, so both entries hold the same parameters
        _, _, pv, _ = synth_generate(np.random.default_rng(8), n_days=1)
        rng = np.random.default_rng(13)
        mask = np.ones((12, 120), dtype=bool)     # four 10-sample gaps an hour
        for hour in mask:
            for s0 in 1 + 10 * rng.choice(11, 4, replace=False):
                hour[s0:s0 + 10] = False
        dates = ["2018-03-01", "2018-07-15"]
        write_pv_csv(str(tmp_path / "pv.csv"), dates, [pv[0]] * 2,
                     [mask.ravel()] * 2)
        cmd_identify(RunConfig(), str(tmp_path / "pv.csv"),
                     str(tmp_path / "params.json"))
        days = read_params_json(str(tmp_path / "params.json"))["days"]
        assert any("variance-matched-high" in hour["flags"]
                   for hour in days[dates[0]])
        assert days[dates[0]] == days[dates[1]]

    def test_simulate_and_evaluate_read_only_their_days(self, tmp_path):
        # a day's fan and eval.json are the same whether pv.csv holds that
        # day alone or among 32 others
        cfg = replace(SMALL, n_days=33, m=2)
        ds = tmp_path / "ds"
        cmd_synth(cfg, str(ds))
        pv = ingest_pv(str(ds / "pv.csv"), None, cfg.day_length)
        date = sorted(pv)[17]
        write_pv_csv(str(tmp_path / "alone.csv"), [date], [pv[date][0]],
                     [pv[date][1]])
        truth = read_params_json(str(ds / "true_params.json"))["days"]
        write_params_json(str(tmp_path / "day.json"),
                          {date: obj_to_day_params(truth[date])},
                          cfg.step_seconds, cfg.m)
        out = {}
        for tag, pv_path in (("all", ds / "pv.csv"),
                             ("alone", tmp_path / "alone.csv")):
            fans, scores = tmp_path / f"fans_{tag}", tmp_path / f"{tag}.json"
            cmd_simulate(cfg, str(tmp_path / "day.json"), str(fans),
                         str(pv_path))
            res = cmd_evaluate(cfg, str(fans), str(pv_path), str(scores))
            assert res["evaluated"] == 1
            out[tag] = [p.read_bytes() for p in sorted(fans.iterdir())]
            out[tag].append(scores.read_bytes())
        assert len(out["all"]) == 3 and out["all"] == out["alone"]

    def test_evaluate_masks_steps_past_the_end_of_a_pv_day(self, tmp_path):
        # a day whose rows stop short reads as a whole day masked past its
        # last row: it scores as the whole day with those steps masked
        ds, fans = tmp_path / "ds", tmp_path / "fans"
        cmd_synth(SMALL, str(ds))
        pv = ingest_pv(str(ds / "pv.csv"), None, SMALL.day_length)
        date = sorted(pv)[0]
        values, mask = pv[date]
        write_pv_csv(str(tmp_path / "short.csv"), [date], [values[:-5]],
                     [mask[:-5]])
        write_pv_csv(str(tmp_path / "masked.csv"), [date], [values],
                     [mask & (np.arange(mask.size) < mask.size - 5)])
        cmd_simulate(SMALL, str(ds / "true_params.json"), str(fans))
        scores = []
        for tag in ("short", "masked"):
            cmd_evaluate(SMALL, str(fans), str(tmp_path / f"{tag}.csv"),
                         str(tmp_path / f"{tag}.json"))
            scores.append((tmp_path / f"{tag}.json").read_bytes())
        assert scores[0] == scores[1]
        assert date in json.loads(scores[0])

    def test_unscorable_held_out_days_are_skipped(self, tmp_path):
        # no valid sample, no two consecutive valid samples, a stuck
        # sensor reading zero: the metrics are undefined on these days
        ds, run = str(tmp_path / "ds"), tmp_path / "run"
        cmd_synth(E2E, ds)
        pv_path = os.path.join(ds, "pv.csv")
        pv = ingest_pv(pv_path, None, E2E.day_length)
        dates = sorted(pv)
        _, test = split_days(dates, E2E.split, E2E.seed)
        dead, sparse, stuck = test[:3]
        for d in (dead, sparse):
            values, mask = pv[d]
            mask = mask & (d != dead) & (np.arange(mask.size) % 2 == 0)
            pv[d] = (values, mask)
        pv[stuck] = (np.zeros_like(pv[stuck][0]), pv[stuck][1])
        write_pv_csv(pv_path, dates, [pv[d][0] for d in dates],
                     [pv[d][1] for d in dates])
        res = cmd_e2e(E2E, ds, str(run))
        assert res["skipped"] == [dead, sparse, stuck]
        assert res["n_test"] == len(test) - 3
        scored = json.loads((run / "eval.json").read_text())
        assert sorted(scored) == test[3:]
        cmd_simulate(E2E, str(run / "params_predicted.json"),
                     str(tmp_path / "fans"), pv_path)
        res = cmd_evaluate(E2E, str(tmp_path / "fans"), pv_path,
                           str(tmp_path / "eval.json"))
        assert res["skipped"] == [dead, sparse, stuck]
        rows = json.loads((tmp_path / "eval.json").read_text())
        assert sorted(rows) == test[3:]

    def test_climatology_uses_valid_samples_only(self):
        from pvsde.pipeline import _climatology
        values = np.array([[0.2, 0.0, 0.5, 0.6],
                           [0.4, 0.3, 0.0, 0.8],
                           [0.0, 0.5, 0.0, 0.7]])
        valid = np.array([[1, 0, 0, 1],
                          [1, 1, 0, 1],
                          [0, 1, 0, 1]], dtype=bool)
        pv = {f"d{i}": (values[i], valid[i]) for i in range(3)}
        median, pool = _climatology(pv, ["d0", "d1", "d2"])
        # step 2 was never observed: the median between steps 1 and 3
        np.testing.assert_allclose(median, [0.3, 0.4, 0.55, 0.7])
        np.testing.assert_array_equal(pool, values[valid])

    def test_stage_chain_bytes(self, tmp_path):
        # digests at criterion 8's config of identify's params.json and
        # e2e's identified and predicted parameters and eval.json (numpy
        # 2.4.6, OpenBLAS at one thread), fixed when the first drift fit
        # began at the likelihood's start bounds; eval.json's since the
        # variogram score replaced the autocorrelation mismatch
        cfg = RunConfig(n_days=16, m=4, start_hour=9, n_members=12,
                        hidden_size=20, n_paths=100, seed=5, dump_paths=20)
        ds, run = str(tmp_path / "ds"), tmp_path / "run"
        cmd_synth(cfg, ds)
        cmd_identify(cfg, os.path.join(ds, "pv.csv"),
                     str(tmp_path / "params.json"))
        cmd_e2e(cfg, ds, str(run))
        digests = {str(p.relative_to(tmp_path)): hashlib.sha256(
            p.read_bytes()).hexdigest() for p in (
                tmp_path / "params.json", run / "params_identified.json",
                run / "params_predicted.json", run / "eval.json")}
        assert digests == {
            "params.json": "e9a01dbebdfebc40d4c5ec940933719f"
                           "ec2b7f040f278e42d1bf5e8af1bbceba",
            "run/params_identified.json": "b233e82afbe47aae6596f7e9fe3a02b0"
                                          "d893ba782a2590ef64fe1df572021e60",
            "run/params_predicted.json": "4bac4129bed751e5154cf96b4fb7e3a6"
                                         "a8bbeb691de5719c2e7324ca1a59b290",
            "run/eval.json": "1927ef8a0bb46c990cdf7c166ef09874"
                             "aa630735b17267d32f8404fa7435d885"}

    def test_e2e_rerun_is_byte_identical(self, tmp_path):
        cfg = RunConfig(n_days=14, m=3, start_hour=9, n_members=3,
                        hidden_size=10, n_paths=50, seed=4, split=0.75,
                        dump_paths=10)
        from pvsde.pipeline import cmd_e2e
        ds = str(tmp_path / "ds")
        cmd_synth(cfg, ds)
        cmd_e2e(cfg, ds, str(tmp_path / "r1"))
        cmd_e2e(cfg, ds, str(tmp_path / "r2"))
        for root, _, files in os.walk(tmp_path / "r1"):
            for name in files:
                p1 = os.path.join(root, name)
                p2 = p1.replace(str(tmp_path / "r1"), str(tmp_path / "r2"))
                assert open(p1, "rb").read() == open(p2, "rb").read(), p1


def test_public_names_resolve_once():
    assert sorted(set(pvsde.__all__)) == sorted(pvsde.__all__)
    assert [n for n in pvsde.__all__ if not hasattr(pvsde, n)] == []


def test_cli_import_loads_no_unused_scipy_module(tmp_path):
    # scipy.special, .stats, .optimize and .fft serve no command, nor does
    # numpy.ma; tests import them in-process, so a fresh interpreter is
    # asked, after it has identified hours whose paths sit on their bounds
    # (the censored beta), trained a small model and run a small e2e (its
    # climatology takes medians)
    src = os.path.dirname(os.path.dirname(pvsde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy as np, pvsde, pvsde.cli\n"
            "from pvsde.estimation import identify_hours\n"
            "from pvsde.sde import SdeParams, simulate_hour\n"
            "th = SdeParams(0.2095, 0.5496, 0.1946, 0.1263, 0.9930)\n"
            "P = simulate_hour(th, [0.2, 0.5, 0.9], n_steps=120, substeps=1,"
            " rng=np.random.default_rng(1)).T\n"
            "assert ((P == th.c) | (P == th.d)).any(axis=1).all()\n"
            "identify_hours(P, np.ones(P.shape, dtype=bool))\n"
            "from pvsde.pipeline import RunConfig, cmd_e2e, cmd_synth, "
            "cmd_train\n"
            "cfg = RunConfig(n_days=20, m=2, n_members=3, hidden_size=5,"
            " n_paths=50, dump_paths=10)\n"
            "d = sys.argv[1]\n"
            "cmd_synth(cfg, d)\n"
            "cmd_train(cfg, d + '/weather.csv', d + '/true_params.json',"
            " d + '/model')\n"
            "cmd_e2e(cfg, d, d + '/e2e')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in ("
            "['scipy', 'special'], ['scipy', 'stats'], ['scipy', 'optimize'],"
            " ['scipy', 'fft'], ['numpy', 'ma'])))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
