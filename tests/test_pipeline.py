"""Tests for the dataset generator, batch pipeline, and CLI."""

import json
import os

import numpy as np
import pytest

from pvsde.cli import main as cli_main
from pvsde.pipeline import (RunConfig, cmd_identify, cmd_synth, ingest_pv,
                            load_config, obj_to_day_params, read_fan_csv,
                            read_params_json, split_days, write_fan_csv,
                            write_pv_csv)
from pvsde.sde import DayParams, SdeParams, make_fan
from pvsde.synth import SyntheticSpec, synth_generate, true_param_map
from pvsde.weather import HourGrid

SMALL = RunConfig(n_days=6, m=3, start_hour=9, n_members=3, hidden_size=10,
                  n_paths=50, seed=1)


class TestSynth:
    def test_shapes_and_determinism(self):
        spec = SyntheticSpec(n_days=4, grid=HourGrid(start_hour=9, m=3))
        d1 = synth_generate(spec, np.random.default_rng(7))
        d2 = synth_generate(spec, np.random.default_rng(7))
        dates, weather, pv, params = d1
        assert len(dates) == len(weather) == len(pv) == len(params) == 4
        assert pv[0].shape == (3 * 120,)
        assert params[0].m == 3
        np.testing.assert_array_equal(pv[0], d2[2][0])

    def test_pv_within_hourly_bounds(self):
        spec = SyntheticSpec(n_days=3, grid=HourGrid(start_hour=9, m=3))
        _, _, pv, params = synth_generate(spec, np.random.default_rng(8))
        for series, day in zip(pv, params):
            for i, th in enumerate(day.hours):
                seg = series[i * 120:(i + 1) * 120]
                assert (seg >= th.c).all() and (seg <= th.d).all()

    def test_param_map_humidity_ordering(self):
        # drier reports map to higher, steadier production
        clear = true_param_map(humidity=57.0, cloud=6.0, irradiance=2.27)
        cloudy = true_param_map(humidity=75.0, cloud=6.0, irradiance=2.39)
        assert clear.b > cloudy.b
        assert clear.beta < cloudy.beta

    def test_param_map_outputs_valid(self):
        for h in (0.0, 40.0, 80.0, 100.0):
            for c in (0.0, 5.0, 9.0):
                th = true_param_map(h, c, 1.5)
                assert th.c < th.b < th.d and 0 <= th.beta <= 1


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.m == 12 and cfg.n_members == 200 and cfg.split == 0.70

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("n_days = 17\nhour_local = false  # comment\n\n"
                     "# full-line comment\nridge = 0.5\n")
        cfg = load_config(str(p), dict(seed=9))
        assert cfg.n_days == 17 and cfg.hour_local is False
        assert cfg.ridge == 0.5 and cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("frobnicate = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(str(p))

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(split=1.5)

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
        got = ingest_pv(path)
        np.testing.assert_array_equal(got["2018-01-01"][0], values)
        np.testing.assert_array_equal(got["2018-01-01"][1], mask)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "pv.csv"
        path.write_text("date,step,power,valid\n2018-01-01,0,oops,1\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_pv(str(path))


class TestFanCsv:
    def test_round_trip(self, tmp_path):
        day = DayParams(hours=(SdeParams(0.2, 0.5, 0.1, 0.1, 0.9),))
        fan = make_fan(day, 0.5, n_paths=40, seed=2, substeps=1,
                       quantile_levels=(0.05, 0.25, 0.5, 0.75, 0.9, 0.95))
        path = str(tmp_path / "fan.csv")
        write_fan_csv(path, fan, n_dump=10)
        got = read_fan_csv(path, 30.0)
        assert got.paths.shape == (10, 120)
        np.testing.assert_array_equal(got.paths, fan.paths[:10])
        np.testing.assert_array_equal(got.quantiles, fan.quantiles)
        np.testing.assert_array_equal(got.mean, fan.mean)
        assert got.quantile_levels == fan.quantile_levels

    def test_to_csv_reads_back(self, tmp_path):
        # the fan's own writer and the pipeline's reader share one format
        day = DayParams(hours=(SdeParams(0.2, 0.5, 0.1, 0.1, 0.9),))
        fan = make_fan(day, 0.5, n_paths=20, seed=3, substeps=1)
        path = str(tmp_path / "fan.csv")
        fan.to_csv(path, 20)
        got = read_fan_csv(path, 30.0)
        np.testing.assert_array_equal(got.paths, fan.paths)
        np.testing.assert_array_equal(got.quantiles, fan.quantiles)
        assert got.quantile_levels == fan.quantile_levels


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
        assert (tmp_path / "run" / "metrics.csv").exists()
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
