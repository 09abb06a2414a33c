"""Tests for the bagged weather-to-parameter ensemble."""

import hashlib
import json
import os
import re

import numpy as np
import pytest

from pvsde.cli import main as cli_main
from pvsde.elm import hidden_layer
from pvsde.ensemble import (TrainingError, load_ensemble,
                            predict_params_batch, save_ensemble,
                            train_ensemble, trimmed_mean)


def _make_data(n_days=24, m=2, seed=0):
    """Weather features X (n_days, m * 3) and parameters theta (n_days, 5,
    m) that depend smoothly on them."""
    rng = np.random.default_rng(seed)
    p = 3
    X = np.stack([rng.uniform(0.0, 1.0, m * p) for _ in range(n_days)])
    theta = np.stack([np.stack([0.1 + 0.2 * u, 0.3 + 0.4 * u,
                                0.05 + 0.1 * u, np.full(m, 0.1),
                                np.full(m, 0.9)]) for u in X[:, ::p]])
    return X, theta


class TestTrimmedMean:
    def test_hand_case_exact(self):
        # M = 10, 20% trim -> drop 2 from each end of 1..10, mean = 5.5
        assert trimmed_mean(np.arange(1.0, 11.0)) == 5.5

    def test_outlier_invariance(self):
        base = np.arange(1.0, 11.0)
        spiked = base.copy()
        spiked[0], spiked[-1] = -1e9, 1e9
        assert abs(trimmed_mean(spiked) - trimmed_mean(base)) <= 1e-12

    def test_monotone_shift(self):
        v = np.random.default_rng(1).normal(size=50)
        assert trimmed_mean(v + 1.0) == pytest.approx(trimmed_mean(v) + 1.0)

    def test_permutation_invariance(self):
        v = np.random.default_rng(2).normal(size=30)
        shuffled = v[np.random.default_rng(3).permutation(30)]
        assert trimmed_mean(shuffled) == trimmed_mean(v)

    def test_small_sample_degenerates_to_mean(self):
        # floor(0.2 * 1) = 0 trimmed from each side
        assert trimmed_mean(np.array([3.0])) == 3.0
        v = np.array([1.0, 2.0, 4.0])
        assert trimmed_mean(v) == pytest.approx(v.mean())


class TestTraining:
    def test_requires_enough_days(self):
        with pytest.raises(TrainingError):
            train_ensemble(*_make_data(n_days=5), hidden_size=10,
                           n_members=3, master_seed=0)

    def test_nonfinite_features_refused(self):
        # NaN is a missing cell, which the medians fill; an infinity is
        # refused
        X, theta = _make_data(n_days=16)
        model = train_ensemble(X, theta, hidden_size=10, n_members=3)
        for bad in (np.inf, -np.inf):
            X[2, 4] = bad
            for call in (lambda: train_ensemble(X, theta, hidden_size=10,
                                                n_members=3),
                         lambda: predict_params_batch(model, X)):
                with pytest.raises(ValueError,
                                   match="features must be finite"):
                    call()

    def test_missing_cells_take_the_training_medians(self, tmp_path):
        # training fills a NaN with its own days' median and keeps it; a
        # prediction fills with the kept medians, saved or in memory
        X, theta = _make_data(n_days=16)
        X[3, 1] = X[7, 4] = np.nan
        model = train_ensemble(X, theta, hidden_size=10, n_members=5,
                               master_seed=3)
        want = np.nanmedian(X, axis=0)
        np.testing.assert_array_equal(model.medians, want)
        filled = np.where(np.isnan(X), want, X)
        np.testing.assert_array_equal(
            model.output_weights, train_ensemble(
                filled, theta, hidden_size=10, n_members=5,
                master_seed=3).output_weights)
        save_ensemble(model, str(tmp_path / "model"))
        rows = X[:2].copy()
        rows[0, [0, 5]] = rows[1, :] = np.nan
        for clone in (model, load_ensemble(str(tmp_path / "model"))):
            got = predict_params_batch(clone, rows)
            full = predict_params_batch(
                clone, np.where(np.isnan(rows), model.medians, rows))
            for a, b in zip(got, full):
                assert a.theta.tobytes() == b.theta.tobytes()

    def test_flagged_hours_excluded_and_reported(self):
        X, theta = _make_data(n_days=16)
        flags = [[False, False] for _ in X]
        for fl in flags[:3]:
            fl[1] = True  # hour 1 invalid on three days
        model = train_ensemble(X, theta, hidden_size=10, n_members=3,
                               master_seed=0, flags=flags)
        assert model.m == 2
        # dropping below the floor raises instead
        bad = [[False, True] for _ in X]
        with pytest.raises(TrainingError, match="hour=1"):
            train_ensemble(X, theta, hidden_size=10, n_members=3,
                           master_seed=0, flags=bad)

    def test_learns_smooth_map(self):
        X, theta = _make_data(n_days=64)
        model = train_ensemble(X, theta, hidden_size=30, n_members=20,
                               master_seed=1)
        X_test, theta_test = _make_data(n_days=16, seed=99)
        preds = predict_params_batch(model, X_test)
        b = np.stack([pred.theta[1] for pred in preds])
        assert np.abs(b - theta_test[:, 1]).mean() < 0.05

    def test_prediction_is_projected_valid(self):
        X, theta = _make_data(n_days=16)
        model = train_ensemble(X, theta, hidden_size=10, n_members=5,
                               master_seed=2)
        pred, = predict_params_batch(model, np.full((1, 6), 25.0))
        a, b, beta, c, d = pred.theta
        assert (c < d).all() and (c <= b).all() and (b <= d).all()
        assert ((0.0 <= beta) & (beta <= 1.0)).all()
        assert ((1e-4 <= a) & (a <= 2.0)).all()

    def test_seed_determinism(self):
        X, theta = _make_data(n_days=16)
        m1 = train_ensemble(X, theta, hidden_size=10, n_members=5,
                            master_seed=4)
        m2 = train_ensemble(X, theta, hidden_size=10, n_members=5,
                            master_seed=4)
        np.testing.assert_array_equal(
            predict_params_batch(m1, X[:1])[0].theta,
            predict_params_batch(m2, X[:1])[0].theta)

    def test_golden_output_weights(self, svd_ridge_solve):
        # digest of a model trained when every member drew its own
        # resample, one size-n call per member: the (members, n) index
        # array draws the same stream, at n = 24 and, with a flagged
        # day, n = 23.  The weights also equal an SVD solve of the
        # members' resamples redrawn here from the bootstrap stream, so a
        # change of the stream fails even where the digest is re-pinned.
        flags = [[False, k == 5] for k in range(24)]
        X, theta = _make_data(n_days=24)
        model = train_ensemble(X, theta, hidden_size=10, n_members=7,
                               master_seed=3, flags=flags, ridge=1e-8)
        w = np.ascontiguousarray(model.output_weights, dtype="<f8")
        assert hashlib.sha256(w.tobytes()).hexdigest() == (
            "650685ee5a439abeb72c5506a284d1756e2636d645451f1a062557df227c62c0")
        boot_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(2)[1])
        for hour, keep in enumerate((np.ones(24, bool), np.arange(24) != 5)):
            Z = model._hour_inputs(X[keep], hour)
            idx = boot_rng.integers(0, len(Z), size=(7, len(Z)))
            H = hidden_layer(Z, model.hidden_weights[hour],
                             model.hidden_biases[hour])
            H = H[np.arange(7)[:, None], idx]
            want = svd_ridge_solve(H, theta[keep, :, hour][idx], 1e-8)
            got = model.output_weights[hour]
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_zero_ridge_on_repeated_rows_raises(self):
        # n = 16 days < K = 30: a resample's repeated days make every
        # member's dual Gram singular, which ridge = 0 leaves undamped
        with pytest.raises(ValueError, match="ridge"):
            train_ensemble(*_make_data(n_days=16), hidden_size=30,
                           n_members=5, ridge=0.0)

    def test_hour_local_uses_own_hours_features(self):
        X, theta = _make_data(n_days=48)
        model = train_ensemble(X, theta, hidden_size=20, n_members=10,
                               master_seed=5)
        x, _ = _make_data(n_days=1, seed=77)
        base, = predict_params_batch(model, x)
        # perturbing hour 1's features must not move hour 0's prediction
        x[0, 3:] += 0.3
        pred, = predict_params_batch(model, x)
        np.testing.assert_array_equal(pred.theta[:, 0],
                                      base.theta[:, 0])
        assert not np.allclose(pred.theta[:, 1], base.theta[:, 1])


class TestPersistence:
    def test_round_trip_predictions_identical(self, tmp_path):
        X, theta = _make_data(n_days=16)
        model = train_ensemble(X, theta, hidden_size=10, n_members=5,
                               master_seed=6)
        save_ensemble(model, str(tmp_path / "model"))
        # a manifest that still carries the former feature_names key loads
        path = tmp_path / "model" / "manifest.json"
        man = json.loads(path.read_text())
        assert "feature_names" not in man
        path.write_text(json.dumps(dict(man, feature_names=["h0_f0"] * 6)))
        clone = load_ensemble(str(tmp_path / "model"))
        for name in ("hidden_weights", "hidden_biases", "output_weights"):
            assert type(getattr(clone, name)) is np.ndarray, name
        assert (predict_params_batch(model, X[3:4])[0].theta.tobytes()
                == predict_params_batch(clone, X[3:4])[0].theta.tobytes())

    def test_saved_files_are_byte_deterministic(self, tmp_path):
        X, theta = _make_data(n_days=16)
        model = train_ensemble(X, theta, hidden_size=10, n_members=5,
                               master_seed=7)
        save_ensemble(model, str(tmp_path / "m1"))
        save_ensemble(model, str(tmp_path / "m2"))
        for name in sorted(p.name for p in (tmp_path / "m1").iterdir()):
            a = (tmp_path / "m1" / name).read_bytes()
            b = (tmp_path / "m2" / name).read_bytes()
            assert a == b, name

    def test_hour_local_round_trip(self, tmp_path):
        # a format-2 directory (output weights only, the manifest carrying
        # hour_local and trim_fraction) regenerated its hidden layers on
        # load; it is refused rather than read
        X, theta = _make_data(n_days=16)
        model = train_ensemble(X, theta, hidden_size=10, n_members=5,
                               master_seed=8)
        root = tmp_path / "model"
        save_ensemble(model, str(root))
        man = json.loads((root / "manifest.json").read_text())
        assert man["format_version"] == 4
        assert "hour_local" not in man and "trim_fraction" not in man
        (root / "hidden_weights.npy").unlink()
        (root / "hidden_biases.npy").unlink()
        man.update(format_version=2, hour_local=True, trim_fraction=0.2)
        (root / "manifest.json").write_text(json.dumps(man))
        with pytest.raises(ValueError, match="unsupported ensemble format "
                                             "version; retrain"):
            load_ensemble(str(root))

    def test_model_dir_must_match_its_manifest(self, tmp_path):
        X, theta = _make_data(n_days=16)
        model = train_ensemble(X, theta, hidden_size=10, n_members=5,
                               master_seed=9)
        root = tmp_path / "model"
        save_ensemble(model, str(root))
        assert sorted(p.name for p in root.iterdir()) == [
            "hidden_biases.npy", "hidden_weights.npy", "manifest.json",
            "output_weights.npy"]
        # a weights file of another shape than the manifest declares
        np.save(root / "output_weights.npy", model.output_weights[:, :4])
        with pytest.raises(ValueError, match=re.escape(
                "output_weights.npy holds float64 (2, 4, 10, 5), expected "
                "float64 (2, 5, 10, 5)")):
            load_ensemble(str(root))
        # a directory of an older format version
        man = json.loads((root / "manifest.json").read_text())
        man["format_version"] = 1
        (root / "manifest.json").write_text(json.dumps(man))
        with pytest.raises(ValueError, match=re.escape(
                f"{root / 'manifest.json'}: unsupported ensemble format "
                "version; retrain")):
            load_ensemble(str(root))

    @pytest.mark.parametrize("key,value", [
        ("m", None), ("m", "2"), ("input_dim", None), ("input_dim", 6.0),
        ("n_members", None), ("n_members", 0), ("hidden_size", None),
        ("hidden_size", True), ("scaler_mean", None), ("scaler_std", None),
        ("scaler_mean", [0.5]), ("scaler_std", {"0": 1.0}),
        ("scaler_std", [1.0] * 5 + [0.0]), ("scaler_std", [-1.0] + [1.0] * 5),
        ("scaler_mean", [0.5] * 5 + [np.inf]),
        ("scaler_mean", [np.nan] + [0.5] * 5), ("medians", None),
        ("medians", [0.5] * 5), ("medians", [0.5] * 5 + [-np.inf]),
        ("medians", [0.5] * 5 + ["0.5"]), ("medians", [True] * 6)])
    def test_manifest_key_is_refused_by_name(self, tmp_path, capsys, key,
                                             value):
        # a key that is missing (None), of the wrong kind, not finite or,
        # for a std, not positive: load and the CLI name the manifest and
        # the key, and the CLI exits 2
        model = train_ensemble(*_make_data(n_days=16), hidden_size=10,
                               n_members=5, master_seed=15)
        root = tmp_path / "model"
        save_ensemble(model, str(root))
        path = root / "manifest.json"
        man = json.loads(path.read_text())
        if value is None:
            del man[key]
        else:
            man[key] = value
        path.write_text(json.dumps(man))
        why = (f"{path}: {key} is not a positive integer"
               if key in ("m", "input_dim", "n_members", "hidden_size") else
               f"{path}: {key} must be input_dim (6) finite numbers"
               + " > 0" * (key == "scaler_std"))
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            load_ensemble(str(root))
        capsys.readouterr()
        assert cli_main(["predict", "--model", str(root),
                         "--weather", str(tmp_path / "weather.csv"),
                         "--out", str(tmp_path / "pred.json")]) == 2
        assert json.loads(capsys.readouterr().err) == dict(
            error="ValueError", message=why)

    @pytest.mark.parametrize("name", ["hidden_weights", "hidden_biases"])
    def test_bad_hidden_array_names_its_file(self, tmp_path, name):
        X, theta = _make_data(n_days=16)
        model = train_ensemble(X, theta, hidden_size=10, n_members=5,
                               master_seed=10)
        root = tmp_path / "model"
        save_ensemble(model, str(root))
        good = getattr(model, name)
        path = root / f"{name}.npy"
        for bad in (good[:, :4], good.astype(np.float32)):
            np.save(path, bad)
            with pytest.raises(ValueError, match=f"{name}.npy holds"):
                load_ensemble(str(root))
        np.save(path, np.array([{"w": 1}], dtype=object), allow_pickle=True)
        with pytest.raises(ValueError, match=f"{name}.npy holds object"):
            load_ensemble(str(root))
        path.unlink()
        with pytest.raises(ValueError, match=f"{name}.npy: unreadable"):
            load_ensemble(str(root))

    @pytest.mark.parametrize("fault", ["fortran", "truncated", "extra"])
    def test_bad_array_data_names_its_file_at_load(self, tmp_path, fault):
        # the data is read whole as C-ordered floats filling the file, so
        # a Fortran layout would be read transposed, and short data or
        # bytes past the array would go unnoticed unless load refuses them
        model = train_ensemble(*_make_data(n_days=16), hidden_size=10,
                               n_members=5, master_seed=13)
        root = tmp_path / "model"
        save_ensemble(model, str(root))
        path = root / "output_weights.npy"
        data = path.read_bytes()
        if fault == "fortran":
            np.save(path, np.asfortranarray(model.output_weights))
        else:
            path.write_bytes(data[:-8] if fault == "truncated"
                             else data + bytes(8))
        with pytest.raises(ValueError, match="output_weights.npy: "
                                             "unreadable array"):
            load_ensemble(str(root))

    def test_impossible_header_is_refused_before_allocation(
            self, tmp_path, capsys):
        # a 64-byte data block under a header declaring 43.7 TiB: the
        # header is checked against the manifest before any allocation,
        # so load and the CLI refuse the file by name
        model = train_ensemble(*_make_data(n_days=16), hidden_size=10,
                               n_members=5, master_seed=16)
        root = tmp_path / "model"
        save_ensemble(model, str(root))
        path = root / "output_weights.npy"
        with open(path, "wb") as f:
            np.lib.format.write_array_header_1_0(f, dict(
                descr="<f8", fortran_order=False,
                shape=(12, 10**9, 100, 5)))
            f.write(bytes(64))
        assert path.stat().st_size < 256
        why = (f"{path} holds float64 (12, 1000000000, 100, 5), "
               "expected float64 (2, 5, 10, 5)")
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            load_ensemble(str(root))
        capsys.readouterr()
        assert cli_main(["predict", "--model", str(root),
                         "--weather", str(tmp_path / "weather.csv"),
                         "--out", str(tmp_path / "pred.json")]) == 2
        assert json.loads(capsys.readouterr().err) == dict(
            error="ValueError", message=why)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        X, theta = _make_data(n_days=16)
        model = train_ensemble(X, theta, hidden_size=10, n_members=5,
                               master_seed=11)
        save_ensemble(model, str(tmp_path / "model"))

        def refuse(*args, **kwargs):
            raise AssertionError("load_ensemble drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        clone = load_ensemble(str(tmp_path / "model"))
        monkeypatch.undo()
        for name in ("hidden_weights", "hidden_biases", "output_weights"):
            np.testing.assert_array_equal(getattr(clone, name),
                                          getattr(model, name))

    def test_manifest_is_written_last(self, tmp_path, monkeypatch):
        model = train_ensemble(*_make_data(n_days=16), hidden_size=10,
                               n_members=5, master_seed=12)
        placed = []
        replace = os.replace

        def record(src, dst):
            placed.append(os.path.basename(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        save_ensemble(model, str(tmp_path / "model"))
        assert placed[-1] == "manifest.json"
        assert sorted(placed[:-1]) == ["hidden_biases.npy",
                                       "hidden_weights.npy",
                                       "output_weights.npy"]
        assert not list((tmp_path / "model").glob("*.tmp"))


class TestTrainSpeed:
    # pytest-benchmark timing of training at the forecast benchmark's
    # set-up size: 23 days, 12 hours of 9 features, 50 members, hidden 100
    def test_train_ensemble(self, benchmark):
        X = np.random.default_rng(23).uniform(0.0, 1.0, (23, 12 * 9))
        u = X[:, ::9]
        theta = np.stack([0.1 + 0.2 * u, 0.3 + 0.4 * u, 0.05 + 0.1 * u,
                          np.full_like(u, 0.1), np.full_like(u, 0.9)], axis=1)
        model = benchmark(train_ensemble, X, theta, master_seed=1, ridge=2.0)
        assert model.output_weights.shape == (12, 50, 100, 5)

    def test_predict_day(self, benchmark, tmp_path):
        # the forecast benchmark's predict stage: load a saved model of
        # that size and predict one weather day with one missing cell
        X = np.random.default_rng(23).uniform(0.0, 1.0, (23, 12 * 9))
        u = X[:, ::9]
        theta = np.stack([0.1 + 0.2 * u, 0.3 + 0.4 * u, 0.05 + 0.1 * u,
                          np.full_like(u, 0.1), np.full_like(u, 0.9)], axis=1)
        save_ensemble(train_ensemble(X, theta, master_seed=1),
                      str(tmp_path / "model"))
        day = X[:1].copy()
        day[0, 10] = np.nan
        pred, = benchmark(lambda: predict_params_batch(
            load_ensemble(str(tmp_path / "model")), day))
        assert pred.theta.shape == (5, 12) and np.isfinite(pred.theta).all()
