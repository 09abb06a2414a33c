"""Tests for the bagged weather-to-parameter ensemble."""

import hashlib
import json
import os

import numpy as np
import pytest

from pvsde.elm import hidden_layer
from pvsde.ensemble import (TrainingError, WeatherDay, load_ensemble,
                            predict_params_batch, save_ensemble,
                            train_ensemble, trimmed_mean)
from pvsde.sde import DayParams, SdeParams


def _make_pairs(n_days=24, m=2, seed=0):
    """Weather days with parameters that depend smoothly on the features."""
    rng = np.random.default_rng(seed)
    pairs = []
    p = 3
    names = tuple(f"h{i}_f{j}" for i in range(m) for j in range(p))
    for k in range(n_days):
        x = rng.uniform(0.0, 1.0, m * p)
        hours = []
        for i in range(m):
            u = x[i * p]
            hours.append(SdeParams(a=0.1 + 0.2 * u, b=0.3 + 0.4 * u,
                                   beta=0.05 + 0.1 * u, c=0.1, d=0.9))
        day = WeatherDay(date=f"d{k:03d}", features=x, feature_names=names)
        pairs.append((day, DayParams(hours=tuple(hours))))
    return pairs


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
            train_ensemble(_make_pairs(n_days=5), hidden_size=10,
                           n_members=3, master_seed=0)

    def test_flagged_hours_excluded_and_reported(self):
        pairs = _make_pairs(n_days=16)
        flags = [[False, False] for _ in pairs]
        for fl in flags[:3]:
            fl[1] = True  # hour 1 invalid on three days
        model = train_ensemble(pairs, hidden_size=10, n_members=3,
                               master_seed=0, flags=flags)
        assert model.m == 2
        # dropping below the floor raises instead
        bad = [[False, True] for _ in pairs]
        with pytest.raises(TrainingError, match="hour=1"):
            train_ensemble(pairs, hidden_size=10, n_members=3,
                           master_seed=0, flags=bad)

    def test_learns_smooth_map(self):
        pairs = _make_pairs(n_days=64)
        model = train_ensemble(pairs, hidden_size=30, n_members=20,
                               master_seed=1)
        test = _make_pairs(n_days=16, seed=99)
        errs = []
        preds = predict_params_batch(model, [day for day, _ in test])
        for pred, (_, truth) in zip(preds, test):
            for ph, th in zip(pred.hours, truth.hours):
                errs.append(abs(ph.b - th.b))
        assert np.mean(errs) < 0.05

    def test_prediction_is_projected_valid(self):
        pairs = _make_pairs(n_days=16)
        model = train_ensemble(pairs, hidden_size=10, n_members=5,
                               master_seed=2)
        wild = WeatherDay(date="x", features=np.full(6, 25.0),
                          feature_names=pairs[0][0].feature_names)
        pred, = predict_params_batch(model, [wild])
        for th in pred.hours:
            assert th.c < th.d and th.c <= th.b <= th.d
            assert 0.0 <= th.beta <= 1.0 and 1e-4 <= th.a <= 2.0

    def test_seed_determinism(self):
        pairs = _make_pairs(n_days=16)
        m1 = train_ensemble(pairs, hidden_size=10, n_members=5,
                            master_seed=4)
        m2 = train_ensemble(pairs, hidden_size=10, n_members=5,
                            master_seed=4)
        day = pairs[0][0]
        np.testing.assert_array_equal(
            predict_params_batch(m1, [day])[0].as_matrix(),
            predict_params_batch(m2, [day])[0].as_matrix())

    def test_golden_output_weights(self, svd_ridge_solve):
        # digest of a model trained when every member drew its own
        # resample, one size-n call per member: the (members, n) index
        # array draws the same stream, at n = 24 and, with a flagged
        # day, n = 23.  The weights also equal an SVD solve of the
        # members' resamples redrawn here from the bootstrap stream, so a
        # change of the stream fails even where the digest is re-pinned.
        flags = [[False, k == 5] for k in range(24)]
        pairs = _make_pairs(n_days=24)
        model = train_ensemble(pairs, hidden_size=10, n_members=7,
                               master_seed=3, flags=flags, ridge=1e-8)
        w = np.ascontiguousarray(model.output_weights, dtype="<f8")
        assert hashlib.sha256(w.tobytes()).hexdigest() == (
            "650685ee5a439abeb72c5506a284d1756e2636d645451f1a062557df227c62c0")
        boot_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(2)[1])
        X = np.stack([day.features for day, _ in pairs])
        targets = np.stack([dp.as_matrix() for _, dp in pairs])
        for hour, keep in enumerate((np.ones(24, bool), np.arange(24) != 5)):
            Z = model._hour_inputs(X[keep], hour)
            idx = boot_rng.integers(0, len(Z), size=(7, len(Z)))
            H = hidden_layer(Z, model.hidden_weights[hour],
                             model.hidden_biases[hour])
            H = H[np.arange(7)[:, None], idx]
            want = svd_ridge_solve(H, targets[keep, :, hour][idx], 1e-8)
            got = model.output_weights[hour]
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_zero_ridge_on_repeated_rows_raises(self):
        # n = 16 days < K = 30: a resample's repeated days make every
        # member's dual Gram singular, which ridge = 0 leaves undamped
        with pytest.raises(ValueError, match="ridge"):
            train_ensemble(_make_pairs(n_days=16), hidden_size=30,
                           n_members=5, ridge=0.0)

    def test_hour_local_uses_own_hours_features(self):
        pairs = _make_pairs(n_days=48)
        model = train_ensemble(pairs, hidden_size=20, n_members=10,
                               master_seed=5)
        day = _make_pairs(n_days=1, seed=77)[0][0]
        base, = predict_params_batch(model, [day])
        # perturbing hour 1's features must not move hour 0's prediction
        x = day.features.copy()
        x[3:] += 0.3
        moved = WeatherDay(date=day.date, features=x,
                           feature_names=day.feature_names)
        pred, = predict_params_batch(model, [moved])
        np.testing.assert_array_equal(pred.as_matrix()[:, 0],
                                      base.as_matrix()[:, 0])
        assert not np.allclose(pred.as_matrix()[:, 1], base.as_matrix()[:, 1])


class TestPersistence:
    def test_round_trip_predictions_identical(self, tmp_path):
        pairs = _make_pairs(n_days=16)
        model = train_ensemble(pairs, hidden_size=10, n_members=5,
                               master_seed=6)
        save_ensemble(model, str(tmp_path / "model"))
        clone = load_ensemble(str(tmp_path / "model"))
        day = pairs[3][0]
        np.testing.assert_array_equal(
            predict_params_batch(model, [day])[0].as_matrix(),
            predict_params_batch(clone, [day])[0].as_matrix())

    def test_saved_files_are_byte_deterministic(self, tmp_path):
        pairs = _make_pairs(n_days=16)
        model = train_ensemble(pairs, hidden_size=10, n_members=5,
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
        pairs = _make_pairs(n_days=16)
        model = train_ensemble(pairs, hidden_size=10, n_members=5,
                               master_seed=8)
        root = tmp_path / "model"
        save_ensemble(model, str(root))
        man = json.loads((root / "manifest.json").read_text())
        assert man["format_version"] == 3
        assert "hour_local" not in man and "trim_fraction" not in man
        (root / "hidden_weights.npy").unlink()
        (root / "hidden_biases.npy").unlink()
        man.update(format_version=2, hour_local=True, trim_fraction=0.2)
        (root / "manifest.json").write_text(json.dumps(man))
        with pytest.raises(ValueError, match="unsupported ensemble format "
                                             "version; retrain"):
            load_ensemble(str(root))

    def test_model_dir_must_match_its_manifest(self, tmp_path):
        pairs = _make_pairs(n_days=16)
        model = train_ensemble(pairs, hidden_size=10, n_members=5,
                               master_seed=9)
        root = tmp_path / "model"
        save_ensemble(model, str(root))
        assert sorted(p.name for p in root.iterdir()) == [
            "hidden_biases.npy", "hidden_weights.npy", "manifest.json",
            "output_weights.npy"]
        # a weights file of another shape than the manifest declares
        np.save(root / "output_weights.npy", model.output_weights[:, :4])
        with pytest.raises(ValueError, match="manifest"):
            load_ensemble(str(root))
        # a directory of an older format version
        man = json.loads((root / "manifest.json").read_text())
        man["format_version"] = 1
        (root / "manifest.json").write_text(json.dumps(man))
        with pytest.raises(ValueError, match="format version"):
            load_ensemble(str(root))

    @pytest.mark.parametrize("name", ["hidden_weights", "hidden_biases"])
    def test_bad_hidden_array_names_its_file(self, tmp_path, name):
        pairs = _make_pairs(n_days=16)
        model = train_ensemble(pairs, hidden_size=10, n_members=5,
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
        with pytest.raises(ValueError,
                           match=f"{name}.npy: unreadable model array"):
            load_ensemble(str(root))
        path.unlink()
        with pytest.raises(ValueError, match=f"{name}.npy: unreadable"):
            load_ensemble(str(root))

    @pytest.mark.parametrize("fault", ["fortran", "truncated", "extra"])
    def test_bad_array_data_names_its_file_at_load(self, tmp_path, fault):
        # the data is read hour by hour after loading, so load must find
        # a layout or a length that those reads would get wrong
        model = train_ensemble(_make_pairs(n_days=16), hidden_size=10,
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
                                             "unreadable model array"):
            load_ensemble(str(root))

    def test_prediction_holds_one_hour_of_the_model(self, tmp_path,
                                                    peak_bytes):
        pairs = _make_pairs(n_days=30, m=12)
        model = train_ensemble(pairs, hidden_size=50, n_members=40,
                               master_seed=14)
        save_ensemble(model, str(tmp_path / "model"))
        total = sum(getattr(model, name).nbytes for name in
                    ("hidden_weights", "hidden_biases", "output_weights"))
        days = [w for w, _ in pairs[:3]]
        want = predict_params_batch(model, days)
        got = []
        peak = peak_bytes(lambda: got.extend(predict_params_batch(
            load_ensemble(str(tmp_path / "model")), days)))
        assert peak < total / 4, (peak, total)
        for a, b in zip(got, want):
            assert a.as_matrix().tobytes() == b.as_matrix().tobytes()

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        pairs = _make_pairs(n_days=16)
        model = train_ensemble(pairs, hidden_size=10, n_members=5,
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
        model = train_ensemble(_make_pairs(n_days=16), hidden_size=10,
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
    # set-up size: 23 days, 12 hours of 9 features, 200 members, hidden 100
    def test_train_ensemble(self, benchmark):
        rng = np.random.default_rng(23)
        names = tuple(f"h{i}_f{j}" for i in range(12) for j in range(9))
        pairs = []
        for k in range(23):
            x = rng.uniform(0.0, 1.0, 12 * 9)
            u = x[::9]
            day = DayParams.from_matrix(np.stack([
                0.1 + 0.2 * u, 0.3 + 0.4 * u, 0.05 + 0.1 * u,
                np.full(12, 0.1), np.full(12, 0.9)]))
            pairs.append((WeatherDay(date=f"d{k:03d}", features=x,
                                     feature_names=names), day))
        model = benchmark(train_ensemble, pairs, master_seed=1, ridge=2.0)
        assert model.output_weights.shape == (12, 200, 100, 5)
