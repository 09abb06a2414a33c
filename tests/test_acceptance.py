"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and
prints a single PASS/FAIL line so the whole gate can be read from the
pytest log at a glance.
"""

import filecmp
import os
import time

import numpy as np
import pytest
from scipy import stats

from pvsde.elm import elm_train, fit_scaler
from pvsde.ensemble import predict_params_batch, train_ensemble, trimmed_mean
from pvsde.estimation import identify_hour
from pvsde.metrics import EvalInput, kl_divergence, nd, picp, rho_risk
from pvsde.pipeline import (RunConfig, cmd_e2e, cmd_evaluate, cmd_identify,
                            cmd_predict, cmd_simulate, cmd_synth, cmd_train)
from pvsde.sde import (DayParams, SdeParams, make_fan, simulate_hour,
                       stationary_beta_shapes, stationary_sample)
from pvsde.synth import true_param_map
from pvsde.weather import COMPASS_DEGREES, encode_hour

# Reference hourly regimes: identified parameters (a, b, beta, c, d) and the
# public weather report for the same hour (clear sky, partly cloudy, rainy,
# overcast).
REGIME_PARAMS = {
    "clear": (0.3298, 0.8333, 0.0348, 0.6895, 0.8477),
    "cloudy": (0.2095, 0.5496, 0.1946, 0.1263, 0.9930),
    "rainy": (0.0760, 0.0519, 0.0519, 0.0, 0.3143),
    "overcast": (0.0461, 0.3547, 0.1064, 0.2267, 0.6209),
}
REGIME_WEATHER = {
    "clear": dict(temperature=24.14, humidity=57.0, pressure=1004.4,
                  precipitation=0.0, wind_speed=11.298, wind_direction="E",
                  cloud=6.0, irradiance=2.27),
    "cloudy": dict(temperature=24.20, humidity=75.0, pressure=1003.7,
                   precipitation=0.0, wind_speed=7.044, wind_direction="E",
                   cloud=6.0, irradiance=2.39),
    "rainy": dict(temperature=23.27, humidity=98.0, pressure=996.0,
                  precipitation=7.8, wind_speed=9.072, wind_direction="NE",
                  cloud=9.0, irradiance=0.02),
    "overcast": dict(temperature=25.85, humidity=87.0, pressure=996.6,
                     precipitation=0.0, wind_speed=9.294, wind_direction="S",
                     cloud=9.0, irradiance=0.67),
}


def _announce(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.mark.slow
def test_criterion_1_stationary_law(capsys):
    """Long simulations reproduce the analytic Beta stationary law."""
    worst = {}
    for name, vals in REGIME_PARAMS.items():
        th = SdeParams(*vals)
        alpha, beta_shape = stationary_beta_shapes(th)
        t0 = time.time()
        rng = np.random.default_rng(10)
        start = stationary_sample(th, 600, rng)
        # Fine substeps resolve the boundary-divergent densities; the pooled
        # tail of 600 paths x 30 steps x 4000 substeps is a 7.2e7-step run.
        paths = simulate_hour(th, start, n_steps=40, rng=rng, substeps=4000)
        u = (paths[-30:, :].ravel() - th.c) / (th.d - th.c)
        ks = stats.kstest(u, stats.beta(alpha, beta_shape).cdf).statistic
        worst[name] = (ks, time.time() - t0)
    ok = all(ks < 0.02 and dt <= 30.0 for ks, dt in worst.values())
    detail = ", ".join(f"{n} KS={ks:.4f} ({dt:.1f}s)"
                       for n, (ks, dt) in worst.items())
    _announce(capsys, "criterion 1 stationary law", ok, detail)


@pytest.mark.slow
def test_criterion_2_autocorrelation(capsys):
    """Stationary clear-sky ACF decays as exp(-a * lag)."""
    th = SdeParams(*REGIME_PARAMS["clear"])
    n_steps = 120_000
    rng = np.random.default_rng(20)
    start = stationary_sample(th, 1, rng)
    path = simulate_hour(th, start, n_steps=n_steps, rng=rng,
                         substeps=20)[:, 0]
    x = path - path.mean()
    var = np.mean(x * x)
    max_lag = int(np.floor(1.0 / th.a))
    errs = []
    for k in range(1, max_lag + 1):
        acf = np.mean(x[:-k] * x[k:]) / var
        target = np.exp(-th.a * k)
        errs.append(abs(acf - target) / target)
    ok = max(errs) < 0.10 and n_steps >= 10**5
    detail = (f"lags 1..{max_lag}, rel errs "
              + ", ".join(f"{e:.4f}" for e in errs))
    _announce(capsys, "criterion 2 autocorrelation", ok, detail)


@pytest.mark.slow
def test_criterion_3_parameter_recovery(capsys):
    """Averaged per-hour estimates recover the generating parameters."""
    tol = dict(a=0.20, b=0.20, beta=0.15, c=0.15, d=0.15)
    names = ("a", "b", "beta", "c", "d")
    lines = []
    ok = True
    for regime, vals in REGIME_PARAMS.items():
        th = SdeParams(*vals)
        t0 = time.time()
        rng = np.random.default_rng(2)
        # Start each hour away from the reverting level so the transient
        # excites the drift; hours are simulated at the model's own 30 s step.
        frac = (th.b - th.c) / (th.d - th.c)
        u = (rng.uniform(0.05, 0.35, 100) if frac > 0.5
             else rng.uniform(0.65, 0.95, 100))
        p0 = th.c + (th.d - th.c) * u
        sim = simulate_hour(th, p0, step_seconds=30.0, n_steps=120,
                            rng=rng, substeps=1)
        paths = np.vstack([p0[None, :], sim])
        est = np.array([identify_hour(paths[:, j], seed=4242 + j).params
                        for j in range(100)])
        mean_est = est.mean(axis=0)
        truth = np.array(vals)
        denom = np.where(np.abs(truth) > 1e-9, np.abs(truth), th.d - th.c)
        rel = np.abs(mean_est - truth) / denom
        regime_ok = all(rel[i] <= tol[names[i]] for i in range(5))
        ok = ok and regime_ok and (time.time() - t0) <= 60.0
        lines.append(f"{regime} max rel={rel.max():.3f}"
                     f" ({time.time() - t0:.1f}s)")
    _announce(capsys, "criterion 3 parameter recovery", ok, ", ".join(lines))


def test_criterion_4_elm_interpolation(capsys):
    """K = 100 hidden units interpolate N = 50 samples to 1e-6."""
    rng = np.random.default_rng(40)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    # one network of the stack trainer the ensemble runs, on every row
    layer = np.random.default_rng(41)
    W = layer.standard_normal((1, 100, 3))
    b = layer.standard_normal((1, 100))
    mean, std = fit_scaler(X)
    H, V = elm_train((X - mean) / std, W, b, y[:, None], np.arange(50)[None],
                     ridge=0.0)
    resid = float(np.max(np.abs(H[0] @ V[0, :, 0] - y)))
    ok = resid <= 1e-6
    _announce(capsys, "criterion 4 ELM interpolation", ok,
              f"max |Hv - y| = {resid:.2e}")


def test_criterion_5_trimmed_aggregation(capsys):
    """Trimmed mean hits 5.5 exactly and ignores injected outliers."""
    base = np.arange(1.0, 11.0)
    clean = trimmed_mean(base)
    polluted = base.copy()
    polluted[0] = -1e9
    polluted[-1] = 1e9
    drift = abs(trimmed_mean(polluted) - clean)
    ok = clean == 5.5 and drift <= 1e-12
    _announce(capsys, "criterion 5 trimmed aggregation", ok,
              f"mean={clean}, outlier drift={drift:.2e}")


def test_criterion_6_metric_identities(capsys):
    """Risk/KL/PICP metrics satisfy their defining identities."""
    th = SdeParams(*REGIME_PARAMS["cloudy"])
    day = DayParams(th.as_array()[:, None])
    fan = make_fan(day, 0.55, n_paths=4000, seed=11)
    actual = simulate_hour(th, np.array([0.55]), n_steps=fan.n_steps,
                           rng=np.random.default_rng(13), substeps=1)[:, 0]
    inp = EvalInput(fan, actual)
    risk_gap = abs(rho_risk(inp, 0.5) - nd(fan.quantile(0.5), actual))
    kl_self = kl_divergence(actual, actual)
    valid = simulate_hour(th, np.full(10_000, 0.55), n_steps=fan.n_steps,
                          rng=np.random.default_rng(12), substeps=1)
    coverage = np.mean([picp(EvalInput(fan, valid[:, j]), 0.9)
                        for j in range(valid.shape[1])])
    ok = (risk_gap <= 1e-12 and kl_self <= 1e-6
          and 0.88 <= coverage <= 0.92)
    _announce(capsys, "criterion 6 metric identities", ok,
              f"|rho-risk(0.5) - ND|={risk_gap:.2e}, KL(self)={kl_self:.2e},"
              f" PICP-90={coverage:.4f}")


@pytest.mark.slow
def test_criterion_7_end_to_end_pipeline(capsys, tmp_path):
    """400 synthetic days through the full identify/train/forecast chain."""
    cfg = RunConfig()
    t0 = time.time()
    cmd_synth(cfg, str(tmp_path / "dataset"))
    res = cmd_e2e(cfg, str(tmp_path / "dataset"), str(tmp_path / "out"))
    elapsed = time.time() - t0
    rmse = res["slot_rmse"]
    ok = (all(v <= 0.10 for v in rmse.values())
          and 0.85 <= res["picp90_mean"] <= 0.95
          and res["beats_climatology_nd"] >= 0.80
          and res["beats_climatology_kl"] >= 0.80
          and elapsed <= 600.0)
    detail = (f"slot RMSE max={max(rmse.values()):.3f},"
              f" PICP-90={res['picp90_mean']:.3f},"
              f" beats ND={res['beats_climatology_nd']:.2f}"
              f" KL={res['beats_climatology_kl']:.2f},"
              f" {elapsed:.0f}s")
    _announce(capsys, "criterion 7 end-to-end pipeline", ok, detail)


def _run_chain(cfg, dataset, out):
    os.makedirs(out, exist_ok=True)
    cmd_synth(cfg, dataset)
    cmd_identify(cfg, os.path.join(dataset, "pv.csv"),
                 os.path.join(out, "params.json"))
    cmd_train(cfg, os.path.join(dataset, "weather.csv"),
              os.path.join(out, "params.json"), os.path.join(out, "model"))
    cmd_predict(cfg, os.path.join(out, "model"),
                os.path.join(dataset, "weather.csv"),
                os.path.join(out, "predicted.json"))
    cmd_simulate(cfg, os.path.join(out, "predicted.json"),
                 os.path.join(out, "fans"),
                 pv_path=os.path.join(dataset, "pv.csv"))
    cmd_evaluate(cfg, os.path.join(out, "fans"),
                 os.path.join(dataset, "pv.csv"),
                 os.path.join(out, "eval"))


def _tree_files(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = p
    return out


def test_criterion_8_reproducibility(capsys, tmp_path):
    """The same seed reproduces every artifact byte for byte."""
    cfg = RunConfig(n_days=16, m=4, start_hour=9, n_members=12,
                    hidden_size=20, n_paths=100, seed=5, dump_paths=20)
    for tag in ("run1", "run2"):
        _run_chain(cfg, str(tmp_path / tag / "dataset"),
                   str(tmp_path / tag / "out"))
        cmd_e2e(cfg, str(tmp_path / tag / "dataset"),
                str(tmp_path / tag / "e2e"))
    a, b = _tree_files(tmp_path / "run1"), _tree_files(tmp_path / "run2")
    same_names = sorted(a) == sorted(b)
    diffs = [rel for rel in sorted(a)
             if rel in b and not filecmp.cmp(a[rel], b[rel], shallow=False)]
    ok = same_names and not diffs
    _announce(capsys, "criterion 8 reproducibility", ok,
              f"{len(a)} artifacts compared, "
              + ("all byte-identical" if ok else f"diffs={diffs[:5]}"))


def _hour_features(w):
    return encode_hour(w["temperature"], w["humidity"], w["pressure"],
                       w["precipitation"], w["wind_speed"],
                       COMPASS_DEGREES[w["wind_direction"]],
                       w["cloud"], w["irradiance"])


def test_criterion_9_regime_ordering(capsys):
    """Clear-sky vs cloudy weather rows keep the identified ordering."""
    rng = np.random.default_rng(99)
    X, theta = [], []
    for i in range(40):
        h, cl, ir = (rng.uniform(40, 100), rng.uniform(0, 9),
                     rng.uniform(0.0, 3.0))
        w = dict(temperature=rng.uniform(20, 30), humidity=h,
                 pressure=rng.uniform(995, 1010), precipitation=0.0,
                 wind_speed=rng.uniform(2, 12), wind_direction="E",
                 cloud=cl, irradiance=ir)
        X.append(_hour_features(w))
        theta.append(true_param_map(h, cl, ir).as_array()[:, None])
    for name, w0 in REGIME_WEATHER.items():
        th = SdeParams(*REGIME_PARAMS[name])
        for j in range(5):
            w = dict(w0)
            w["temperature"] += rng.normal(0.0, 0.3)
            w["humidity"] = float(np.clip(w["humidity"]
                                          + rng.normal(0.0, 1.5), 0, 100))
            w["irradiance"] = max(w["irradiance"] + rng.normal(0.0, 0.05),
                                  0.0)
            X.append(_hour_features(w))
            theta.append(th.as_array()[:, None])
    model = train_ensemble(X, theta, hidden_size=60, n_members=30,
                           master_seed=0, ridge=2.0)
    clear, cloudy = predict_params_batch(
        model, [_hour_features(REGIME_WEATHER[r]) for r in ("clear", "cloudy")])
    clear, cloudy = (SdeParams(*day.theta[:, 0].tolist())
                     for day in (clear, cloudy))
    ok = clear.b > cloudy.b and clear.beta < cloudy.beta
    _announce(capsys, "criterion 9 regime ordering", ok,
              f"b {clear.b:.4f} vs {cloudy.b:.4f},"
              f" beta {clear.beta:.4f} vs {cloudy.beta:.4f}")
