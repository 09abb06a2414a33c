"""Tests for the probabilistic forecast metrics."""

import numpy as np
import pytest

from pvsde.metrics import (EvalInput, UndefinedMetricError, _acf, _fast_len,
                           autocorr_mismatch, evaluate, kl_divergence, nd,
                           nrmse, picp, rho_risk)
from pvsde.sde import DayParams, SdeParams, SimulationFan, make_fan

LEVELS = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95)
CLOUDY = SdeParams(a=0.2095, b=0.5496, beta=0.1946, c=0.1263, d=0.9930)


def _fan_from_paths(paths, step_seconds=30.0):
    paths = np.asarray(paths, dtype=float)
    q = np.quantile(paths, LEVELS, axis=0)
    return SimulationFan(paths=paths, step_seconds=step_seconds,
                         quantile_levels=LEVELS, quantiles=q,
                         mean=paths.mean(axis=0))


def _sde_input(seed=0, n_paths=400, actual_seed=1):
    day = DayParams(hours=(CLOUDY,))
    fan = make_fan(day, 0.5, n_paths=n_paths, seed=seed,
                   quantile_levels=LEVELS)
    actual = make_fan(day, 0.5, n_paths=1, seed=actual_seed,
                      quantile_levels=LEVELS).paths[0]
    return EvalInput(fan=fan, actual=actual)


def _actual_paths(n=500, seed=1):
    """Many actual days of the fan's process, from their own seed."""
    return make_fan(DayParams(hours=(CLOUDY,)), 0.5, n_paths=n,
                    seed=seed).paths


def _mean_mismatch(fan, actuals):
    """Mean 5-minute-window ACF mismatch of a fan over actual days."""
    return np.mean([autocorr_mismatch(EvalInput(fan=fan, actual=a),
                                      window_seconds=300.0)
                    for a in actuals])


class TestPointMetrics:
    def test_nd_hand_value(self):
        p = np.array([1.0, 2.0, 3.0])
        a = np.array([2.0, 2.0, 2.0])
        assert nd(p, a) == pytest.approx(2.0 / 6.0)

    def test_nrmse_hand_value(self):
        p = np.array([1.0, 3.0])
        a = np.array([2.0, 2.0])
        assert nrmse(p, a) == pytest.approx(1.0 / 2.0)

    def test_mask_applied(self):
        p = np.array([1.0, 100.0])
        a = np.array([1.0, 2.0])
        m = np.array([True, False])
        assert nd(p, a, m) == 0.0

    def test_all_zero_actual_undefined(self):
        with pytest.raises(UndefinedMetricError):
            nd(np.ones(3), np.zeros(3))
        with pytest.raises(UndefinedMetricError):
            nrmse(np.ones(3), np.zeros(3))


class TestRhoRisk:
    def test_hand_value(self):
        # single step: a=1, q=0.4, rho=0.9 -> 2*0.9*0.6/1
        fan = _fan_from_paths(np.full((10, 1), 0.4))
        inp = EvalInput(fan=fan, actual=np.array([1.0]))
        assert rho_risk(inp, 0.9) == pytest.approx(2 * 0.9 * 0.6)

    def test_median_risk_equals_nd(self):
        inp = _sde_input()
        median = inp.fan.quantile(0.5)
        assert rho_risk(inp, 0.5) == pytest.approx(
            nd(median, inp.actual, inp.mask), abs=1e-12)

    def test_penalizes_correct_side_less(self):
        # actual above the quantile: high rho (wants to over-cover) is
        # penalized more than low rho for the same gap
        fan = _fan_from_paths(np.full((10, 1), 0.4))
        inp = EvalInput(fan=fan, actual=np.array([1.0]))
        assert rho_risk(inp, 0.9) > rho_risk(inp, 0.5) * 0.9 / 0.5 - 1e-12


class TestPicp:
    def test_hand_value(self):
        paths = np.tile(np.linspace(0.0, 1.0, 101)[:, None], (1, 4))
        fan = _fan_from_paths(paths)
        # q05 = 0.05 and q95 = 0.95 exactly for this path set
        actual = np.array([0.5, 0.06, 0.94, 2.0])  # in, in, in, out
        inp = EvalInput(fan=fan, actual=actual)
        assert picp(inp, 0.90) == pytest.approx(0.75)

    def test_wider_interval_covers_more(self):
        inp = _sde_input()
        assert picp(inp, 0.90) >= picp(inp, 0.5) - 1e-12

    def test_self_consistency(self):
        # actual drawn from the same law as the fan: coverage ~= level
        vals = [picp(_sde_input(seed=s, actual_seed=1000 + s), 0.90)
                for s in range(8)]
        assert np.mean(vals) == pytest.approx(0.90, abs=0.04)


class TestKl:
    def test_self_divergence_zero(self):
        x = np.random.default_rng(0).beta(2.0, 5.0, 20000)
        assert kl_divergence(x, x) <= 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 5000)
        f = rng.normal(0.3, 1.2, 5000)
        assert kl_divergence(a, f) >= 0.0

    def test_shifted_normal_oracle(self):
        # D(N(0,1) || N(0.5,1)) = 0.125 analytically
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, 200000)
        f = rng.normal(0.5, 1.0, 200000)
        assert kl_divergence(a, f) == pytest.approx(0.125, abs=0.02)

    def test_grows_with_separation(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, 20000)
        near = rng.normal(0.2, 1.0, 20000)
        far = rng.normal(1.0, 1.0, 20000)
        assert kl_divergence(a, far) > kl_divergence(a, near)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([]), np.ones(5))


class TestAcf:
    def test_matches_direct_loop(self):
        # lag n - 1 is where a too-short FFT would wrap around
        for n, n_lags in [(300, 20), (2, 1), (7, 6), (300, 299)]:
            x = np.random.default_rng(4).normal(size=n)
            got = _acf(x, n_lags)
            xc = x - x.mean()
            var = np.mean(xc ** 2)
            expected = np.array([
                np.sum(xc[:-k] * xc[k:]) / (x.size - k) / var
                for k in range(1, n_lags + 1)])
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_ar1_oracle(self):
        # AR(1) with coefficient phi has ACF(k) ~= phi^k
        rng = np.random.default_rng(5)
        phi = 0.9
        n = 200000
        x = np.empty(n)
        x[0] = 0.0
        e = rng.normal(size=n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + e[i]
        got = _acf(x, 5)
        np.testing.assert_allclose(got, phi ** np.arange(1, 6), atol=0.02)

    def test_row_does_not_depend_on_its_transform_mates(self):
        # a fan's paths share transforms; each path's ACF is its ACF alone
        x = np.cumsum(np.random.default_rng(8).normal(size=(200, 1440)), 1)
        acf = _acf(x, 360)
        for i in range(0, 200, 3):
            assert acf[i].tobytes() == _acf(x[i], 360).tobytes(), i

    def test_fft_length_equals_scipy(self):
        from scipy.fft import next_fast_len
        for n in range(1, 20001):
            assert _fast_len(n) == next_fast_len(n, real=True), n

    def test_mismatch_small_for_matched_process(self):
        # one 120-step hour gives a noisy empirical ACF, so a single day's
        # mismatch swings widely even against a matched fan; its mean over
        # many actual days of the same process is stable and bounded
        fan = _sde_input(n_paths=500).fan
        assert _mean_mismatch(fan, _actual_paths()) < 0.8

    def test_mismatch_large_for_white_noise_fan(self):
        rng = np.random.default_rng(6)
        white = _fan_from_paths(rng.uniform(0.2, 0.8, size=(200, 120)))
        matched = _sde_input(n_paths=200).fan
        actuals = _actual_paths()
        assert (_mean_mismatch(white, actuals)
                > _mean_mismatch(matched, actuals))

    def test_uses_longest_unmasked_run(self):
        inp0 = _sde_input()
        mask = np.ones(120, dtype=bool)
        mask[10] = False  # splits into runs of 10 and 109
        inp = EvalInput(fan=inp0.fan, actual=inp0.actual, mask=mask)
        fan = inp0.fan
        tail = SimulationFan(paths=fan.paths[:, 11:], step_seconds=30.0,
                             quantile_levels=fan.quantile_levels,
                             quantiles=fan.quantiles[:, 11:],
                             mean=fan.mean[11:])
        ref = EvalInput(fan=tail, actual=inp0.actual[11:])
        assert autocorr_mismatch(inp) == autocorr_mismatch(ref)


class TestEvaluate:
    def test_report_fields_finite(self):
        rep = evaluate(_sde_input())
        for v in rep.__dict__.values():
            assert np.isfinite(v)

    def test_default_fan_evaluates(self):
        # make_fan's default levels hold every level the metrics read
        day = DayParams(hours=(CLOUDY,))
        fan = make_fan(day, 0.5, n_paths=100, seed=0)
        actual = make_fan(day, 0.5, n_paths=1, seed=1).paths[0]
        rep = evaluate(EvalInput(fan=fan, actual=actual))
        assert all(np.isfinite(v) for v in rep.__dict__.values())

    def test_report_identities(self):
        inp = _sde_input()
        rep = evaluate(inp)
        assert rep.risk50 == pytest.approx(rep.nd, abs=1e-12)
        assert rep.picp90 == picp(inp, 0.90)

    def test_requires_some_valid_samples(self):
        inp0 = _sde_input()
        with pytest.raises(ValueError):
            EvalInput(fan=inp0.fan, actual=inp0.actual,
                      mask=np.zeros(120, dtype=bool))
