"""Tests for the probabilistic forecast metrics."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvsde.metrics import (VS_LAGS, EvalInput, UndefinedMetricError, evaluate,
                           kl_divergence, nd, nrmse, picp, rho_risk,
                           variogram_score)
from pvsde.sde import (DEFAULT_QUANTILE_LEVELS, DayParams, SdeParams,
                       SimulationFan, make_fan)

CLOUDY = SdeParams(a=0.2095, b=0.5496, beta=0.1946, c=0.1263, d=0.9930)


def _fan_from_paths(paths, step_seconds=30.0):
    paths = np.asarray(paths, dtype=float)
    q = np.quantile(paths, DEFAULT_QUANTILE_LEVELS, axis=0)
    return SimulationFan(paths=paths, step_seconds=step_seconds,
                         quantiles=q, mean=paths.mean(axis=0))


def _sde_input(seed=0, n_paths=400, actual_seed=1):
    day = DayParams(CLOUDY.as_array()[:, None])
    fan = make_fan(day, 0.5, n_paths=n_paths, seed=seed)
    actual = make_fan(day, 0.5, n_paths=1, seed=actual_seed).paths[0]
    return EvalInput(fan=fan, actual=actual)


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

    def test_float32_samples_count_as_their_float64_values(self):
        rng = np.random.default_rng(3)
        a, f = rng.random(500), rng.random((20, 300)).astype(np.float32)
        assert kl_divergence(a, f) == kl_divergence(a, f.astype(float))
        assert kl_divergence(f, a) == kl_divergence(f.astype(float), a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([]), np.ones(5))


def _brute_vs(paths, actual, mask):
    """The variogram score as a plain loop over lags, pairs and paths."""
    n_paths, n = paths.shape
    per_lag = []
    for k in VS_LAGS:
        terms = []
        for t in range(n - k):
            if mask[t] and mask[t + k]:
                fan = sum(abs(paths[j, t + k] - paths[j, t]) ** 0.5
                          for j in range(n_paths)) / n_paths
                terms.append((abs(actual[t + k] - actual[t]) ** 0.5
                              - fan) ** 2)
        if terms:
            per_lag.append(sum(terms) / len(terms))
    return sum(per_lag) / len(per_lag)


# 0 .. 1 in steps of 2^-20: exact differences, no subnormal square
GRID_VALUE = st.integers(0, 2 ** 20).map(lambda i: i / 2 ** 20)


class TestVariogram:
    @pytest.mark.parametrize("n_paths, n_steps", [
        (7, 40), (37, 40),      # one and three chunks of paths
        (5, 3),                 # lags 4, 8 and 16 are past the series
    ])
    def test_matches_brute_force_loop(self, n_paths, n_steps):
        rng = np.random.default_rng(9)
        paths = rng.uniform(size=(n_paths, n_steps))
        actual = rng.uniform(size=n_steps)
        mask = rng.uniform(size=n_steps) > 0.3
        mask[:2] = True
        np.testing.assert_allclose(variogram_score(paths, actual, mask),
                                   _brute_vs(paths, actual, mask),
                                   rtol=1e-12)

    def test_no_valid_pair_is_refused(self):
        with pytest.raises(ValueError, match="two valid samples"):
            variogram_score(np.ones((3, 4)), np.ones(4),
                            np.array([True, False, False, False]))
        # no lag-1 pair, but lag 2 has one
        mask = np.array([True, False, True, False])
        assert variogram_score(np.ones((3, 4)), np.ones(4), mask) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_masked_actual_and_power_of_4_scale(self, data):
        # the score reads no masked actual sample, and scaling the fan and
        # the actual by 4 scales it by exactly 4: every square root of an
        # increment scales by exactly 2
        n_paths = data.draw(st.integers(1, 40))
        n = data.draw(st.integers(2, 30))
        cells = st.lists(GRID_VALUE, min_size=n * (n_paths + 1),
                         max_size=n * (n_paths + 1))
        values = np.array(data.draw(cells)).reshape(n_paths + 1, n)
        paths, actual = values[:-1], values[-1]
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)))
        t = data.draw(st.integers(0, n - 2))
        mask[t:t + 2] = True                    # one lag-1 pair
        score = np.float64(variogram_score(paths, actual, mask))
        other = actual.copy()
        other[~mask] = data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=n, max_size=n))[:(~mask).sum()]
        rewritten = np.float64(variogram_score(paths, other, mask))
        assert rewritten.tobytes() == score.tobytes()
        scaled = np.float64(variogram_score(4 * paths, 4 * actual, mask))
        assert scaled.tobytes() == (4 * score).tobytes()

    def test_prefers_the_true_dynamics(self):
        # one cloudy hour a day: the fan of the generating a and beta
        # scores lower than one with both scaled, on nearly every day
        true = DayParams(CLOUDY.as_array()[:, None])
        wins = {0.5: 0, 2.0: 0}
        for day in range(30):
            actual = make_fan(true, 0.5, n_paths=1, seed=1000 + day).paths[0]
            mask = np.ones(actual.size, dtype=bool)
            vs = variogram_score(make_fan(true, 0.5, n_paths=200,
                                          seed=day).paths, actual, mask)
            for scale in wins:
                p = replace(CLOUDY, a=scale * CLOUDY.a,
                            beta=scale * CLOUDY.beta)
                fan = make_fan(DayParams(p.as_array()[:, None]), 0.5,
                               n_paths=200, seed=day)
                wins[scale] += vs < variogram_score(fan.paths, actual, mask)
        assert wins[0.5] >= 27 and wins[2.0] >= 27, wins

    def test_white_noise_fan_scores_worse(self):
        rng = np.random.default_rng(6)
        white = rng.uniform(0.2, 0.8, size=(200, 120))
        inp = _sde_input(n_paths=200)
        assert (variogram_score(white, inp.actual, inp.mask)
                > variogram_score(inp.fan.paths, inp.actual, inp.mask))

    def test_evaluate_reports_it(self):
        inp = _sde_input()
        mask = np.ones(120, dtype=bool)
        mask[10] = False
        inp = EvalInput(fan=inp.fan, actual=inp.actual, mask=mask)
        assert evaluate(inp).vs == variogram_score(inp.fan.paths,
                                                   inp.actual, mask)


class TestEvaluate:
    def test_report_fields_finite(self):
        rep = evaluate(_sde_input())
        for v in rep.__dict__.values():
            assert np.isfinite(v)

    def test_default_fan_evaluates(self):
        # make_fan's default levels hold every level the metrics read
        day = DayParams(CLOUDY.as_array()[:, None])
        fan = make_fan(day, 0.5, n_paths=100, seed=0)
        actual = make_fan(day, 0.5, n_paths=1, seed=1).paths[0]
        rep = evaluate(EvalInput(fan=fan, actual=actual))
        assert all(np.isfinite(v) for v in rep.__dict__.values())

    def test_report_identities(self):
        inp = _sde_input()
        rep = evaluate(inp)
        assert rep.risk50 == pytest.approx(rep.nd, abs=1e-12)
        assert rep.picp90 == picp(inp, 0.90)

    def test_a_float32_fan_is_scored_without_a_float64_copy(self,
                                                            peak_bytes):
        # an all-valid day of 200 float32 kept paths, as the commands
        # score it
        day = DayParams(np.tile(CLOUDY.as_array()[:, None], 12))
        fan = make_fan(day, 0.5, n_paths=200, seed=0)
        fan = replace(fan, paths=np.asarray(fan.paths, dtype=np.float32))
        actual = make_fan(day, 0.5, n_paths=1, seed=1).paths[0]
        inp = EvalInput(fan=fan, actual=actual)
        assert fan.paths.shape == (200, 1440)
        peak = peak_bytes(lambda: evaluate(inp))
        assert peak < fan.paths.size * 8, peak      # one float64 copy

    def test_requires_some_valid_samples(self):
        inp0 = _sde_input()
        with pytest.raises(ValueError):
            EvalInput(fan=inp0.fan, actual=inp0.actual,
                      mask=np.zeros(120, dtype=bool))
