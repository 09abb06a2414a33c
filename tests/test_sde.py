"""Tests for the bounded mean-reverting diffusion and its simulator."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from pvsde.pipeline import read_fan_csv, write_fan_csv
from pvsde.sde import (DEFAULT_QUANTILE_LEVELS, DayParams, SdeParams,
                       SimulationFan, StabilityError, _sorted_quantiles,
                       euler_paths, make_fan, project_rows, simulate_hour,
                       stationary_beta_shapes, stationary_sample)
from pvsde.synth import _raw_params, synth_generate

CLEAR = SdeParams(a=0.3298, b=0.8333, beta=0.0348, c=0.6895, d=0.8477)
CLOUDY = SdeParams(a=0.2095, b=0.5496, beta=0.1946, c=0.1263, d=0.9930)
# the other two criterion-3 regimes
RAINY = (0.0760, 0.0519, 0.0519, 0.0, 0.3143)
OVERCAST = (0.0461, 0.3547, 0.1064, 0.2267, 0.6209)


def _day(*hours):
    """The DayParams of the given hours, one column each."""
    return DayParams(np.column_stack([h.as_array() for h in hours]))


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SdeParams(a=0.1, b=0.5, beta=0.1, c=0.9, d=0.8)  # c >= d
        with pytest.raises(ValueError):
            SdeParams(a=-0.1, b=0.5, beta=0.1, c=0.0, d=1.0)

    # hours outside the box, each breaking the one rule named
    @pytest.mark.parametrize("row, rule", [
        ((3.0, 0.5, 0.1, 0.1, 0.9), "clamped_a"),
        ((5e-5, 0.5, 0.1, 0.1, 0.9), "clamped_a"),
        ((0.2, 0.5, 2.0, 0.1, 0.9), "clamped_beta"),
        ((0.2, 0.5, -0.1, 0.1, 0.9), "clamped_beta"),
        ((0.2, 0.5, 0.1, 0.5, 0.505), "widened_bounds"),
        ((0.2, 0.95, 0.1, 0.1, 0.9), "clamped_b"),
        ((0.2, 0.5, 0.1, 0.9, 0.1), "swapped_bounds"),
    ])
    def test_refuses_a_row_the_projection_moves(self, row, rule):
        with pytest.raises(ValueError, match=f"outside the parameter box: "
                                             f"{rule}$"):
            SdeParams(*row)
        log = []
        project_rows(row, log)
        assert log == [rule]

    def test_box_rows_construct_unchanged(self):
        for row in (CLEAR.as_array(), CLOUDY.as_array(), RAINY, OVERCAST):
            assert (SdeParams(*row).as_array().tobytes()
                    == np.array(row).tobytes())
        # the ground-truth map's hours lie in the box before its projection
        for weather in [(h, c, i) for h in (15.0, 57.0, 75.0, 100.0)
                        for c in (0.0, 6.0, 9.0) for i in (0.02, 1.5, 3.5)]:
            raw = _raw_params(*weather)
            assert (SdeParams(*raw).as_array().tobytes()
                    == project_rows(raw).tobytes())

    def test_as_array_order(self):
        np.testing.assert_array_equal(
            CLEAR.as_array(), [0.3298, 0.8333, 0.0348, 0.6895, 0.8477])

    def test_drift_and_diffusion_formulas(self):
        # one Euler step: p + a (b - p) h + sqrt(beta (p - c)(d - p)) sqrt(h) z
        a, b, beta, c, d = CLEAR.as_array()
        p, h, z = 0.7, 0.5, 0.3
        step = euler_paths(CLEAR.as_array()[None], p, h, 1, [1], [[z]])
        expected = (p + a * (b - p) * h
                    + np.sqrt(beta * (p - c) * (d - p)) * np.sqrt(h) * z)
        assert step.shape == (1, 1)
        assert abs(step[0, 0] - expected) <= 1e-15

    def test_diffusion_zero_on_boundary(self):
        # a huge first kick clips the state onto c or d; the next step is
        # then pure drift, whatever its noise
        a, b, beta, c, d = CLEAR.as_array()
        noise = [[-100.0, -100.0, 100.0, 100.0], [-5.0, 5.0, -5.0, 5.0]]
        paths = euler_paths(CLEAR.as_array()[None], [0.7] * 4, 1.0, 2, [1],
                            noise)
        np.testing.assert_array_equal(paths[0], [c, c, d, d])
        on_c, on_d = c + a * (b - c) * 1.0, d + a * (b - d) * 1.0
        np.testing.assert_array_equal(paths[1], [on_c, on_c, on_d, on_d])


class TestProjection:
    def test_valid_params_unchanged(self):
        log = []
        th = project_rows(CLEAR.as_array(), log)
        assert th.tobytes() == CLEAR.as_array().tobytes() and log == []

    def test_swaps_inverted_bounds(self):
        _, _, _, c, d = project_rows([0.2, 0.5, 0.1, 0.9, 0.1])
        assert c < d

    def test_widens_degenerate_gap(self):
        _, _, _, c, d = project_rows([0.2, 0.5, 0.1, 0.5, 0.5])
        assert d - c >= 0.01 - 1e-15

    def test_clamps_b_inside(self):
        _, b, _, c, d = project_rows([0.2, 1.5, 0.1, 0.2, 0.8])
        assert c <= b <= d

    def test_idempotent(self):
        log = []
        th = project_rows([5.0, 1.5, 3.0, 0.9, 0.1], log)
        assert log  # something was repaired
        assert project_rows(th).tobytes() == th.tobytes()
        SdeParams(*th.tolist())             # inside the box


def _value(lo, hi):
    return st.one_of(st.sampled_from([0.0, -0.0]), st.floats(lo, hi))


# a, b, beta, c, d, and an optional offset that puts d just beside c
_HOUR = st.tuples(_value(-1.0, 5.0), _value(-0.5, 1.5), _value(-1.0, 3.0),
                  _value(-0.5, 1.5), _value(-0.5, 1.5),
                  st.one_of(st.none(), _value(-0.02, 0.02)))


class TestProjectRows:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_HOUR, min_size=1, max_size=30))
    @example([(0.2, -0.5, 0.1, -0.5, -0.499, None)])   # widened below MIN_GAP
    def test_block_equals_hours_and_is_idempotent(self, hours):
        raw = np.array([(a, b, beta, c, d if near is None else c + near)
                        for a, b, beta, c, d, near in hours]).T
        log = []
        block = project_rows(raw, log)
        labels = set()
        for j, col in enumerate(raw.T.tolist()):
            hour_log = []
            one = project_rows(col, hour_log)
            SdeParams(*one.tolist())        # inside the box
            assert one.tobytes() == block[:, j].tobytes()
            labels.update(hour_log)
        assert set(log) == labels and len(log) == len(labels)
        # bit for bit on every column, a widened gap included
        assert project_rows(block).tobytes() == block.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_HOUR)
    def test_sde_params_accept_exactly_the_box(self, hour):
        # an hour constructs if and only if the projection leaves it as is
        a, b, beta, c, d, near = hour
        row = (a, b, beta, c, d if near is None else c + near)
        try:
            SdeParams(*row)
        except ValueError:
            assert not (project_rows(row) == row).all()
        else:
            assert (project_rows(row) == row).all()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            SdeParams(0.2, 0.5, np.nan, 0.1, 0.9)
        with pytest.raises(ValueError):
            project_rows(np.array([[0.2, np.nan], [0.5] * 2, [0.1] * 2,
                                   [0.0] * 2, [1.0] * 2]))


class TestEulerPaths:
    def test_paths_started_on_bounds_stay_inside(self):
        c, d = CLEAR.c, CLEAR.d
        # paths started on either bound, kicked by large noise, stay inside
        noise = 3.0 * np.random.default_rng(2).standard_normal((200, 2))
        paths = euler_paths(CLEAR.as_array()[None], [c, d], 1.0, 200, [1],
                            noise)
        assert (paths >= c).all() and (paths <= d).all()

    def test_per_path_params_match_single_runs(self):
        rng = np.random.default_rng(6)
        per_path = np.stack([np.stack([CLEAR.as_array(), CLOUDY.as_array()]),
                             np.stack([CLOUDY.as_array(), CLEAR.as_array()]),
                             np.stack([CLOUDY.as_array(),
                                       CLOUDY.as_array()])], axis=2)
        assert per_path.shape == (2, 5, 3)
        p0 = np.array([0.75, 0.5, 0.3])
        noise = rng.standard_normal((40 * 3, 3))
        paths = euler_paths(per_path, p0, 1.0, 40, [2, 1], noise)
        assert paths.shape == (80, 3)
        for j in range(3):
            single = euler_paths(per_path[:, :, j], p0[j], 1.0, 40, [2, 1],
                                 noise[:, j:j + 1])
            np.testing.assert_array_equal(paths[:, j], single[:, 0])

    @pytest.mark.parametrize("substeps", [[1], [1, 1, 1, 1], [1, 0, 1],
                                          [2, -1, 1]])
    def test_substeps_need_one_count_of_at_least_one_per_hour(self,
                                                              substeps):
        # a missing or zero count would leave rows of the output unstepped
        hours = np.stack([CLEAR.as_array()] * 3)
        noise = np.random.default_rng(3).standard_normal((40, 2))
        with pytest.raises(ValueError, match="one substep count >= 1 per "
                                             "hour"):
            euler_paths(hours, [0.7, 0.8], 1.0, 5, substeps, noise)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_chain_runs_in_its_noises_dtype(self, dtype):
        # float32 noise steps a float32 chain, which stays inside [c, d]
        noise = 3.0 * np.random.default_rng(2).standard_normal((80, 50))
        hours = np.stack([CLEAR.as_array(), CLOUDY.as_array()])
        paths = euler_paths(hours, np.linspace(0.2, 0.9, 50), 1.0, 40,
                            [1, 1], noise.astype(dtype))
        assert paths.dtype == dtype
        for hour, (c, d) in enumerate(hours[:, 3:].astype(dtype)):
            rows = paths[40 * hour:40 * (hour + 1)]
            assert (rows >= c).all() and (rows <= d).all()

    def test_simulate_hour_refuses_zero_substeps(self):
        with pytest.raises(ValueError, match="substep count"):
            simulate_hour(CLEAR, 0.8, n_steps=5, substeps=0,
                          rng=np.random.default_rng(3))


def _sha256(*arrays):
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    return h.hexdigest()


class TestGoldenKernel:
    """The kernel's output bytes, pinned by digests of the allocating
    step ``p + a (b - p) h + sqrt(beta (p - c) (d - p)) sqrt(h) z``.

    Any reordering of the step's products changes some of these bytes.
    The first case steps at h = 0.75 and 0.375, where scaling by h is
    inexact; the per-path case and the fan's one-substep hours run at
    h = 1, as the estimator's matching and the forecast fans do.  The
    one-path case splits each step into 20 substeps, as criterion 2 does.
    """

    def test_hourly_params_mixed_substeps(self):
        rng = np.random.default_rng(41)
        hours = np.stack([CLEAR.as_array(), CLOUDY.as_array(),
                          CLEAR.as_array()])
        paths = euler_paths(hours, np.linspace(0.2, 0.95, 64), 0.75, 40,
                            [1, 2, 1], rng.standard_normal((160, 64)))
        assert _sha256(paths) == ("c3ca79593cb7bda83a781b2a8f5f2851"
                                  "b40f1e72917be07e3f0593767b906ce3")

    def test_per_path_params(self):
        rng = np.random.default_rng(41)
        rng.standard_normal((160, 64))
        n = 96
        lo, hi = rng.uniform(0.05, 0.4, n), rng.uniform(0.6, 1.0, n)
        per_path = np.stack([rng.uniform(0.05, 0.45, n), rng.uniform(lo, hi),
                             rng.uniform(0.0, 0.3, n), lo, hi])[None]
        paths = euler_paths(per_path, rng.uniform(lo, hi), 1.0, 120, [1],
                            rng.standard_normal((120, n)))
        assert _sha256(paths) == ("c6f7db6454a0af3491a6c1e8a0f1d8a9"
                                  "f72409d48f736a8e758d7ad8541ee74a")

    def test_one_path_twenty_substeps(self):
        # a scalar start and 20 substeps per step: criterion 2's h = 0.05
        # units, then h = 1 (steps of 20 units), where the substeps pass
        # the state between them unscaled
        rng = np.random.default_rng(43)
        fine = simulate_hour(CLEAR, 0.8, step_seconds=30.0, n_steps=400,
                             rng=rng, substeps=20)
        unit = simulate_hour(CLEAR, 0.8, step_seconds=600.0, n_steps=40,
                             rng=rng, substeps=20)
        assert fine.shape == (400,) and unit.shape == (40,)
        assert _sha256(fine, unit) == ("42e6d9885fdc61b054404c8db220ba2a"
                                       "6830242829579b48c6596ffa5ba3fc94")

    def test_fan(self):
        # one Euler step per sample on every hour, CLEAR's a·dt = 0.33
        # under the cap; the digest of the float32 fan the commands write
        fan = make_fan(_day(CLEAR, CLOUDY, CLEAR), 0.75,
                       n_paths=300, seed=13)
        assert _sha256(fan.paths, fan.quantiles, fan.mean) == (
            "02983e76e0a6507f13d3ce0b9128312ced6edd6b5ee01fc3b747bc5028cb211d")

    def test_synth_week(self):
        _, _, pv, _ = synth_generate(np.random.default_rng(17),
                                     n_days=7)
        assert _sha256(*pv) == ("f378800ec3d365380022b4e90ada36f2"
                                "f85dbd1835f56710e7bc6436240b312f")


class TestSimulateHour:
    def test_paths_stay_inside_bounds(self):
        rng = np.random.default_rng(0)
        paths = simulate_hour(CLOUDY, np.full(64, 0.5), n_steps=120,
                              rng=rng)
        assert paths.shape == (120, 64)
        assert (paths >= CLOUDY.c).all() and (paths <= CLOUDY.d).all()

    def test_scalar_start_gives_1d(self):
        rng = np.random.default_rng(0)
        path = simulate_hour(CLEAR, 0.75, n_steps=10, rng=rng)
        assert path.shape == (10,)

    def test_seed_reproducibility(self):
        a = simulate_hour(CLOUDY, 0.5, n_steps=50,
                          rng=np.random.default_rng(7))
        b = simulate_hour(CLOUDY, 0.5, n_steps=50,
                          rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_start_outside_bounds_is_clamped(self):
        rng = np.random.default_rng(1)
        path = simulate_hour(CLEAR, 0.0, n_steps=5, rng=rng)
        assert (path > CLEAR.c).all()

    def test_coarse_step_raises_stability_error(self):
        theta = SdeParams(a=0.6, b=0.5, beta=0.1, c=0.1, d=0.9)
        with pytest.raises(StabilityError):
            simulate_hour(theta, 0.5, n_steps=5, substeps=1,
                          rng=np.random.default_rng(0))

    def test_mean_relaxes_toward_b(self):
        # E[P_t] = b + (p0 - b) exp(-a t) for the linear drift, as long as
        # the paths stay clear of the reflecting bounds
        theta = CLEAR
        rng = np.random.default_rng(3)
        p0 = 0.72
        paths = simulate_hour(theta, np.full(4000, p0), n_steps=120,
                              rng=rng, substeps=4)
        t = np.arange(1, 121)
        expected = theta.b + (p0 - theta.b) * np.exp(-theta.a * t)
        err = np.abs(paths.mean(axis=1) - expected)
        assert err.max() < 0.01


class TestStationaryLaw:
    def test_beta_shapes_formula(self):
        alpha, beta_ = stationary_beta_shapes(CLOUDY)
        span = CLOUDY.d - CLOUDY.c
        assert alpha == pytest.approx(
            2 * CLOUDY.a * (CLOUDY.b - CLOUDY.c) / (CLOUDY.beta * span))
        assert beta_ == pytest.approx(
            2 * CLOUDY.a * (CLOUDY.d - CLOUDY.b) / (CLOUDY.beta * span))

    def test_stationary_sample_matches_density(self):
        rng = np.random.default_rng(11)
        sample = stationary_sample(CLOUDY, 20000, rng)
        alpha, beta_ = stationary_beta_shapes(CLOUDY)
        u = (sample - CLOUDY.c) / (CLOUDY.d - CLOUDY.c)
        _, p_value = stats.kstest(u, stats.beta(alpha, beta_).cdf)
        assert p_value > 1e-3

    def test_long_run_distribution_converges(self):
        # fine-substep simulation converges to the continuous-time
        # stationary beta law
        rng = np.random.default_rng(4)
        start = stationary_sample(CLOUDY, 400, rng)
        paths = simulate_hour(CLOUDY, start, n_steps=240, rng=rng,
                              substeps=10)
        sample = paths[-60:].ravel()
        alpha, beta_ = stationary_beta_shapes(CLOUDY)
        u = (sample - CLOUDY.c) / (CLOUDY.d - CLOUDY.c)
        ks = stats.kstest(u, stats.beta(alpha, beta_).cdf).statistic
        assert ks < 0.02

    def test_noiseless_process_has_no_stationary_density(self):
        from pvsde.sde import DegenerateDistributionError
        with pytest.raises(DegenerateDistributionError):
            stationary_beta_shapes(SdeParams(a=0.2, b=0.6, beta=0.0,
                                             c=0.5, d=0.7))


class TestSimulateDay:
    def _day(self):
        return _day(CLEAR, CLOUDY, CLEAR)

    def _path(self, day, p0):
        return make_fan(day, p0, n_paths=1).paths[0]

    def test_length_and_bounds(self):
        day = self._day()
        path = self._path(day, 0.75)
        assert path.shape == (3 * 120,)
        for i, (c, d) in enumerate(day.theta[3:].T):
            seg = path[i * 120:(i + 1) * 120]
            assert (seg >= c).all() and (seg <= d).all()

    def test_state_carries_across_hours(self):
        # with zero volatility the chain is deterministic, so the first
        # step of hour 2 must extend hour 1's endpoint exactly
        h1 = SdeParams(a=0.3, b=0.8, beta=0.0, c=0.1, d=0.9)
        h2 = SdeParams(a=0.2, b=0.3, beta=0.0, c=0.1, d=0.9)
        path = self._path(_day(h1, h2), 0.5)
        expected = path[119] + h2.a * (h2.b - path[119])
        assert path[120] == pytest.approx(expected, rel=1e-12)

    def test_matrix_round_trip(self):
        day = self._day()
        assert day.theta.shape == (5, 3) and day.m == 3
        np.testing.assert_array_equal(day.theta[:, 1], CLOUDY.as_array())
        with pytest.raises(ValueError):
            day.theta[0, 0] = 0.1

    def test_constructor_projects_and_checks_the_shape(self):
        raw = np.column_stack([CLEAR.as_array(), [5.0, 1.5, 3.0, 0.9, 0.1]])
        day = DayParams(raw)
        assert day.theta.tobytes() == project_rows(raw).tobytes()
        assert raw[0, 1] == 5.0                 # the input is not written
        for bad in (CLEAR.as_array(), np.zeros((5, 0)), np.zeros((4, 2))):
            with pytest.raises(ValueError, match=r"\(5, m >= 1\)"):
                DayParams(bad)
        with pytest.raises(ValueError, match="non-finite"):
            DayParams(np.full((5, 1), np.nan))


class TestFan:
    def _fan(self, n_paths=200, seed=5):
        day = _day(CLEAR, CLOUDY)
        return make_fan(day, 0.75, n_paths=n_paths, seed=seed)

    def test_shapes_and_quantile_order(self):
        fan = self._fan()
        assert fan.paths.shape == (200, 240)
        assert fan.quantiles.shape[1] == 240
        for lo, hi in zip(fan.quantiles[:-1], fan.quantiles[1:]):
            assert (lo <= hi + 1e-12).all()

    def test_every_fan_carries_the_default_levels(self):
        for n_paths, n_keep in ((1, None), (7, 3), (200, 200)):
            fan = make_fan(_day(CLEAR, CLOUDY), 0.75, n_paths=n_paths,
                           n_keep=n_keep)
            assert fan.quantiles.shape == (len(DEFAULT_QUANTILE_LEVELS), 240)
            for row, level in zip(fan.quantiles, DEFAULT_QUANTILE_LEVELS):
                assert fan.quantile(level + 1e-13).tobytes() == row.tobytes()

    def test_seeded_reproducibility(self):
        a, b = self._fan(seed=9), self._fan(seed=9)
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_the_mean_is_accumulated_in_float64_and_rounded_once(self):
        # over the (steps, paths) states of an hour, as make_fan holds them
        fan = self._fan(n_paths=20)
        assert fan.mean.dtype == np.float32
        states = np.ascontiguousarray(make_fan(_day(CLEAR), 0.75, n_paths=20,
                                               seed=5).paths.T)
        assert fan.mean[:120].tobytes() == states.mean(
            axis=1, dtype=float).astype(np.float32).tobytes()

    @pytest.mark.parametrize("n_paths", [1, 2, 999, 1000])
    def test_quantiles_equal_numpy_quantile(self, n_paths):
        # np.quantile of the float32 states, rounded once to float32
        fan = self._fan(n_paths=n_paths)
        expected = np.quantile(fan.paths, DEFAULT_QUANTILE_LEVELS, axis=0)
        assert fan.quantiles.tobytes() == expected.astype(np.float32).tobytes()
        # few distinct values make ties; levels 0 and 1 hit the end rows
        rng = np.random.default_rng(n_paths)
        ties = rng.integers(-20, 20, size=(n_paths, 30)) / 10
        levels = (0.0, 0.01, 1 / 3, 0.5, 0.75, 0.999, 1.0)
        expected = np.quantile(ties, levels, axis=0)
        assert _sorted_quantiles(ties, levels).tobytes() == expected.tobytes()

    def test_kept_paths_leave_quantiles_and_mean_unchanged(self):
        full = self._fan(n_paths=300)
        day = _day(CLEAR, CLOUDY)
        for k in (1, 299, 300, 301):
            kept = make_fan(day, 0.75, n_paths=300, seed=5, n_keep=k)
            assert kept.paths.flags.c_contiguous
            assert kept.paths.tobytes() == full.paths[:k].tobytes()
            assert kept.quantiles.tobytes() == full.quantiles.tobytes()
            assert kept.mean.tobytes() == full.mean.tobytes()

    def test_fan_holds_one_hour_of_states(self, peak_bytes):
        day = _day(*(CLEAR, CLOUDY) * 6)
        n_paths = 500
        peak = peak_bytes(lambda: make_fan(day, 0.75, n_paths=n_paths,
                                           seed=5, n_keep=10))
        day_of_states = 12 * 120 * n_paths * 8
        assert peak < day_of_states / 2, (peak, day_of_states)

    def test_quantile_lookup(self):
        fan = self._fan()
        np.testing.assert_array_equal(fan.quantile(0.5),
                                      fan.quantiles[2])
        with pytest.raises(KeyError):
            fan.quantile(0.33)

    def test_csv_round_trip_of_quantiles(self, tmp_path):
        fan = self._fan(n_paths=50)
        write_fan_csv(str(tmp_path / "fan.csv"), fan)
        lines = (tmp_path / "fan.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["step", "mean", "q05", "q25", "q50", "q75", "q90",
                          "q95"]
        assert len(lines) == 1 + fan.n_steps       # no path rows
        row = lines[1].split(",")
        assert float(row[1]) == fan.mean[0]
        assert float(row[2]) == fan.quantiles[0][0]


class TestFanSpeed:
    # pytest-benchmark timing of the forecast workload's fan (12 hours,
    # 1000 paths, 200 kept) and of its files' round trip
    def _fan(self):
        return make_fan(_day(*(CLEAR, CLOUDY) * 6), 0.75, n_paths=1000,
                        seed=7, n_keep=200)

    def test_make_fan(self, benchmark):
        fan = benchmark(self._fan)
        assert fan.paths.shape == (200, 1440)

    def test_fan_file_round_trip(self, benchmark, tmp_path):
        fan, path = self._fan(), str(tmp_path / "fan.csv")

        def round_trip():
            write_fan_csv(path, fan)
            return read_fan_csv(path, 30.0)

        got = benchmark(round_trip)
        assert got.quantiles.tobytes() == fan.quantiles.tobytes()
