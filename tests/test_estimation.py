"""Tests for hourly parameter identification."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from pvsde.estimation import (A_CAP_UNITS, A_MIN, AllHoursInvalidError,
                              _censored_beta, _clamp_b,
                              _debias_phi, _fit_diffusion_mle, _initial_drift,
                              _lag1_slope, _make_params, _nelder_mead_batch,
                              _reprofile_beta, _Rows, _slope_bias,
                              identify_day, identify_hour, identify_hours)
from pvsde.sde import SdeParams, project_params, simulate_hour
from pvsde.synth import synth_generate

CLOUDY = SdeParams(a=0.2095, b=0.5496, beta=0.1946, c=0.1263, d=0.9930)
RAINY = SdeParams(a=0.0760, b=0.0519, beta=0.0519, c=0.0, d=0.3143)


def _simulate_hours(theta, n_hours, seed, n_steps=120):
    """Independent hours with excited starts, 30-s Euler transitions."""
    rng = np.random.default_rng(seed)
    frac = (theta.b - theta.c) / (theta.d - theta.c)
    u = (rng.uniform(0.05, 0.35, n_hours) if frac > 0.5
         else rng.uniform(0.65, 0.95, n_hours))
    p0 = theta.c + (theta.d - theta.c) * u
    S = simulate_hour(theta, p0, step_seconds=30.0, n_steps=n_steps,
                      rng=rng, substeps=1)
    return np.vstack([p0[None, :], S])


def _fit(*args, **kwargs):
    """identify_hour's (5,) parameters, read by name."""
    return SdeParams(*identify_hour(*args, **kwargs).params.tolist())


def _same(r, s):
    """Whether two reports hold the same parameter bits, convergence and
    flags."""
    return (r.params.tobytes() == s.params.tobytes()
            and (r.converged, r.flags) == (s.converged, s.flags))


def _block_mask(n_samples, n_hours, seed, n_blocks=4, block=10):
    """Per-hour masks losing ``n_blocks`` distinct blocks after the start."""
    rng = np.random.default_rng(seed)
    mask = np.ones((n_samples, n_hours), dtype=bool)
    for j in range(n_hours):
        slots = rng.choice((n_samples - 1) // block, n_blocks, replace=False)
        for s0 in 1 + block * slots:
            mask[s0:s0 + block, j] = False
    return mask


class TestHourSamples:
    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            identify_hour(np.zeros(19))

    def test_rejects_nonfinite(self):
        v = np.full(30, 0.5)
        v[3] = np.nan
        with pytest.raises(ValueError):
            identify_hour(v)

    def test_masked_samples_need_not_be_finite(self):
        v = np.linspace(0.2, 0.6, 40)
        ok = np.ones(40, dtype=bool)
        v[10:15], ok[10:15] = np.nan, False
        p = _fit(v, ok)
        assert p.c <= 0.2 and 0.6 <= p.d
        with pytest.raises(ValueError):
            identify_hour(v)

    def test_counts_valid_samples_and_checks_mask_shape(self):
        v = np.linspace(0.2, 0.4, 40)
        with pytest.raises(ValueError):
            identify_hour(v, np.ones(39, dtype=bool))
        ok = np.ones(40, dtype=bool)
        ok[5:26] = False
        with pytest.raises(ValueError):          # 19 valid samples
            identify_hour(v, ok)
        with pytest.raises(ValueError):          # 20 valid, none adjacent
            identify_hour(v, np.arange(40) % 2 == 0)

    def test_sampling_period_must_be_positive(self):
        for h in (0.0, -30.0):
            with pytest.raises(ValueError, match="sampling period"):
                identify_hour(np.linspace(0.2, 0.4, 40), h=h)


class TestIdentifyHour:
    def test_drift_recovery(self):
        paths = _simulate_hours(CLOUDY, 40, seed=2)
        est = np.array([identify_hour(paths[:, j]).params
                        for j in range(40)])
        mean = est.mean(axis=0)
        assert mean[0] == pytest.approx(CLOUDY.a, rel=0.20)
        assert mean[1] == pytest.approx(CLOUDY.b, rel=0.20)

    def test_bounds_contain_data(self):
        paths = _simulate_hours(CLOUDY, 5, seed=3)
        for j in range(5):
            v = paths[:, j]
            p = _fit(v)
            assert p.c <= v.min() and v.max() <= p.d

    def test_seed_reproducibility(self):
        v = _simulate_hours(CLOUDY, 1, seed=4)[:, 0]
        p1 = identify_hour(v).params
        p2 = identify_hour(v).params
        assert p1.tobytes() == p2.tobytes()

    def test_affine_equivariance(self):
        # w = s v + t maps (a, b, beta, c, d) -> (a, s b + t, beta,
        # s c + t, s d + t), also on the RAINY hour, whose high bound is
        # variance-matched: its noise is keyed by the samples in span units
        s, t = 0.25, 0.5
        for v, flags in ((_simulate_hours(CLOUDY, 1, seed=5)[:, 0], ()),
                         (_simulate_hours(RAINY, 100, seed=5)[:, 2],
                          ("variance-matched-high",))):
            p, q = identify_hour(v), identify_hour(s * v + t)
            assert p.flags == q.flags == flags
            p, q = (SdeParams(*r.params.tolist()) for r in (p, q))
            assert q.a == pytest.approx(p.a, rel=1e-9)
            assert q.beta == pytest.approx(p.beta, rel=1e-9)
            assert q.b == pytest.approx(s * p.b + t, rel=1e-9)
            assert q.c == pytest.approx(s * p.c + t, rel=1e-9)
            assert q.d == pytest.approx(s * p.d + t, rel=1e-9)

    def test_time_reversal_keeps_level(self):
        # a reversed stationary record has the same marginal law, so the
        # fitted level b must be stable under reversal
        rng = np.random.default_rng(6)
        p0 = np.full(30, CLOUDY.b)
        S = simulate_hour(CLOUDY, p0, n_steps=120, rng=rng, substeps=1)
        b_fwd, b_rev = [], []
        for j in range(30):
            v = S[:, j]
            b_fwd.append(_fit(v).b)
            b_rev.append(_fit(v[::-1].copy()).b)
        assert np.mean(b_rev) == pytest.approx(np.mean(b_fwd), rel=0.05)

    def test_noiseless_ramp_has_tiny_beta(self):
        b, p0, a = 0.8, 0.2, 0.05
        t = np.arange(121)
        v = b + (p0 - b) * (1 - a) ** t
        p = _fit(v)
        assert p.beta < 0.01

    def test_constant_series_degenerate_branch(self):
        rep = identify_hour(np.full(121, 0.4))
        assert "degenerate" in rep.flags and "non-volatile" in rep.flags
        _, b, _, c, d = rep.params
        assert b == pytest.approx(0.4)
        assert c < 0.4 < d



class TestKendallDebias:
    @pytest.mark.parametrize("n", [76, 120])     # 76: a four-block gapped hour
    @pytest.mark.parametrize("phi", [0.3, 0.65, 0.8])
    def test_debiased_mean_slope_matches_phi(self, phi, n):
        # 20,000 stationary Gaussian AR(1) series of n transition pairs
        rng = np.random.default_rng([n, round(100 * phi)])
        x = np.empty((20_000, n + 1))
        x[:, 0] = rng.standard_normal(20_000) / np.sqrt(1.0 - phi * phi)
        noise = rng.standard_normal((n, 20_000))
        for t in range(n):
            x[:, t + 1] = phi * x[:, t] + noise[t]
        raw = np.mean(_lag1_slope(_Rows(x, np.ones(x.shape, bool)))[0])
        assert abs(raw - phi) > 0.01             # the bias is real
        assert _debias_phi(raw, n) == pytest.approx(phi, abs=0.005)


class TestSlopeBias:
    @pytest.mark.parametrize("phi,start,gap", [
        (0.65, None, False), (0.95, None, False),      # stationary
        (0.8, 4.0, False), (0.95, 4.0, True)])         # transient, a gap
    def test_matches_the_mean_slope_of_simulated_series(self, phi, start,
                                                        gap):
        # 20,000 Gaussian AR(1) series of 120 pairs, from the stationary law
        # or from `start` stationary deviations above the mean; a gap masks
        # samples 31-40.  The plug-in bias, averaged, meets the simulated
        # mean slope where Kendall's stationary formula misses it
        rng = np.random.default_rng([round(100 * phi), int(gap)])
        sd = 1.0 / np.sqrt(1.0 - phi * phi)
        x = np.empty((20_000, 121))
        x[:, 0] = sd * (rng.standard_normal(20_000) if start is None
                        else start)
        noise = rng.standard_normal((120, 20_000))
        for t in range(120):
            x[:, t + 1] = phi * x[:, t] + noise[t]
        valid = np.ones(x.shape, bool)
        valid[:, 31:41] = not gap
        s = _Rows(x, valid)
        slope, dx, sxx = _lag1_slope(s)
        bias = _slope_bias(dx, s.pm, s.pm.astype(float),
                           np.full(20_000, phi), sxx)
        actual = slope.mean() - phi
        assert bias.mean() == pytest.approx(actual, abs=0.0015)
        if start is not None or phi > 0.9:
            n = s.pm.sum(axis=1)[0]
            assert abs(-(1 + 3 * phi) / n - actual) > 0.003


class TestMakeParams:
    @pytest.mark.parametrize("dt", [1.0, 0.1])    # cap below / above a = 2
    def test_equals_project_params_per_row_to_the_bit(self, dt):
        # swapped and narrow bounds, b outside them, a and beta outside
        # their boxes, and signed zeros
        rng = np.random.default_rng(17)
        a, b, beta = rng.uniform(-1.0, 6.0, (3, 4000))
        c, d = rng.uniform(-0.2, 1.2, (2, 4000))
        d[::3] = c[::3] + rng.uniform(-0.02, 0.02, 1334)
        beta[:4], c[:4], d[:4], b[:4] = -0.0, 0.0, -0.0, -0.0
        want = np.array([project_params(min(max(ai, A_MIN), A_CAP_UNITS / dt),
                                        _clamp_b(bi, ci, di), be, ci,
                                        di).as_array()
                         for ai, bi, be, ci, di in zip(
                             *(x.tolist() for x in (a, b, beta, c, d)))]).T
        got = _make_params(a, b, beta, c, d, dt)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _nm_problems(kinds, shifts):
    """Batch objective: shifted quadratic (0), Rosenbrock (1) or a linear
    slope with no minimum (2), which runs Nelder–Mead out of iterations."""
    kinds, shifts = np.asarray(kinds), np.asarray(shifts, dtype=float)

    def f(z, rows):
        k = kinds[rows]
        x = z[:, 0] - shifts[rows, 0]
        y = z[:, 1] - shifts[rows, 1]
        quad = 3.0 * x * x + 0.5 * y * y + x * y
        rosen = (1.0 - x) * (1.0 - x) + 100.0 * (y - x * x) * (y - x * x)
        return np.where(k == 0, quad, np.where(k == 1, rosen, x + y))
    return f


class TestNelderMeadBatch:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                              st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                    min_size=1, max_size=40))
    def test_matches_scipy_per_problem(self, problems):
        problems = problems + [(2, 0.0, 0.0, -1.0, 0.5)]   # hits maxiter
        kinds = [p[0] for p in problems]
        f = _nm_problems(kinds, [p[1:3] for p in problems])
        z0 = np.array([p[3:] for p in problems])
        x, fun, nit, success = _nelder_mead_batch(f, z0)
        for i in range(len(problems)):
            ref = minimize(lambda z: f(z[None], np.array([i]))[0], z0[i],
                           method="Nelder-Mead",
                           options=dict(maxiter=150, xatol=1e-4, fatol=1e-6))
            np.testing.assert_array_equal(x[i], ref.x)
            assert fun[i] == ref.fun and nit[i] == ref.nit
            assert success[i] == ref.success
        assert not success[-1] and nit[-1] == 150



class TestFitDiffusionSpeed:
    # pytest-benchmark timing of the profiled-likelihood fit on gappy rows:
    # 12 rows are one day's hours, 192 rows sixteen such days at once
    @pytest.mark.parametrize("rows", [12, 192])
    def test_fit_diffusion_mle(self, benchmark, rows):
        paths = _simulate_hours(CLOUDY, rows, seed=rows)
        s = _Rows(paths.T, _block_mask(paths.shape[0], rows, seed=rows + 1).T)
        a, b = _initial_drift(s, 1.0)
        beta, c, d = benchmark(_fit_diffusion_mle, s, 1.0, a, b)[:3]
        assert (c < s.lo).all() and (s.hi < d).all() and (beta > 0).all()


class TestCensoredBeta:
    def _hours(self, n_steps):
        paths = _simulate_hours(CLOUDY, 60, seed=1, n_steps=n_steps)
        s = _Rows(paths.T, np.ones(paths.T.shape, dtype=bool))
        return s, *(np.full(60, v) for v in CLOUDY.as_array())

    def test_no_reachable_bound_keeps_the_profiled_beta(self):
        s, a, b, _, _, _ = self._hours(120)
        c, d = s.lo - 10.0, s.hi + 10.0
        np.testing.assert_allclose(_censored_beta(s, 1.0, a, b, c, d),
                                   _reprofile_beta(s, 1.0, a, b, c, d),
                                   rtol=1e-12, atol=0)

    def test_true_parameters_recover_beta(self):
        # with the true a, b, c, d plugged in, the uncensored profile reads
        # beta low by the mass the chain's clipping puts on the bounds
        s, a, b, _, c, d = self._hours(480)
        profiled = _reprofile_beta(s, 1.0, a, b, c, d).mean()
        assert profiled <= 0.95 * CLOUDY.beta
        assert _censored_beta(s, 1.0, a, b, c, d).mean() == pytest.approx(
            CLOUDY.beta, rel=0.03)


class TestIdentifyHours:
    def test_row_result_does_not_depend_on_its_batch(self):
        # row 2 starts inside a gap and is variance-matched at both bounds;
        # each row's report is the same alone and at either end of a batch
        paths = _simulate_hours(CLOUDY, 3, seed=31)
        mask = _block_mask(paths.shape[0], 3, seed=13)
        mask[:, 0] = True
        mask[:7, 2] = False                       # starts inside a gap
        reps = identify_hours(paths.T, mask.T)
        back = identify_hours(paths.T[::-1], mask.T[::-1])[::-1]
        assert reps[2].flags == ("variance-matched-high",
                                 "variance-matched-low")
        for j in range(3):
            one = identify_hour(paths[:, j], mask[:, j])
            assert _same(one, reps[j]) and _same(one, back[j])

    def test_masked_blocks_recover_cloudy_hours(self):
        # the estimator must not bridge a gap: four masked 10-sample blocks
        # in each of 30 hours keep the criterion-3 tolerances on the mean,
        # under mask seed 101 and under at least 18 of the mask seeds
        # 101-120 (two runaway lower bounds stay out of tolerance)
        paths = _simulate_hours(CLOUDY, 30, seed=1)
        tol = np.array([0.20, 0.20, 0.15, 0.15, 0.15])
        within = {}
        for mask_seed in range(101, 121):
            mask = _block_mask(paths.shape[0], 30, seed=mask_seed)
            reps = identify_hours(paths.T, mask.T)
            mean = np.mean([r.params for r in reps], axis=0)
            rel = np.abs(mean / CLOUDY.as_array() - 1.0)
            within[mask_seed] = bool((rel <= tol).all())
        assert within[101]
        assert sum(within.values()) >= 18, sorted(
            k for k, ok in within.items() if not ok)


# identify_day(pv[0]) on day 0 of synth_generate(default_rng(3),
# n_days=1); identify_hour on each hour alone gives the same values.  Only
# hour 2, variance-matched, draws random numbers, from its own samples' key
_GOLDEN_DAY = np.array([
    (0.2108671389559278, 0.7992544401567027, 0.11072515104536576, 0.6764049399768618, 0.9260301461591911),
    (0.21042553775451822, 0.799224624743734, 0.13553634134159176, 0.6756067706498537, 0.9196583473184606),
    (0.23637557991035452, 0.8232494187535256, 0.061216913745924806, 0.5706827857981494, 0.9451282702314099),
    (0.23688550661145302, 0.8397678681372184, 0.07600983491423266, 0.6843984609273637, 0.9509349965664999),
    (0.3241885247537599, 0.8192687172591502, 0.10395737679917472, 0.6520079256946443, 0.9337726426884022),
    (0.4455459795404635, 0.8125548855851152, 0.04772000480239483, 0.6106501492477231, 0.9670924298898097),
    (0.2777951285850392, 0.814721757991021, 0.12125270953336409, 0.6852442998172631, 0.9389001391206733),
    (0.28818559303410984, 0.8158153986583476, 0.08063459741455023, 0.5860814004070507, 0.9356973347407198),
    (0.29244032594212144, 0.8124343919985342, 0.15964220901086837, 0.6805813876863465, 0.9142551258004475),
    (0.23394175797793426, 0.8129423636372526, 0.06756213723390432, 0.6403573756481616, 0.9290807771827316),
    (0.2784008487441697, 0.822147264842264, 0.08143040106744803, 0.6735793642070818, 0.9379067424683847),
    (0.23016630846620123, 0.7613809809157461, 0.09507651611447032, 0.599636444080903, 0.9004561954838115),
])


# sha256 of day.theta.tobytes() in test_gappy_day_bits (numpy 2.4.6),
# and of its a, b, c, d rows alone, which the censored beta does not move:
# a change to the estimator's arithmetic must keep every output bit
_GAPPY_DAY_SHA256 = (
    "477e0cdafabbfe733cf6a09e3ccc7f683279dcb7f9c208e99946e64035f9833a")
_GAPPY_ABCD_SHA256 = (
    "10e89370dac791a2f0f9038fc3662ca5afc5ebdfefb15f0daf2e31777e14fe6f")

class TestIdentifyDay:
    def _day_series(self, seed=9):
        rng = np.random.default_rng(seed)
        segs = []
        p = 0.5
        for _ in range(3):
            seg = simulate_hour(CLOUDY, p, n_steps=120, rng=rng, substeps=1)
            p = seg[-1]
            segs.append(seg)
        return np.concatenate(segs)

    def test_golden_clean_day(self):
        _, _, pv, _ = synth_generate(np.random.default_rng(3),
                                     n_days=1)
        day, reports = identify_day(pv[0])
        np.testing.assert_allclose(day.theta.T, _GOLDEN_DAY,
                                   rtol=1e-9, atol=0)
        flags = [()] * 12
        flags[2] = ("variance-matched-low",)
        assert [r.flags for r in reports] == flags

    def test_gappy_day_bits(self):
        # four masked blocks per hour; three hours are variance-matched,
        # one of them at both bounds, so the digest pins the masked
        # likelihood, the drift, the keyed matching noise of both bounds
        # and the censored beta
        _, _, pv, _ = synth_generate(np.random.default_rng(8),
                                     n_days=1)
        mask = _block_mask(120, 12, seed=13)
        day, reports = identify_day(pv[0], mask.T.ravel())
        theta = day.theta
        assert hashlib.sha256(theta.tobytes()).hexdigest() == _GAPPY_DAY_SHA256
        assert (hashlib.sha256(theta[[0, 1, 3, 4]].tobytes()).hexdigest()
                == _GAPPY_ABCD_SHA256)
        flags = [()] * 12
        flags[8] = ("variance-matched-high", "variance-matched-low")
        flags[10] = flags[11] = ("variance-matched-high",)
        assert [r.flags for r in reports] == flags

    def test_short_day_keeps_clock_hours(self):
        # a day cut at 1,400 samples keeps its first 11 hours on the clock
        # grid; its last hour holds 80 samples, the rest masked
        _, _, pv, _ = synth_generate(np.random.default_rng(3),
                                     n_days=1)
        _, full = identify_day(pv[0])
        _, cut = identify_day(pv[0][:1400])
        assert len(cut) == 12
        assert all(map(_same, cut[:11], full[:11]))
        with pytest.raises(ValueError, match="1440 samples.*11 hours"):
            identify_day(pv[0], m=11)

    def test_unmasked_day_equals_per_hour_reports(self):
        values = self._day_series()
        _, reports = identify_day(values, step_seconds=30.0)
        for i, rep in enumerate(reports):
            one = identify_hour(values[120 * i:120 * (i + 1)])
            assert _same(one, rep)

    def test_shapes_and_hour_count(self):
        values = self._day_series()
        day, reports = identify_day(values, step_seconds=30.0)
        assert day.m == 3 and len(reports) == 3
        assert all(r.params[3] < r.params[4] for r in reports)
        # each report holds its hour's column of the day, to the bit
        for i, r in enumerate(reports):
            assert r.params.shape == (5,)
            assert r.params.tobytes() == day.theta[:, i].tobytes()

    def test_masked_hour_interpolated_from_neighbours(self):
        values = self._day_series()
        mask = np.ones(values.size, dtype=bool)
        mask[:120] = False
        day, reports = identify_day(values, mask, step_seconds=30.0)
        assert "interpolated" in reports[0].flags
        # lone neighbour: hour 0 takes hour 1's parameters, and its report
        # holds the day's column
        assert day.theta[:, 0].tobytes() == day.theta[:, 1].tobytes()
        assert reports[0].params.tobytes() == day.theta[:, 0].tobytes()

    def test_middle_hour_averages_neighbours(self):
        values = self._day_series()
        mask = np.ones(values.size, dtype=bool)
        mask[120:240] = False
        day, reports = identify_day(values, mask, step_seconds=30.0)
        assert "interpolated" in reports[1].flags
        mean_b = 0.5 * (day.theta[1, 0] + day.theta[1, 2])
        assert day.theta[1, 1] == pytest.approx(mean_b)

    def test_all_invalid_raises(self):
        values = self._day_series()
        with pytest.raises(AllHoursInvalidError):
            identify_day(values, np.zeros(values.size, dtype=bool),
                         step_seconds=30.0)

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            identify_day(np.zeros(360), np.ones(10, dtype=bool))
