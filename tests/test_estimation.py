"""Tests for hourly parameter identification."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from pvsde import estimation
from pvsde.estimation import (_N_CENSOR_ITERS, A_CAP_UNITS, A_MIN,
                              AllHoursInvalidError, _censored_beta, _clamp_b,
                              _debias_phi, _fit_diffusion_mle, _initial_drift,
                              _make_params, _nelder_mead_batch, _Rows,
                              _slope_bias, identify_day, identify_days,
                              identify_hour, identify_hours)
from pvsde.sde import SdeParams, project_rows, simulate_hour
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
                         (_simulate_hours(RAINY, 100, seed=5)[:, 7],
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
        raw = np.mean(_Rows(x, np.ones(x.shape, bool)).lag1[0])
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
        slope, dx, sxx = s.lag1
        bias = _slope_bias(dx, s.pm, s.pm.astype(float),
                           np.full(20_000, phi), sxx)
        actual = slope.mean() - phi
        assert bias.mean() == pytest.approx(actual, abs=0.0015)
        if start is not None or phi > 0.9:
            n = s.pm.sum(axis=1)[0]
            assert abs(-(1 + 3 * phi) / n - actual) > 0.003


class TestMakeParams:
    @pytest.mark.parametrize("dt", [1.0, 0.1])    # cap below / above a = 2
    def test_equals_project_rows_per_row_to_the_bit(self, dt):
        # swapped and narrow bounds, b outside them, a and beta outside
        # their boxes, and signed zeros
        rng = np.random.default_rng(17)
        a, b, beta = rng.uniform(-1.0, 6.0, (3, 4000))
        c, d = rng.uniform(-0.2, 1.2, (2, 4000))
        d[::3] = c[::3] + rng.uniform(-0.02, 0.02, 1334)
        beta[:4], c[:4], d[:4], b[:4] = -0.0, 0.0, -0.0, -0.0
        want = np.array([project_rows([min(max(ai, A_MIN), A_CAP_UNITS / dt),
                                       _clamp_b(bi, ci, di), be, ci, di])
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
    # pytest-benchmark timings on gappy hours: the profiled-likelihood fit
    # (12 rows are one day's hours, 192 rows sixteen such days at once) and
    # a whole day's identification
    @pytest.mark.parametrize("rows", [12, 192])
    def test_fit_diffusion_mle(self, benchmark, rows):
        paths = _simulate_hours(CLOUDY, rows, seed=rows)
        s = _Rows(paths.T, _block_mask(paths.shape[0], rows, seed=rows + 1).T)
        a, b = _initial_drift(s, 1.0)[:2]
        beta, c, d = benchmark(_fit_diffusion_mle, s, 1.0, a, b)[:3]
        assert (c < s.lo).all() and (s.hi < d).all() and (beta > 0).all()

    def test_identify_day(self, benchmark):
        # one day masked as gappy telemetry is: four 10-sample blocks in
        # every hour, and hour 5 with 90 of its 120 samples masked, which
        # is interpolated
        _, _, pv, _ = synth_generate(np.random.default_rng(8), n_days=1)
        mask = _block_mask(120, 12, seed=13).T.copy()
        mask[5, 20:110] = False
        _, reports = benchmark(identify_day, pv[0], mask.ravel())
        assert [r.flags == ("interpolated",) for r in reports] == [
            i == 5 for i in range(12)]


class TestCensoredBeta:
    def _hours(self, n_steps):
        paths = _simulate_hours(CLOUDY, 60, seed=1, n_steps=n_steps)
        s = _Rows(paths.T, np.ones(paths.T.shape, dtype=bool))
        return s, *(np.full(60, v) for v in CLOUDY.as_array())

    def test_no_reachable_bound_keeps_the_profiled_beta(self):
        s, a, b, _, _, _ = self._hours(120)
        c, d = s.lo - 10.0, s.hi + 10.0
        np.testing.assert_allclose(
            _censored_beta(s, 1.0, a, b, c, d, _N_CENSOR_ITERS)[0],
            _censored_beta(s, 1.0, a, b, c, d, 0)[0], rtol=1e-12, atol=0)

    def test_true_parameters_recover_beta(self):
        # with the true a, b, c, d plugged in, the uncensored profile reads
        # beta low by the mass the chain's clipping puts on the bounds
        s, a, b, _, c, d = self._hours(480)
        profiled = _censored_beta(s, 1.0, a, b, c, d, 0)[0].mean()
        assert profiled <= 0.95 * CLOUDY.beta
        censored = _censored_beta(s, 1.0, a, b, c, d, _N_CENSOR_ITERS)[0]
        assert censored.mean() == pytest.approx(CLOUDY.beta, rel=0.03)


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

    def test_one_likelihood_fit_per_batch(self, monkeypatch):
        # the diffusion's batched Nelder-Mead runs once per identify_hours
        # call, on every row, whether or not a bound is variance-matched
        calls = []

        def count(f, z0):
            calls.append(len(z0))
            return _nelder_mead_batch(f, z0)

        monkeypatch.setattr(estimation, "_nelder_mead_batch", count)
        paths = _simulate_hours(CLOUDY, 12, seed=3)
        assert all(r.flags == () for r in identify_hours(paths.T))
        assert calls == [12]
        paths = _simulate_hours(CLOUDY, 3, seed=31)
        mask = _block_mask(paths.shape[0], 3, seed=13)
        mask[:7, 2] = False
        assert identify_hours(paths.T, mask.T)[2].flags
        assert calls == [12, 3]

    def test_runaway_bounds_of_both_sides_match_in_one_batch(
            self, monkeypatch):
        # hour 2 of the clean golden day runs away at its low bound, hour
        # 10 of the gappy day at its high one: one variance-matching batch
        # holds both, and each report keeps identify_hour's bits
        _, _, clean, _ = synth_generate(np.random.default_rng(3), n_days=1)
        _, _, gappy, _ = synth_generate(np.random.default_rng(8), n_days=1)
        values = np.stack([clean[0][240:360], gappy[0][1200:1320]])
        valid = np.stack([np.ones(120, dtype=bool),
                          _block_mask(120, 12, seed=13)[:, 10]])
        alone = [identify_hour(v, ok) for v, ok in zip(values, valid)]
        match, calls = estimation._match_variance, []

        def count(*args):
            calls.append(args[-1].tolist())
            return match(*args)

        monkeypatch.setattr(estimation, "_match_variance", count)
        reps = identify_hours(values, valid)
        assert [r.flags for r in reps] == [("variance-matched-low",),
                                           ("variance-matched-high",)]
        assert calls == [[False, True]]
        assert all(map(_same, reps, alone))

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
    (0.21089649085259676, 0.7992543135340818, 0.11091273349595422, 0.6763944623990065, 0.9258554548514012),
    (0.21048921194272285, 0.7992246353671395, 0.13573878621468746, 0.6756372232051816, 0.9195617550558002),
    (0.2363566139170893, 0.823249567718101, 0.060613554609787804, 0.5682072309750806, 0.9450037800573102),
    (0.2368866718120589, 0.8397678527628211, 0.07603277915684199, 0.6844251107009902, 0.950925958034339),
    (0.3241962483411944, 0.8192687280224689, 0.10389858557693503, 0.651922814837163, 0.93376850774514),
    (0.4455426980161695, 0.8125548649475088, 0.04760237796612746, 0.6103782596070393, 0.967242007488823),
    (0.27781221362395325, 0.8147216321029068, 0.12131297374793504, 0.6852697938102255, 0.9388777790723938),
    (0.28821263176303324, 0.8158154976356377, 0.0809944302431243, 0.5868547071274313, 0.9356448588174435),
    (0.2924415647226184, 0.8124343978119244, 0.15963890438282982, 0.6805797304530453, 0.9142553318135078),
    (0.23393602246063872, 0.812942391183881, 0.06755591267676589, 0.6403091610762955, 0.9290572108912054),
    (0.278401444889108, 0.8221472639158142, 0.08143885365293146, 0.6735882715633936, 0.9379035363554322),
    (0.23017039727308541, 0.7613809359896865, 0.0950782474344738, 0.5996305936435719, 0.9004490587870242),
])


# sha256 of day.theta.tobytes() in test_gappy_day_bits (numpy 2.4.6),
# and of its a, b, c, d rows alone, which the censored beta does not move:
# a change to the estimator's arithmetic must keep every output bit
_GAPPY_DAY_SHA256 = (
    "d399a1357e87b2e0dfe1ef81fbd93e487ebd1229ad4ed08afd755d709f276dd3")
_GAPPY_ABCD_SHA256 = (
    "566879f670a879353d0169bd76b41e0442ea7d9a3aa3c552c5844b5bd079c96b")

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


class TestIdentifyDays:
    def test_each_day_equals_identify_day_across_chunks(self, monkeypatch):
        # chunks of two days: [all valid, an hour mostly masked],
        # [blocks, blocks], [no valid hour], so a chunk boundary falls
        # between every pair and the last chunk identifies no hour
        monkeypatch.setattr(estimation, "_CHUNK_DAYS", 2)
        _, _, pv, _ = synth_generate(np.random.default_rng(8), n_days=5)
        masks = [None] + [_block_mask(120, 12, seed=20 + i).T.ravel()
                          for i in range(4)]
        masks[1][5 * 120:5 * 120 + 80] = False
        masks[4][:] = False
        got = identify_days(list(zip(pv, masks)), 30.0, 12)
        assert len(got) == 5 and got[4] is None
        with pytest.raises(AllHoursInvalidError):
            identify_day(pv[4], masks[4], 30.0, 12)
        assert "interpolated" in got[1][1][5].flags
        for i in range(4):
            day, reports = identify_day(pv[i], masks[i], 30.0, 12)
            assert got[i][0].theta.tobytes() == day.theta.tobytes()
            assert len(got[i][1]) == len(reports) == 12
            assert all(map(_same, got[i][1], reports))

    def test_no_day(self):
        assert identify_days([]) == []
