"""Two-step identification of hourly Jacobi-diffusion parameters.

The estimator inverts the discrete (Euler) transition of the process at
the native sampling period: conditional mean ``P + a·dt·(b − P)`` and
conditional variance ``beta·dt·(P − c)(d − P)``.  The pieces are:

* diffusion triple (c, d, beta): profiled Gaussian pseudo-likelihood over
  the two boundary offsets (Nelder–Mead in log-offset coordinates, beta
  profiled in closed form as a ratio of sums), with two boundary repairs —
  samples sticking to an extreme pin the bound just outside it, and a
  boundary that the likelihood pushes far away (the objective is nearly
  flat in the far bound) is re-fit by matching the simulated path variance;
* reversion rate a: the raw lag-1 regression slope is mapped through a
  simulation-tabulated small-sample calibration curve, then refined by
  indirect inference — simulate short paths from the current estimate and
  adjust a until the simulated slope statistic matches the observed one;
* mean level b: generalized least squares on the relaxation curve
  ``b + (v0 − b)(1 − a·dt)^t``, which stays accurate when the hour is a
  transient rather than a stationary stretch;
* a final parametric-bootstrap rescaling of beta removes the residual
  multiplicative bias of the profiled estimate (applied only when the
  process mixes fast enough for the bootstrap to be informative).

Each hour is fit independently; day-level identification fans the hours
out, repairs masked hours from their neighbours, and reports flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .sde import TIME_UNIT_SECONDS, DayParams, SdeParams, project_params, simulate_hour

A_MIN = 1e-4
A_MAX = 2.0
BETA_MIN = 1e-6
BETA_MAX = 1.0
SIGMA2_FLOOR = 1e-12
DEGENERATE_DELTA = 0.01     # half-gap added around a constant series
_SPAN_EPS = 1e-6            # below this sample range the series is constant

_NM_OPTIONS = dict(maxiter=150, xatol=1e-4, fatol=1e-6)
_N_MATCH = 64               # simulated paths per indirect-inference step
_N_BOOT = 16                # bootstrap replicas for the beta rescaling
_N_BOOT_INNER = 24          # simulated paths inside each bootstrap replica
_A_CAP_UNITS = 0.45         # keeps a·dt safely inside the Euler stability bound
_BOOT_MIN_A = 0.1           # below this rate the bootstrap rescaling is skipped
_RUNAWAY_FRAC = 0.3         # boundary offset (in spans) that triggers variance matching
_STICKY_COUNT = 3           # exact repeats at an extreme that pin the bound
_B_MARGIN = 0.02            # keep b this fraction of (d − c) inside the bounds
_DAMP = 0.9                 # step damping for the indirect-inference updates
DEFAULT_SEED = 1729

# Small-sample calibration of the lag-1 regression slope, tabulated by
# simulation on 120-transition series: PHI is the true one-step
# autoregressive coefficient, EPHI the mean of the raw slope estimate.
_PHI_GRID = np.array([
    0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85,
    0.905, 0.915, 0.925, 0.935, 0.945, 0.955, 0.965, 0.975, 0.985, 0.995,
])
_EPHI_GRID = np.array([
    0.04012, 0.13775, 0.23622, 0.33323, 0.42985, 0.52812, 0.62514,
    0.72205, 0.81974, 0.87212, 0.88102, 0.89046, 0.90036, 0.90919,
    0.91850, 0.92723, 0.93606, 0.94443, 0.95250,
])
_CAL_N = 120                # transition count the table was built at


class AllHoursInvalidError(ValueError):
    """Raised when no hourly window of a day has enough valid samples."""


@dataclass(frozen=True)
class HourSamples:
    """One hour of normalized PV samples at a fixed period ``h`` seconds."""

    values: np.ndarray
    h: float = 30.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.size < 20:
            raise ValueError(f"need at least 20 samples, got {v.size}")
        if not np.isfinite(v).all():
            raise ValueError("samples must be finite")
        if self.h <= 0:
            raise ValueError("sampling period must be > 0")

    @property
    def dt(self) -> float:
        """Sampling period in model time units."""
        return self.h / TIME_UNIT_SECONDS


@dataclass
class FitReport:
    params: SdeParams
    diffusion_objective: float
    drift_objective: float
    iterations: int
    converged: bool
    flags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# low-level statistics


def _lag1_slope(P):
    """Per-column lag-1 regression slope of a (time, paths) array."""
    X, Y = P[:-1], P[1:]
    mX = X.mean(axis=0)
    vx = ((X - mX) ** 2).mean(axis=0)
    cov = ((X - mX) * (Y - Y.mean(axis=0))).mean(axis=0)
    return np.where(vx > 1e-14, cov / np.maximum(vx, 1e-14), 1.0)


def _invert_phi(phi_raw, n_trans):
    """Map a raw lag-1 slope to a debiased coefficient.

    Uses the tabulated calibration directly at its native series length and
    rescales the tabulated bias by 1/N for other lengths (the leading bias
    term of the slope estimator decays like 1/N).
    """
    phi = float(np.interp(phi_raw, _EPHI_GRID, _PHI_GRID))
    if abs(n_trans - _CAL_N) > 2:
        scale = _CAL_N / max(n_trans, 2)
        for _ in range(2):
            bias = (np.interp(phi, _PHI_GRID, _EPHI_GRID) - phi) * scale
            phi = min(max(phi_raw - bias, -0.99), 0.9995)
    return phi


def _profiled_beta(e2, W, dt):
    """Closed-form beta that minimizes the Gaussian pseudo-likelihood."""
    beta = e2.sum() / max(W.sum() * dt, 1e-14)
    return min(max(beta, BETA_MIN), BETA_MAX)


def _gauss_nll(v, dt, a, b, beta, c, d):
    """Gaussian pseudo negative log-likelihood of the one-step transition."""
    X, Y = v[:-1], v[1:]
    M1 = X + a * dt * (b - X)
    V = np.maximum(beta * dt * (X - c) * (d - X), SIGMA2_FLOOR)
    return float(0.5 * np.sum(np.log(V) + (Y - M1) ** 2 / V))


# ---------------------------------------------------------------------------
# component fits


def _fit_diffusion_mle(v, dt, a, b):
    """Profiled-likelihood fit of (c, d, beta) with (a, b) held fixed.

    The optimization runs over z = log of the two boundary offsets in units
    of the sample span, which keeps the fit exactly equivariant under affine
    rescaling of the samples.
    """
    X, Y = v[:-1], v[1:]
    lo, hi = v.min(), v.max()
    span = max(hi - lo, 1e-3)
    e2 = (Y - (X + a * dt * (b - X))) ** 2

    def nll_parts(z):
        c = lo - span * math.exp(z[0])
        d = hi + span * math.exp(z[1])
        W = np.maximum((X - c) * (d - X), SIGMA2_FLOOR)
        beta = _profiled_beta(e2, W, dt)
        V = np.maximum(beta * dt * W, SIGMA2_FLOOR)
        return 0.5 * np.sum(np.log(V) + e2 / V), beta, c, d

    z0 = np.array([math.log(0.05), math.log(0.05)])
    res = minimize(lambda z: nll_parts(z)[0], z0,
                   method="Nelder-Mead", options=_NM_OPTIONS)
    nll, beta, c, d = nll_parts(res.x)
    c = max(c, lo - 3.0 * span)
    d = min(d, hi + 3.0 * span)
    return beta, c, d, nll, bool(res.success), int(res.nit)


def _fit_b_relaxation(v, dt, a, c, d):
    """Mean level from least squares on the one-step relaxation curve."""
    t = np.arange(v.size)
    g = np.power(1.0 - min(a * dt, 0.999), t)
    y = v - v[0] * g
    x = 1.0 - g
    denom = float((x * x).sum())
    b = float((y * x).sum() / denom) if denom > 1e-12 else float(v.mean())
    margin = _B_MARGIN * (d - c)
    return min(max(b, c + margin), d - margin)


def _clamp_b(b, c, d):
    margin = _B_MARGIN * (d - c)
    return min(max(b, c + margin), d - margin)


def _make_params(a, b, beta, c, d, dt):
    """Project onto valid parameters, keeping a inside the Euler-stable box."""
    a = min(max(a, A_MIN), _A_CAP_UNITS / dt)
    return project_params(a, _clamp_b(b, c, d), beta, c, d)


def _simulate_matching(theta, p0, dt, n_steps, rng, n_paths):
    """Simulate paths on the sample grid, conditioned on the observed start."""
    q0 = np.full(n_paths, min(max(p0, theta.c + 1e-9), theta.d - 1e-9))
    S = simulate_hour(theta, q0, step_seconds=dt * TIME_UNIT_SECONDS,
                      n_steps=n_steps, rng=rng, substeps=1)
    return np.vstack([q0[None, :], S])


def _fit_a_indirect(v, dt, beta, c, d, phi_obs, a, b, rng, iters=3):
    """Refine a by matching the simulated lag-1 slope to the observed one.

    The update uses the local slope of the calibration curve as the
    Jacobian of the simulated statistic with respect to the coefficient.
    """
    n_trans = v.size - 1
    for _ in range(iters):
        theta = _make_params(a, b, beta, c, d, dt)
        sim = _simulate_matching(theta, v[0], dt, n_trans, rng, _N_MATCH)
        phi_sim = float(_lag1_slope(sim).mean())
        phi0 = 1.0 - theta.a * dt
        hi_ = min(phi0 + 0.02, 0.999)
        lo_ = max(phi0 - 0.02, 0.01)
        slope = (np.interp(hi_, _PHI_GRID, _EPHI_GRID)
                 - np.interp(lo_, _PHI_GRID, _EPHI_GRID)) / (hi_ - lo_)
        phi_new = phi0 + _DAMP * (phi_obs - phi_sim) / slope
        a = min(max((1.0 - phi_new) / dt, A_MIN), _A_CAP_UNITS / dt)
        b = _fit_b_relaxation(v, dt, a, c, d)
    return a, b


def _reprofile_beta(v, dt, a, b, c, d):
    X, Y = v[:-1], v[1:]
    e2 = (Y - (X + a * dt * (b - X))) ** 2
    W = np.maximum((X - c) * (d - X), SIGMA2_FLOOR)
    return _profiled_beta(e2, W, dt)


def _match_variance(v, dt, a, b, beta, c, d, side, rng, iters=5,
                    n_paths=_N_MATCH):
    """Re-fit a runaway boundary by matching the simulated path variance.

    When the likelihood is nearly flat in the far boundary the fitted offset
    can wander; the path variance is monotone in that offset with a known
    stationary slope, so a few damped matching steps pin it down.
    """
    lo, hi = v.min(), v.max()
    span = max(hi - lo, 1e-3)
    var_obs = float(v.var())
    n_trans = v.size - 1
    for _ in range(iters):
        theta = _make_params(a, b, beta, c, d, dt)
        sim = _simulate_matching(theta, v[0], dt, n_trans, rng, n_paths)
        var_sim = float(sim.var(axis=0).mean())
        if side == "d":
            slope = max(theta.beta * (theta.b - theta.c)
                        / (2.0 * theta.a + theta.beta), 1e-9)
            d = min(max(theta.d + _DAMP * (var_obs - var_sim) / slope,
                        hi + 1e-3 * span), hi + 2.0 * span)
        else:
            slope = max(theta.beta * (theta.d - theta.b)
                        / (2.0 * theta.a + theta.beta), 1e-9)
            c = max(min(theta.c - _DAMP * (var_obs - var_sim) / slope,
                        lo - 1e-3 * span), lo - 2.0 * span)
        beta = _reprofile_beta(v, dt, a, b, c, d)
    return beta, c, d


def _diffusion_pipeline(v, dt, a, b, rng, n_paths=_N_MATCH):
    """Full diffusion fit: profiled likelihood plus boundary repairs."""
    lo, hi = v.min(), v.max()
    span = max(hi - lo, 1e-3)
    beta, c, d, nll, converged, nit = _fit_diffusion_mle(v, dt, a, b)
    flags = []
    sticky_lo = int((v <= lo + 1e-9).sum()) >= _STICKY_COUNT
    sticky_hi = int((v >= hi - 1e-9).sum()) >= _STICKY_COUNT
    if sticky_lo:
        c = lo - 1e-4 * span
        flags.append("boundary-pinned-low")
    if sticky_hi:
        d = hi + 1e-4 * span
        flags.append("boundary-pinned-high")
    if not sticky_hi and d - hi > _RUNAWAY_FRAC * span:
        beta, c, d = _match_variance(v, dt, a, b, beta, c, d, "d", rng,
                                     n_paths=n_paths)
        flags.append("variance-matched-high")
    if not sticky_lo and lo - c > _RUNAWAY_FRAC * span:
        beta, c, d = _match_variance(v, dt, a, b, beta, c, d, "c", rng,
                                     n_paths=n_paths)
        flags.append("variance-matched-low")
    beta = _reprofile_beta(v, dt, a, b, c, d)
    return beta, c, d, nll, converged, nit, flags


def _initial_drift(v, dt):
    """Moment-matching starting point for (a, b) before any refinement."""
    X, Y = v[:-1], v[1:]
    mX = X.mean()
    vx = float(((X - mX) ** 2).mean())
    phi_raw = float(((X - mX) * (Y - Y.mean())).mean() / max(vx, 1e-14))
    phi = _invert_phi(phi_raw, v.size - 1)
    a = min(max((1.0 - phi) / dt, A_MIN), _A_CAP_UNITS / dt)
    lo, hi = v.min(), v.max()
    span = max(hi - lo, 1e-3)
    b = _fit_b_relaxation(v, dt, a, lo - 0.05 * span, hi + 0.05 * span)
    return a, b, phi_raw


# ---------------------------------------------------------------------------
# public operations


def estimate_diffusion(samples: HourSamples, seed: int = DEFAULT_SEED):
    """Fit the diffusion triple (c, d, beta) of one hour of samples.

    Returns ``(c, d, beta, diag)`` where ``diag`` carries the objective
    value, iteration count, convergence flag, and any branch flags.
    """
    v = samples.values
    dt = samples.dt
    lo, hi = float(v.min()), float(v.max())
    if hi - lo <= _SPAN_EPS:
        diag = dict(objective=0.0, iterations=0, converged=True,
                    flags=("non-volatile",))
        return lo - DEGENERATE_DELTA, hi + DEGENERATE_DELTA, 0.0, diag
    rng = np.random.default_rng(seed)
    a, b, _ = _initial_drift(v, dt)
    beta, c, d, nll, converged, nit, flags = _diffusion_pipeline(
        v, dt, a, b, rng)
    diag = dict(objective=nll, iterations=nit, converged=converged,
                flags=tuple(flags))
    return c, d, beta, diag


def estimate_drift(samples: HourSamples, c: float, d: float, beta: float,
                   seed: int = DEFAULT_SEED):
    """Fit the drift pair (a, b) with the diffusion triple held fixed.

    Returns ``(a, b, diag)``.  A zero diffusion falls back to least squares
    on the deterministic relaxation curve (the stochastic matching is
    undefined without noise); a constant series is flagged degenerate.
    """
    v = samples.values
    dt = samples.dt
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if float(v.max() - v.min()) <= _SPAN_EPS:
        diag = dict(objective=0.0, iterations=0, converged=True,
                    flags=("degenerate",))
        return A_MIN, float(v.mean()), diag
    if beta <= BETA_MIN:
        a, b, sse = _fit_drift_deterministic(v, dt, c, d)
        diag = dict(objective=sse, iterations=1, converged=True,
                    flags=("deterministic-relaxation",))
        return a, b, diag
    rng = np.random.default_rng(seed)
    a0, b0, phi_raw = _initial_drift(v, dt)
    a, b = _fit_a_indirect(v, dt, beta, c, d, phi_raw, a0, b0, rng, iters=3)
    obj = _gauss_nll(v, dt, a, b, beta, c, d)
    diag = dict(objective=obj, iterations=3, converged=True, flags=())
    return a, b, diag


def _fit_drift_deterministic(v, dt, c, d):
    """Least-squares (a, b) on the noiseless relaxation curve."""

    def sse_of(a):
        b = _fit_b_relaxation(v, dt, a, c, d)
        t = np.arange(v.size)
        g = np.power(1.0 - min(a * dt, 0.999), t)
        return float(np.sum((v - (b + (v[0] - b) * g)) ** 2))

    res = minimize_scalar(sse_of, bounds=(A_MIN, A_MAX), method="bounded",
                          options=dict(xatol=1e-8))
    a = float(res.x)
    b = _fit_b_relaxation(v, dt, a, c, d)
    return a, b, float(res.fun)


def identify_hour(samples: HourSamples, seed: int = DEFAULT_SEED) -> FitReport:
    """Identify all five parameters of one hour of samples.

    Alternates the drift and diffusion fits so each step conditions on the
    other's latest estimate, then applies the bootstrap rescaling of beta.
    """
    v = samples.values
    dt = samples.dt
    lo, hi = float(v.min()), float(v.max())
    flags: list[str] = []

    if hi - lo <= _SPAN_EPS:
        params = project_params(A_MIN, float(v.mean()), BETA_MIN,
                                lo - DEGENERATE_DELTA, hi + DEGENERATE_DELTA)
        return FitReport(params=params, diffusion_objective=0.0,
                         drift_objective=0.0, iterations=0, converged=True,
                         flags=("non-volatile", "degenerate"))

    rng = np.random.default_rng(seed)
    a, b, phi_raw = _initial_drift(v, dt)
    beta, c, d, *_ = _fit_diffusion_mle(v, dt, a, b)
    a, b = _fit_a_indirect(v, dt, beta, c, d, phi_raw, a, b, rng, iters=3)
    beta, c, d, nll_diff, converged, nit, dflags = _diffusion_pipeline(
        v, dt, a, b, rng)
    flags.extend(dflags)
    a, b = _fit_a_indirect(v, dt, beta, c, d, phi_raw, a, b, rng, iters=2)
    beta = _reprofile_beta(v, dt, a, b, c, d)

    if a >= _BOOT_MIN_A / dt:
        theta = _make_params(a, b, beta, c, d, dt)
        sim = _simulate_matching(theta, v[0], dt, v.size - 1, rng, _N_BOOT)
        boot = []
        for j in range(_N_BOOT):
            w = sim[:, j]
            bw = _fit_b_relaxation(w, dt, theta.a, theta.c, theta.d)
            beta_w, *_ = _diffusion_pipeline(w, dt, theta.a, bw, rng,
                                             n_paths=_N_BOOT_INNER)
            boot.append(beta_w)
        beta = min(max(beta * beta / max(float(np.mean(boot)), 1e-9),
                       BETA_MIN), BETA_MAX)
        flags.append("bootstrap-rescaled")

    params = _make_params(a, b, beta, c, d, dt)
    nll = _gauss_nll(v, dt, params.a, params.b, params.beta,
                     params.c, params.d)
    return FitReport(params=params, diffusion_objective=nll_diff,
                     drift_objective=nll, iterations=nit,
                     converged=converged, flags=tuple(flags))


def identify_day(values, mask=None, step_seconds: float = 30.0,
                 m: int | None = None, seed: int = DEFAULT_SEED):
    """Identify per-hour parameters for a full day of samples.

    ``values`` is the normalized day series; ``mask`` marks valid samples
    (all valid when omitted).  The day is split into ``m`` equal hourly
    windows (inferred from the step when omitted); a window with more than
    half of its samples masked is invalid and receives the average of its
    nearest valid neighbours' parameters, flagged ``"interpolated"``.

    Returns ``(DayParams, reports)``.  Raises AllHoursInvalidError when
    every window is invalid.
    """
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones(values.size, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.size != values.size:
        raise ValueError("mask length must match values length")
    per_hour = max(int(round(3600.0 / step_seconds)), 1)
    if m is None:
        m = values.size // per_hour
    if m < 1 or values.size < m:
        raise ValueError("day too short for the requested hour grid")
    edges = np.linspace(0, values.size, m + 1).astype(int)

    reports: list[FitReport | None] = []
    for i in range(m):
        w = slice(edges[i], edges[i + 1])
        vm, vv = mask[w], values[w]
        n_valid = int(vm.sum())
        if n_valid <= 0.5 * vv.size or n_valid < 20:
            reports.append(None)
            continue
        hour = HourSamples(vv[vm], h=step_seconds)
        reports.append(identify_hour(hour, seed=seed))
    if all(r is None for r in reports):
        raise AllHoursInvalidError(
            "no hour of the day has enough valid samples")

    reports = _fill_invalid_hours(reports)
    day = DayParams(hours=tuple(r.params for r in reports))
    return day, reports


def _fill_invalid_hours(reports):
    """Replace invalid hours with the average of their valid neighbours."""
    n = len(reports)
    valid = [i for i, r in enumerate(reports) if r is not None]
    filled = list(reports)
    for i in range(n):
        if filled[i] is not None:
            continue
        left = max((j for j in valid if j < i), default=None)
        right = min((j for j in valid if j > i), default=None)
        neighbours = [reports[j] for j in (left, right) if j is not None]
        ps = [r.params for r in neighbours]
        mean = [float(np.mean([getattr(p, f) for p in ps]))
                for f in ("a", "b", "beta", "c", "d")]
        params = project_params(*mean)
        filled[i] = FitReport(params=params, diffusion_objective=math.nan,
                              drift_objective=math.nan, iterations=0,
                              converged=False, flags=("interpolated",))
    return filled
