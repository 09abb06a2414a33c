"""Two-step identification of hourly Jacobi-diffusion parameters.

The estimator inverts the discrete (Euler) transition of the process at
the native sampling period: conditional mean ``P + a·dt·(b − P)`` and
conditional variance ``beta·dt·(P − c)(d − P)``.  It works on the
transition pairs (X_t, X_{t+1}) of a regular sample grid: a pair counts
only when both of its samples are valid, so a masked gap is never bridged,
and time is counted from an hour's first valid sample.  The pieces are:

* diffusion triple (c, d, beta): profiled Gaussian pseudo-likelihood over
  the two boundary offsets (Nelder–Mead); a runaway bound is re-fit by
  matching the simulated path variance;
* reversion rate a: the lag-1 slope, first debiased by inverting
  Kendall's (1954) small-sample bias of the AR(1) slope, then re-fit
  after each diffusion fit by deterministic indirect inference: the
  observed slope is matched to its closed-form expectation under the
  Euler chain, with the clip at the bounds and the first-order
  finite-sample bias (Stein's lemma) of the hour's own regressors;
* mean level b: least squares on the relaxation curve
  ``b + (v0 − b)(1 − a·dt)^t`` over the valid samples;
* beta, last: re-fit to the second moment of a Gaussian censored at the
  bounds (Tobin 1958), since every Euler step clips the state to [c, d].

Every stage runs once for a batch of hours, in lockstep: one batched
Nelder–Mead for all hours' likelihoods, one ``euler_paths`` call per
variance-matching step.  Only variance matching draws random numbers, and
each hour and bound it matches draws from its own generator, keyed by the
hour's samples alone (``_match_variance``): an hour's estimate is a function
of its samples and mask, the same in any batch, at any position and under
any date.  A ``FitReport`` holds its hour's projected (5,) row a, b,
beta, c, d; ``identify_day`` fits a day's valid hours together, fills
masked hours from their neighbours and stacks the rows into one
``DayParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sde import (A_CAP_UNITS, A_MIN, BETA_MAX, TIME_UNIT_SECONDS,
                  DayParams, euler_paths, project_rows)


def __getattr__(name):
    """``minimize``, scipy's, imported on first access.  pvsdebench's tracer
    wraps ``estimation.minimize`` by name; the estimator itself minimizes
    with ``_nelder_mead_batch``, so no command loads ``scipy.optimize``."""
    if name == "minimize":
        from scipy.optimize import minimize
        globals()[name] = minimize      # later reads bypass this hook
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


BETA_MIN = 1e-6
SIGMA2_FLOOR = 1e-12
DEGENERATE_DELTA = 0.01     # half-gap added around a constant series
_SPAN_EPS = 1e-6            # below this sample range the series is constant
_MIN_SAMPLES = 20            # valid samples an hour needs to be identified

_NM_MAXITER = 150           # Nelder–Mead stopping tests
_NM_XATOL = 1e-4
_NM_FATOL = 1e-6
# scipy's coefficients rho = 1, chi = 2, psi = sigma = 0.5: the reflection
# is 2·xbar − worst, a shrink halves, and the expansion, outside and inside
# contraction are p·xbar − q·worst with these rows (p, q)
_NM_STEPS = np.array([[3.0, 2.0], [1.5, 0.5], [0.5, -0.5]])
_N_MATCH = 64               # simulated paths per variance-matching step
_N_VAR_ITERS = 5            # variance-matching steps per runaway boundary
_N_CENSOR_ITERS = 4         # fixed-point steps of the censored beta
_N_DRIFT_ITERS = 3          # fixed-point steps of the drift's slope bias
_PHI_MAX = 0.9995           # largest lag-1 coefficient 1 − a·dt of a fit
_RUNAWAY_FRAC = 0.3         # boundary offset (in spans) that triggers variance matching
_B_MARGIN = 0.02            # keep b this fraction of (d − c) inside the bounds
_DAMP = 0.9                 # step damping of variance matching

# flags of the boundary repairs, in the order they are reported
_REPAIR_FLAGS = ("variance-matched-high", "variance-matched-low")


class AllHoursInvalidError(ValueError):
    """Raised when no hourly window of a day has enough valid samples."""


def _usable(valid):
    """Rows of a (H, T) mask with enough valid samples and a valid pair."""
    return ((valid.sum(axis=1) >= _MIN_SAMPLES)
            & (valid[:, :-1] & valid[:, 1:]).any(axis=1))


def _check_rows(values, valid):
    if valid.shape != values.shape:
        raise ValueError("valid mask must match the values' shape")
    if not _usable(valid).all():
        raise ValueError(f"need at least {_MIN_SAMPLES} valid samples and "
                         "two consecutive ones per hour")
    if not np.isfinite(values[valid]).all():
        raise ValueError("samples must be finite")


@dataclass(eq=False)
class FitReport:
    params: np.ndarray          # (5,) a, b, beta, c, d, projected
    converged: bool
    flags: tuple[str, ...] = ()


class _Rows:
    """Hours on a common sample grid, one per row.

    Each row is shifted to start at its first valid sample; masked samples
    are zeroed and left out through the sample mask ``m`` and the
    transition-pair mask ``pm``.
    """

    def __init__(self, values, valid):
        T = values.shape[1]
        idx = np.argmax(valid, axis=1)[:, None] + np.arange(T)
        inside = idx < T
        idx = np.minimum(idx, T - 1)
        self.m = inside & np.take_along_axis(valid, idx, axis=1)
        self.v = np.where(self.m, np.take_along_axis(values, idx, axis=1), 0.0)
        self.pm = self.m[:, :-1] & self.m[:, 1:]
        self.X, self.Y = self.v[:, :-1], self.v[:, 1:]
        self.lo = np.where(self.m, self.v, np.inf).min(axis=1)
        self.hi = np.where(self.m, self.v, -np.inf).max(axis=1)
        self.span = np.maximum(self.hi - self.lo, 1e-3)

    def take(self, rows) -> "_Rows":
        return _Rows(self.v[rows], self.m[rows])


# ---------------------------------------------------------------------------
# low-level statistics, over the valid entries along ``axis``


def _msum(x, mask, axis):
    return np.where(mask, x, 0.0).sum(axis=axis)


def _lag1_slope(s):
    """The lag-1 slope Σ dx·Y / Σ dx² of each row over its valid pairs, the
    centred regressors dx (zero off the pairs) and Σ dx²."""
    n = s.pm.sum(axis=1)
    dx = np.where(s.pm, s.X - (_msum(s.X, s.pm, 1) / n)[:, None], 0.0)
    sxx = np.maximum((dx * dx).sum(axis=1), 1e-14 * n)
    return (dx * s.Y).sum(axis=1) / sxx, dx, sxx


def _masked_var(P, mask, axis):
    n = mask.sum(axis=axis)
    dev = P - np.expand_dims(_msum(P, mask, axis) / n, axis)
    return _msum(dev * dev, mask, axis) / n


def _debias_phi(phi_raw, n):
    """Invert Kendall's bias E[phi_hat] = phi − (1 + 3 phi)/N of the lag-1
    regression slope over N pairs; d E[phi_hat]/d phi = 1 − 3/N."""
    return np.clip((n * phi_raw + 1.0) / (n - 3.0), -0.99, _PHI_MAX)


def _e2(s, dt, a, b):
    """Squared one-step residuals of the drift (a, b) per row."""
    return (s.Y - (s.X + a[:, None] * dt * (b[:, None] - s.X))) ** 2


def _profiled_beta(e2_sum, w_sum, dt):
    """Closed-form beta that minimizes the Gaussian pseudo-likelihood, from
    each row's masked sums of e² and of the variance shape W."""
    beta = e2_sum / np.maximum(w_sum * dt, 1e-14)
    return np.minimum(np.maximum(beta, BETA_MIN), BETA_MAX)


def _reprofile_beta(s, dt, a, b, c, d):
    W = np.maximum((s.X - c[:, None]) * (d[:, None] - s.X), SIGMA2_FLOOR)
    return _profiled_beta(_msum(_e2(s, dt, a, b), s.pm, 1),
                          _msum(W, s.pm, 1), dt)


def _norm_cdf(x):
    """Φ(x) = erfc(−x/√2)/2 elementwise, by ``math.erfc``: no scipy."""
    u = (x * -math.sqrt(0.5)).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, u), float, x.size).reshape(x.shape)


def _censored_step(s, dt, a, b, beta, c, d, W):
    """E[e] and E[e²] of e = Y − m per pair under the Euler chain's one-step
    law N(m, σ²), m = X + a·dt·(b − X) and σ² = beta·dt·W, censored at c
    and d (Tobin 1958).  With α = (c − m)/σ and γ = (d − m)/σ,
    E[e] = (c − m)Φ(α) + (d − m)Φ(−γ) + σ[φ(α) − φ(γ)] and
    E[e²] = σ²·[Φ(γ) − Φ(α) + αφ(α) − γφ(γ)] + (c − m)²Φ(α) + (d − m)²Φ(−γ).
    σ² has the likelihood's floor, so α and γ are finite; far from a bound
    Φ(α) and αφ(α) underflow to their limits, 0."""
    m = s.X + a[:, None] * dt * (b[:, None] - s.X)
    var = np.maximum(beta[:, None] * dt * W, SIGMA2_FLOOR)
    sd = np.sqrt(var)
    to_c, to_d = c[:, None] - m, d[:, None] - m
    al, ga = to_c / sd, to_d / sd
    p_c, p_d = _norm_cdf(al), _norm_cdf(-ga)
    f_c, f_d = (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                for x in (al, ga))
    return (to_c * p_c + to_d * p_d + sd * (f_c - f_d),
            var * (1.0 - p_c - p_d + al * f_c - ga * f_d)
            + to_c * to_c * p_c + to_d * to_d * p_d)


def _censored_beta(s, dt, a, b, c, d):
    """Beta of the Euler chain, whose steps are clipped to [c, d].

    From the profiled beta (Σe² = Σσ²), ``_N_CENSOR_ITERS`` steps
    beta ← beta·Σe²/ΣE[e²] over the valid pairs match Σe² to the censored
    second moment E[e²] of ``_censored_step`` instead.
    """
    W = np.maximum((s.X - c[:, None]) * (d[:, None] - s.X), SIGMA2_FLOOR)
    e2_sum = _msum(_e2(s, dt, a, b), s.pm, 1)
    beta = _profiled_beta(e2_sum, _msum(W, s.pm, 1), dt)
    for _ in range(_N_CENSOR_ITERS):
        e2_cens = _censored_step(s, dt, a, b, beta, c, d, W)[1]
        beta = np.clip(beta * e2_sum / _msum(e2_cens, s.pm, 1),
                       BETA_MIN, BETA_MAX)
    return beta


# ---------------------------------------------------------------------------
# batched Nelder–Mead


def _nelder_mead_batch(f, z0):
    """Scipy's Nelder–Mead on B problems at once, in lockstep.

    Runs ``scipy.optimize.minimize(method="Nelder-Mead", options=dict(
    maxiter=150, xatol=1e-4, fatol=1e-6))`` step for step on every problem:
    the same initial simplex, coefficients, stopping tests and iteration
    count (with only ``maxiter`` set, scipy sets no evaluation limit).
    ``f(z, rows)`` evaluates problems ``rows`` at the points ``z`` (k, N),
    never more than B rows at once.  Only the active problems' simplices
    are iterated; a problem leaves them, and its result is stored, once it
    has converged or run out of iterations.  Returns the best vertices
    (B, N), the best values, the iteration counts and the convergence
    flags.
    """
    B, N = z0.shape
    s = np.repeat(np.asarray(z0, dtype=float)[:, None, :], N + 1, axis=1)
    for k in range(N):
        s[:, k + 1, k] = np.where(z0[:, k] != 0, (1 + 0.05) * z0[:, k],
                                  0.00025)
    act = np.arange(B)
    fs = np.stack([f(s[:, k], act) for k in range(N + 1)], 1)
    x, fun, nit = np.empty((B, N)), np.empty(B), np.empty(B, dtype=int)
    r = act[:, None]
    it = 1                      # every active problem is at this iteration
    while True:
        order = fs.argsort(axis=1)
        s, fs = s[r, order], fs[r, order]
        done = (it >= _NM_MAXITER) | (
            (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _NM_XATOL)
            & (np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= _NM_FATOL))
        if done.any():
            rows = act[done]
            x[rows], fun[rows], nit[rows] = s[done, 0], fs[done].min(1), it
            if done.all():
                return x, fun, nit, nit < _NM_MAXITER
            act, s, fs = act[~done], s[~done], fs[~done]
            r = r[:act.size]
        xbar = np.add.reduce(s[:, :-1], 1) / N
        worst, fworst = s[:, -1], fs[:, -1]
        xr = 2 * xbar - worst
        fxr = f(xr, act)
        expand = fxr < fs[:, 0]
        contract = ~(expand | (fxr < fs[:, -2]))     # NaN contracts too
        outside = contract & (fxr < fworst)
        inside = contract & ~outside
        pq = _NM_STEPS[2 - 2 * expand - outside]
        x2 = pq[:, :1] * xbar - pq[:, 1:] * worst
        # every row, which costs less than gathering the rows that need x2;
        # a NaN f2 (no second point) is never taken
        f2 = f(x2, act)
        f2[~(expand | contract)] = np.nan
        take2 = np.where(outside, f2 <= fxr,
                         f2 < np.where(inside, fworst, fxr))
        shrink = contract & ~take2
        sh = s[shrink]                  # a copy, taken before the new vertex
        s[:, -1] = np.where(take2[:, None], x2, xr)
        fs[:, -1] = np.where(take2, f2, fxr)
        if len(sh):
            sh[:, 1:] = sh[:, :1] + 0.5 * (sh[:, 1:] - sh[:, :1])
            s[shrink] = sh
            for k in range(1, N + 1):
                fs[shrink, k] = f(sh[:, k], act[shrink])
        it += 1


# ---------------------------------------------------------------------------
# component fits, each for every row of a batch


def _fit_diffusion_mle(s, dt, a, b):
    """Profiled-likelihood fit of (c, d, beta) with (a, b) held fixed.

    The optimization runs over z = log of the two boundary offsets in units
    of the sample span, which keeps the fit exactly equivariant under affine
    rescaling of the samples.  The objective works in (B, T) buffers made
    once per fit; masking multiplies by the pair mask as floats, which sums
    the same finite values as ``_msum``.
    """
    e2 = _e2(s, dt, a, b)
    cols = (s.X, s.pm.astype(float), e2)
    # c = lo + (−span)·off_c and d = hi + span·off_d, exactly as lo − span·off_c
    per_row = (np.stack([s.lo, s.hi], 1), np.stack([-s.span, s.span], 1),
               _msum(e2, s.pm, 1)[:, None])
    bufs = np.empty((5,) + e2.shape)
    held = [None, None]         # the index array last gathered, its rows

    def nll_parts(z, rows):
        # math.exp: np.exp differs from it in the last bit on some inputs
        off = np.fromiter(map(math.exp, z.ravel().tolist()), float,
                          z.size).reshape(z.shape)
        X, P, E, W, T = bufs[:, :len(rows)]
        # the Nelder–Mead passes one index array until a problem retires
        if rows is not held[0]:
            for src, dst in zip(cols, (X, P, E)):
                src.take(rows, 0, out=dst, mode="clip")
            held[:] = rows, [r[rows] for r in per_row]
        bounds, scale, e2_sum = held[1]
        cd = bounds + scale * off
        c, d = cd[:, :1], cd[:, 1:]
        np.multiply(np.subtract(X, c, out=W), np.subtract(d, X, out=T), out=W)
        np.maximum(W, SIGMA2_FLOOR, out=W)
        beta = _profiled_beta(
            e2_sum, np.add.reduce(np.multiply(W, P, out=T), 1, keepdims=True),
            dt)
        V = np.maximum(np.multiply(beta * dt, W, out=W), SIGMA2_FLOOR, out=W)
        terms = np.add(np.log(V, out=T), np.divide(E, V, out=W), out=T)
        return (0.5 * np.add.reduce(np.multiply(terms, P, out=T), 1),
                beta[:, 0], c[:, 0], d[:, 0])

    z0 = np.full((len(a), 2), math.log(0.05))
    z, _, _, converged = _nelder_mead_batch(
        lambda z, rows: nll_parts(z, rows)[0], z0)
    _, beta, c, d = nll_parts(z, np.arange(len(a)))
    c = np.maximum(c, s.lo - 3.0 * s.span)
    d = np.minimum(d, s.hi + 3.0 * s.span)
    return beta, c, d, converged


def _clamp_b(b, c, d):
    margin = _B_MARGIN * (d - c)
    return np.minimum(np.maximum(b, c + margin), d - margin)


def _fit_b_relaxation(s, dt, a, c, d):
    """Mean level from least squares on the one-step relaxation curve."""
    g = np.power((1.0 - np.minimum(a * dt, 0.999))[:, None],
                 np.arange(s.v.shape[1]))
    y = s.v - s.v[:, :1] * g
    x = 1.0 - g
    denom = _msum(x * x, s.m, 1)
    b = np.where(denom > 1e-12,
                 _msum(y * x, s.m, 1) / np.maximum(denom, 1e-12),
                 _msum(s.v, s.m, 1) / s.m.sum(axis=1))
    return _clamp_b(b, c, d)


def _make_params(a, b, beta, c, d, dt):
    """(5, B) rows a, b, beta, c, d of valid parameters: the estimator's
    own steps, a at most ``A_CAP_UNITS / dt`` (its matching simulations
    take one Euler step per sample) and b kept ``_B_MARGIN`` inside the
    bounds, then ``sde.project_rows``."""
    return project_rows([np.minimum(a, A_CAP_UNITS / dt), _clamp_b(b, c, d),
                         beta, c, d])


def _slope_bias(dx, pm, var, phi, sxx):
    """E[φ̂] − φ, to first order, of the lag-1 slope φ̂ = Σ dx·Y / Σ dx² of
    an AR(1) Y_t = φX_t + (1 − φ)b + σ_t·ε_t over its N valid pairs.

    Stein's lemma on each ε_t, which moves X_s by σ_t·φ^(s−t−1) for s > t,
    gives −Σ_t σ_t²·[G_t/(N·Σdx²) + 2·dx_t·F_t/(Σdx²)²], G_t and F_t the
    sums of φ^(s−t−1) and φ^(s−t−1)·dx_s over the valid pairs s > t.  At
    the observed dx and the variances ``var`` (zero off the pairs, as dx
    is) it keeps the hour's transient, gaps (s − t counts samples) and
    heteroscedastic noise; a stationary homoscedastic series gives
    Kendall's −(1 + 3φ)/N.
    """
    GF = np.zeros((2,) + dx.shape)      # by a doubling scan: φ^k <= 1
    GF[0, :, :-1], GF[1, :, :-1] = pm[:, 1:], dx[:, 1:]
    k, p = 1, phi[:, None]
    while k < dx.shape[1]:
        GF[..., :-k] += p * GF[..., k:]
        k, p = 2 * k, p * p
    return -((var * GF[0]).sum(axis=1) / (pm.sum(axis=1) * sxx)
             + 2.0 * (var * dx * GF[1]).sum(axis=1) / (sxx * sxx))


def _fit_drift(s, dt, a, b, beta, c, d):
    """(a, b) by deterministic indirect inference: the lag-1 slope φ̂ is
    matched to its expectation under the Euler chain at the fitted
    (beta, c, d), φ + clip + bias(φ).  ``clip`` is the slope on X of the
    censored step's mean shift E[e] at the last (a, b), after one step of
    ``_censored_beta``'s fixed point (the uncensored profile reads beta
    low); ``bias`` is ``_slope_bias``, and ``_N_DRIFT_ITERS`` fixed-point
    steps solve for φ.  b is re-fit on the relaxation curve last."""
    W = np.maximum((s.X - c[:, None]) * (d[:, None] - s.X), SIGMA2_FLOOR)
    _, dx, sxx = _lag1_slope(s)
    e1, e2 = _censored_step(s, dt, a, b, beta, c, d, W)
    beta = np.clip(beta * _msum(_e2(s, dt, a, b), s.pm, 1)
                   / _msum(e2, s.pm, 1), BETA_MIN, BETA_MAX)
    var = np.where(s.pm, beta[:, None] * dt * W, 0.0)
    phi_clip = ((s.Y - e1) * dx).sum(axis=1) / sxx
    for _ in range(_N_DRIFT_ITERS):
        phi = phi_clip - _slope_bias(dx, s.pm, var, 1.0 - a * dt, sxx)
        a = np.clip((1.0 - np.minimum(phi, _PHI_MAX)) / dt, A_MIN,
                    A_CAP_UNITS / dt)
    return a, _fit_b_relaxation(s, dt, a, c, d)


def _match_variance(s, dt, a, b, beta, c, d, side):
    """Re-fit a runaway boundary by matching the simulated path variance.

    When the likelihood is nearly flat in the far boundary the fitted offset
    can wander; the path variance is monotone in that offset with a known
    stationary slope, so a few damped matching steps pin it down.  Each
    row draws its paths' noise from its own generator, keyed by the row
    alone: its samples in its own span units on a 2⁻³⁰ grid (which an
    affine map of the samples keeps), a masked sample as 2³¹, and the side.
    """
    var_obs, T = _masked_var(s.v, s.m, 1), s.v.shape[1]
    m = np.repeat(s.m.T, _N_MATCH, axis=1)
    key = np.where(s.m, np.rint((s.v - s.lo[:, None]) / s.span[:, None]
                                * 2.0 ** 30), 2.0 ** 31)
    rngs = [np.random.default_rng(np.append(k, side == "c").astype(np.uint32))
            for k in key]
    for _ in range(_N_VAR_ITERS):
        theta = _make_params(a, b, beta, c, d, dt)
        ta, tb, tbeta, tc, td = theta
        # _N_MATCH paths per row from its observed start; row i's paths are
        # columns i·_N_MATCH on
        q0 = np.repeat(np.minimum(np.maximum(s.v[:, 0], tc + 1e-9),
                                  td - 1e-9), _N_MATCH)
        P = np.vstack([q0[None], euler_paths(
            np.repeat(theta, _N_MATCH, axis=1)[None], q0, dt, T - 1, [1],
            np.hstack([g.standard_normal((T - 1, _N_MATCH)) for g in rngs]))])
        var_sim = _masked_var(P, m, 0).reshape(-1, _N_MATCH).mean(axis=1)
        if side == "d":
            slope = np.maximum(tbeta * (tb - tc) / (2.0 * ta + tbeta), 1e-9)
            d = np.minimum(np.maximum(td + _DAMP * (var_obs - var_sim) / slope,
                                      s.hi + 1e-3 * s.span),
                           s.hi + 2.0 * s.span)
        else:
            slope = np.maximum(tbeta * (td - tb) / (2.0 * ta + tbeta), 1e-9)
            c = np.maximum(np.minimum(tc - _DAMP * (var_obs - var_sim) / slope,
                                      s.lo - 1e-3 * s.span),
                           s.lo - 2.0 * s.span)
        beta = _reprofile_beta(s, dt, a, b, c, d)
    return beta, c, d


def _diffusion_pipeline(s, dt, a, b):
    """Full diffusion fit: profiled likelihood plus variance matching of a
    runaway bound.  Returns the fit and a (B, 2) mask of the repairs in
    ``_REPAIR_FLAGS``."""
    beta, c, d, converged = _fit_diffusion_mle(s, dt, a, b)
    run_hi = d - s.hi > _RUNAWAY_FRAC * s.span
    run_lo = s.lo - c > _RUNAWAY_FRAC * s.span
    for side, run in (("d", run_hi), ("c", run_lo)):
        if run.any():
            beta[run], c[run], d[run] = _match_variance(
                s.take(run), dt, a[run], b[run], beta[run], c[run], d[run],
                side)
    beta = _reprofile_beta(s, dt, a, b, c, d)
    return beta, c, d, converged, np.stack([run_hi, run_lo], axis=1)


def _initial_drift(s, dt):
    """Starting (a, b) for the first diffusion fit: Kendall's inversion of
    the lag-1 slope and the relaxation curve's level."""
    # N at least 4 keeps Kendall's inversion finite and increasing
    phi = _debias_phi(_lag1_slope(s)[0], np.maximum(s.pm.sum(axis=1), 4))
    a = np.clip((1.0 - phi) / dt, A_MIN, A_CAP_UNITS / dt)
    b = _fit_b_relaxation(s, dt, a, s.lo - 0.05 * s.span,
                          s.hi + 0.05 * s.span)
    return a, b


def _identify_rows(s, dt):
    """Identify every (non-constant) row of ``s``; one FitReport per row.

    Alternates the drift and diffusion fits so each step conditions on the
    other's latest estimate, then corrects beta for the censoring of the
    Euler chain at the fitted bounds.
    """
    a, b = _initial_drift(s, dt)
    beta, c, d, *_ = _fit_diffusion_mle(s, dt, a, b)
    a, b = _fit_drift(s, dt, a, b, beta, c, d)
    beta, c, d, converged, repairs = _diffusion_pipeline(s, dt, a, b)
    a, b = _fit_drift(s, dt, a, b, beta, c, d)
    beta = _censored_beta(s, dt, a, b, c, d)
    theta = _make_params(a, b, beta, c, d, dt)
    return [FitReport(params=theta[:, i], converged=bool(converged[i]),
                      flags=tuple(f for f, hit in zip(_REPAIR_FLAGS, hits)
                                  if hit))
            for i, hits in enumerate(repairs)]


# ---------------------------------------------------------------------------
# public operations


def identify_hours(values, valid=None, h: float = 30.0) -> list[FitReport]:
    """Identify all five parameters of each hour in the rows of ``values``.

    ``values`` is (H, T), one hour of samples every ``h`` seconds per row;
    ``valid`` (H, T) marks the samples to use (all of them when omitted),
    and a masked sample may hold any value.  Each row needs 20 valid
    samples, two of them consecutive.  Beta is that of the Euler chain
    clipped at the fitted bounds (``_censored_beta``), which the
    uncensored profile reads low.  A row's report depends on its samples
    and mask alone, so row i's report equals that of ``identify_hour`` on
    row i alone.  A constant row is flagged non-volatile and degenerate.
    """
    values = np.asarray(values, dtype=float)
    valid = (np.ones(values.shape, dtype=bool) if valid is None
             else np.asarray(valid, dtype=bool))
    _check_rows(values, valid)
    if not h > 0:
        raise ValueError("sampling period must be > 0")
    s = _Rows(values, valid)
    reports: list[FitReport | None] = [None] * len(s.lo)
    flat = s.hi - s.lo <= _SPAN_EPS
    for i in np.flatnonzero(flat):
        v = s.v[i][s.m[i]]
        params = project_rows([A_MIN, float(v.mean()), BETA_MIN,
                               float(v.min()) - DEGENERATE_DELTA,
                               float(v.max()) + DEGENERATE_DELTA])
        reports[i] = FitReport(params=params, converged=True,
                               flags=("non-volatile", "degenerate"))
    live = np.flatnonzero(~flat)
    if live.size:
        fits = _identify_rows(s.take(live), h / TIME_UNIT_SECONDS)
        for i, rep in zip(live, fits):
            reports[i] = rep
    return reports


def identify_hour(values, valid=None, h: float = 30.0) -> FitReport:
    """Identify all five parameters of one hour of samples (T,), taken
    every ``h`` seconds; ``valid`` (T,) as in ``identify_hours``."""
    return identify_hours(np.asarray(values)[None],
                          None if valid is None else np.asarray(valid)[None],
                          h)[0]


def identify_day(values, mask=None, step_seconds: float = 30.0,
                 m: int | None = None):
    """Identify per-hour parameters for a full day of samples.

    ``values`` is the normalized day series; ``mask`` marks valid samples
    (all valid when omitted).  The day is cut into ``m`` clock hours of
    ``round(3600 / step_seconds)`` samples, a short day's tail masked
    (``m`` defaults to the hours the day reaches into); a window with more
    than half of its samples masked (or fewer than 20 valid, or no two
    consecutive) is invalid and receives the average of its nearest valid
    neighbours' parameters, flagged ``"interpolated"``.  The valid windows
    are identified together by ``identify_hours``, gaps included.

    Returns ``(DayParams, reports)``.  Raises ValueError on a day longer
    than ``m`` hours, AllHoursInvalidError when every window is invalid.
    """
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones(values.size, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.size != values.size:
        raise ValueError("mask length must match values length")
    per_hour = max(int(round(3600.0 / step_seconds)), 1)
    if m is None:
        m = -(-values.size // per_hour)
    tail = m * per_hour - values.size
    if m < 1 or tail < 0:
        raise ValueError(f"a day of {values.size} samples does not fit "
                         f"{m} hours of {per_hour} ({m * per_hour})")
    hours = np.pad(values, (0, tail)).reshape(m, per_hour)
    valid = np.pad(mask, (0, tail)).reshape(m, per_hour)
    ok = (valid.sum(axis=1) > 0.5 * per_hour) & _usable(valid)
    if not ok.any():
        raise AllHoursInvalidError(
            "no hour of the day has enough valid samples")

    fits = identify_hours(hours[ok], valid[ok], step_seconds)
    theta = np.empty((5, m))
    theta[:, ok] = np.transpose([rep.params for rep in fits])
    near = np.flatnonzero(ok)
    for i in np.flatnonzero(~ok):   # the mean of its nearest valid hours
        k = np.searchsorted(near, i)
        theta[:, i] = theta[:, near[max(k - 1, 0):k + 1]].mean(axis=1)
    day, fits = DayParams(theta), iter(fits)
    return day, [next(fits) if ok[i] else FitReport(
        params=day.theta[:, i], converged=False, flags=("interpolated",))
        for i in range(m)]
