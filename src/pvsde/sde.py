"""Hourly-parameterized Jacobi diffusion for normalized PV power.

The process solves

    dP = a (b - P) dt + sqrt(beta (P - c) (d - P)) dW

with state confined to [c, d].  Rates ``a`` and ``beta`` are stored per
internal time unit of ``TIME_UNIT_SECONDS`` (30 s, the native sampling
period of the PV telemetry); all public entry points take wall-clock
seconds and convert.

A day's parameters are a ``DayParams``: one read-only (5, m) array, rows
a, b, beta, c, d, whose constructor projects it onto the parameter box
(``project_rows``; the bounds and ``A_CAP_UNITS`` are constants here).
``SdeParams`` is one hour's set, the input of ``simulate_hour`` and of the
stationary law; it refuses a set that ``project_rows`` would move.

One kernel, ``euler_paths``, steps the Euler chain in place for a bundle
of paths under per-hour or per-path parameters and a given noise source,
the same to the bit as the allocating form of the step.  Its callers are
the data generator (every synthetic day one path) and the estimator's
matching simulations, in float64, and the forecast fans (``make_fan``),
which step one hour at a time, keep only that hour's states and are
float32 end to end: a 1,000-path quantile's Monte-Carlo error (~1e-2)
dwarfs float32 rounding (6e-8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# One internal time unit in seconds.  Parameter magnitudes (a ~ 0.05-0.35)
# correspond to this convention: 1/a is the autocorrelation time constant
# measured in 30-second units.
TIME_UNIT_SECONDS = 30.0

# The parameter box: a in [A_MIN, A_MAX], beta in [0, BETA_MAX], d - c at
# least MIN_GAP.  A_CAP_UNITS caps a*dt of fits and fans taking one Euler
# step per sample, safely inside the stability bound _MAX_A_DT.
A_MIN, A_MAX, BETA_MAX, MIN_GAP = 1e-4, 2.0, 1.0, 0.01
A_CAP_UNITS = 0.45
_RULES = ("swapped_bounds", "widened_bounds", "clamped_b", "clamped_a",
          "clamped_beta")

# Relative inset used when a state must be pushed strictly inside [c, d].
_BOUND_EPS = 1e-6

# Largest allowed a*dt per Euler substep before a step is rejected.
_MAX_A_DT = 0.5
# Target a*dt when choosing substeps automatically.
_AUTO_A_DT = 0.25


def samples_per_hour(step_seconds) -> int:
    """Samples in an hour of a grid with one sample every ``step_seconds``;
    ValueError when the step leaves an hour without a sample."""
    n = int(round(3600.0 / step_seconds)) if step_seconds > 0 else 0
    if n < 1:
        raise ValueError(f"a step of {step_seconds} s leaves an hour "
                         "without a sample")
    return n


class StabilityError(ValueError):
    """Euler step too coarse for the requested mean-reversion rate."""


class DegenerateDistributionError(ValueError):
    """Stationary density requested for a noiseless (beta = 0) process."""


@dataclass(frozen=True)
class SdeParams:
    """One hour's Jacobi diffusion parameters [a, b, beta, c, d]."""

    a: float      # mean-reversion rate, per TIME_UNIT_SECONDS
    b: float      # reversion target (dimensionless normalized power)
    beta: float   # volatility intensity, per TIME_UNIT_SECONDS
    c: float      # lower bound
    d: float      # upper bound

    def __post_init__(self):
        broken = []
        project_rows(self.as_array(), broken)
        if broken:
            raise ValueError(f"{self} is outside the parameter box: "
                             f"{', '.join(broken)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.beta, self.c, self.d])


def project_rows(theta, log=None) -> np.ndarray:
    """Project (5, ...) rows a, b, beta, c, d onto the parameter box: swap
    inverted bounds, widen d - c to ``MIN_GAP`` symmetrically, clamp b into
    [c, d], a into [A_MIN, A_MAX] and beta into [0, BETA_MAX]; raise
    ValueError on a non-finite result.  Idempotent to the bit: a widened gap
    that rounds below MIN_GAP has d raised by an ulp.  ``log`` (a list,
    optional) collects the label of each rule that moved some column."""
    a, b, beta, c, d = np.asarray(theta, dtype=float)
    swap = d < c
    c, d = np.where(swap, d, c), np.where(swap, c, d)
    narrow = d - c < MIN_GAP
    mid = 0.5 * (c + d)
    c = np.where(narrow, mid - MIN_GAP / 2, c)
    d = np.where(narrow, mid + MIN_GAP / 2, d)
    d = np.where(d - c < MIN_GAP, np.nextafter(d, np.inf), d)
    if log is not None:
        moved = (swap, narrow, ~((c <= b) & (b <= d)),
                 ~((A_MIN <= a) & (a <= A_MAX)),
                 ~((0.0 <= beta) & (beta <= BETA_MAX)))
        log.extend(label for label, hit in zip(_RULES, moved) if hit.any())
    out = np.stack([_clip(a, A_MIN, A_MAX), _clip(b, c, d),
                    _clip(beta, 0.0, BETA_MAX), c, d])
    if not np.isfinite(out).all():
        raise ValueError("non-finite SDE parameter")
    return out


def _clip(x, lo, hi):
    """x clamped into [lo, hi], keeping NaN and a signed zero inside."""
    return np.where(x < lo, lo, np.where(x > hi, hi, x))


@dataclass(frozen=True, eq=False)
class DayParams:
    """One day's parameters: ``theta``, a read-only (5, m) float array with
    rows a, b, beta, c, d and one column per daytime hour.  The constructor
    projects it with ``project_rows``, the one place a day's box is
    enforced."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2 or len(theta) != 5 or theta.shape[1] < 1:
            raise ValueError(f"a day's parameters are (5, m >= 1), got "
                             f"{theta.shape}")
        theta = project_rows(theta)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    @property
    def m(self) -> int:
        return self.theta.shape[1]

    def as_matrix(self) -> np.ndarray:
        """``theta``, by the name ``pvsdebench`` reads it."""
        return self.theta


def _clamp_interior(p, c, d):
    eps = _BOUND_EPS * (d - c)
    return np.clip(p, c + eps, d - eps)


def _auto_substeps(a_max: float, dt_units: float) -> int:
    return max(1, int(np.ceil(a_max * dt_units / _AUTO_A_DT)))


def euler_paths(params, p0, dt_units, n_steps, substeps, noise):
    """Step the Euler chain of consecutive hours for a bundle of paths.

    ``params`` holds one [a, b, beta, c, d] row per hour, shape (m, 5), or
    one column per path, shape (m, 5, n).  Hour i takes ``n_steps`` coarse
    steps of ``dt_units``, each split into ``substeps[i]`` Euler substeps;
    ``noise`` holds one standard-normal row per substep, consumed in order.
    At each hour's start the state is clamped just inside that hour's
    bounds and carried on; after every substep it is clamped to [c, d].
    The state, scratch, output and each hour's parameters are float32 if
    ``noise`` is, else float64.  Returns the (m * n_steps, n) states after
    each coarse step; ValueError unless ``substeps`` holds one count >= 1
    per hour.
    """
    noise = np.asarray(noise)
    dtype = noise.dtype if noise.dtype == np.float32 else np.dtype(float)
    params = np.asarray(params, dtype=float)
    p = np.array(p0, dtype=dtype, ndmin=1)
    if len(substeps) != len(params) or min(substeps, default=1) < 1:
        raise ValueError(f"need one substep count >= 1 per hour, got "
                         f"{list(substeps)} for {len(params)} hours")
    out = np.empty((params.shape[0] * n_steps, p.size), dtype)
    # scratch of every substep, and the state between substeps of a step
    drift, diff, state = np.empty((3, p.size), dtype)
    # per-hour rows as 0-d arrays: a Python float operand is promoted
    # afresh on every call, a numpy scalar costs more still
    rows = params.tolist() if params.ndim == 2 else params
    k = 0
    for i, (theta, sub) in enumerate(zip(rows, substeps)):
        a, b, beta, c, d = (np.asarray(x, dtype) for x in theta)
        h = dt_units / sub
        if np.any(a * h > _MAX_A_DT):
            raise StabilityError(
                f"a*dt = {np.max(a) * h:.3f} > {_MAX_A_DT}; "
                "reduce the step or increase substeps")
        scaled = h != 1.0     # x * 1.0 is x; fans and matching run at h = 1
        h, sq = np.asarray(h, dtype), np.asarray(np.sqrt(h), dtype)
        p = _clamp_interior(p, c, d)
        for q_last in out[i * n_steps:(i + 1) * n_steps]:
            for j in range(sub):
                # q = p + (a (b - p)) h + (sqrt(beta (p - c) (d - p))
                # sqrt(h)) z in this order: drift ends as p plus the drift
                # term, and q holds d - p until the sum overwrites it (q
                # may be p).  A step's last substep writes its row of
                # ``out``, which the next step reads.  The hour-start clamp
                # and every substep's clip keep p in [c, d], so p - c and
                # d - p are >= +0 and need no floor at zero.
                q = q_last if j == sub - 1 else state
                np.subtract(b, p, out=drift)
                np.multiply(drift, a, out=drift)
                if scaled:
                    np.multiply(drift, h, out=drift)
                np.add(drift, p, out=drift)
                np.subtract(p, c, out=diff)
                np.multiply(diff, beta, out=diff)
                np.subtract(d, p, out=q)
                np.multiply(diff, q, out=diff)
                np.sqrt(diff, out=diff)
                if scaled:
                    np.multiply(diff, sq, out=diff)
                np.multiply(diff, noise[k], out=diff)
                np.add(drift, diff, out=q)
                np.maximum(q, c, out=q)
                np.minimum(q, d, out=q)
                p = q
                k += 1
    return out


def simulate_hour(theta: SdeParams, p0, step_seconds=30.0, n_steps=120,
                  rng=None, substeps=None):
    """Euler-Maruyama path for one hour's parameters.

    Returns the n_steps states after each step of ``step_seconds`` (the
    initial state is not included).  ``substeps`` refines the internal
    Euler grid; by default it is chosen so a*dt stays small.
    """
    if rng is None:
        rng = np.random.default_rng()
    dt = step_seconds / TIME_UNIT_SECONDS
    if substeps is None:
        substeps = _auto_substeps(theta.a, dt)
    noise = rng.standard_normal((n_steps * substeps, np.size(p0)))
    path = euler_paths(theta.as_array()[None], p0, dt, n_steps, [substeps],
                       noise)
    return path[:, 0] if np.ndim(p0) == 0 else path


@dataclass(frozen=True)
class SimulationFan:
    """Monte-Carlo paths with per-step quantiles at DEFAULT_QUANTILE_LEVELS.

    A forecast fan's arrays are float32.  The quantiles and mean may
    summarize more paths than ``paths`` holds:
    a forecast fan keeps the first ``dump_paths`` of its ``n_paths`` paths,
    as its files do: ``pipeline.write_fan_csv`` puts ``mean`` and
    ``quantiles`` in ``fan_<date>.csv`` and ``paths`` in ``fan_<date>.npy``.
    ``make_fan`` fills the three hour by hour, so the paths it does not
    keep are never held for more than one hour.
    """

    paths: np.ndarray              # (n_paths, n_steps)
    step_seconds: float
    quantiles: np.ndarray          # a row per DEFAULT_QUANTILE_LEVELS
    mean: np.ndarray               # (n_steps,)

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1]

    def quantile(self, level: float) -> np.ndarray:
        for lv, q in zip(DEFAULT_QUANTILE_LEVELS, self.quantiles):
            if abs(lv - level) < 1e-12:
                return q
        raise KeyError(f"quantile level {level} not cached "
                       f"(have {DEFAULT_QUANTILE_LEVELS})")


# every level the metrics read: the 90% band and the 0.5 and 0.9 risks
DEFAULT_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95)


def make_fan(day: DayParams, p0, step_seconds=30.0, n_paths=1000, seed=0,
             n_keep=None):
    """Simulate n_paths day trajectories and cache empirical quantiles.

    A fan takes one Euler step per sample, so each hour's a is capped at
    ``A_CAP_UNITS / dt`` (a·dt at most 0.45): a predicted or hand-written
    a may exceed the Euler stability bound.

    The noise comes from a single stream, the first child of
    ``SeedSequence(seed)``.  Each hour's (steps, n_paths) block is drawn
    just before that hour is stepped; the blocks are the consecutive rows
    of the one block a single draw would give.  The fan is reproducible
    under ``seed``, but a path's noise depends on ``n_paths``.  The
    quantiles, at ``DEFAULT_QUANTILE_LEVELS``, and the mean cover every
    path; ``paths`` keeps the first ``n_keep`` of them (all when ``n_keep``
    is None).

    The fan is built hour by hour: each hour's (steps, n_paths) block of
    states gives that hour's mean, its kept paths and, sorted in place, its
    quantiles, and the next hour starts from its last row.  So a fan holds
    one hour of states, never a whole day's (n_steps, n_paths).  Noise,
    states, kept paths, quantiles and mean are float32: the quantiles are
    ``np.quantile`` of the states rounded once, the mean is accumulated in
    float64 and rounded once.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_hour = samples_per_hour(step_seconds)
    dt = step_seconds / TIME_UNIT_SECONDS

    params = day.theta.copy()
    params[0] = np.minimum(params[0], A_CAP_UNITS / dt)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n_steps = day.m * n_hour
    levels = DEFAULT_QUANTILE_LEVELS
    n_keep = n_paths if n_keep is None else min(n_keep, n_paths)
    paths = np.empty((n_keep, n_steps), np.float32)
    quantiles = np.empty((len(levels), n_steps), np.float32)
    mean = np.empty(n_steps, np.float32)
    p = np.full(n_paths, p0, np.float32)
    for i, theta in enumerate(params.T):
        rows = slice(i * n_hour, (i + 1) * n_hour)
        hour = euler_paths(theta[None], p, dt, n_hour, [1],
                           rng.standard_normal((n_hour, n_paths),
                                               dtype=np.float32))
        p = hour[-1].copy()             # the sort below reorders each step
        mean[rows] = hour.mean(axis=1, dtype=float)
        paths[:, rows] = hour[:, :n_keep].T
        quantiles[:, rows] = _sorted_quantiles(hour.T, levels)
        del hour            # before the next hour's noise and states exist
    return SimulationFan(paths=paths, step_seconds=float(step_seconds),
                         quantiles=quantiles, mean=mean)


def _sorted_quantiles(paths, levels) -> np.ndarray:
    """(n_levels, n_steps) quantiles of finite (n_paths, n_steps) paths
    from one sort along the path axis, done in place on ``paths``; float32
    paths too are interpolated in float64, as ``np.quantile`` does.

    Bit-identical to ``np.quantile``'s default ``linear`` method: the same
    virtual index ``(n - 1) * q``, the same neighbours and numpy's
    two-sided interpolation (``b - diff * (1 - t)`` when ``t >= 0.5``).
    Only a tie between -0.0 and 0.0 may pick the other zero.
    """
    paths.sort(axis=0)
    n = paths.shape[0]
    v = (n - 1) * np.asarray(levels, dtype=float)
    lo = np.floor(v)
    hi = lo + 1
    top = v >= n - 1
    lo[top] = hi[top] = -1
    t = (v - lo)[:, None]
    a, b = paths[lo.astype(np.intp)], paths[hi.astype(np.intp)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def stationary_beta_shapes(theta: SdeParams):
    """Shape parameters of the stationary Beta law on [c, d]."""
    if theta.beta <= 0:
        raise DegenerateDistributionError("beta = 0 has a degenerate stationary law")
    scale = theta.beta * (theta.d - theta.c)
    alpha = 2.0 * theta.a * (theta.b - theta.c) / scale
    bshape = 2.0 * theta.a * (theta.d - theta.b) / scale
    if alpha <= 0 or bshape <= 0:
        raise ValueError("stationary shapes must be positive; b must lie in (c, d)")
    return alpha, bshape


def stationary_sample(theta: SdeParams, size, rng):
    """Draw from the analytic stationary law (testing/initialization aid)."""
    from scipy import stats     # no command path needs it: import on use

    alpha, bshape = stationary_beta_shapes(theta)
    u = rng.random(size)
    x = stats.beta.ppf(u, alpha, bshape)
    return theta.c + (theta.d - theta.c) * x
