"""Hourly-parameterized Jacobi diffusion for normalized PV power.

The process solves

    dP = a (b - P) dt + sqrt(beta (P - c) (d - P)) dW

with state confined to [c, d].  Rates ``a`` and ``beta`` are stored per
internal time unit of ``TIME_UNIT_SECONDS`` (30 s, the native sampling
period of the PV telemetry); all public entry points take wall-clock
seconds and convert.

One kernel, ``euler_paths``, steps the discrete Euler chain for a bundle
of paths under per-hour or per-path parameters and a given noise source.
It has three callers: the data generator (``synth.synth_generate``, every
synthetic day one path), the estimator's matching simulations (through
``simulate_hour``) and the forecast fans (``make_fan``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

# One internal time unit in seconds.  Parameter magnitudes (a ~ 0.05-0.35)
# correspond to this convention: 1/a is the autocorrelation time constant
# measured in 30-second units.
TIME_UNIT_SECONDS = 30.0

# Relative inset used when a state must be pushed strictly inside [c, d].
_BOUND_EPS = 1e-6

# Largest allowed a*dt per Euler substep before a step is rejected.
_MAX_A_DT = 0.5
# Target a*dt when choosing substeps automatically.
_AUTO_A_DT = 0.25


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
        if not np.isfinite([self.a, self.b, self.beta, self.c, self.d]).all():
            raise ValueError("non-finite SDE parameter")
        if self.a <= 0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not self.c < self.d:
            raise ValueError(f"need c < d, got c={self.c}, d={self.d}")
        if not (self.c <= self.b <= self.d):
            raise ValueError(f"need c <= b <= d, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.beta, self.c, self.d])


def project_params(a, b, beta, c, d, *, min_gap=0.01, a_min=1e-4, a_max=2.0,
                   beta_max=1.0, log=None):
    """Project an arbitrary 5-vector onto the SdeParams validity region.

    Rules: swap inverted bounds; widen |d - c| to ``min_gap`` symmetrically;
    clamp b into [c, d], a into [a_min, a_max], beta into [0, beta_max].
    Idempotent.  ``log`` (a list, optional) collects event labels.
    """
    events = []
    if d < c:
        c, d = d, c
        events.append("swapped_bounds")
    if d - c < min_gap:
        mid = 0.5 * (c + d)
        c, d = mid - min_gap / 2, mid + min_gap / 2
        events.append("widened_bounds")
    if not c <= b <= d:
        b = min(max(b, c), d)
        events.append("clamped_b")
    if not a_min <= a <= a_max:
        a = min(max(a, a_min), a_max)
        events.append("clamped_a")
    if not 0.0 <= beta <= beta_max:
        beta = min(max(beta, 0.0), beta_max)
        events.append("clamped_beta")
    if log is not None:
        log.extend(events)
    return SdeParams(a=float(a), b=float(b), beta=float(beta),
                     c=float(c), d=float(d))


@dataclass(frozen=True)
class DayParams:
    """Ordered hourly parameter sets covering one day's daytime hours."""

    hours: tuple[SdeParams, ...]

    def __post_init__(self):
        if len(self.hours) < 1:
            raise ValueError("DayParams needs at least one hour")
        object.__setattr__(self, "hours", tuple(self.hours))

    @property
    def m(self) -> int:
        return len(self.hours)

    def as_matrix(self) -> np.ndarray:
        """(5, m) array with rows a, b, beta, c, d."""
        return np.stack([h.as_array() for h in self.hours], axis=1)


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
    Returns the (m * n_steps, n) states after each coarse step.
    """
    params = np.asarray(params, dtype=float)
    p = np.array(p0, dtype=float, ndmin=1)
    out = np.empty((params.shape[0] * n_steps, p.size))
    # per-hour rows as Python floats: numpy scalars slow every step ~15%
    rows = params.tolist() if params.ndim == 2 else params
    k = 0
    for i, (theta, sub) in enumerate(zip(rows, substeps)):
        a, b, beta, c, d = theta
        h = dt_units / sub
        if np.any(a * h > _MAX_A_DT):
            raise StabilityError(
                f"a*dt = {np.max(a) * h:.3f} > {_MAX_A_DT}; "
                "reduce the step or increase substeps")
        sq = np.sqrt(h)
        p = _clamp_interior(p, c, d)
        for row in range(i * n_steps, (i + 1) * n_steps):
            for _ in range(sub):
                s2 = beta * np.maximum(0.0, p - c) * np.maximum(0.0, d - p)
                p = p + a * (b - p) * h + np.sqrt(s2) * sq * noise[k]
                np.clip(p, c, d, out=p)
                k += 1
            out[row] = p
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
    """Monte-Carlo path bundle with cached per-step quantiles."""

    paths: np.ndarray              # (n_paths, n_steps)
    step_seconds: float
    quantile_levels: tuple[float, ...]
    quantiles: np.ndarray          # (n_levels, n_steps)
    mean: np.ndarray               # (n_steps,)

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1]

    def quantile(self, level: float) -> np.ndarray:
        for lv, q in zip(self.quantile_levels, self.quantiles):
            if abs(lv - level) < 1e-12:
                return q
        raise KeyError(f"quantile level {level} not cached "
                       f"(have {self.quantile_levels})")

    def to_csv(self, path_or_buf, n_dump: int):
        """Write `step,mean,q05,q25,q50,q75,q95` rows, then the first
        ``n_dump`` raw paths as `P,v0,v1,...` rows."""
        close = False
        if isinstance(path_or_buf, (str, bytes)):
            f = open(path_or_buf, "w")
            close = True
        else:
            f = path_or_buf
        try:
            names = ["q%02d" % round(100 * lv) for lv in self.quantile_levels]
            f.write("step,mean," + ",".join(names) + "\n")
            for i in range(self.n_steps):
                row = [str(i), repr(float(self.mean[i]))]
                row += [repr(float(q[i])) for q in self.quantiles]
                f.write(",".join(row) + "\n")
            for p in self.paths[:n_dump]:
                f.write("P," + ",".join(repr(float(v)) for v in p) + "\n")
        finally:
            if close:
                f.close()


DEFAULT_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


def make_fan(day: DayParams, p0, step_seconds=30.0, n_paths=1000, seed=0,
             quantile_levels=DEFAULT_QUANTILE_LEVELS, substeps=None):
    """Simulate n_paths day trajectories and cache empirical quantiles.

    Each path draws from an independent stream derived from (seed, path
    index), so the result is reproducible regardless of scheduling.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_hour = int(round(3600.0 / step_seconds))
    dt = step_seconds / TIME_UNIT_SECONDS

    # Per-path noise from spawned child streams, consumed hour by hour.
    children = np.random.SeedSequence(seed).spawn(n_paths)
    subs = [substeps if substeps is not None else _auto_substeps(t.a, dt)
            for t in day.hours]
    total_draws = n_hour * sum(subs)
    noise = np.empty((total_draws, n_paths))
    for j, ss in enumerate(children):
        noise[:, j] = np.random.default_rng(ss).standard_normal(total_draws)

    paths = euler_paths(day.as_matrix().T, np.full(n_paths, float(p0)), dt,
                        n_hour, subs, noise).T
    levels = tuple(quantile_levels)
    qs = np.quantile(paths, levels, axis=0)
    return SimulationFan(paths=paths, step_seconds=float(step_seconds),
                         quantile_levels=levels, quantiles=qs,
                         mean=paths.mean(axis=0))


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


def stationary_density(theta: SdeParams, p):
    """Analytic stationary density: Beta(alpha, bshape) rescaled to [c, d]."""
    alpha, bshape = stationary_beta_shapes(theta)
    return stats.beta.pdf(np.asarray(p, dtype=float), alpha, bshape,
                          loc=theta.c, scale=theta.d - theta.c)


def stationary_sample(theta: SdeParams, size, rng):
    """Draw from the analytic stationary law (testing/initialization aid)."""
    alpha, bshape = stationary_beta_shapes(theta)
    u = rng.random(size)
    x = stats.beta.ppf(u, alpha, bshape)
    return theta.c + (theta.d - theta.c) * x
