"""Forecast evaluation metrics for simulation fans against observed series.

Covers interval coverage (PICP), distributional distance (discrete KL over
a shared histogram), quantile loss (rho-risk), point-forecast errors of
the median path (ND, NRMSE), and the variogram score of the fan's
increments over a few short lags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sde import SimulationFan

KL_BINS = 50
KL_EPS = 1e-9
VS_LAGS = (1, 2, 4, 8, 16)      # the variogram score's lags, in steps
_VS_CHUNK_PATHS = 16            # paths per sum in ``variogram_score``


class UndefinedMetricError(ValueError):
    """A metric's normalizer vanishes (e.g. all-zero actual series)."""


@dataclass(frozen=True)
class EvalInput:
    """A simulation fan aligned with the actual series it forecasts."""

    fan: SimulationFan
    actual: np.ndarray
    mask: np.ndarray | None = None      # True marks valid samples

    def __post_init__(self):
        a = np.asarray(self.actual, dtype=float)
        object.__setattr__(self, "actual", a)
        if a.size != self.fan.n_steps:
            raise ValueError("actual length must match the fan")
        m = self.mask
        m = np.ones(a.size, dtype=bool) if m is None else np.asarray(m, bool)
        object.__setattr__(self, "mask", m)
        if m.size != a.size:
            raise ValueError("mask length must match the series")
        if not m.any():
            raise ValueError("need at least one unmasked sample")


@dataclass
class MetricReport:
    picp90: float
    kl: float
    risk50: float
    risk90: float
    nd: float
    nrmse: float
    vs: float


def picp(inp: EvalInput, level: float = 0.90) -> float:
    """Fraction of valid steps inside the central `level` interval."""
    tail = (1.0 - level) / 2.0
    q_lo = inp.fan.quantile(tail)
    q_hi = inp.fan.quantile(1.0 - tail)
    m = inp.mask
    a = inp.actual[m]
    return float(np.mean((q_lo[m] <= a) & (a <= q_hi[m])))


def kl_divergence(actual_samples, forecast_samples) -> float:
    """Discrete KL D(actual || forecast) on a shared equal-width histogram.

    The samples are flattened in memory order: counts and extremes do not
    depend on the order, and a masked fan (``paths[:, mask]``, Fortran
    order) is then not copied again."""
    a = np.asarray(actual_samples, dtype=float).ravel(order="K")
    f = np.asarray(forecast_samples, dtype=float).ravel(order="K")
    if a.size == 0 or f.size == 0:
        raise ValueError("both sample sets must be nonempty")
    lo = min(a.min(), f.min())
    hi = max(a.max(), f.max())
    if hi <= lo:
        hi = lo + 1e-12
    edges = np.linspace(lo, hi, KL_BINS + 1)
    pa = np.histogram(a, bins=edges)[0] + KL_EPS
    pf = np.histogram(f, bins=edges)[0] + KL_EPS
    pa = pa / pa.sum()
    pf = pf / pf.sum()
    return float(np.sum(pa * np.log(pa / pf)))


def rho_risk(inp: EvalInput, rho: float) -> float:
    """Normalized quantile loss of the fan's rho-quantile path."""
    q = inp.fan.quantile(rho)[inp.mask]
    a = inp.actual[inp.mask]
    denom = float(np.sum(np.abs(a)))
    if denom <= 0:
        raise UndefinedMetricError("rho-risk undefined for all-zero actual")
    above = a > q
    loss = (a - q) * np.where(above, rho, -(1.0 - rho))
    return float(2.0 * loss.sum() / denom)


def nd(point_path, actual, mask=None) -> float:
    """Normalized 1-norm deviation of a point forecast."""
    p, a = _masked_pair(point_path, actual, mask)
    denom = float(np.sum(np.abs(a)))
    if denom <= 0:
        raise UndefinedMetricError("ND undefined for all-zero actual")
    return float(np.sum(np.abs(p - a)) / denom)


def nrmse(point_path, actual, mask=None) -> float:
    """Root-mean-square error normalized by the mean absolute actual."""
    p, a = _masked_pair(point_path, actual, mask)
    denom = float(np.mean(np.abs(a)))
    if denom <= 0:
        raise UndefinedMetricError("NRMSE undefined for all-zero actual")
    return float(np.sqrt(np.mean((p - a) ** 2)) / denom)


def _masked_pair(p, a, mask):
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    if p.size != a.size:
        raise ValueError("paths must be aligned")
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        p, a = p[m], a[m]
    return p, a


def variogram_score(paths, actual, mask) -> float:
    """Order-1/2 variogram score of a fan against the actual series
    (Scheuerer & Hamill 2015, MWR 143:1321-1334), proper for the law of
    the series' increments.

    For each lag k of ``VS_LAGS`` shorter than the series, the mean over
    the pairs (t, t + k) whose two actual samples are valid of
    (|y[t+k] - y[t]|^1/2 - mean_j |X[j, t+k] - X[j, t]|^1/2)^2, j over the
    fan's paths; the score is the mean over the lags with a pair, all
    weights equal.  The paths are summed ``_VS_CHUNK_PATHS`` at a time,
    so the memory does not grow with their number."""
    X = np.asarray(paths, dtype=float)
    y = np.asarray(actual, dtype=float)
    m = np.asarray(mask, dtype=bool)
    scores = []
    for k in VS_LAGS:
        t = np.flatnonzero(m[:-k] & m[k:])     # empty when k >= y.size
        if t.size == 0:
            continue
        fan = np.zeros(y.size - k)
        for i in range(0, len(X), _VS_CHUNK_PATHS):
            d = X[i:i + _VS_CHUNK_PATHS, k:] - X[i:i + _VS_CHUNK_PATHS, :-k]
            fan += np.sqrt(np.abs(d, out=d), out=d).sum(axis=0)
        obs = np.sqrt(np.abs(y[t + k] - y[t]))
        scores.append(np.mean((obs - fan[t] / len(X)) ** 2))
    if not scores:
        raise ValueError("no lag of the variogram score has two valid "
                         "samples")
    return float(np.mean(scores))


def evaluate(inp: EvalInput) -> MetricReport:
    """Full metric battery for one day."""
    median = inp.fan.quantile(0.5)
    m = inp.mask
    # an all-valid fan is histogrammed in place, not copied
    paths = inp.fan.paths if m.all() else inp.fan.paths[:, m]
    return MetricReport(
        picp90=picp(inp, 0.90),
        kl=kl_divergence(inp.actual[m], paths),
        risk50=rho_risk(inp, 0.5),
        risk90=rho_risk(inp, 0.9),
        nd=nd(median, inp.actual, m),
        nrmse=nrmse(median, inp.actual, m),
        vs=variogram_score(inp.fan.paths, inp.actual, m),
    )
