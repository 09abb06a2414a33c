"""Forecast evaluation metrics for simulation fans against observed series.

Covers interval coverage (PICP), distributional distance (discrete KL over
a shared histogram), quantile loss (rho-risk), point-forecast errors of
the median path (ND, NRMSE), and an autocorrelation mismatch over a short
lag window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sde import SimulationFan

KL_BINS = 50
KL_EPS = 1e-9
ACF_DENOM_FLOOR = 0.05
DEFAULT_ACF_WINDOW_SECONDS = 3 * 3600.0
_ACF_CHUNK_ROWS = 16        # rows per FFT in ``_acf``
EVAL_LEVELS = (0.05, 0.5, 0.9, 0.95)    # the fan quantiles evaluate reads


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
    acf_mismatch: float


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


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1): the FFT length
    ``scipy.fft.next_fast_len(n, real=True)`` returns, without importing
    ``scipy.fft``."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^k >= n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _acf(x, n_lags: int) -> np.ndarray:
    """Empirical autocorrelation at lags 1..n_lags (rows of a 2-D input
    are treated as independent series).  FFT-based; lag-k covariance is
    averaged over the n - k available products.  ``n + n_lags`` points
    keep the circular products of lags up to n_lags free of wrap-around.

    The rows are transformed ``_ACF_CHUNK_ROWS`` at a time, so the FFTs'
    memory does not grow with the number of rows.  The power spectrum is
    ``f.real ** 2 + f.imag ** 2``, real by construction, so each row's ACF
    is the same to the bit whichever rows share its transform."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    n = X.shape[1]
    nfft = _fast_len(n + n_lags)
    counts = n - np.arange(1, n_lags + 1)
    chunks = []
    for i in range(0, len(X), _ACF_CHUNK_ROWS):
        rows = X[i:i + _ACF_CHUNK_ROWS]
        xc = rows - rows.mean(axis=1, keepdims=True)
        f = np.fft.rfft(xc, n=nfft, axis=1)
        sums = np.fft.irfft(f.real ** 2 + f.imag ** 2, n=nfft,
                            axis=1)[:, :n_lags + 1]
        var = sums[:, 0] / n
        with np.errstate(invalid="ignore", divide="ignore"):
            acf = (sums[:, 1:] / counts) / np.maximum(var, 1e-300)[:, None]
        chunks.append(np.where(var[:, None] > 0, acf, 0.0))
    acf = np.concatenate(chunks)
    return acf[0] if np.ndim(x) == 1 else acf


def autocorr_mismatch(inp: EvalInput,
                      window_seconds: float = DEFAULT_ACF_WINDOW_SECONDS
                      ) -> float:
    """Mean floored-relative gap between fan and actual autocorrelations.

    Uses the longest contiguous unmasked stretch; the fan's ACF is the
    average over its paths on the same stretch.
    """
    start, stop = _longest_true_run(inp.mask)
    n_lags = int(window_seconds / inp.fan.step_seconds)
    n_lags = min(n_lags, stop - start - 1)
    if n_lags < 1:
        raise ValueError("not enough contiguous data for the ACF window")
    acf_a = _acf(inp.actual[start:stop], n_lags)
    acf_f = _acf(inp.fan.paths[:, start:stop], n_lags).mean(axis=0)
    denom = np.maximum(np.abs(acf_a), ACF_DENOM_FLOOR)
    return float(np.mean(np.abs(acf_f - acf_a) / denom))


def _longest_true_run(mask):
    """(start, stop) of the first longest run of True in a boolean mask
    that holds one."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    k = int(np.argmax(edges[1::2] - edges[::2]))
    return int(edges[2 * k]), int(edges[2 * k + 1])


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
        acf_mismatch=autocorr_mismatch(inp),
    )
