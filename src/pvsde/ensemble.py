"""Bootstrap-aggregated ELM ensemble mapping weather features to SDE
parameters.

Each of the m daytime hours has M extreme learning machines: member j is
trained on its own bootstrap resample of that hour's trusted training
days, and one hidden layer serves all five parameters (a multi-output
ELM).  The ensemble is three arrays, hidden weights (m, M, K, p), hidden
biases (m, M, K) and output weights (m, M, K, 5), and each hour trains
with one ``elm.elm_train`` call.  A prediction trims 20% of the member
outputs from each end per parameter and averages the rest; each day's
(5, m) result becomes a ``DayParams``, whose constructor projects it.

An hour's members see only that hour's p features, the hour-major slice
of the day's feature vector.  The hidden layers are drawn once, from a
stream of the master seed kept apart from the bootstrap stream, and are
saved, so loading draws no random numbers.  Loading checks the three
``.npy`` headers and reads no data: a prediction reads each hour's slices
just before it uses them (about 2.4 MB per hour at the default sizes), so
it never holds more than one hour of a model; a model trained in memory
is indexed by hour the same way.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .elm import elm_train, fit_scaler, hidden_layer
from .sde import DayParams

PARAM_NAMES = ("a", "b", "beta", "c", "d")
DEFAULT_HIDDEN = 100
DEFAULT_MEMBERS = 200
DEFAULT_RIDGE = 2.0
TRIM_FRACTION = 0.20
MIN_SLOT_PAIRS = 10
_FORMAT_VERSION = 3
_ARRAY_FILES = ("hidden_weights", "hidden_biases", "output_weights")


class TrainingError(RuntimeError):
    """An hour cannot be trained (too few valid days)."""


def _streams(master_seed: int):
    """Independent (hidden-layer, bootstrap) generators of one ensemble."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(master_seed).spawn(2)]


@dataclass
class EnsembleModel:
    """Per-hour stacks of M multi-output ELMs and the shared feature scaler.

    ``master_seed`` is the seed the hidden layers and bootstrap resamples
    were drawn from; the model itself uses only the arrays.  The arrays
    are numpy arrays after training and ``_SavedArray``s after
    ``load_ensemble``; either is read one hour at a time, as ``a[hour]``.
    """

    hidden_weights: np.ndarray = field(repr=False)   # (m, M, K, p)
    hidden_biases: np.ndarray = field(repr=False)    # (m, M, K)
    output_weights: np.ndarray = field(repr=False)   # (m, M, K, 5)
    master_seed: int
    scaler_mean: np.ndarray         # (m * p,)
    scaler_std: np.ndarray          # (m * p,)
    train_rmse: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.output_weights.shape[0]

    @property
    def n_members(self) -> int:
        return self.output_weights.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.output_weights.shape[2]

    @property
    def input_dim(self) -> int:
        return self.scaler_mean.size

    def _hour_inputs(self, X, hour: int):
        """Standardized feature columns (N, p) feeding one hour."""
        p = self.hidden_weights.shape[-1]
        cols = slice(hour * p, (hour + 1) * p)
        return (X[:, cols] - self.scaler_mean[cols]) / self.scaler_std[cols]

    def _hour_outputs(self, Z, hour: int):
        """Trimmed mean over members of the raw parameters (N, 5)."""
        H = hidden_layer(Z, self.hidden_weights[hour],
                         self.hidden_biases[hour])
        return trimmed_mean(H @ self.output_weights[hour])


def train_ensemble(X, theta, hidden_size: int = DEFAULT_HIDDEN,
                   n_members: int = DEFAULT_MEMBERS, master_seed: int = 0,
                   flags=None, ridge: float = DEFAULT_RIDGE
                   ) -> EnsembleModel:
    """Train every hour's members on the days' weather features ``X``
    (N, m * p), hour-major, and their parameters ``theta`` (N, 5, m).

    ``flags`` optionally gives each day a per-hour boolean mask marking
    unreliable hours; flagged hours are excluded from that hour's training
    days.  Each hour regresses on its own slice of the features.
    """
    X, targets = _features(X), np.asarray(theta, dtype=float)
    if len(X) < MIN_SLOT_PAIRS:
        raise TrainingError(f"need >= {MIN_SLOT_PAIRS} training days, "
                            f"got {len(X)}")
    if hidden_size < 1 or n_members < 1:
        raise ValueError("hidden_size and n_members must be >= 1")
    if targets.ndim != 3 or targets.shape[:2] != (len(X), len(PARAM_NAMES)):
        raise ValueError(f"theta must be ({len(X)}, {len(PARAM_NAMES)}, m)")
    m = targets.shape[2]
    if X.ndim != 2 or X.shape[1] % m:
        raise ValueError("the features must split evenly by hour")
    mean, std = fit_scaler(X)
    trusted = (np.ones((len(X), m), dtype=bool) if flags is None
               else ~np.asarray(flags, dtype=bool))
    hidden_rng, boot_rng = _streams(master_seed)
    shape = (m, n_members, hidden_size)
    model = EnsembleModel(
        hidden_weights=hidden_rng.standard_normal(shape + (X.shape[1] // m,)),
        hidden_biases=hidden_rng.standard_normal(shape),
        output_weights=np.zeros(shape + (len(PARAM_NAMES),)),
        master_seed=master_seed, scaler_mean=mean, scaler_std=std)
    for hour in range(m):
        keep = trusted[:, hour]
        if int(keep.sum()) < MIN_SLOT_PAIRS:
            raise TrainingError(
                f"hour={hour}: only {int(keep.sum())} valid days "
                f"(need {MIN_SLOT_PAIRS})")
        Z = model._hour_inputs(X[keep], hour)
        T = targets[keep, :, hour]
        # one with-replacement resample of the n days per member (row)
        idx = boot_rng.integers(0, len(Z), size=(n_members, len(Z)))
        H, V = elm_train(Z, model.hidden_weights[hour],
                         model.hidden_biases[hour], T, idx, ridge)
        model.output_weights[hour] = V
        err = trimmed_mean(H @ V) - T
        for pi, pname in enumerate(PARAM_NAMES):
            model.train_rmse[f"h{hour}_{pname}"] = float(
                np.sqrt(np.mean(err[:, pi] ** 2)))
    return model


def trimmed_mean(values):
    """Mean along the first axis after discarding floor(TRIM_FRACTION * n)
    values from each end."""
    v = np.sort(np.asarray(values, dtype=float), axis=0)
    n = v.shape[0]
    k = int(np.floor(TRIM_FRACTION * n))
    kept = v[k:n - k] if n - 2 * k > 0 else v
    return kept.mean(axis=0)


def _features(X):
    """Weather features as a finite float matrix (N, k)."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("weather features must be finite after imputation")
    return X


def predict_params_batch(model: EnsembleModel, X):
    """One ``DayParams`` per row of the weather features ``X`` (N, m * p),
    predicted hour by hour: an hour's model arrays are indexed (for a
    loaded model, read) just before that hour is predicted."""
    X = _features(X)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError("feature length does not match the trained model")
    raw = np.stack([model._hour_outputs(model._hour_inputs(X, hour), hour)
                    for hour in range(model.m)], axis=2)     # (N, 5, m)
    return [DayParams(theta) for theta in raw]


# ---------------------------------------------------------------------------
# persistence: the three arrays as <name>.npy files, then manifest.json.


def save_ensemble(model: EnsembleModel, out_dir: str) -> None:
    """Write the arrays first and the manifest last, so a model directory
    whose manifest is new is complete."""
    os.makedirs(out_dir, exist_ok=True)
    for name in _ARRAY_FILES:
        with _atomic(os.path.join(out_dir, name + ".npy"), "wb") as f:
            np.save(f, np.ascontiguousarray(getattr(model, name),
                                            dtype="<f8"))
    manifest = dict(format_version=_FORMAT_VERSION, m=model.m,
                    hidden_size=model.hidden_size,
                    n_members=model.n_members,
                    master_seed=model.master_seed,
                    input_dim=model.input_dim,
                    scaler_mean=model.scaler_mean.tolist(),
                    scaler_std=model.scaler_std.tolist(),
                    train_rmse=model.train_rmse,
                    param_names=list(PARAM_NAMES))
    with _atomic(os.path.join(out_dir, "manifest.json"), "wb") as f:
        f.write(json.dumps(manifest, sort_keys=True, indent=1).encode())


def load_ensemble(model_dir: str) -> EnsembleModel:
    """The model saved under ``model_dir``, its arrays left on disk.

    Each ``.npy`` header is checked against the manifest here: shape,
    float64, C order, no pickled objects and exactly the data the header
    declares.  The data is read later, one hour's slice at a time, when a
    prediction indexes the array by hour (``_SavedArray``), so the files
    must stay as they are while the model is in use."""
    man = _read_object(os.path.join(model_dir, "manifest.json"))
    if man.get("format_version") != _FORMAT_VERSION:
        raise ValueError("unsupported ensemble format version; retrain")
    m, n_in = man["m"], man["input_dim"]
    mean = np.array(man["scaler_mean"], dtype=float)
    std = np.array(man["scaler_std"], dtype=float)
    if mean.shape != (n_in,) or std.shape != (n_in,) or n_in % m:
        raise ValueError("manifest scaler length does not match input_dim "
                         "or does not split evenly by hour")
    members = (m, man["n_members"], man["hidden_size"])
    shapes = (members + (n_in // m,), members, members + (len(PARAM_NAMES),))
    arrays = {name: _SavedArray(os.path.join(model_dir, name + ".npy"), want)
              for name, want in zip(_ARRAY_FILES, shapes)}
    return EnsembleModel(**arrays, master_seed=man["master_seed"],
                         scaler_mean=mean, scaler_std=std,
                         train_rmse=man["train_rmse"])


class _SavedArray:
    """A saved model array of shape ``want``, read from its ``.npy`` one
    hour at a time: ``a[hour]`` reads that hour's slice with one
    ``np.fromfile``, ``np.asarray(a)`` the whole array.  The header is
    parsed and checked once, here; the data must be C-ordered float64 and
    fill the file to its end."""

    def __init__(self, path: str, want: tuple):
        fmt = np.lib.format
        try:
            with open(path, "rb") as f:
                read_header = (fmt.read_array_header_1_0
                               if fmt.read_magic(f) == (1, 0)
                               else fmt.read_array_header_2_0)
                shape, fortran_order, dtype = read_header(f)
                offset, size = f.tell(), os.fstat(f.fileno()).st_size
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"{path}: unreadable model array ({exc})") from None
        if dtype.hasobject:
            raise ValueError(f"{path}: unreadable model array (pickled "
                             "objects)")
        if shape != want or dtype != np.float64:
            raise ValueError(f"{path} holds {dtype} {shape}, "
                             f"the manifest says float64 {want}")
        if fortran_order:
            raise ValueError(f"{path}: unreadable model array (Fortran "
                             "order)")
        if size - offset != 8 * math.prod(want):
            raise ValueError(f"{path}: unreadable model array ({size - offset}"
                             f" data bytes, the header declares "
                             f"{8 * math.prod(want)})")
        self.path, self.shape, self._offset = path, want, offset
        self._hour_size = math.prod(want[1:])

    def __getitem__(self, hour: int) -> np.ndarray:
        if not 0 <= hour < self.shape[0]:
            raise IndexError(f"hour {hour} of a {self.shape[0]}-hour model")
        return np.fromfile(
            self.path, dtype=np.float64, count=self._hour_size,
            offset=self._offset + 8 * self._hour_size * hour,
        ).reshape(self.shape[1:])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        a = np.fromfile(self.path, dtype=np.float64,
                        count=math.prod(self.shape), offset=self._offset)
        return np.asarray(a.reshape(self.shape), dtype=dtype)


@contextmanager
def _atomic(path: str, mode="w", newline=None):
    """A file opened in ``mode`` as ``path + ".tmp"`` and renamed onto
    ``path`` once the block completes, so no reader sees a partial file."""
    tmp = path + ".tmp"
    with open(tmp, mode, newline=newline) as f:
        yield f
    os.replace(tmp, path)


def _read_object(path: str) -> dict:
    """The JSON object the file at ``path`` holds; JSON whose top level is
    not an object is refused with the file's name."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level is not a JSON object")
    return doc
