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
of the day's feature vector; a missing (NaN) feature takes its median
over the training days, which the model keeps: imputation runs here
alone (``weather.impute_days``).  The hidden layers are drawn once, from a
stream of the master seed kept apart from the bootstrap stream, and are
saved, so loading draws no random numbers.  Loading checks each ``.npy``
header against the manifest and then reads the array whole (about 7.2 MB
in all at the default sizes).
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .elm import elm_train, fit_scaler, hidden_layer
from .sde import DayParams
from .weather import impute_days

PARAM_NAMES = ("a", "b", "beta", "c", "d")
DEFAULT_HIDDEN = 100
DEFAULT_MEMBERS = 50
DEFAULT_RIDGE = 2.0
TRIM_FRACTION = 0.20
MIN_SLOT_PAIRS = 10
_FORMAT_VERSION = 4
_ARRAY_FILES = ("hidden_weights", "hidden_biases", "output_weights")
_VECTORS = ("scaler_mean", "scaler_std", "medians")


class TrainingError(RuntimeError):
    """An hour cannot be trained (too few valid days)."""


@dataclass
class EnsembleModel:
    """Per-hour stacks of M multi-output ELMs, the feature scaler and medians.

    ``master_seed`` is the seed the hidden layers and bootstrap resamples
    were drawn from; the model itself uses only the arrays, which are
    numpy arrays whether the model was trained or loaded.
    """

    hidden_weights: np.ndarray = field(repr=False)   # (m, M, K, p)
    hidden_biases: np.ndarray = field(repr=False)    # (m, M, K)
    output_weights: np.ndarray = field(repr=False)   # (m, M, K, 5)
    master_seed: int
    scaler_mean: np.ndarray         # (m * p,)
    scaler_std: np.ndarray          # (m * p,)
    medians: np.ndarray             # (m * p,)
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


def train_ensemble(X, theta, hidden_size: int = DEFAULT_HIDDEN,
                   n_members: int = DEFAULT_MEMBERS, master_seed: int = 0,
                   flags=None, ridge: float = DEFAULT_RIDGE
                   ) -> EnsembleModel:
    """Train every hour's members on the days' weather features ``X``
    (N, m * p), hour-major, a NaN cell taking its feature's median over
    these days, and their parameters ``theta`` (N, 5, m).

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
    X, medians = impute_days(X)
    mean, std = fit_scaler(X)
    trusted = (np.ones((len(X), m), dtype=bool) if flags is None
               else ~np.asarray(flags, dtype=bool))
    # independent hidden-layer and bootstrap streams of the master seed
    hidden_rng, boot_rng = map(np.random.default_rng,
                               np.random.SeedSequence(master_seed).spawn(2))
    shape = (m, n_members, hidden_size)
    model = EnsembleModel(
        hidden_weights=hidden_rng.standard_normal(shape + (X.shape[1] // m,)),
        hidden_biases=hidden_rng.standard_normal(shape),
        output_weights=np.zeros(shape + (len(PARAM_NAMES),)),
        master_seed=master_seed, scaler_mean=mean, scaler_std=std,
        medians=medians)
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
    """Weather features as a float matrix (N, k); NaN is a missing cell."""
    X = np.asarray(X, dtype=float)
    if np.isinf(X).any():
        raise ValueError("weather features must be finite or NaN (missing)")
    return X


def predict_params_batch(model: EnsembleModel, X):
    """One ``DayParams`` per row of the weather features ``X`` (N, m * p),
    a NaN cell taking the model's median, predicted hour by hour from the
    model's arrays, which ``load_ensemble`` reads whole."""
    X = _features(X)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError("feature length does not match the trained model")
    X, _ = impute_days(X, model.medians)
    raw = np.empty((len(X), len(PARAM_NAMES), model.m))
    for hour in range(model.m):
        H = hidden_layer(model._hour_inputs(X, hour),
                         model.hidden_weights[hour], model.hidden_biases[hour])
        raw[:, :, hour] = trimmed_mean(H @ model.output_weights[hour])
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
                    medians=model.medians.tolist(),
                    train_rmse=model.train_rmse,
                    param_names=list(PARAM_NAMES))
    with _atomic(os.path.join(out_dir, "manifest.json"), "wb") as f:
        f.write(json.dumps(manifest, sort_keys=True, indent=1).encode())


def load_ensemble(model_dir: str) -> EnsembleModel:
    """The model saved under ``model_dir``, its arrays read whole.

    Each ``.npy`` header is checked against the manifest before its data
    is read: shape, float64, C order, no pickled objects and exactly the
    data the header declares."""
    path = os.path.join(model_dir, "manifest.json")
    man = _read_object(path)
    if man.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported ensemble format version; "
                         "retrain")
    for key in ("m", "input_dim", "n_members", "hidden_size"):
        if type(man.get(key)) is not int or man[key] < 1:
            raise ValueError(f"{path}: {key} is not a positive integer")
    m, n_in = man["m"], man["input_dim"]
    if n_in % m:
        raise ValueError(f"{path}: input_dim is not a multiple of m ({m})")
    for key in _VECTORS:    # a bool is no number; NaN and infinities fail
        v = man.get(key)
        if not (isinstance(v, list) and len(v) == n_in and all(
                type(x) in (int, float) and abs(x) <= sys.float_info.max
                for x in v)) or (key == "scaler_std" and min(v) <= 0):
            raise ValueError(f"{path}: {key} must be input_dim ({n_in}) "
                             f"finite numbers{' > 0' * (key == 'scaler_std')}")
    members = (m, man["n_members"], man["hidden_size"])
    shapes = (members + (n_in // m,), members, members + (len(PARAM_NAMES),))
    arrays = {name: _read_array(os.path.join(model_dir, name + ".npy"), want)
              for name, want in zip(_ARRAY_FILES, shapes)}
    return EnsembleModel(**arrays, master_seed=man.get("master_seed"),
                         **{k: np.array(man[k], dtype=float)
                            for k in _VECTORS},
                         train_rmse=man.get("train_rmse", {}))


def _read_array(path: str, want: tuple) -> np.ndarray:
    """The saved model array of shape ``want``, read whole with one
    ``np.fromfile`` once its ``.npy`` header is checked, so a file the
    check refuses allocates nothing: the data must be C-ordered float64
    and fill the file to its end."""
    fmt, n = np.lib.format, math.prod(want)
    try:
        with open(path, "rb") as f:
            read_header = (fmt.read_array_header_1_0
                           if fmt.read_magic(f) == (1, 0)
                           else fmt.read_array_header_2_0)
            shape, fortran_order, dtype = read_header(f)
            if dtype.hasobject:
                raise ValueError("pickled objects")
            if shape == want and dtype == np.float64:
                if fortran_order:
                    raise ValueError("Fortran order")
                size = os.fstat(f.fileno()).st_size - f.tell()
                if size != 8 * n:
                    raise ValueError(f"{size} data bytes, the header "
                                     f"declares {8 * n}")
                return np.fromfile(f, dtype=np.float64,
                                   count=n).reshape(want)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable model array ({exc})") from None
    raise ValueError(f"{path} holds {dtype} {shape}, "
                     f"the manifest says float64 {want}")


@contextmanager
def _atomic(path: str, mode="w", newline=None):
    """A file opened in ``mode`` as ``path + ".tmp"`` and renamed onto
    ``path`` once the block completes, so no reader sees a partial file."""
    tmp = path + ".tmp"
    with open(tmp, mode, newline=newline) as f:
        yield f
    os.replace(tmp, path)


def _read_object(path: str) -> dict:
    """The JSON object the file at ``path`` holds; a file that is not JSON,
    or whose top level is not an object, is refused with the file's name."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level is not a JSON object")
    return doc
