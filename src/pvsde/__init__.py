"""Stochastic modelling of photovoltaic power from weather reports.

The package couples a bounded mean-reverting diffusion for normalized PV
power with an ensemble of randomized feed-forward networks that maps daily
weather reports to per-hour diffusion parameters, giving full-day
probabilistic forecasts from forecast-grade inputs.
"""

from .sde import (DEFAULT_QUANTILE_LEVELS, DayParams,
                  DegenerateDistributionError, SdeParams, SimulationFan,
                  StabilityError, TIME_UNIT_SECONDS, euler_paths, make_fan,
                  simulate_hour, stationary_beta_shapes, stationary_sample)
from .estimation import (AllHoursInvalidError, FitReport, identify_day,
                         identify_hour, identify_hours)
from .elm import elm_train, fit_scaler
from .ensemble import (EnsembleModel, TrainingError, load_ensemble,
                       predict_params_batch, save_ensemble, train_ensemble,
                       trimmed_mean)
from .metrics import (EvalInput, MetricReport, UndefinedMetricError,
                      evaluate, kl_divergence, nd, nrmse, picp, rho_risk,
                      variogram_score)
from .weather import (FEATURE_NAMES, HourGrid, WeatherFormatError,
                      impute_days, ingest_weather, write_weather_csv)
from .synth import synth_generate
from .pipeline import RunConfig, load_config, split_days

__version__ = "0.1.0"

__all__ = [
    "AllHoursInvalidError", "DayParams", "DEFAULT_QUANTILE_LEVELS",
    "DegenerateDistributionError", "EnsembleModel", "EvalInput",
    "FEATURE_NAMES", "FitReport", "HourGrid", "MetricReport", "RunConfig",
    "SdeParams", "SimulationFan", "StabilityError", "TIME_UNIT_SECONDS",
    "TrainingError", "UndefinedMetricError", "WeatherFormatError", "elm_train",
    "euler_paths", "evaluate", "fit_scaler", "identify_day", "identify_hour",
    "identify_hours", "impute_days", "ingest_weather", "kl_divergence",
    "load_config", "load_ensemble", "make_fan", "nd", "nrmse", "picp",
    "predict_params_batch", "rho_risk", "save_ensemble", "simulate_hour",
    "split_days", "stationary_beta_shapes", "stationary_sample",
    "synth_generate", "train_ensemble", "trimmed_mean", "variogram_score",
    "write_weather_csv",
]
