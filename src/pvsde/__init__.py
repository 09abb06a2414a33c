"""Stochastic modelling of photovoltaic power from weather reports.

The package couples a bounded mean-reverting diffusion for normalized PV
power with an ensemble of randomized feed-forward networks that maps daily
weather reports to per-hour diffusion parameters, giving full-day
probabilistic forecasts from forecast-grade inputs.
"""

from .solar import (ConfigurationError, PvSeries, RawPvSeries, SiteConfig,
                    cos_zenith, daylight_mask, denormalize, normalize,
                    solar_elevation)
from .sde import (DEFAULT_QUANTILE_LEVELS, DayParams,
                  DegenerateDistributionError, SdeParams, SimulationFan,
                  StabilityError, TIME_UNIT_SECONDS, euler_paths, make_fan,
                  project_params, simulate_hour, stationary_beta_shapes,
                  stationary_density, stationary_sample)
from .estimation import (AllHoursInvalidError, FitReport, HourSamples,
                         estimate_diffusion, estimate_drift, identify_day,
                         identify_hour)
from .elm import (ElmModel, TrainSet, elm_init, elm_predict, elm_train,
                  fit_scaler, training_residual)
from .ensemble import (EnsembleModel, TrainingError, WeatherDay,
                       bootstrap_resample, load_ensemble,
                       predict_params_batch, save_ensemble, train_ensemble,
                       trimmed_mean)
from .metrics import (EvalInput, MetricReport, UndefinedMetricError,
                      autocorr_mismatch, evaluate, kl_divergence, nd, nrmse,
                      picp, rho_risk)
from .weather import (FEATURE_NAMES, HourGrid, WeatherFormatError,
                      impute_days, ingest_weather, write_weather_csv)
from .synth import SyntheticSpec, synth_generate, true_param_map
from .pipeline import RunConfig, load_config, split_days

__version__ = "0.1.0"

__all__ = [
    "AllHoursInvalidError", "ConfigurationError", "DayParams",
    "DEFAULT_QUANTILE_LEVELS", "DegenerateDistributionError", "ElmModel",
    "EnsembleModel", "EvalInput", "FEATURE_NAMES", "FitReport", "HourGrid",
    "HourSamples", "MetricReport", "PvSeries", "RawPvSeries", "RunConfig",
    "SdeParams", "SimulationFan", "SiteConfig", "StabilityError",
    "SyntheticSpec", "TIME_UNIT_SECONDS", "TrainSet", "TrainingError",
    "UndefinedMetricError", "WeatherDay", "WeatherFormatError",
    "autocorr_mismatch", "bootstrap_resample", "cos_zenith", "daylight_mask",
    "denormalize", "elm_init", "elm_predict", "elm_train",
    "estimate_diffusion", "estimate_drift", "euler_paths", "evaluate",
    "fit_scaler", "identify_day", "identify_hour", "impute_days",
    "ingest_weather", "kl_divergence", "load_config", "load_ensemble",
    "make_fan", "nd", "normalize", "nrmse", "picp", "predict_params_batch",
    "project_params", "rho_risk", "save_ensemble",
    "simulate_hour", "solar_elevation", "split_days",
    "stationary_beta_shapes", "stationary_density", "stationary_sample",
    "synth_generate", "train_ensemble", "training_residual",
    "trimmed_mean", "true_param_map", "write_weather_csv",
]
