"""Histogram transform ensemble regression.

Randomly rotated, stretched and translated histogram partitions of the
input space with per-cell constant or Gaussian kernel ridge regressors,
averaged over an ensemble.  Includes a benchmark harness for synthetic
experiments and parameter studies, and a CLI (``hte``).

The names below are the user API.  Building blocks (partitions,
transforms, per-cell models, solvers) import from ``hte.<module>``.
"""

from .data import Dataset, gen_counter3d, gen_sin16, load_csv
from .ensemble import (
    EnsembleModel,
    TrainConfig,
    predict,
    predict_members,
    theoretical_schedule,
    train_ensemble,
)
from .errors import ConfigError, DataError, HteError, IllConditionedError, TrainingError
from .evaluation import StudySetup, mse, run_study
from .serialize import load_model, read_metadata, save_model, serialize_model

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "Dataset",
    "EnsembleModel",
    "HteError",
    "IllConditionedError",
    "StudySetup",
    "TrainConfig",
    "TrainingError",
    "gen_counter3d",
    "gen_sin16",
    "load_csv",
    "load_model",
    "mse",
    "predict",
    "predict_members",
    "read_metadata",
    "run_study",
    "save_model",
    "serialize_model",
    "theoretical_schedule",
    "train_ensemble",
]
