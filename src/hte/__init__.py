"""Histogram transform ensemble regression.

Randomly rotated, stretched and translated histogram partitions of the
input space with per-cell constant or Gaussian kernel ridge regressors,
averaged over an ensemble.  Includes a benchmark harness for synthetic
experiments and parameter studies, and a CLI (``hte``).
"""

from .data import (
    Dataset,
    Standardizer,
    default_scale,
    fit_standardizer,
    gen_counter3d,
    gen_sin16,
    load_csv,
    split_dataset,
)
from .ensemble import (
    EnsembleModel,
    Member,
    Schedule,
    TrainConfig,
    predict,
    predict_members,
    theoretical_schedule,
    train_ensemble,
    train_member,
)
from .errors import (
    ConfigError,
    DataError,
    HteError,
    IllConditionedError,
    TrainingError,
)
from .evaluation import (
    StudyResult,
    StudySetup,
    art,
    convergence_slope,
    mse,
    run_study,
)
from .linalg import SpdSolveReport, gaussian_gram, solve_spd
from .local_models import (
    ConstantModel,
    KernelCellModel,
    fit_constant,
    fit_kernel_cell,
)
from .partition import (
    AdaptiveTree,
    GridPartition,
    assign,
    assign_many,
    build_adaptive,
    build_grid,
)
from .serialize import load_model, read_metadata, save_model, serialize_model
from .transform import (
    HistogramTransform,
    apply_transform,
    bin_key,
    cell_volume,
    sample_rotation,
    sample_stretch,
    sample_transform,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveTree",
    "ConfigError",
    "ConstantModel",
    "DataError",
    "Dataset",
    "EnsembleModel",
    "GridPartition",
    "HistogramTransform",
    "HteError",
    "IllConditionedError",
    "KernelCellModel",
    "Member",
    "Schedule",
    "SpdSolveReport",
    "Standardizer",
    "StudyResult",
    "StudySetup",
    "TrainConfig",
    "TrainingError",
    "apply_transform",
    "art",
    "assign",
    "assign_many",
    "bin_key",
    "build_adaptive",
    "build_grid",
    "cell_volume",
    "convergence_slope",
    "default_scale",
    "fit_constant",
    "fit_kernel_cell",
    "fit_standardizer",
    "gaussian_gram",
    "gen_counter3d",
    "gen_sin16",
    "load_csv",
    "load_model",
    "mse",
    "predict",
    "predict_members",
    "read_metadata",
    "run_study",
    "sample_rotation",
    "sample_stretch",
    "sample_transform",
    "save_model",
    "serialize_model",
    "solve_spd",
    "split_dataset",
    "theoretical_schedule",
    "train_ensemble",
    "train_member",
]
