"""Joint multi-target domain adaptation on synthetic data.

A small float64 laboratory for studying one training recipe end to end:
a reverse-mode autodiff core over 2-D arrays, a shared encoder with a task
classifier and per-target domain discriminators trained through gradient
reversal, sharpness-aware task updates, difficulty-weighted target sampling,
and the measurement stack (representation similarity, correlations, transfer
gap and cost tables) used to compare training variants.

Everything is deterministic given a seed: datasets (one `.npy` file per
domain and split), training runs, and the CSV/JSONL artifacts derived from
them.
"""

from .adaptation import (
    LanguagePrior,
    TrainConfig,
    TrainReport,
    TrainVariant,
    compute_prior,
    domain_accuracies,
    few_shot_augment,
    sample_target,
    train,
)
from .analysis import (
    CostParams,
    EvalTable,
    annotation_cost,
    linear_cka,
    pearson,
    relative_gain,
    spearman,
    transfer_gap,
    zero_shot_eval,
)
from .autodiff import ParamStore, Tape, backward, finite_diff_check
from .data import (
    DomainDataset,
    DomainSplits,
    DomainSpec,
    MixtureSpec,
    Rows,
    SizeSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    subsample_source,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateGradientError,
    LabelError,
    NumericError,
    ParameterError,
    ShapeError,
    StateError,
    UndefinedResultError,
)
from .experiment import ExperimentConfig, analyze_results, run_experiment
from .model import (
    EncoderSpec,
    ModelBundle,
    extract_features,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .optim import AdamWConfig, adamw_step, lr_at, sam_backward, sam_step
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "AdamWConfig",
    "ConfigError",
    "CostParams",
    "DataError",
    "DegenerateGradientError",
    "DomainDataset",
    "DomainSpec",
    "DomainSplits",
    "EncoderSpec",
    "EvalTable",
    "ExperimentConfig",
    "LabelError",
    "LanguagePrior",
    "MixtureSpec",
    "ModelBundle",
    "NumericError",
    "ParamStore",
    "ParameterError",
    "Rng",
    "Rows",
    "ShapeError",
    "SizeSpec",
    "StateError",
    "Tape",
    "TrainConfig",
    "TrainReport",
    "TrainVariant",
    "UndefinedResultError",
    "adamw_step",
    "analyze_results",
    "annotation_cost",
    "backward",
    "compute_prior",
    "domain_accuracies",
    "extract_features",
    "few_shot_augment",
    "finite_diff_check",
    "generate_synthetic",
    "init_params",
    "linear_cka",
    "load_checkpoint",
    "load_dataset",
    "lr_at",
    "pearson",
    "relative_gain",
    "run_experiment",
    "sam_backward",
    "sam_step",
    "sample_target",
    "save_checkpoint",
    "save_dataset",
    "spearman",
    "subsample_source",
    "train",
    "transfer_gap",
    "zero_shot_eval",
]
