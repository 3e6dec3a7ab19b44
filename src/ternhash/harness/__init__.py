"""Datasets, configuration, the comparison experiment, and the CLI."""

from .config import ExperimentConfig, load_config, parse_config, save_config, serialize_config
from .data import (
    Dataset,
    gen_synthetic,
    load_features,
    load_labels,
    load_splits,
    save_features,
    save_labels,
    save_splits,
    single_labels,
)
from .experiment import (
    ExperimentResult,
    SeedResult,
    TwoStepResult,
    encode_dataset,
    format_experiment_report,
    run_arm,
    run_experiment,
    run_seed,
    seed_setup,
    two_step_baseline,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "save_config",
    "serialize_config",
    "Dataset",
    "gen_synthetic",
    "load_features",
    "load_labels",
    "load_splits",
    "save_features",
    "save_labels",
    "save_splits",
    "single_labels",
    "ExperimentResult",
    "SeedResult",
    "TwoStepResult",
    "encode_dataset",
    "format_experiment_report",
    "run_arm",
    "run_experiment",
    "run_seed",
    "seed_setup",
    "two_step_baseline",
]
