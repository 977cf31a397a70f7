"""Desk-scale triplet metric learning with an adaptive negative-sampling PMF."""

from .config import ConfigError, RunConfig, config_from_flat, load_config
from .data import LabeledDataset, generate_synthetic, load_dataset, save_dataset, split_validation
from .geometry import EmbeddingBatch
from .samplers import SAMPLER_KINDS, SamplingPMF, apply_action, init_pmf
from .trainer import train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EmbeddingBatch",
    "LabeledDataset",
    "RunConfig",
    "SAMPLER_KINDS",
    "SamplingPMF",
    "apply_action",
    "config_from_flat",
    "generate_synthetic",
    "init_pmf",
    "load_config",
    "load_dataset",
    "save_dataset",
    "split_validation",
    "train",
]
