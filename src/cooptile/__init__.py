"""Cooperative tiling of input space by box-shaped agents with online
linear models, for non-linear binary classification."""

from .agents import EngineConfig, Population
from .datasets import Dataset, gen_circles, gen_linear, gen_moons, load_csv, save_csv, standardize
from .engine import CycleReport, Engine, NcsEvent, NcsKind, Resolution
from .linear import LinearModelConfig, ModelKind, OnlineLinearModel, Penalty

__version__ = "0.1.0"

__all__ = [
    "CycleReport",
    "Dataset",
    "Engine",
    "EngineConfig",
    "LinearModelConfig",
    "ModelKind",
    "NcsEvent",
    "NcsKind",
    "OnlineLinearModel",
    "Penalty",
    "Population",
    "Resolution",
    "gen_circles",
    "gen_linear",
    "gen_moons",
    "load_csv",
    "save_csv",
    "standardize",
    "__version__",
]
