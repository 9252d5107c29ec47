"""Swarm-optimized feature selection with one-vs-all linear SVM
classification for network intrusion detection, plus a metrics and
cross-validation harness and a reproducible CLI."""

__version__ = "0.1.0"

from .classifier import Hyperplane, SvmConfig, SvmModel, predict, train_binary, train_ova
from .dataset import (
    CLASS_NAMES,
    FEATURE_NAMES,
    Dataset,
    Encoded,
    EncodingTable,
    NormStats,
    Record,
    apply_normalize,
    encode,
    fit_encoding,
    fit_normalize,
    map_label,
    parse_kdd,
)
from .evaluation import ConfusionCounts, CvReport, MetricsReport, cross_validate, macro_report
from .optimizer import GoaConfig, GoaResult, run
from .selection import FitnessBreakdown, WrapperObjective, mask_fitness, project_features

__all__ = [
    "__version__",
    "CLASS_NAMES",
    "FEATURE_NAMES",
    "ConfusionCounts",
    "CvReport",
    "Dataset",
    "Encoded",
    "EncodingTable",
    "FitnessBreakdown",
    "GoaConfig",
    "GoaResult",
    "Hyperplane",
    "MetricsReport",
    "NormStats",
    "Record",
    "SvmConfig",
    "SvmModel",
    "WrapperObjective",
    "apply_normalize",
    "cross_validate",
    "encode",
    "fit_encoding",
    "fit_normalize",
    "macro_report",
    "map_label",
    "mask_fitness",
    "parse_kdd",
    "predict",
    "project_features",
    "run",
    "train_binary",
    "train_ova",
]
