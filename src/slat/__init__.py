"""Sparse low-rank attention forecaster for amplifier remaining lifetime.

The public surface: build or load a corpus (`generate_corpus`, `load_corpus`),
window it (`build_dataset`), train (`train`), then `evaluate` a predictor or
export a remaining-lifetime trace (`rtf_series`).
"""

from .attention import (SparseMask, LowRankProjection, attention_flops,
                        build_mask, dense_attention_flops, lowrank_project,
                        masked_attention, masked_softmax, multi_head_attention)
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import Corpus, generate_corpus, load_corpus
from .evaluation import (ConstantMeanBaseline, EvalReport, LinearWindowBaseline,
                         evaluate, model_predictor, rmse, rtf_series,
                         write_rtf_csv)
from .gradcheck import TINY_CONFIG, check_model_gradients
from .model import (SlatConfig, forward, backward, init_params, param_count,
                    param_shapes, predict_rul)
from .simulator import (CHANNELS, ControllerConfig, OperatingPoint, SimConfig,
                        simulate_trajectory)
from .training import TrainConfig, TrainResult, train
from .windowing import (FaultMode, LabelConfig, NormStats, Trajectory,
                        Windows, build_dataset, compute_descriptors,
                        label_rul, window_bounds)

__version__ = "0.1.0"

__all__ = [
    "SparseMask", "LowRankProjection", "attention_flops", "build_mask",
    "dense_attention_flops", "lowrank_project", "masked_attention",
    "masked_softmax", "multi_head_attention",
    "load_checkpoint", "save_checkpoint",
    "Corpus", "generate_corpus", "load_corpus",
    "ConstantMeanBaseline", "EvalReport", "LinearWindowBaseline", "evaluate",
    "model_predictor", "rmse", "rtf_series", "write_rtf_csv",
    "TINY_CONFIG", "check_model_gradients",
    "SlatConfig", "forward", "backward", "init_params", "param_count",
    "param_shapes", "predict_rul",
    "CHANNELS", "ControllerConfig", "OperatingPoint", "SimConfig",
    "simulate_trajectory",
    "TrainConfig", "TrainResult", "train",
    "FaultMode", "LabelConfig", "NormStats", "Trajectory", "Windows",
    "build_dataset", "compute_descriptors", "label_rul", "window_bounds",
    "__version__",
]
