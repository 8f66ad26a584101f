"""Unsupervised teacher-student speech enhancement toolkit.

Trains a causal waveform denoiser without clean speech: a noisy-target
bootstrap stage, six noise-remix distillation strategies under static or
EMA teacher updates, multi-stage inference, and STOI/SI-SDR evaluation.
"""

from .audio import Waveform
from .distill import DistillConfig, MixStrategy, TrainConfig
from .model import PAPER_CONFIG, TINY_CONFIG, DenoiserModel, ModelConfig, init_model

__version__ = "0.1.0"

__all__ = [
    "DenoiserModel",
    "DistillConfig",
    "MixStrategy",
    "ModelConfig",
    "PAPER_CONFIG",
    "TINY_CONFIG",
    "TrainConfig",
    "Waveform",
    "init_model",
    "__version__",
]
