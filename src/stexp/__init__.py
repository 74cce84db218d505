"""Contrastive patch/spot joint embedding for spatial gene-expression prediction."""

from .contrastive import Checkpoint, TrainConfig, fit
from .data import GenConfig, ProcessedDataset, Slide, load_dataset, load_slide, preprocess, synth_generate
from .encoders import EncoderConfig
from .evaluation import MetricsRecord, ari, compute_metrics, kmeans, loocv, pca
from .inference import RetrievalIndex, build_index, predict_slide

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "EncoderConfig",
    "GenConfig",
    "MetricsRecord",
    "ProcessedDataset",
    "RetrievalIndex",
    "Slide",
    "TrainConfig",
    "ari",
    "build_index",
    "compute_metrics",
    "fit",
    "kmeans",
    "load_dataset",
    "load_slide",
    "loocv",
    "pca",
    "predict_slide",
    "preprocess",
    "synth_generate",
]
