"""X-shot cross-modal retrieval toolkit.

Two-stage pipeline over pre-extracted embeddings: a per-modality conditional
VAE-GAN synthesizes target-class pseudo features to rebalance training, and a
gated residual projection maps both modalities into a common retrieval space
scored by mAP.
"""

__version__ = "0.1.0"

from .data import Corpus, XShotSplit, load_corpus, split_xshot, synth_corpus
from .generation import (
    AttrRows,
    GenHyperParams,
    VaeGanModel,
    synthesize_target_set,
    train_generation,
)
from .pipeline import ExperimentConfig, preset_config, run_experiment
from .projection import ProjHyperParams, ProjectionModel, train_projection
from .retrieval import RetrievalReport, average_precision, evaluate, mean_ap

__all__ = [
    "Corpus",
    "XShotSplit",
    "load_corpus",
    "split_xshot",
    "synth_corpus",
    "AttrRows",
    "GenHyperParams",
    "VaeGanModel",
    "train_generation",
    "synthesize_target_set",
    "ProjHyperParams",
    "ProjectionModel",
    "train_projection",
    "RetrievalReport",
    "average_precision",
    "mean_ap",
    "evaluate",
    "ExperimentConfig",
    "preset_config",
    "run_experiment",
    "__version__",
]
