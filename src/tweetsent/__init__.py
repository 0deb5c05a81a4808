"""Sentiment polarity pipeline for Spanish tweets.

The package covers the full path from TSV tweet files to a trained
classifier: tweet-aware preprocessing with negation marking, training-set
augmentation by two-way translation and instance crossover, bag-of-words,
bag-of-characters and weighted-average embedding features, one-vs-rest
logistic regression with optional bagging, and exact-arithmetic evaluation
reports.  ``run_experiment`` drives everything from a single JSON config;
the ``tweetsent`` CLI wraps it.
"""

import os

# One BLAS thread per process, set before numpy loads.  Training runs one
# worker process per CPU, so more threads would oversubscribe the cores, and
# the rounding of a solve would depend on the thread count.  A value the user
# set is kept.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .augment import (
    CrossoverConfig,
    FixtureTranslator,
    RemoteTranslator,
    TranslationCache,
    TranslationConfig,
    TranslationError,
    TranslatorClient,
    crossover_augment,
    translation_augment,
)
from .corpus import LABELS, Dataset, Label, Tweet, label_distribution, load_tsv, merge, save_tsv
from .embeddings import (
    EmbeddingTable,
    SifConfig,
    UnigramModel,
    load_embeddings,
    load_unigram_counts,
    remove_common_component,
    sif_embed,
    word_vector,
)
from .experiment import (
    PRESET_NAMES,
    ExperimentConfig,
    IncompatibleAblation,
    StageError,
    ablation_variant,
    derive_seed,
    eval_file,
    grid_search,
    load_bundle,
    load_preset,
    predict_file,
    run_ablation,
    run_experiment,
)
from .metrics import ClassificationReport, ConfusionMatrix, confusion, evaluate, format_report, report_from_confusion
from .model import (
    BaggingConfig,
    Ensemble,
    LinearModel,
    LrConfig,
    SolverStats,
    compute_class_weights,
    load_model,
    predict,
    predict_many,
    predict_proba_matrix,
    save_model,
    train_bagging,
    train_lr,
)
from .pipeline import FeatureBlocks, FeaturePipeline, load_pipeline, save_pipeline
from .preprocess import (
    PreprocessConfig,
    Token,
    TokenKind,
    basic_preprocess,
    handle_negation,
    join_tokens,
    semantic_preprocess,
    tokenize,
)
from .vectorize import NgramConfig, Vocabulary, fit_vocabulary, transform

__version__ = "0.1.0"

__all__ = [
    "BaggingConfig",
    "ClassificationReport",
    "ConfusionMatrix",
    "CrossoverConfig",
    "Dataset",
    "EmbeddingTable",
    "Ensemble",
    "ExperimentConfig",
    "FeatureBlocks",
    "FeaturePipeline",
    "FixtureTranslator",
    "IncompatibleAblation",
    "LABELS",
    "Label",
    "LinearModel",
    "LrConfig",
    "NgramConfig",
    "PRESET_NAMES",
    "PreprocessConfig",
    "RemoteTranslator",
    "SifConfig",
    "SolverStats",
    "StageError",
    "Token",
    "TokenKind",
    "TranslationCache",
    "TranslationConfig",
    "TranslationError",
    "TranslatorClient",
    "Tweet",
    "UnigramModel",
    "Vocabulary",
    "ablation_variant",
    "basic_preprocess",
    "compute_class_weights",
    "confusion",
    "crossover_augment",
    "derive_seed",
    "eval_file",
    "evaluate",
    "fit_vocabulary",
    "format_report",
    "grid_search",
    "handle_negation",
    "join_tokens",
    "label_distribution",
    "load_bundle",
    "load_embeddings",
    "load_model",
    "load_pipeline",
    "load_preset",
    "load_tsv",
    "load_unigram_counts",
    "merge",
    "predict",
    "predict_file",
    "predict_many",
    "predict_proba_matrix",
    "remove_common_component",
    "report_from_confusion",
    "run_ablation",
    "run_experiment",
    "save_model",
    "save_pipeline",
    "save_tsv",
    "semantic_preprocess",
    "sif_embed",
    "tokenize",
    "train_bagging",
    "train_lr",
    "transform",
    "translation_augment",
    "word_vector",
]
