"""Sentiment polarity pipeline for Spanish tweets.

The package covers the full path from TSV tweet files to a trained
classifier: tweet-aware preprocessing with negation marking, training-set
augmentation by two-way translation and instance crossover, bag-of-words,
bag-of-characters and weighted-average embedding features, one-vs-rest
logistic regression with optional bagging, and exact-arithmetic evaluation
reports.  ``run_experiment`` drives everything from a single JSON config;
the ``tweetsent`` CLI wraps it.  The package root exports that entry point,
the bundle and preset loaders and the corpus types; the lower-level pieces
live in their submodules (``tweetsent.preprocess``, ``tweetsent.vectorize``,
``tweetsent.embeddings``, ``tweetsent.augment``, ``tweetsent.model``,
``tweetsent.metrics``).
"""

import os

# One BLAS thread per process, set before numpy loads.  Training runs one
# worker process per CPU, so more threads would oversubscribe the cores, and
# the rounding of a solve would depend on the thread count.  A value the user
# set is kept.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .corpus import Dataset, Tweet, load_tsv
from .experiment import PRESET_NAMES, ExperimentConfig, load_bundle, load_preset, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExperimentConfig",
    "PRESET_NAMES",
    "Tweet",
    "load_bundle",
    "load_preset",
    "load_tsv",
    "run_experiment",
]
