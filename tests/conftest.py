import json
import sys

import pytest

# numpy reads the BLAS thread variables when it loads, and importing tweetsent
# sets them: so tweetsent loads first, as in the CLI (test_package checks).
NUMPY_BEFORE_TWEETSENT = "numpy" in sys.modules

from tweetsent import csr, synthetic
from tweetsent.corpus import Dataset, Label, Tweet
from tweetsent.model import Ensemble, LrConfig, save_model, train_lr
from tweetsent.pipeline import FeatureBlocks, FeaturePipeline, save_pipeline
from tweetsent.preprocess import PreprocessConfig
from tweetsent.vectorize import NgramConfig

@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """Small generated corpus shared by the fast end-to-end tests."""
    out = tmp_path_factory.mktemp("mini-corpus")
    synthetic.generate(out, seed=7, train_size=120, dev_size=60, test_size=60)
    return out


@pytest.fixture(scope="session")
def full_corpus(tmp_path_factory):
    """Default-size corpus (500/200/200) for the heavier end-to-end checks."""
    out = tmp_path_factory.mktemp("full-corpus")
    synthetic.generate(out, seed=7)
    return out


@pytest.fixture
def tampered_bundle(tmp_path):
    """``tamper(file_name, edit)``: a fresh BoW + BoC bundle whose ``file_name``
    JSON went through ``edit``, a function that changes it in place; returns the
    bundle directory."""

    def tamper(file_name: str, edit):
        train = Dataset(
            "toy",
            "train",
            (
                Tweet("t1", "el gato duerme", Label.P),
                Tweet("t2", "el perro no ladra", Label.N),
                Tweet("t3", "gato y perro juegan", Label.NEU),
            ),
        )
        pipeline = FeaturePipeline(
            PreprocessConfig(), NgramConfig(word_n_max=2, char_n_max=3), FeatureBlocks(embedding=False)
        )
        predictor = Ensemble.of(train_lr(pipeline.fit_transform(train), [t.label for t in train.tweets], LrConfig()))
        bundle = tmp_path / "bundle"
        save_pipeline(pipeline, bundle, {})
        save_model(predictor, bundle, pipeline.layout)
        meta = json.loads((bundle / file_name).read_text(encoding="utf-8"))
        edit(meta)
        (bundle / file_name).write_text(json.dumps(meta), encoding="utf-8")
        return bundle

    return tamper


def assert_same_csr(a, b):
    """``a`` and ``b`` hold the same CSR arrays, bit for bit and dtypes included."""
    assert a.shape == b.shape
    for part in ("data", "indices", "indptr"):
        assert getattr(a, part).dtype == getattr(b, part).dtype
        assert getattr(a, part).tobytes() == getattr(b, part).tobytes()


def scipy_csr(matrix):
    """A ``csr.CsrMatrix`` as a scipy ``csr_matrix`` of the same arrays, or a
    dense array as the ``csr_matrix`` of its nonzero entries.

    ``scipy.sparse`` loads on the first call, not when the tests are
    collected, so that the first solve in this process loads the kernels by
    file, as a CLI process does.
    """
    from scipy import sparse

    matrix = csr.as_csr(matrix)
    return sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


#: Whether collecting the tests loaded the ``scipy.sparse`` package (test_package checks).
SCIPY_AFTER_COLLECTION = None


def pytest_collection_finish(session):
    global SCIPY_AFTER_COLLECTION
    SCIPY_AFTER_COLLECTION = "scipy.sparse" in sys.modules
