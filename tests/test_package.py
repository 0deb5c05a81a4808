import ast
import dataclasses
import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import conftest
import tweetsent
from tweetsent import synthetic
from tweetsent.experiment import AugmentConfig, ExperimentConfig, run_experiment

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def run_fresh(code: str, **preset: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this checkout's tweetsent."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    src = str(Path(tweetsent.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def thread_settings_after_import(**preset: str) -> dict[str, str | None]:
    """The thread variables a fresh interpreter sees after ``import tweetsent``."""
    code = "import json, os, tweetsent; print(json.dumps({v: os.environ.get(v) for v in %r}))" % (THREAD_VARS,)
    return json.loads(run_fresh(code, **preset))


def test_import_pins_blas_to_one_thread():
    assert thread_settings_after_import() == {var: "1" for var in THREAD_VARS}


def test_import_keeps_a_value_the_user_set():
    seen = thread_settings_after_import(OPENBLAS_NUM_THREADS="3")
    assert seen == {**{var: "1" for var in THREAD_VARS}, "OPENBLAS_NUM_THREADS": "3"}


#: The modules besides scipy's that the CLI import, ``predict`` and ``eval``
#: leave out: the process pool (a small batch needs none), and the bootstrap
#: generator and the config hashes, which only training uses (6.1 MiB of RSS
#: on numpy 2).
LEFT_OUT = ("multiprocessing", "concurrent.futures.process", "numpy.random", "hashlib", "_hashlib")


@functools.cache
def forced_by_numpy() -> tuple[int, frozenset[str]]:
    """numpy's major version and the ``LEFT_OUT`` modules that a bare
    ``import numpy`` loads in a fresh interpreter."""
    forced = f"[m for m in {LEFT_OUT!r} if m in sys.modules]"
    code = f"import json, sys, numpy; print(json.dumps([numpy.__version__, {forced}]))"
    version, forced = json.loads(run_fresh(code))
    return int(version.split(".")[0]), frozenset(forced)


def print_loaded() -> str:
    """Code that prints, as JSON, the scipy modules and the ``LEFT_OUT``
    modules loaded, less those that importing numpy loads anyway."""
    pinned = tuple(m for m in LEFT_OUT if m not in forced_by_numpy()[1])
    return f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in {pinned!r})))"


def test_only_numpy_1_loads_its_random_module_and_hashlib_on_import():
    # numpy 1.x imports numpy.random with numpy, and its bit generator loads
    # hashlib through secrets; numpy 2 loads numpy.random on first use.  So
    # on numpy 1 the pins below hold the process pool and scipy only.
    major, forced = forced_by_numpy()
    assert (forced == set()) if major >= 2 else (forced <= {"numpy.random", "hashlib", "_hashlib"})


def test_cli_import_leaves_out_the_solver_and_the_process_pool():
    assert json.loads(run_fresh("import json, sys, tweetsent.cli; " + print_loaded())) == []


def test_cli_import_loads_no_kernels():
    assert run_fresh("import tweetsent.cli\nfrom tweetsent import csr\nprint(csr._kernels)").strip() == "None"


@pytest.fixture(scope="module")
def bagged_run(mini_corpus, tmp_path_factory):
    """The run directory of an all-blocks, five-member bagging bundle,
    trained on the mini corpus without augmentation."""
    config = ExperimentConfig.from_json(mini_corpus / "config.json")
    config = dataclasses.replace(config, augment=AugmentConfig())
    return run_experiment(config, tmp_path_factory.mktemp("bagged-run")).out_dir


def predict_and_eval(bagged_run, mini_corpus, tmp_path):
    """Run ``predict`` and ``eval`` of the bagged bundle on the test split in
    a fresh interpreter; returns the file the kernels were loaded from and the
    scipy and process pool modules loaded, after checking that both outputs
    equal the training run's."""
    model, test = str(bagged_run / "model"), str(mini_corpus / "test.tsv")
    predictions, report = str(tmp_path / "predictions.tsv"), str(tmp_path / "report.json")
    code = textwrap.dedent(
        f"""
        import json, sys
        from tweetsent import cli, csr

        assert cli.main(["predict", "--model", {model!r}, "--input", {test!r}, "--output", {predictions!r}]) == 0
        assert cli.main(["eval", "--model", {model!r}, "--data", {test!r}, "--out", {report!r}]) == 0
        print(csr._kernels.__file__)
        """
    )
    kernels, loaded = run_fresh(code + print_loaded()).splitlines()[-2:]
    assert (tmp_path / "predictions.tsv").read_bytes() == (bagged_run / "predictions_test.tsv").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == (bagged_run / "report_test.json").read_bytes()
    return Path(kernels), json.loads(loaded)


def test_predict_and_eval_leave_out_scipy(bagged_run, mini_corpus, tmp_path):
    # Their products load the kernels' extension by file, with no scipy module.
    kernels, loaded = predict_and_eval(bagged_run, mini_corpus, tmp_path)
    assert kernels.parent.name == "sparse" and kernels.name.startswith("_sparsetools")
    assert loaded == []


def test_pooled_workers_find_the_kernels_loaded_before_the_fork():
    # Each transform, solve and label worker reports whether the kernels
    # were loaded, and which scipy modules, when its work began; the parent
    # reports the same at the end.  Before each pool the parent drops the
    # kernels, as a fresh process has none, so only the pool can load them.
    code = textwrap.dedent(
        """
        import os, sys
        from tweetsent import csr, model, parallel
        from tweetsent.corpus import Dataset, Label, Tweet
        from tweetsent.pipeline import FeatureBlocks, FeaturePipeline
        from tweetsent.preprocess import PreprocessConfig
        from tweetsent.vectorize import NgramConfig

        assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
        parallel.cpu_count = lambda: 2
        parent = os.getpid()

        def loaded():
            scipy = ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            return f"kernels={csr._kernels is not None}:{scipy}"

        def probe(name, work):
            def probed(*args):
                if os.getpid() != parent:
                    os.write(1, f"{name}:{loaded()}\\n".encode())
                return work(*args)
            return probed

        model.binary_objective = probe("solve", model.binary_objective)
        FeaturePipeline._featurize = probe("featurize", FeaturePipeline._featurize)
        # 1,000 rows: two transform chunks and two label blocks on 2 CPUs.
        words = ["gato", "perro", "bueno", "malo", "feliz", "triste"]
        tweets = tuple(
            Tweet(f"t{i}", f"{words[i % 6]} {words[i // 6 % 6]}", (Label.P, Label.N)[i % 2]) for i in range(1000)
        )
        train = Dataset("toy", "train", tweets)
        blocks = FeatureBlocks(embedding=False)
        pipeline = FeaturePipeline(PreprocessConfig(), NgramConfig(word_n_max=1, char_n_max=2), blocks).fit(train)
        csr._kernels = None
        print("transform", flush=True)
        X = pipeline.transform(train)
        csr._kernels = None
        print("solve", flush=True)
        predictor = model.Ensemble.of(model.train_lr(X, [tweet.label for tweet in tweets], model.LrConfig()))
        csr._kernels = None
        print("label", flush=True)
        pipeline.label(predictor, train)
        print("parent:" + loaded())
        """
    )
    workers = {name: [f"{name}:kernels=True:"] * 2 for name in ("featurize", "solve")}
    expected = ["transform", *workers["featurize"], "solve", *workers["solve"], "label", *workers["featurize"]]
    assert run_fresh(code).split() == expected + ["parent:kernels=True:"]


def test_training_commands_load_the_kernels_and_no_scipy_module(tmp_path):
    # Not scipy, scipy.sparse or scipy._lib: the kernels' extension loads by file.
    synthetic.generate(tmp_path, seed=7, train_size=40, dev_size=20, test_size=20)
    config = str(tmp_path / "config.json")
    commands = [
        ["train", "--config", config, "--out", str(tmp_path / "train")],
        ["ablate", "--config", config, "--out", str(tmp_path / "ablate")],
        ["grid", "--config", config, "--out", str(tmp_path / "grid"), "--grid", '{"C": [0.5, 2.0]}'],
    ]
    code = f"import json, sys\nfrom tweetsent import cli\nassert all(cli.main(c) == 0 for c in {commands!r})\n"
    loaded = json.loads(run_fresh(code + print_loaded()).splitlines()[-1])
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("first", ["kernels", "scipy.sparse"])
def test_the_kernels_and_scipy_sparse_share_their_functions_whichever_loads_first(first):
    code = textwrap.dedent(
        f"""
        from tweetsent import csr

        if {first!r} == "scipy.sparse":
            import scipy.sparse
        kernels = csr.load_kernels()
        import scipy.sparse

        shared = kernels.csr_matvec is scipy.sparse._sparsetools.csr_matvec
        print(shared, (scipy.sparse.eye(2, format="csr") @ [1.0, 2.0]).tolist())
        """
    )
    assert run_fresh(code).strip() == "True [1.0, 2.0]"


def test_the_tests_load_numpy_after_tweetsent_pins_blas():
    # Were numpy loaded first, BLAS would start one thread per CPU in this
    # process and in every worker forked from it, unlike a CLI process.
    assert conftest.NUMPY_BEFORE_TWEETSENT is False


def test_collecting_the_tests_leaves_out_scipy_sparse():
    # So the first solve in this process loads the kernels by file, as a CLI
    # process does: test modules import scipy.sparse inside their tests.
    assert conftest.SCIPY_AFTER_COLLECTION is False


README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    assert [name for name in tweetsent.__all__ if not hasattr(tweetsent, name)] == []


def test_the_package_root_exports_what_the_readme_imports_from_it():
    blocks = [block.split("\n```", 1)[0] for block in README.read_text(encoding="utf-8").split("```python\n")[1:]]
    imports = [node for block in blocks for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom)]
    documented = {alias.name for node in imports if node.module == "tweetsent" and node.level == 0 for alias in node.names}
    assert set(tweetsent.__all__) == documented


def test_the_readme_library_use_block_runs(tmp_path, monkeypatch):
    # The first Python block under "## Library use", run where its relative paths point.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    synthetic.generate(tmp_path / "demo", seed=7, train_size=40, dev_size=20, test_size=20)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
