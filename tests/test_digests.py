"""The files that the CLI writes for the mini corpus, pinned across commits.

``digests.json`` pins, by sha256, every file that ``train``, ``ablate``, a
two-point ``grid``, and the ``predict`` and ``eval`` of the trained bundle
write, ``.npy`` weights included: the solver's sigmoid (``model.expit``)
gives the same bits at every x86-64 SIMD level.

A change that means to change these files regenerates the digests with

    PYTHONPATH=src python tests/test_digests.py

and names the changed files and the reason in ``CHANGES.md``.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from tweetsent import cli, synthetic

DIGESTS = Path(__file__).with_name("digests.json")

#: The commands, run in the corpus directory in this order; each writes under ``out/``.
COMMANDS = {
    "train": ["train", "--config", "config.json", "--out", "out/train"],
    "ablate": ["ablate", "--config", "config.json", "--out", "out/ablate"],
    "grid": ["grid", "--config", "config.json", "--out", "out/grid", "--grid", '{"C": [0.5, 2.0]}'],
    "predict": ["predict", "--model", "out/train/model", "--input", "test.tsv", "--output", "out/predict.tsv"],
    "eval": ["eval", "--model", "out/train/model", "--data", "test.tsv", "--out", "out/eval.json"],
}


def write_all(root: Path) -> Path:
    """Run every command on a fresh mini corpus in ``root``; returns the ``out`` directory."""
    corpus = root / "corpus"
    synthetic.generate(corpus, seed=7, train_size=120, dev_size=60, test_size=60)
    cwd = os.getcwd()
    os.chdir(corpus)
    try:
        for argv in COMMANDS.values():
            assert cli.main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return corpus / "out"


def describe_all(out: Path) -> dict[str, dict]:
    """The sha256 of every file under ``out``, by its path there."""
    return {
        path.relative_to(out).as_posix(): {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return describe_all(write_all(tmp_path_factory.mktemp("digests")))


def command_of(name: str) -> str:
    """The command that wrote the file ``name`` under ``out/``."""
    return name.split("/", 1)[0].split(".", 1)[0]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_the_files_match_the_pinned_digests(written, command):
    pinned = {name: entry for name, entry in json.loads(DIGESTS.read_text()).items() if command_of(name) == command}
    seen = {name: entry for name, entry in written.items() if command_of(name) == command}
    assert pinned, f"no digests pinned for {command}"
    assert sorted(seen) == sorted(pinned)
    assert [name for name in pinned if seen[name] != pinned[name]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = describe_all(write_all(Path(scratch)))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{DIGESTS}: {len(digests)} files", file=sys.stderr)
