"""Deterministic synthetic corpus for demos and end-to-end tests.

Real annotated tweet collections cannot ship with the package, so this
module fabricates one with a planted lexical sentiment signal: positive and
negative word pools, class-flavored emoji and hashtags, negation patterns
("no me gusta ..."), elongations, handles and URLs.  Alongside the TSV
splits it writes matching resources (stopwords, lemma table, negation cues,
class-aligned word vectors with a subword sidecar, unigram counts, offline
translation tables) and a ready-to-run experiment config.

Everything is a pure function of the seed, so two generations are
byte-identical.

Run ``python -m tweetsent.synthetic --out DIR`` to materialize a demo setup.
"""

from __future__ import annotations

import argparse
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np

from .corpus import LABELS, Label
from .preprocess import (
    PreprocessConfig,
    basic_preprocess,
    join_tokens,
    semantic_preprocess,
    tokenize,
)
from .schema import dump

POSITIVE = [
    "genial", "feliz", "alegre", "excelente", "maravilloso", "bueno",
    "encanta", "gusta", "hermoso", "perfecto", "divertido", "rico",
]
NEGATIVE = [
    "horrible", "triste", "malo", "fatal", "odio", "terrible",
    "peor", "asco", "desastre", "molesta", "duele", "aburrido",
]
HEDGES = ["regular", "normal", "depende", "aceptable", "medio", "dudoso"]
OBJECTIVE = [
    "noticia", "informe", "partido", "gobierno", "agenda", "tren",
    "calle", "foto", "lista", "documento", "horario", "resumen",
]
FILLERS = [
    "el", "la", "de", "que", "y", "en", "un", "una", "por", "con",
    "para", "es", "al", "lo", "se", "me", "te", "su", "mi", "hoy",
]

#: Inflected form -> lemma, exercised by the lemma lookup.
INFLECTIONS = {
    "gusta": "gustar",
    "gustó": "gustar",
    "encanta": "encantar",
    "encantó": "encantar",
    "odio": "odiar",
    "molesta": "molestar",
    "duele": "doler",
}

EMOJI = {
    Label.P: ["😀", "🎉", "😍"],
    Label.N: ["😡", "😭", "💔"],
    Label.NEU: ["🤔", "😐"],
    Label.NONE: ["📰", "📅"],
}
HASHTAGS = {
    Label.P: ["#finde", "#fiesta"],
    Label.N: ["#tráfico", "#caos"],
    Label.NEU: ["#debate"],
    Label.NONE: ["#noticias", "#agenda"],
}
HANDLE_NAMES = ["ana", "luis", "marta", "jorge", "sofi", "pedro"]

SHARES = {Label.P: 0.34, Label.N: 0.36, Label.NEU: 0.15, Label.NONE: 0.15}

_LEXICON = POSITIVE + NEGATIVE + HEDGES + OBJECTIVE


def _sem(word: str) -> str:
    """Semantic form of a lexicon word: its lemma."""
    return INFLECTIONS.get(word, word)


def _allocate(total: int, shares: dict[Label, float]) -> dict[Label, int]:
    counts = {label: int(total * shares[label]) for label in LABELS}
    remainders = sorted(
        LABELS, key=lambda lb: (-(total * shares[lb] - counts[lb]), LABELS.index(lb))
    )
    for label in remainders[: total - sum(counts.values())]:
        counts[label] += 1
    return counts


def _elongate(word: str, rng: random.Random) -> str:
    return word + word[-1] * rng.randint(2, 4)


def _make_text(label: Label, rng: random.Random) -> str:
    lex: list[str]
    if label is Label.P:
        lex = rng.sample(POSITIVE, rng.randint(2, 3))
    elif label is Label.N:
        if rng.random() < 0.35:
            lex = ["no", "me", rng.choice(["gusta", "encanta"]), rng.choice(NEGATIVE)]
        else:
            lex = rng.sample(NEGATIVE, rng.randint(2, 3))
    elif label is Label.NEU:
        lex = [rng.choice(POSITIVE), rng.choice(NEGATIVE), rng.choice(HEDGES)]
        rng.shuffle(lex)
    else:
        lex = rng.sample(OBJECTIVE, rng.randint(2, 3))
    words = lex + rng.sample(FILLERS, rng.randint(2, 4))
    if label is not Label.N or words[0] != "no":
        rng.shuffle(words)
    if rng.random() < 0.3:
        candidates = [i for i, w in enumerate(words) if w in _LEXICON]
        if candidates:
            i = rng.choice(candidates)
            words[i] = _elongate(words[i], rng)
    if rng.random() < 0.5:
        words[0] = words[0].capitalize()
    parts = list(words)
    if rng.random() < 0.25:
        parts.insert(0, "@" + rng.choice(HANDLE_NAMES))
    if rng.random() < 0.15:
        parts.append(str(rng.randint(1, 2024)))
    if rng.random() < 0.2:
        parts.append(rng.choice(HASHTAGS[label]))
    if rng.random() < 0.5:
        parts.append(rng.choice(EMOJI[label]))
    if rng.random() < 0.15:
        parts.append("http://t.co/" + "".join(rng.choices("abcdefgh", k=4)))
    if label in (Label.P, Label.N) and rng.random() < 0.5:
        parts.append("!" * rng.randint(1, 2))
    elif rng.random() < 0.3:
        parts.append(".")
    return " ".join(parts)


def _write_split(path: Path, prefix: str, size: int, rng: random.Random) -> list[tuple[str, str, Label]]:
    counts = _allocate(size, SHARES)
    labels: list[Label] = []
    for label in LABELS:
        labels.extend([label] * counts[label])
    rng.shuffle(labels)
    rows = []
    for i, label in enumerate(labels, 1):
        # A few tweets read like another class so reports are not degenerate.
        text_label = label
        if rng.random() < 0.08:
            text_label = rng.choice([lb for lb in LABELS if lb is not label])
        rows.append((f"{prefix}{i:04d}", _make_text(text_label, rng), label))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for tweet_id, text, label in rows:
            handle.write(f"{tweet_id}\t{text}\t{label.value}\n")
    return rows


def _write_resources(out_dir: Path) -> PreprocessConfig:
    stopwords = sorted(set(FILLERS) | {"no"})
    (out_dir / "stopwords.txt").write_text("\n".join(stopwords) + "\n", encoding="utf-8")
    lemma_table: dict[str, str] = dict(INFLECTIONS)
    for word in _LEXICON:
        lemma_table[word + word[-1]] = _sem(word)
    lines = [f"{form}\t{lemma}" for form, lemma in sorted(lemma_table.items())]
    (out_dir / "lemmas.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    negation = sorted({"no", "ni", "nunca", "jamás", "tampoco", "nadie", "nada", "sin"})
    (out_dir / "negation_words.txt").write_text("\n".join(negation) + "\n", encoding="utf-8")
    return PreprocessConfig(
        negation_words=frozenset(negation),
        stopwords=frozenset(stopwords),
        lemma_table=lemma_table,
    )


def _write_embeddings(out_dir: Path, seed: int, dim: int = 50) -> None:
    rng = np.random.default_rng(seed + 1000)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, 4)))
    direction = {label: basis[:, i] for i, label in enumerate(LABELS)}

    def noisy(center: np.ndarray, scale: float = 0.15) -> np.ndarray:
        return center + scale * rng.normal(size=dim)

    vectors: dict[str, np.ndarray] = {}
    for word in POSITIVE:
        vectors[_sem(word)] = noisy(1.2 * direction[Label.P])
        vectors["NOT_" + _sem(word)] = noisy(-0.8 * direction[Label.P] + 0.5 * direction[Label.N])
    for word in NEGATIVE:
        vectors[_sem(word)] = noisy(1.2 * direction[Label.N])
        vectors["NOT_" + _sem(word)] = noisy(-0.8 * direction[Label.N] + 0.5 * direction[Label.P])
    for word in HEDGES:
        vectors[word] = noisy(1.2 * direction[Label.NEU])
    for word in OBJECTIVE:
        vectors[word] = noisy(1.2 * direction[Label.NONE])
    for label, pool in EMOJI.items():
        for emoji in pool:
            vectors[emoji] = noisy(1.0 * direction[label])
    for label, pool in HASHTAGS.items():
        for tag in pool:
            vectors[tag] = noisy(0.8 * direction[label])
    for placeholder in ("@USER", "URL", "EMAIL"):
        vectors[placeholder] = 0.05 * rng.normal(size=dim)

    with open(out_dir / "embeddings.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{len(vectors)} {dim}\n")
        for word, vector in vectors.items():
            handle.write(word + " " + " ".join(f"{x:.6f}" for x in vector) + "\n")

    bucket_count = 256
    with open(out_dir / "embeddings.subword.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"3 5 {bucket_count}\n")
        for bucket in range(bucket_count):
            vector = 0.05 * rng.normal(size=dim)
            handle.write(str(bucket) + " " + " ".join(f"{x:.6f}" for x in vector) + "\n")


def _semantic_tokens(text: str, config: PreprocessConfig) -> list[str]:
    return [t.surface for t in semantic_preprocess(basic_preprocess(tokenize(text), config), config)]


def _write_unigrams(out_dir: Path, rows: list[tuple[str, str, Label]], config: PreprocessConfig) -> None:
    counts: Counter[str] = Counter()
    for _, text, _ in rows:
        counts.update(_semantic_tokens(text, config))
    lines = [f"{token}\t{count}" for token, count in sorted(counts.items())]
    (out_dir / "unigram_counts.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _paraphrase(text: str, rng: random.Random) -> str:
    fillers = set(FILLERS)
    out = []
    for token in text.split():
        if token in fillers and rng.random() < 0.5:
            out.append(rng.choice(FILLERS))
        else:
            out.append(token)
    return " ".join(out)


def _write_translations(
    out_dir: Path,
    rows: list[tuple[str, str, Label]],
    config: PreprocessConfig,
    pivots: tuple[str, ...],
    seed: int,
) -> None:
    rng = random.Random(seed + 2000)
    texts = []
    seen = set()
    for _, text, _ in rows:
        basic = join_tokens(basic_preprocess(tokenize(text), config))
        if basic not in seen:
            seen.add(basic)
            texts.append(basic)
    tables = []
    for pivot in pivots:
        forward: dict[str, str] = {}
        backward: dict[str, str] = {}
        for text in texts:
            if rng.random() < 0.8:
                marked = f"[{pivot}] {text}"
                forward[text] = marked
                backward[marked] = _paraphrase(text, rng)
        tables.append({"src_lang": "es", "dst_lang": pivot, "entries": forward})
        tables.append({"src_lang": pivot, "dst_lang": "es", "entries": backward})
    # Streamed: ``schema.dump`` would hold the whole file's text, some 7 MiB
    # more at peak for a 5,000-row corpus.
    with open(out_dir / "translations.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(tables, handle, indent=2, sort_keys=True, ensure_ascii=False)
        handle.write("\n")


def demo_config_dict(pivots: tuple[str, ...] = ("en",)) -> dict:
    """Experiment config with paths relative to the generated directory."""
    return {
        "seed": 42,
        "data": {"name": "synthetic", "train": "train.tsv", "dev": "dev.tsv", "test": "test.tsv"},
        "preprocess": {
            "stopwords": "stopwords.txt",
            "lemmas": "lemmas.tsv",
            "negation_words": "negation_words.txt",
        },
        "features": {
            "embeddings": "embeddings.txt",
            "subword": "embeddings.subword.txt",
            "unigram_counts": "unigram_counts.tsv",
        },
        "augment": {
            "translation": {
                "pivots": list(pivots),
                "source": "es",
                "cache": "translations.cache.jsonl",
                "backend": {"type": "fixture", "tables": "translations.json"},
            },
            "crossover": {"factor": 4},
        },
        "model": {
            "C": 1.0,
            "class_weight": "balanced",
            "tol": 1e-4,
            "max_iter": 200,
            "bagging": {"n_estimators": 5},
        },
    }


def generate(
    out_dir: str | Path,
    seed: int = 7,
    train_size: int = 500,
    dev_size: int = 200,
    test_size: int = 200,
    pivots: tuple[str, ...] = ("en",),
) -> dict[str, Path]:
    """Write the corpus, resources and config; returns the file map."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    train_rows = _write_split(out_dir / "train.tsv", "tr", train_size, rng)
    _write_split(out_dir / "dev.tsv", "dv", dev_size, rng)
    _write_split(out_dir / "test.tsv", "ts", test_size, rng)
    config = _write_resources(out_dir)
    _write_embeddings(out_dir, seed)
    _write_unigrams(out_dir, train_rows, config)
    _write_translations(out_dir, train_rows, config, pivots, seed)
    (out_dir / "config.json").write_text(dump(demo_config_dict(pivots)), encoding="utf-8", newline="\n")
    names = [
        "train.tsv", "dev.tsv", "test.tsv", "stopwords.txt", "lemmas.tsv",
        "negation_words.txt", "embeddings.txt", "embeddings.subword.txt",
        "unigram_counts.tsv", "translations.json", "config.json",
    ]
    return {name: out_dir / name for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="generate the synthetic demo corpus")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--train-size", type=int, default=500)
    parser.add_argument("--dev-size", type=int, default=200)
    parser.add_argument("--test-size", type=int, default=200)
    parser.add_argument("--pivots", default="en", help="comma-separated pivot languages")
    args = parser.parse_args(argv)
    paths = generate(
        args.out,
        seed=args.seed,
        train_size=args.train_size,
        dev_size=args.dev_size,
        test_size=args.test_size,
        pivots=tuple(p for p in args.pivots.split(",") if p),
    )
    print(f"wrote {len(paths)} files under {Path(args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
