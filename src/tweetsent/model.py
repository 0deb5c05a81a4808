"""One-vs-rest L2 logistic regression, averaged over the members of an ensemble.

Each class gets an independent binary problem in the primal form

    min_{w,b}  0.5 * ||w||^2  +  C * sum_i s_i * log(1 + exp(-y_i (w.x_i + b)))

with y_i = +1 for the class' own instances, per-sample weights s_i taken
from the class-weight mode, and an unregularized bias.  The problem is
convex, so any deterministic descent method reaching the gradient tolerance
finds the same optimum; we run L-BFGS (``optimize``) on an analytic
objective/gradient pair and stop when the gradient infinity norm drops below
``tol``.

The binary subproblems (member rows, class) are independent.
``parallel.fork_imap`` solves them in worker processes forked from the caller,
one per available CPU, or in-process when there is one CPU, one problem or no
``fork``.  Each worker runs the same code on the same inputs as the
in-process path, so the weights do not depend on the CPU count.

Training and scoring take features as a ``csr.CsrMatrix`` of float64 data
(``csr.as_csr``): a ``CsrMatrix``, a scipy sparse matrix or a dense array.
Every product is one of scipy's compiled kernels without the ``scipy.sparse``
package: a solve's ``csr.matvec`` and ``csr.rmatvec``, and scoring's one
``csr.matmul`` over every member's weights.  The solver itself is numpy, and
scoring's ``expit`` gives what ``scipy.special.expit`` gives, bit for bit, so
no command imports a scipy module.

Every predictor is an ``Ensemble``: bagging trains its members on bootstrap
samples, and plain LR is the one-member case.  Training is planned, then
solved: ``plan`` makes the ``TrainingPlan`` of either kind, one member on
every row without ``bagging`` or one per bootstrap sample with it.  A plan
lists an ensemble's subproblems, each carrying its own matrix and
``LrConfig``, so one ``solve_all`` call can serve the plans of many
ensembles, and ``TrainingPlan.assemble`` builds each ensemble from the
solutions.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import optimize, parallel
from .corpus import LABELS, Label
from .csr import CsrMatrix, as_csr, matmul, matvec, rmatvec, take_columns, take_rows
from .optimize import dot
from .schema import Manifest, dump, load_section

CLASS_WEIGHT_MODES = ("none", "balanced")


@dataclass(frozen=True)
class LrConfig:
    C: float = 1.0
    class_weight: str = "none"
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.class_weight not in CLASS_WEIGHT_MODES:
            raise ValueError(f"class_weight must be one of {CLASS_WEIGHT_MODES}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


class SolverStats(NamedTuple):
    """How the solve of one binary subproblem ended."""

    converged: bool
    nit: int
    nfev: int
    grad_norm: float  # infinity norm of the final gradient
    message: str


@dataclass(eq=False)
class LinearModel:
    classes: tuple[Label, ...]
    weights: np.ndarray  # shape (K, D)
    biases: np.ndarray  # shape (K,)
    config: LrConfig
    converged: bool = True
    # One entry per class after training; not persisted, so empty after load_model.
    stats: tuple[SolverStats, ...] = ()


@dataclass(frozen=True)
class BaggingConfig:
    n_estimators: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(eq=False)
class Ensemble:
    """The one predictor type: the class distributions of its members, averaged.

    Bagging trains ``bagging.n_estimators`` members on bootstrap samples;
    plain LR is the one member of an ensemble without ``bagging``.
    """

    classes: tuple[Label, ...]
    members: tuple[LinearModel, ...]
    lr_config: LrConfig
    bagging: BaggingConfig | None = None

    def __post_init__(self) -> None:
        expected = 1 if self.bagging is None else self.bagging.n_estimators
        if len(self.members) != expected:
            raise ValueError(f"ensemble has {len(self.members)} members, expected {expected}")
        for k, member in enumerate(self.members):
            if not set(member.classes) <= set(self.classes):
                raise ValueError(f"member {k} has classes outside the ensemble's classes")

    @classmethod
    def of(cls, model: LinearModel) -> Ensemble:
        """Plain LR as a one-member ensemble."""
        return cls(model.classes, (model,), model.config)


def compute_class_weights(label_counts: Mapping[Label, int], mode: str) -> dict[Label, float]:
    """Per-class sample weights: 1 everywhere, or N / (K * n_c) when balanced."""
    if mode not in CLASS_WEIGHT_MODES:
        raise ValueError(f"class_weight must be one of {CLASS_WEIGHT_MODES}")
    for label, count in label_counts.items():
        if count <= 0:
            raise ValueError(f"class {label.value} has non-positive count {count}")
    if mode == "none":
        return {label: 1.0 for label in label_counts}
    total = sum(label_counts.values())
    k = len(label_counts)
    return {label: total / (k * count) for label, count in label_counts.items()}


def binary_objective(
    features: np.ndarray | CsrMatrix,
    signs: np.ndarray,
    sample_weight: np.ndarray,
    C: float,
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Objective and gradient for one binary subproblem.

    ``theta`` packs the weight vector with the bias appended.  The loss term
    uses log1p/expit forms, so it stays finite for any margin.  What does not
    depend on ``theta`` is computed once, in the order the per-call
    expressions would compute it.
    """
    features = as_csr(features)
    scale = -C * sample_weight * signs

    def value_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        w, b = theta[:-1], theta[-1]
        margins = matvec(features, w) + b
        t = signs * margins
        value = 0.5 * dot(w, w) + C * dot(sample_weight, np.logaddexp(0.0, -t))
        coeff = scale * _expit(-t)
        grad_w = w + rmatvec(features, coeff)
        grad = np.empty(theta.shape)
        grad[:-1] = grad_w
        grad[-1] = coeff.sum()
        return value, grad

    return value_and_grad


def _expit(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` elementwise, from ``exp(-|x|)``, which cannot
    overflow.  Solves use it; scoring uses ``expit``, slower but equal to
    scipy's bit for bit."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class _Problem(NamedTuple):
    """One binary subproblem: a member's rows of a matrix, cut to some of its
    columns, against one class."""

    features: CsrMatrix
    rows: np.ndarray | None  # the member's bootstrap rows; None is every row
    columns: np.ndarray | None  # the columns the problem sees; None is every column
    signs: np.ndarray
    sample_weight: np.ndarray
    config: LrConfig


def _solve(problem: _Problem) -> tuple[np.ndarray, SolverStats]:
    """The final iterate of ``problem`` and its stats."""
    X = problem.features if problem.rows is None else take_rows(problem.features, problem.rows)
    if problem.columns is not None:
        X = take_columns(X, problem.columns)
    config = problem.config
    result = optimize.minimize(
        binary_objective(X, problem.signs, problem.sample_weight, config.C),
        np.zeros(X.shape[1] + 1),
        gtol=config.tol,
        maxiter=config.max_iter,
        maxfun=max(15000, 20 * config.max_iter),
    )
    stats = SolverStats(
        bool(result.success), int(result.nit), int(result.nfev), float(np.max(np.abs(result.jac))), str(result.message)
    )
    return result.x, stats


def solve_all(problems: Sequence[_Problem]) -> Iterator[tuple[np.ndarray, SolverStats]]:
    """The solution of every problem, in order, from ``parallel.fork_imap``."""
    return parallel.fork_imap(_solve, problems)


@dataclass(frozen=True)
class TrainingPlan:
    """An ensemble before solving: its members' one-vs-rest problems, member
    after member and class after class, and how their solutions assemble."""

    classes: tuple[Label, ...]
    member_classes: tuple[tuple[Label, ...], ...]
    problems: tuple[_Problem, ...]
    dim: int  # feature columns of every member
    lr_config: LrConfig
    bagging: BaggingConfig | None = None

    def assemble(self, solutions: Iterable[tuple[np.ndarray, SolverStats]]) -> Ensemble:
        """The ensemble from the solutions of ``problems``, in order; warnings
        follow class by class."""
        solutions = iter(solutions)
        config = self.lr_config
        members = []
        for classes in self.member_classes:
            weights = np.empty((len(classes), self.dim))
            biases = np.empty(len(classes))
            stats = []
            for k, cls in enumerate(classes):
                x, solver_stats = next(solutions)
                if not solver_stats.converged:
                    warnings.warn(
                        f"optimizer did not reach tol={config.tol} for class {cls.value}: {solver_stats.message}",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                weights[k] = x[:-1]
                biases[k] = x[-1]
                stats.append(solver_stats)
            converged = all(s.converged for s in stats)
            members.append(LinearModel(classes, weights, biases, config, converged, tuple(stats)))
        return Ensemble(self.classes, tuple(members), config, self.bagging)


BootstrapFn = Callable[[int, int, np.random.Generator], np.ndarray]


def plan(
    features: np.ndarray | CsrMatrix,
    labels: Sequence[Label],
    lr_config: LrConfig,
    bagging: BaggingConfig | None = None,
    *,
    columns: np.ndarray | None = None,
    sample_weight: np.ndarray | None = None,
    bootstrap_fn: BootstrapFn | None = None,
) -> TrainingPlan:
    """The plan of an ensemble on the ``columns`` of ``features`` (all by
    default), whose members are drawn after the training inputs are checked.

    Without ``bagging``, the one member trains on every row, weighted by
    ``sample_weight`` if given and by the class-weight mode if not.  With
    ``bagging``, member k trains on a bootstrap sample from its own generator,
    seeded with ``(seed, k)``, so its sample does not depend on
    ``n_estimators``.  A sample that collapses to a single class is redrawn,
    at most 10 times.  ``bootstrap_fn`` overrides sampling for tests.
    """
    if bagging is not None and sample_weight is not None:
        raise ValueError("sample_weight cannot be combined with bagging")
    labels = list(labels)
    n = len(labels)
    features = as_csr(features)
    if features.shape[0] != n:
        raise ValueError(f"feature matrix has {features.shape[0]} rows for {n} labels")
    if not np.isfinite(features.data).all():
        raise ValueError("feature matrix contains non-finite values")
    classes = tuple(label for label in LABELS if label in set(labels))
    if len(classes) < 2:
        raise ValueError("training needs at least 2 distinct labels")
    problems: list[_Problem] = []
    member_classes = []
    for k in range(1 if bagging is None else bagging.n_estimators):
        rows = None  # every row
        if bagging is not None:
            rng = np.random.default_rng([bagging.seed, k])
            for attempt in range(10):
                if bootstrap_fn is None:
                    rows = rng.integers(0, n, size=n)
                else:
                    rows = np.asarray(bootstrap_fn(k, n, rng))
                if len({labels[i] for i in rows}) >= 2:
                    break
            else:
                raise RuntimeError(f"bootstrap sample for member {k} collapsed to a single class in 10 attempts")
        member_labels = labels if rows is None else [labels[i] for i in rows]
        if sample_weight is None:
            weight_by_class = compute_class_weights(Counter(member_labels), lr_config.class_weight)
            weight = np.array([weight_by_class[label] for label in member_labels])
        else:
            weight = np.asarray(sample_weight, dtype=float)
            if weight.shape != (n,):
                raise ValueError("sample_weight must have one entry per instance")
        present = set(member_labels)
        member_classes.append(tuple(label for label in LABELS if label in present))
        label_array = np.array([label.value for label in member_labels])
        problems += [
            _Problem(features, rows, columns, np.where(label_array == cls.value, 1.0, -1.0), weight, lr_config)
            for cls in member_classes[-1]
        ]
    dim = features.shape[1] if columns is None else len(columns)
    return TrainingPlan(classes, tuple(member_classes), tuple(problems), dim, lr_config, bagging)


def train_lr(
    features: np.ndarray | CsrMatrix,
    labels: Sequence[Label],
    config: LrConfig,
    sample_weight: np.ndarray | None = None,
) -> LinearModel:
    """Fit one binary L2 logistic regression per present class.

    ``sample_weight`` overrides the class-weight mode (a test and calibration
    hook).  A subproblem that fails to reach ``tol`` within ``max_iter`` still
    yields a model, with a warning and ``converged=False``.
    """
    training = plan(features, labels, config, sample_weight=sample_weight)
    return training.assemble(solve_all(training.problems)).members[0]


def train_bagging(
    features: np.ndarray | CsrMatrix,
    labels: Sequence[Label],
    lr_config: LrConfig,
    bagging_config: BaggingConfig,
    bootstrap_fn: BootstrapFn | None = None,
) -> Ensemble:
    """Train members on bootstrap samples of the instances.

    Every member and the whole ensemble are reproducible (see ``plan``).
    ``bootstrap_fn`` overrides sampling for tests.
    """
    training = plan(features, labels, lr_config, bagging_config, bootstrap_fn=bootstrap_fn)
    return training.assemble(solve_all(training.problems))


#: The largest double whose exp is finite: ``math.exp`` raises OverflowError
#: past it, where the C library's ``exp`` returns inf.
_EXP_LIMIT = math.log(sys.float_info.max)


def expit(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` elementwise, bit for bit ``scipy.special.expit``.

    Both take ``exp`` from the C library (here through ``math.exp``); numpy's
    vectorized ``np.exp`` differs from it in the last bit on some values.
    Where ``exp(-x)`` overflows, the result is 0.0.
    """
    negated = -np.asarray(x, dtype=np.float64)
    negated[negated > _EXP_LIMIT] = np.inf
    exps = np.fromiter(map(math.exp, negated.ravel().tolist()), dtype=np.float64, count=negated.size)
    return 1.0 / (1.0 + exps.reshape(negated.shape))


def _member_proba_matrix(member: LinearModel, scores: np.ndarray, classes: tuple[Label, ...]) -> np.ndarray:
    """Normalized sigmoids of the member's raw scores (without its biases);
    all-zero scores land on the uniform distribution."""
    raw = expit(scores + member.biases)
    totals = raw.sum(axis=1, keepdims=True)
    uniform = totals[:, 0] == 0.0
    totals[uniform] = 1.0
    raw = raw / totals
    raw[uniform] = 1.0 / len(member.classes)
    # A bootstrap sample can miss a rare class; it then gets probability 0.
    aligned = np.zeros((raw.shape[0], len(classes)))
    for i, cls in enumerate(member.classes):
        aligned[:, classes.index(cls)] = raw[:, i]
    return aligned


def _member_scores(members: Sequence[LinearModel], X: CsrMatrix) -> list[np.ndarray]:
    """Each member's raw scores of ``X`` (without its biases), from one
    ``csr.matmul`` over every member's weights."""
    widths = [len(member.classes) for member in members]
    # The members' weights side by side: row j holds every weight of column j.
    table = np.empty((X.shape[1], sum(widths)))
    np.concatenate([member.weights.T for member in members], axis=1, out=table)
    scores = matmul(X, table)
    bounds = np.cumsum([0] + widths).tolist()
    return [scores[:, start:end] for start, end in zip(bounds, bounds[1:])]


def predict_proba_matrix(predictor: Ensemble, X: np.ndarray | CsrMatrix) -> np.ndarray:
    """Row-wise class distributions for a batch, members averaged.

    ``X`` must have as many columns as the members' weights, or this raises
    ``ValueError``.
    """
    X = as_csr(X)
    dim = predictor.members[0].weights.shape[1]
    if X.shape[1] != dim:
        raise ValueError(f"a matrix of {X.shape[1]} columns cannot be scored by weights of {dim} columns")
    scores = _member_scores(predictor.members, X)
    total = sum(
        _member_proba_matrix(member, member_scores, predictor.classes)
        for member, member_scores in zip(predictor.members, scores)
    )
    return total / len(predictor.members)


def predict_many(predictor: Ensemble, X: np.ndarray | CsrMatrix) -> list[Label]:
    """Argmax of ``predict_proba_matrix`` per row; ties break in class order."""
    proba = predict_proba_matrix(predictor, X)
    return [predictor.classes[int(i)] for i in np.argmax(proba, axis=1)]


def predict(model: LinearModel, x: np.ndarray) -> Label:
    """Label of one dense feature row under a single trained model."""
    return predict_many(Ensemble.of(model), np.atleast_2d(x))[0]


MODEL_FORMAT_VERSION = 1


def _member_prefix(kind: str, k: int) -> str:
    """The file-name prefix of member ``k``'s arrays.

    A ``linear`` bundle keeps its one member at the top level of
    ``model.json``; a ``bagging`` bundle lists its members under ``members``.
    """
    return "" if kind == "linear" else f"member_{k:03d}_"


def save_model(predictor: Ensemble, directory: str | Path, layout: Sequence[tuple[str, int]]) -> None:
    """Persist a predictor with its fit-time feature layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layout = [(name, int(dim)) for name, dim in layout]
    dim = sum(d for _, d in layout)
    meta: dict = {
        "format_version": MODEL_FORMAT_VERSION,
        "layout": layout,
        "classes": [c.value for c in predictor.classes],
        "config": asdict(predictor.lr_config),
    }
    entries = [
        {"classes": [c.value for c in member.classes], "converged": member.converged} for member in predictor.members
    ]
    if predictor.bagging is None:
        (entry,) = entries
        meta.update(kind="linear", **entry)
    else:
        meta.update(kind="bagging", bagging=asdict(predictor.bagging), members=entries)
    for k, member in enumerate(predictor.members):
        if member.weights.shape[1] != dim:
            raise ValueError("model dimension does not match the feature layout")
        prefix = _member_prefix(meta["kind"], k)
        np.save(directory / f"{prefix}weights.npy", member.weights)
        np.save(directory / f"{prefix}biases.npy", member.biases)
    with open(directory / "model.json", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dump(meta))


def load_floats(path: Path) -> np.ndarray:
    """The array stored in ``path``, which must be finite float64."""
    array = np.load(path)
    if array.dtype != np.float64:
        raise ValueError(f"{path} holds {array.dtype} values, not float64")
    if not np.isfinite(array).all():
        raise ValueError(f"{path} holds non-finite values")
    return array


def load_model(directory: str | Path) -> tuple[Ensemble, list[tuple[str, int]]]:
    """Load a persisted predictor, verifying dimensions against the stored layout."""
    directory = Path(directory)
    meta = Manifest(directory / "model.json")
    if meta.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {meta.get('format_version')!r}")
    layout = meta.layout()
    dim = sum(d for _, d in layout)
    config = load_section(LrConfig, meta["config"], "config")
    kind = meta["kind"]
    if kind not in ("linear", "bagging"):
        raise ValueError(f"{meta.path} has unknown model kind {kind!r}")
    members: list[LinearModel] = []
    for k, entry in enumerate([meta] if kind == "linear" else meta.entries("members")):
        prefix = _member_prefix(kind, k)
        weights = load_floats(directory / f"{prefix}weights.npy")
        biases = load_floats(directory / f"{prefix}biases.npy")
        classes = _classes(entry)
        if weights.shape != (len(classes), dim) or biases.shape != (len(classes),):
            raise ValueError(f"stored weights for member {k} do not match the feature layout")
        members.append(LinearModel(classes, weights, biases, config, bool(entry.get("converged", True))))
    bagging = None if kind == "linear" else load_section(BaggingConfig, meta["bagging"], "bagging")
    return Ensemble(_classes(meta), tuple(members), config, bagging), layout


def _classes(entry: Manifest) -> tuple[Label, ...]:
    """The labels listed under ``entry``'s ``classes`` key."""
    classes = entry["classes"]
    try:
        return tuple(Label.parse(c) for c in classes)
    except (AttributeError, TypeError, ValueError):
        raise entry.malformed("classes", "a list of class labels") from None
