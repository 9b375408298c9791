"""Classifier training and prediction: multinomial NB, hinge-loss SGD, linear SVM.

All three classifiers reduce multiclass to one-vs-rest: one binary problem
per class label (labels sorted lexicographically), predicting by argmax of
the per-class decision scores with ties broken toward the lexicographically
smallest label. Each trainer takes the training corpus as one
features.CorpusMatrix, reads the feature count from it, and fits every
class in one loop over a (classes x features) weight matrix. Every trainer
returns a LinearModel, scored as w_c . x + b_c: `predict` labels a batch of
documents and `predict_tokenized` is its one-document case.

* Naive Bayes uses Lidstone smoothing and accepts real-valued non-negative
  feature weights, so TF-IDF inputs are as valid as raw counts. Its log
  joint log P(c) + sum_t x_t log P(t|c) is linear in x: the weights are the
  log likelihoods and the biases the log priors.
* The SGD trainer minimizes the L2-regularized mean hinge loss
  J(w, b) = (alpha/2) ||w||^2 + (1/n) sum max(0, 1 - y (w.x + b)) with the
  step schedule eta_t = 1 / (alpha (t0 + t)), t0 = 1/alpha, decaying across
  all updates. The bias is unregularized.
* The SVM trainer solves the L1-loss C-SVC dual by coordinate descent with
  the bias as a constant-1 feature, visiting the examples in a seeded
  random permutation on every pass, and stopping each class when its
  largest projected-gradient violation falls below the tolerance.

The classes share the seeded example order and, for SGD, the step size,
so every row of a trained model equals the model of its binary problem
trained alone. Training runs single-threaded. Trained models are immutable
and safe for concurrent prediction.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from .corpus import LabeledCorpus
from .errors import (
    ConvergenceWarning,
    LengthMismatchError,
    ModelFormatError,
    NegativeFeatureError,
    SingleClassError,
)
from .features import (
    CorpusMatrix,
    FeatureMode,
    Vocabulary,
    build_vocabulary,
    select_chi_features,
    vectorize_corpus,
)
from .fileio import atomic_write_text
from .textprep import PreprocessConfig, TokenizedDocument, preprocess_corpus

MODEL_FORMAT_VERSION = 1

SVM_TOLERANCE = 1e-3
SVM_MAX_PASSES = 1000

SELECTORS = ("tfidf", "chi2")
# The feature mode each selector's pipeline vectorizes with.
FEATURE_MODES: dict[str, FeatureMode] = {"tfidf": "tfidf", "chi2": "counts"}
CLASSIFIERS = ("nb", "sgd", "svm")
# The timed stages of training, in the order they run.
TRAIN_STAGES = ("features", "vectorize", "fit")

Selector = Literal["tfidf", "chi2"]
Classifier = Literal["nb", "sgd", "svm"]


@dataclass(frozen=True)
class TrainHyperparams:
    """Training knobs; the defaults are the reference configuration."""

    nb_alpha: float = 0.01
    sgd_alpha: float = 0.0001
    sgd_epochs: int = 50
    svm_c: float = 1.0
    seed: int = 42
    chi_top_percent: float = 30.0
    chi_g_top_k: int | None = None

    def __post_init__(self) -> None:
        positive = (self.nb_alpha, self.sgd_alpha, self.svm_c)
        if not all(0.0 < value < math.inf for value in positive):
            raise ValueError("nb_alpha, sgd_alpha, and svm_c must be positive and finite")
        if self.sgd_epochs < 1:
            raise ValueError("sgd_epochs must be at least 1")
        if not 0.0 < self.chi_top_percent <= 100.0:
            raise ValueError("chi_top_percent must be in (0, 100]")
        if self.chi_g_top_k is not None and self.chi_g_top_k < 1:
            raise ValueError("chi_g_top_k must be at least 1")


@dataclass
class LinearModel:
    """One-vs-rest linear decision functions: score_c(x) = w_c . x + b_c."""

    class_labels: tuple[str, ...]
    weights: np.ndarray  # shape (n_classes, vocab_size)
    biases: np.ndarray  # shape (n_classes,)
    trainer_tag: Classifier
    converged: bool = True
    fit_info: dict | None = field(default=None, compare=False)

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[1]


@dataclass
class TrainedModel:
    """A fitted classifier bundled with its feature space and pipeline identity."""

    model: LinearModel
    vocabulary: Vocabulary
    selector: Selector
    preprocess_config_digest: str
    stage_seconds: dict[str, float]
    created_unix_seconds: int

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.model.class_labels

    @property
    def feature_mode(self) -> FeatureMode:
        return FEATURE_MODES[self.selector]

    @property
    def train_seconds(self) -> float:
        """Feature building, vectorization and fitting: the sum of `stage_seconds`."""
        return sum(self.stage_seconds.values())


def _check_training_data(X: CorpusMatrix, y: Sequence[str]) -> list[str]:
    n_rows = X.shape[0]
    if n_rows != len(y):
        raise LengthMismatchError(f"{n_rows} rows but {len(y)} labels")
    if n_rows < 2:
        raise ValueError("training needs at least two examples")
    labels = sorted(set(y))
    if len(labels) < 2:
        raise SingleClassError("training corpus has one class")
    return labels


def _targets(y: Sequence[str], labels: list[str]) -> np.ndarray:
    """(n, C) one-vs-rest targets: +1 where the example has the class, else -1."""
    return np.where(np.asarray(y)[:, None] == np.asarray(labels)[None, :], 1.0, -1.0)


def _scores(X: CorpusMatrix, coefficients: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n, C) scores coefficients @ x + offsets of every row x of X.

    Each row is one gather and one matrix-vector product, so temporaries
    stay O(n C) and a row scores the same alone as within a corpus.
    """
    if X.n_features != coefficients.shape[1]:
        raise ValueError(f"{X.n_features} features against a model of {coefficients.shape[1]}")
    scores = np.empty((X.shape[0], len(offsets)))
    bounds, indices, values = X.indptr.tolist(), X.indices, X.values
    for row, (start, end) in enumerate(zip(bounds, bounds[1:])):
        scores[row] = coefficients[:, indices[start:end]] @ values[start:end]
    scores += offsets
    return scores


def _hinge_objectives(
    X: CorpusMatrix,
    targets: np.ndarray,
    weights: np.ndarray,
    biases: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Per-class L2-regularized mean hinge loss (alpha/2)||w_c||^2 + mean hinge."""
    hinge = np.maximum(0.0, 1.0 - targets * _scores(X, weights, biases))
    return 0.5 * alpha * np.einsum("ij,ij->i", weights, weights) + hinge.mean(axis=0)


def train_nb(X: CorpusMatrix, y: Sequence[str], alpha: float) -> LinearModel:
    """Fit multinomial NB with Lidstone smoothing `alpha`.

    Per class c and feature t: likelihood(c, t) = (W(c,t) + alpha) /
    (W(c) + alpha * V), where W sums feature weights over the class's
    rows. The model's weights are the log likelihoods and its biases the
    log priors. Raises NegativeFeatureError on any negative weight and
    SingleClassError when fewer than two labels are present.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    labels = _check_training_data(X, y)
    if (X.values < 0).any():
        raise NegativeFeatureError(f"negative feature weight {X.values[X.values < 0][0]}")

    rows = np.searchsorted(labels, y)
    weight_sums = np.zeros((len(labels), X.n_features))
    np.add.at(weight_sums, (np.repeat(rows, np.diff(X.indptr)), X.indices), X.values)
    log_prior = np.log(np.bincount(rows, minlength=len(labels)) / len(y))
    totals = weight_sums.sum(axis=1, keepdims=True)
    log_likelihood = np.log((weight_sums + alpha) / (totals + alpha * X.n_features))
    return LinearModel(
        class_labels=tuple(labels), weights=log_likelihood, biases=log_prior, trainer_tag="nb"
    )


def train_sgd(X: CorpusMatrix, y: Sequence[str], hyper: TrainHyperparams) -> LinearModel:
    """Train one-vs-rest hinge-loss SGD classifiers in one loop over the examples.

    The step size, the L2 decay and the seeded shuffle are the same for
    every class, so each step scores all classes at once and updates only
    the rows whose margin is below 1. The weights are kept as scale * v
    (Bottou, "Stochastic Gradient Descent Tricks", 2012), so the decay is a
    single multiply. Each row equals the model trained on its class alone,
    training is deterministic given (seed, corpus), and symmetric label
    swaps produce exactly mirrored weights.
    """
    labels = _check_training_data(X, y)
    targets = _targets(y, labels)
    alpha = hyper.sgd_alpha
    v = np.zeros((len(labels), X.n_features))
    biases = np.zeros(len(labels))
    scale = 1.0
    t0 = 1.0 / alpha
    step = 0
    rng = np.random.default_rng(hyper.seed)
    bounds = X.indptr.tolist()

    for epoch in range(hyper.sgd_epochs):
        for i in rng.permutation(len(y)).tolist():
            step += 1
            eta = 1.0 / (alpha * (t0 + step))
            start, end = bounds[i], bounds[i + 1]
            cols, x, t = X.indices[start:end], X.values[start:end], targets[i]
            margins = t * (scale * (v.take(cols, axis=1) @ x) + biases)
            scale *= 1.0 - eta * alpha
            if scale < 1e-9:
                v *= scale
                scale = 1.0
            rows = np.flatnonzero(margins < 1.0)
            if rows.size:
                v[rows[:, None], cols] += (eta * t[rows] / scale)[:, None] * x
                biases[rows] += eta * t[rows]
        if epoch == 0:
            objective_epoch1 = _hinge_objectives(X, targets, scale * v, biases, alpha)

    weights = scale * v
    objective_final = _hinge_objectives(X, targets, weights, biases, alpha)
    return LinearModel(
        class_labels=tuple(labels),
        weights=weights,
        biases=biases,
        trainer_tag="sgd",
        fit_info={
            label: {
                "objective_epoch1": float(objective_epoch1[row]),
                "objective_final": float(objective_final[row]),
            }
            for row, label in enumerate(labels)
        },
    )


def _projected_gradient(gradient: np.ndarray, alpha: np.ndarray, c: float) -> np.ndarray:
    """The dual gradient projected onto the box 0 <= alpha <= C, elementwise."""
    return np.where(
        alpha <= 0.0,
        np.minimum(gradient, 0.0),
        np.where(alpha >= c, np.maximum(gradient, 0.0), gradient),
    )


def train_svm(
    X: CorpusMatrix,
    y: Sequence[str],
    hyper: TrainHyperparams,
    tolerance: float = SVM_TOLERANCE,
    max_passes: int = SVM_MAX_PASSES,
) -> LinearModel:
    """Train one-vs-rest linear C-SVC classifiers by dual coordinate descent.

    Each pass visits the examples in a fresh permutation drawn from a
    generator seeded with `hyper.seed` (Hsieh et al., ICML 2008), so corpora
    grouped by label converge and training is deterministic given (seed,
    corpus). All classes share the pass: each step updates every class that
    is still running, and a class stops once its largest projected-gradient
    violation, measured again on the final iterate, is below `tolerance`.
    The bias is a constant-1 feature kept in its own vector. A class that
    exhausts `max_passes` emits a ConvergenceWarning and marks the model,
    which is still returned.
    """
    labels = _check_training_data(X, y)
    targets = _targets(y, labels)
    n_classes = len(labels)
    c = hyper.svm_c
    alphas = np.zeros((len(y), n_classes))
    weights = np.zeros((n_classes, X.n_features))
    biases = np.zeros(n_classes)
    bounds = X.indptr.tolist()
    q_diag = [
        float(X.values[start:end] @ X.values[start:end]) + 1.0
        for start, end in zip(bounds, bounds[1:])
    ]
    rng = np.random.default_rng(hyper.seed)

    running = np.ones(n_classes, dtype=bool)
    converged = np.zeros(n_classes, dtype=bool)
    passes = np.zeros(n_classes, dtype=int)
    violation = np.full(n_classes, np.inf)
    for _ in range(max_passes):
        if not running.any():
            break
        passes[running] += 1
        sweep_violation = np.zeros(n_classes)
        for i in rng.permutation(len(y)).tolist():
            start, end = bounds[i], bounds[i + 1]
            cols, x = X.indices[start:end], X.values[start:end]
            t, a = targets[i], alphas[i]
            gradient = t * (weights.take(cols, axis=1) @ x + biases) - 1.0
            np.maximum(
                sweep_violation, np.abs(_projected_gradient(gradient, a, c)), out=sweep_violation
            )
            updated = np.minimum(np.maximum(a - gradient / q_diag[i], 0.0), c)
            # A zero projected gradient leaves `updated` equal to `a`.
            rows = np.flatnonzero(running & (updated != a))
            if rows.size:
                delta = (updated[rows] - a[rows]) * t[rows]
                a[rows] = updated[rows]
                weights[rows[:, None], cols] += delta[:, None] * x
                biases[rows] += delta
        violation[running] = sweep_violation[running]
        # Gradients measured mid-sweep go stale as later updates move w, so
        # confirm convergence against the final iterate before stopping.
        check = running & (sweep_violation < tolerance)
        if check.any():
            margins = targets * _scores(X, weights, biases)
            final = np.abs(_projected_gradient(margins - 1.0, alphas, c)).max(axis=0)
            violation[check] = final[check]
            converged |= check & (final < tolerance)
            running &= ~converged

    margins = targets * _scores(X, weights, biases)
    squared_norms = np.einsum("ij,ij->i", weights, weights) + biases * biases
    hinge_sums = np.maximum(0.0, 1.0 - margins).sum(axis=0)
    fit_info: dict = {}
    for row, label in enumerate(labels):
        fit_info[label] = {
            "alphas": alphas[:, row].copy(),
            "margins": margins[:, row].copy(),
            "dual_objective": float(alphas[:, row].sum() - 0.5 * squared_norms[row]),
            "primal_objective": float(0.5 * squared_norms[row] + c * hinge_sums[row]),
            "violation": float(violation[row]),
            "passes": int(passes[row]),
            "converged": bool(converged[row]),
        }
        if not converged[row]:
            warnings.warn(
                f"SVM problem for class {label!r} stopped after {passes[row]} passes "
                f"with violation {violation[row]:.3e}",
                ConvergenceWarning,
                stacklevel=2,
            )
    return LinearModel(
        class_labels=tuple(labels),
        weights=weights,
        biases=biases,
        trainer_tag="svm",
        converged=bool(converged.all()),
        fit_info=fit_info,
    )


def train_from_tokens(
    docs: Sequence[TokenizedDocument],
    selector: Selector,
    classifier: Classifier,
    hyper: TrainHyperparams,
    preprocess_config_digest: str,
    created_unix_seconds: int | None = None,
) -> TrainedModel:
    """Build the feature space and fit one classifier on preprocessed docs.

    `stage_seconds` times feature building ("features"), vectorization
    ("vectorize") and classifier fitting ("fit"); their sum,
    `train_seconds`, is the method-specific work the benchmark compares.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector: {selector!r} (expected one of {SELECTORS})")
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier: {classifier!r} (expected one of {CLASSIFIERS})")
    labels = [doc.label for doc in docs]
    if any(label is None for label in labels):
        raise ValueError("training documents must carry labels")

    clock = [time.perf_counter()]
    if selector == "tfidf":
        vocabulary = build_vocabulary(docs)
    else:
        vocabulary = select_chi_features(docs, hyper.chi_top_percent, hyper.chi_g_top_k)
    clock.append(time.perf_counter())
    X = vectorize_corpus(docs, vocabulary, FEATURE_MODES[selector])
    clock.append(time.perf_counter())

    if classifier == "nb":
        model = train_nb(X, labels, hyper.nb_alpha)
    elif classifier == "sgd":
        model = train_sgd(X, labels, hyper)
    else:
        model = train_svm(X, labels, hyper)
    clock.append(time.perf_counter())

    if created_unix_seconds is None:
        created_unix_seconds = int(time.time())
    return TrainedModel(
        model=model,
        vocabulary=vocabulary,
        selector=selector,
        preprocess_config_digest=preprocess_config_digest,
        stage_seconds={
            stage: end - start for stage, start, end in zip(TRAIN_STAGES, clock, clock[1:])
        },
        created_unix_seconds=created_unix_seconds,
    )


def train(
    corpus: LabeledCorpus,
    selector: Selector,
    classifier: Classifier,
    hyper: TrainHyperparams,
    config: PreprocessConfig,
    created_unix_seconds: int | None = None,
) -> TrainedModel:
    """Preprocess a labeled corpus and train one (selector, classifier) pipeline."""
    docs = preprocess_corpus(corpus, config)
    return train_from_tokens(
        docs, selector, classifier, hyper, config.digest(), created_unix_seconds
    )


def predict_linear(model: LinearModel, X: CorpusMatrix) -> tuple[list[str], np.ndarray]:
    """Labels and (n, C) decision scores w_c . x + b_c of every row of X: the
    argmax label, ties going to the lexicographically smallest label. An
    empty row scores the biases; for NB the scores are the log joints."""
    scores = _scores(X, model.weights, model.biases)
    return [model.class_labels[index] for index in scores.argmax(axis=1).tolist()], scores


# NB needs no scorer of its own. The name stays only because the benchmark's
# tracer (perfbench/tracing.py) still looks it up; it goes when that list does.
predict_nb = predict_linear


def predict(
    trained: TrainedModel, docs: Sequence[TokenizedDocument]
) -> tuple[list[str], np.ndarray]:
    """Labels and (n, C) per-class scores of preprocessed documents,
    vectorized in the model's stored feature space."""
    X = vectorize_corpus(docs, trained.vocabulary, trained.feature_mode)
    return predict_linear(trained.model, X)


def predict_tokenized(
    trained: TrainedModel, doc: TokenizedDocument
) -> tuple[str, float, dict[str, float]]:
    """Predict one preprocessed document: (label, winning score, all scores)."""
    (label,), scores = predict(trained, [doc])
    row = dict(zip(trained.class_labels, scores[0].tolist()))
    return label, row[label], row


# The model-file key of each LinearModel parameter, per trainer, in file order.
_PARAMETER_KEYS: dict[str, dict[str, str]] = {
    "nb": {"biases": "log_prior", "weights": "log_likelihood"},
    "sgd": {"weights": "weights", "biases": "biases"},
    "svm": {"weights": "weights", "biases": "biases"},
}


def _vocabulary_to_payload(vocab: Vocabulary) -> dict:
    ordered = sorted(vocab.terms.items(), key=lambda item: item[1])
    return {
        "n_docs": vocab.n_docs,
        "terms": [[term, index, vocab.doc_freq[term]] for term, index in ordered],
    }


def _vocabulary_from_payload(payload: dict) -> Vocabulary:
    entries = payload["terms"]
    terms = {term: int(index) for term, index, _ in entries}
    if len(terms) != len(entries) or not all(isinstance(term, str) for term in terms):
        raise ModelFormatError("vocabulary terms must be distinct strings")
    doc_freq = {term: int(df) for term, _, df in entries}
    return Vocabulary(terms=terms, doc_freq=doc_freq, n_docs=int(payload["n_docs"]))


def model_to_dict(trained: TrainedModel) -> dict:
    """The model-file payload; floats round-trip exactly through JSON."""
    model = trained.model
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "created_unix_seconds": trained.created_unix_seconds,
        "feature_mode": trained.feature_mode,
        "selector": trained.selector,
        "preprocess_config_digest": trained.preprocess_config_digest,
        "vocabulary": _vocabulary_to_payload(trained.vocabulary),
        "model_type": model.trainer_tag,
        "class_labels": list(model.class_labels),
    }
    for name, key in _PARAMETER_KEYS[model.trainer_tag].items():
        payload[key] = getattr(model, name).tolist()
    return payload


def save_model(trained: TrainedModel, path: str | Path) -> None:
    """Write the model as one UTF-8 JSON document (atomic replace)."""
    atomic_write_text(path, json.dumps(model_to_dict(trained), ensure_ascii=False))


def _check_loaded(trained: TrainedModel) -> None:
    """Raise ModelFormatError, naming the file key, unless every parameter
    is finite and its shape matches the labels and vocabulary."""
    model = trained.model
    n_classes, n_features = len(model.class_labels), len(trained.vocabulary)
    shapes = {"biases": (n_classes,), "weights": (n_classes, n_features)}
    for name, key in _PARAMETER_KEYS[model.trainer_tag].items():
        values = getattr(model, name)
        if values.shape != shapes[name]:
            raise ModelFormatError(f"{key} has shape {values.shape}, expected {shapes[name]}")
        if not np.isfinite(values).all():
            raise ModelFormatError(f"{key} has non-finite values")


def load_model(path: str | Path) -> TrainedModel:
    """Load a model file; raises ModelFormatError on any schema problem, on
    an unknown (selector, feature_mode) pair, on class labels that are not
    unique sorted strings, on vocabulary terms that are not distinct
    strings, on parameters whose shapes do not match the labels and
    vocabulary and on a non-finite parameter."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"invalid model file {path}: {exc}") from exc
    try:
        version = payload["format_version"]
        # `type`, not isinstance: JSON `true` loads as a bool, which isinstance counts as an int.
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format version {version!r}")
        selector, feature_mode = payload["selector"], payload["feature_mode"]
        if FEATURE_MODES.get(selector) != feature_mode:
            raise ModelFormatError(
                f"unknown pipeline: selector {selector!r} with feature_mode {feature_mode!r}"
            )
        model_type = payload["model_type"]
        if model_type not in _PARAMETER_KEYS:
            raise ModelFormatError(f"unknown model type {model_type!r}")
        labels = payload["class_labels"]
        if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
            raise ModelFormatError(f"class_labels must be a list of strings, got {labels!r}")
        if labels != sorted(set(labels)):
            raise ModelFormatError(f"class_labels must be unique and sorted, got {labels}")
        parameters = {
            name: np.asarray(payload[key], dtype=np.float64)
            for name, key in _PARAMETER_KEYS[model_type].items()
        }
        trained = TrainedModel(
            model=LinearModel(class_labels=tuple(labels), trainer_tag=model_type, **parameters),
            vocabulary=_vocabulary_from_payload(payload["vocabulary"]),
            selector=selector,
            preprocess_config_digest=payload["preprocess_config_digest"],
            stage_seconds=dict.fromkeys(TRAIN_STAGES, 0.0),
            created_unix_seconds=int(payload["created_unix_seconds"]),
        )
        _check_loaded(trained)
        return trained
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid model file {path}: {exc}") from exc
