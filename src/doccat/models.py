"""Classifier training and prediction: multinomial NB, hinge-loss SGD, linear SVM.

All three classifiers reduce multiclass to one-vs-rest: one binary problem
per class label (labels sorted lexicographically), predicting by argmax of
the per-class decision scores with ties broken toward the lexicographically
smallest label.

* Naive Bayes uses Lidstone smoothing and accepts real-valued non-negative
  feature weights, so TF-IDF inputs are as valid as raw counts.
* The SGD trainer minimizes the L2-regularized mean hinge loss
  J(w, b) = (alpha/2) ||w||^2 + (1/n) sum max(0, 1 - y (w.x + b)) with the
  step schedule eta_t = 1 / (alpha (t0 + t)), t0 = 1/alpha, decaying across
  all updates. The bias is unregularized.
* The SVM trainer solves the L1-loss C-SVC dual by coordinate descent with
  the bias folded in as a constant-1 feature, visiting the examples in a
  seeded random permutation on every pass, and stopping when the largest
  projected-gradient violation falls below its tolerance.

The one-vs-rest subproblems are independent; each binary trainer runs
single-threaded over its examples. Trained models are immutable and safe
for concurrent prediction.
"""

from __future__ import annotations

import json
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
    SparseVector,
    Vocabulary,
    build_vocabulary,
    count_vector,
    select_chi_features,
    tfidf_vector,
    vectorize_corpus,
)
from .fileio import atomic_write_text
from .textprep import PreprocessConfig, TokenizedDocument, preprocess_corpus

MODEL_FORMAT_VERSION = 1

SVM_TOLERANCE = 1e-3
SVM_MAX_PASSES = 1000

SELECTORS = ("tfidf", "chi2")
CLASSIFIERS = ("nb", "sgd", "svm")

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
        if self.nb_alpha <= 0 or self.sgd_alpha <= 0 or self.svm_c <= 0:
            raise ValueError("nb_alpha, sgd_alpha, and svm_c must be positive")
        if self.sgd_epochs < 1:
            raise ValueError("sgd_epochs must be at least 1")
        if not 0.0 < self.chi_top_percent <= 100.0:
            raise ValueError("chi_top_percent must be in (0, 100]")


@dataclass
class NBModel:
    """Multinomial Naive Bayes parameters in log space."""

    class_labels: tuple[str, ...]
    log_prior: np.ndarray
    log_likelihood: np.ndarray  # shape (n_classes, vocab_size)
    vocab_size: int


@dataclass
class LinearModel:
    """One-vs-rest linear decision functions: score_c(x) = w_c . x + b_c."""

    class_labels: tuple[str, ...]
    weights: np.ndarray  # shape (n_classes, vocab_size)
    biases: np.ndarray  # shape (n_classes,)
    trainer_tag: Literal["sgd", "svm"]
    converged: bool = True
    fit_info: dict | None = field(default=None, compare=False)

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[1]


@dataclass
class TrainedModel:
    """A fitted classifier bundled with its feature space and pipeline identity."""

    model: NBModel | LinearModel
    vocabulary: Vocabulary
    feature_mode: Literal["tfidf", "counts"]
    selector: Selector
    preprocess_config_digest: str
    train_seconds: float
    created_unix_seconds: int

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.model.class_labels


def _check_training_data(X: Sequence[SparseVector], y: Sequence[str]) -> list[str]:
    if len(X) != len(y):
        raise LengthMismatchError(f"{len(X)} vectors but {len(y)} labels")
    if len(X) < 2:
        raise ValueError("training needs at least two examples")
    labels = sorted(set(y))
    if len(labels) < 2:
        raise SingleClassError("training corpus has one class")
    return labels


def _infer_feature_count(X: Sequence[SparseVector], n_features: int | None) -> int:
    if n_features is not None:
        if n_features < 1:
            raise ValueError("n_features must be positive")
        return n_features
    widest = max((vec.max_index() for vec in X), default=-1)
    if widest < 0:
        raise ValueError("cannot infer the feature count from empty vectors")
    return widest + 1


def _vector_arrays(vec: SparseVector) -> tuple[np.ndarray, np.ndarray]:
    if not vec.entries:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
    indices, values = zip(*vec.entries)
    return np.asarray(indices, dtype=np.intp), np.asarray(values, dtype=np.float64)


def _check_indices(x: SparseVector, vocab_size: int) -> None:
    if x.max_index() >= vocab_size:
        raise IndexError(
            f"vector index {x.max_index()} out of range for vocabulary of {vocab_size}"
        )


def train_nb(
    X: Sequence[SparseVector],
    y: Sequence[str],
    alpha: float,
    n_features: int | None = None,
) -> NBModel:
    """Fit multinomial NB with Lidstone smoothing `alpha`.

    Per class c and feature t: likelihood(c, t) = (W(c,t) + alpha) /
    (W(c) + alpha * V), where W sums feature weights over the class's
    vectors. Raises NegativeFeatureError on any negative weight and
    SingleClassError when fewer than two labels are present.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    labels = _check_training_data(X, y)
    vocab_size = _infer_feature_count(X, n_features)
    label_index = {label: i for i, label in enumerate(labels)}

    class_counts = np.zeros(len(labels))
    weight_sums = np.zeros((len(labels), vocab_size))
    for vec, label in zip(X, y):
        row = label_index[label]
        class_counts[row] += 1
        for index, weight in vec.entries:
            if weight < 0:
                raise NegativeFeatureError(f"negative feature weight {weight} at index {index}")
            if index >= vocab_size:
                raise IndexError(f"feature index {index} out of range for {vocab_size}")
            weight_sums[row, index] += weight

    log_prior = np.log(class_counts / len(y))
    totals = weight_sums.sum(axis=1, keepdims=True)
    log_likelihood = np.log((weight_sums + alpha) / (totals + alpha * vocab_size))
    return NBModel(
        class_labels=tuple(labels),
        log_prior=log_prior,
        log_likelihood=log_likelihood,
        vocab_size=vocab_size,
    )


def predict_nb(model: NBModel, x: SparseVector) -> tuple[str, dict[str, float]]:
    """Return (argmax label, per-class log-joint scores).

    The empty vector falls back to the prior argmax; exact score ties go to
    the lexicographically smallest label.
    """
    _check_indices(x, model.vocab_size)
    scores = model.log_prior.copy()
    if x.entries:
        indices, values = _vector_arrays(x)
        scores = scores + model.log_likelihood[:, indices] @ values
    best = int(np.argmax(scores))
    return model.class_labels[best], {
        label: float(score) for label, score in zip(model.class_labels, scores)
    }


def hinge_objective(
    X: Sequence[SparseVector],
    targets: Sequence[float],
    weights: np.ndarray,
    bias: float,
    alpha: float,
) -> float:
    """L2-regularized mean hinge loss of one binary problem."""
    total = 0.0
    for vec, target in zip(X, targets):
        score = sum(weights[index] * value for index, value in vec.entries) + bias
        total += max(0.0, 1.0 - target * score)
    return 0.5 * alpha * float(weights @ weights) + total / len(X)


def _hinge_objective_arrays(
    index_arrays: list[np.ndarray],
    value_arrays: list[np.ndarray],
    targets: np.ndarray,
    weights: np.ndarray,
    bias: float,
    alpha: float,
) -> float:
    total = 0.0
    for indices, values, target in zip(index_arrays, value_arrays, targets):
        margin = target * (float(weights[indices] @ values) + bias)
        total += max(0.0, 1.0 - margin)
    return 0.5 * alpha * float(weights @ weights) + total / len(targets)


def _sgd_binary(
    index_arrays: list[np.ndarray],
    value_arrays: list[np.ndarray],
    targets: np.ndarray,
    n_features: int,
    alpha: float,
    epochs: int,
    seed: int,
) -> tuple[np.ndarray, float, dict]:
    """One binary hinge-SGD problem with the 1/(alpha (t0 + t)) schedule.

    The weight vector is kept as scale * v so the per-step L2 decay is a
    single multiply and only the touched coordinates are updated.
    """
    n = len(targets)
    v = np.zeros(n_features)
    scale = 1.0
    bias = 0.0
    t0 = 1.0 / alpha
    step = 0
    rng = np.random.default_rng(seed)
    objective_epoch1 = 0.0

    for epoch in range(epochs):
        for i in rng.permutation(n):
            step += 1
            eta = 1.0 / (alpha * (t0 + step))
            indices = index_arrays[i]
            values = value_arrays[i]
            margin = targets[i] * (scale * float(v[indices] @ values) + bias)
            scale *= 1.0 - eta * alpha
            if scale < 1e-9:
                v *= scale
                scale = 1.0
            if margin < 1.0:
                v[indices] += (eta * targets[i] / scale) * values
                bias += eta * targets[i]
        if epoch == 0:
            objective_epoch1 = _hinge_objective_arrays(
                index_arrays, value_arrays, targets, scale * v, bias, alpha
            )

    weights = scale * v
    objective_final = _hinge_objective_arrays(
        index_arrays, value_arrays, targets, weights, bias, alpha
    )
    return weights, bias, {
        "objective_epoch1": objective_epoch1,
        "objective_final": objective_final,
    }


def train_sgd(
    X: Sequence[SparseVector],
    y: Sequence[str],
    hyper: TrainHyperparams,
    n_features: int | None = None,
) -> LinearModel:
    """Train one-vs-rest hinge-loss SGD classifiers.

    Every binary problem replays the same seeded shuffle sequence, so
    training is deterministic given (seed, corpus) and symmetric label
    swaps produce exactly mirrored weights.
    """
    labels = _check_training_data(X, y)
    vocab_size = _infer_feature_count(X, n_features)
    pairs = [_vector_arrays(vec) for vec in X]
    index_arrays = [pair[0] for pair in pairs]
    value_arrays = [pair[1] for pair in pairs]

    weights = np.zeros((len(labels), vocab_size))
    biases = np.zeros(len(labels))
    fit_info: dict = {}
    for row, label in enumerate(labels):
        targets = np.where(np.asarray(y) == label, 1.0, -1.0)
        weights[row], biases[row], fit_info[label] = _sgd_binary(
            index_arrays,
            value_arrays,
            targets,
            vocab_size,
            hyper.sgd_alpha,
            hyper.sgd_epochs,
            hyper.seed,
        )
    return LinearModel(
        class_labels=tuple(labels),
        weights=weights,
        biases=biases,
        trainer_tag="sgd",
        fit_info=fit_info,
    )


def _projected_gradient(gradient: float, alpha: float, c: float) -> float:
    """The dual gradient projected onto the box 0 <= alpha <= C."""
    if alpha <= 0.0:
        return min(gradient, 0.0)
    if alpha >= c:
        return max(gradient, 0.0)
    return gradient


def _svm_binary(
    index_arrays: list[np.ndarray],
    value_arrays: list[np.ndarray],
    targets: np.ndarray,
    n_features_augmented: int,
    c: float,
    tolerance: float,
    max_passes: int,
    seed: int,
) -> tuple[np.ndarray, dict]:
    """Dual coordinate descent for one L1-loss C-SVC binary problem.

    Each pass visits the examples in a fresh permutation drawn from a
    generator seeded with `seed` (Hsieh et al., ICML 2008), so corpora
    grouped by label converge and training is deterministic given (seed,
    corpus). The final vector's last coordinate is the bias term
    (constant-1 feature).
    """
    n = len(targets)
    alphas = np.zeros(n)
    w = np.zeros(n_features_augmented)
    q_diag = np.array([float(values @ values) for values in value_arrays])
    rng = np.random.default_rng(seed)

    def current_margins() -> np.ndarray:
        return np.array(
            [
                targets[i] * float(w[index_arrays[i]] @ value_arrays[i])
                for i in range(n)
            ]
        )

    converged = False
    violation = np.inf
    passes = 0
    for passes in range(1, max_passes + 1):
        sweep_violation = 0.0
        for i in rng.permutation(n):
            indices = index_arrays[i]
            values = value_arrays[i]
            gradient = targets[i] * float(w[indices] @ values) - 1.0
            a = alphas[i]
            projected = _projected_gradient(gradient, a, c)
            sweep_violation = max(sweep_violation, abs(projected))
            if projected != 0.0:
                updated = min(max(a - gradient / q_diag[i], 0.0), c)
                if updated != a:
                    alphas[i] = updated
                    w[indices] += (updated - a) * targets[i] * values
        violation = sweep_violation
        # Gradients measured mid-sweep go stale as later updates move w, so
        # confirm convergence against the final iterate before stopping.
        if sweep_violation < tolerance:
            violation = max(
                abs(_projected_gradient(m - 1.0, a, c))
                for m, a in zip(current_margins(), alphas)
            )
            if violation < tolerance:
                converged = True
                break

    margins = current_margins()
    dual_objective = float(alphas.sum() - 0.5 * (w @ w))
    primal_objective = float(0.5 * (w @ w) + c * np.maximum(0.0, 1.0 - margins).sum())
    return w, {
        "alphas": alphas,
        "margins": margins,
        "dual_objective": dual_objective,
        "primal_objective": primal_objective,
        "violation": violation,
        "passes": passes,
        "converged": converged,
    }


def train_svm(
    X: Sequence[SparseVector],
    y: Sequence[str],
    hyper: TrainHyperparams,
    n_features: int | None = None,
    tolerance: float = SVM_TOLERANCE,
    max_passes: int = SVM_MAX_PASSES,
) -> LinearModel:
    """Train one-vs-rest linear C-SVC classifiers by dual coordinate descent.

    Every binary problem replays the same permutation sequence seeded by
    `hyper.seed`, as `train_sgd` does, so training is deterministic given
    (seed, corpus). A problem that exhausts `max_passes` before reaching
    `tolerance` emits a ConvergenceWarning and marks the model, which is
    still returned.
    """
    labels = _check_training_data(X, y)
    vocab_size = _infer_feature_count(X, n_features)

    index_arrays = []
    value_arrays = []
    for vec in X:
        indices, values = _vector_arrays(vec)
        index_arrays.append(np.append(indices, vocab_size))  # constant-1 bias feature
        value_arrays.append(np.append(values, 1.0))

    weights = np.zeros((len(labels), vocab_size))
    biases = np.zeros(len(labels))
    fit_info: dict = {}
    all_converged = True
    for row, label in enumerate(labels):
        targets = np.where(np.asarray(y) == label, 1.0, -1.0)
        augmented, info = _svm_binary(
            index_arrays,
            value_arrays,
            targets,
            vocab_size + 1,
            hyper.svm_c,
            tolerance,
            max_passes,
            hyper.seed,
        )
        weights[row] = augmented[:vocab_size]
        biases[row] = augmented[vocab_size]
        fit_info[label] = info
        if not info["converged"]:
            all_converged = False
            warnings.warn(
                f"SVM problem for class {label!r} stopped after {info['passes']} passes "
                f"with violation {info['violation']:.3e}",
                ConvergenceWarning,
                stacklevel=2,
            )
    return LinearModel(
        class_labels=tuple(labels),
        weights=weights,
        biases=biases,
        trainer_tag="svm",
        converged=all_converged,
        fit_info=fit_info,
    )


def predict_linear(model: LinearModel, x: SparseVector) -> tuple[str, dict[str, float]]:
    """Return (argmax label, per-class decision scores); ties go to the
    lexicographically smallest label. The empty vector scores the biases."""
    _check_indices(x, model.vocab_size)
    scores = model.biases.copy()
    if x.entries:
        indices, values = _vector_arrays(x)
        scores = scores + model.weights[:, indices] @ values
    best = int(np.argmax(scores))
    return model.class_labels[best], {
        label: float(score) for label, score in zip(model.class_labels, scores)
    }


def train_from_tokens(
    docs: Sequence[TokenizedDocument],
    selector: Selector,
    classifier: Classifier,
    hyper: TrainHyperparams,
    preprocess_config_digest: str,
    created_unix_seconds: int | None = None,
) -> TrainedModel:
    """Build the feature space and fit one classifier on preprocessed docs.

    `train_seconds` covers feature building plus classifier fitting, which
    is the method-specific work the benchmark compares.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector: {selector!r} (expected one of {SELECTORS})")
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier: {classifier!r} (expected one of {CLASSIFIERS})")
    labels = [doc.label for doc in docs]
    if any(label is None for label in labels):
        raise ValueError("training documents must carry labels")

    started = time.perf_counter()
    if selector == "tfidf":
        vocabulary = build_vocabulary(docs)
        feature_mode: Literal["tfidf", "counts"] = "tfidf"
    else:
        vocabulary = select_chi_features(docs, hyper.chi_top_percent, hyper.chi_g_top_k)
        feature_mode = "counts"
    X = vectorize_corpus(docs, vocabulary, feature_mode)

    if classifier == "nb":
        model: NBModel | LinearModel = train_nb(X, labels, hyper.nb_alpha, len(vocabulary))
    elif classifier == "sgd":
        model = train_sgd(X, labels, hyper, len(vocabulary))
    else:
        model = train_svm(X, labels, hyper, len(vocabulary))
    train_seconds = time.perf_counter() - started

    if created_unix_seconds is None:
        created_unix_seconds = int(time.time())
    return TrainedModel(
        model=model,
        vocabulary=vocabulary,
        feature_mode=feature_mode,
        selector=selector,
        preprocess_config_digest=preprocess_config_digest,
        train_seconds=train_seconds,
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


def vectorize_for_model(trained: TrainedModel, doc: TokenizedDocument) -> SparseVector:
    """Vectorize a preprocessed document in the model's stored feature space."""
    if trained.feature_mode == "tfidf":
        return tfidf_vector(doc, trained.vocabulary)
    return count_vector(doc, trained.vocabulary)


def predict_tokenized(
    trained: TrainedModel, doc: TokenizedDocument
) -> tuple[str, float, dict[str, float]]:
    """Predict one preprocessed document: (label, winning score, all scores)."""
    vector = vectorize_for_model(trained, doc)
    if isinstance(trained.model, NBModel):
        label, scores = predict_nb(trained.model, vector)
    else:
        label, scores = predict_linear(trained.model, vector)
    return label, scores[label], scores


def _vocabulary_to_payload(vocab: Vocabulary) -> dict:
    ordered = sorted(vocab.terms.items(), key=lambda item: item[1])
    return {
        "n_docs": vocab.n_docs,
        "terms": [[term, index, vocab.doc_freq[term]] for term, index in ordered],
    }


def _vocabulary_from_payload(payload: dict) -> Vocabulary:
    terms = {term: int(index) for term, index, _ in payload["terms"]}
    doc_freq = {term: int(df) for term, _, df in payload["terms"]}
    return Vocabulary(terms=terms, doc_freq=doc_freq, n_docs=int(payload["n_docs"]))


def model_to_dict(trained: TrainedModel) -> dict:
    """The model-file payload; floats round-trip exactly through JSON."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "created_unix_seconds": trained.created_unix_seconds,
        "feature_mode": trained.feature_mode,
        "selector": trained.selector,
        "preprocess_config_digest": trained.preprocess_config_digest,
        "vocabulary": _vocabulary_to_payload(trained.vocabulary),
        "model_type": "nb" if isinstance(trained.model, NBModel) else trained.model.trainer_tag,
        "class_labels": list(trained.model.class_labels),
    }
    if isinstance(trained.model, NBModel):
        payload["log_prior"] = trained.model.log_prior.tolist()
        payload["log_likelihood"] = trained.model.log_likelihood.tolist()
    else:
        payload["weights"] = trained.model.weights.tolist()
        payload["biases"] = trained.model.biases.tolist()
    return payload


def save_model(trained: TrainedModel, path: str | Path) -> None:
    """Write the model as one UTF-8 JSON document (atomic replace)."""
    atomic_write_text(path, json.dumps(model_to_dict(trained), ensure_ascii=False))


def load_model(path: str | Path) -> TrainedModel:
    """Load a model file; raises ModelFormatError on any schema problem."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"invalid model file {path}: {exc}") from exc
    try:
        if payload["format_version"] != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format version {payload['format_version']!r}"
            )
        vocabulary = _vocabulary_from_payload(payload["vocabulary"])
        class_labels = tuple(payload["class_labels"])
        model_type = payload["model_type"]
        if model_type == "nb":
            model: NBModel | LinearModel = NBModel(
                class_labels=class_labels,
                log_prior=np.asarray(payload["log_prior"], dtype=np.float64),
                log_likelihood=np.asarray(payload["log_likelihood"], dtype=np.float64),
                vocab_size=len(vocabulary),
            )
        elif model_type in ("sgd", "svm"):
            model = LinearModel(
                class_labels=class_labels,
                weights=np.asarray(payload["weights"], dtype=np.float64),
                biases=np.asarray(payload["biases"], dtype=np.float64),
                trainer_tag=model_type,
            )
        else:
            raise ModelFormatError(f"unknown model type {model_type!r}")
        return TrainedModel(
            model=model,
            vocabulary=vocabulary,
            feature_mode=payload["feature_mode"],
            selector=payload["selector"],
            preprocess_config_digest=payload["preprocess_config_digest"],
            train_seconds=0.0,
            created_unix_seconds=int(payload["created_unix_seconds"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid model file {path}: {exc}") from exc
